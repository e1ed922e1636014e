"""The benchmark's workloads: seeded inputs, one application run, checks.

Each workload turns ``--seed`` into its inputs and runs them through the
public ``repro`` entry points exactly as a user would.  ``execute`` performs
one application run and returns a :class:`RunRecord` with its timings and
outputs.  Output checks that need only one run live here too; checks across
runs are the harness's.

* ``lih_scan`` — the paper's chemistry application through TreeVQA, driven
  round by round with ``step_round``/``finalize``.
* ``lih_baseline`` — the same inputs through the independent baseline.
* ``tfim12_service`` — four tenants on one :class:`TreeVQAService` with a
  2-worker pool: the only workload that crosses service, dispatcher,
  parallel backend, transport and measurement plans.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.ansatz import HardwareEfficientAnsatz
from repro.core import IndependentVQABaseline, TreeVQAConfig, TreeVQAController, VQATask
from repro.hamiltonians import MolecularFamily, get_molecule, transverse_field_ising_chain
from repro.quantum.exact import ground_state
from repro.service import TreeVQAService

# -- LiH scan inputs ---------------------------------------------------------------

LIH_FIRST_BOND = 1.40
LIH_BOND_STEP = 0.03
LIH_POINTS = 10
#: Seeded jitter of each bond length (Å).  Small against the step, so every
#: seed runs the same shape of work on different Hamiltonians.
LIH_JITTER = 0.004
LIH_LAYERS = 2
#: S_max of the TreeVQA scan.
LIH_SCAN_SHOTS = 800_000_000
#: S_max of the baseline, split equally over the tasks.  Lower than the
#: scan's: the baseline's fidelity is flat in its budget (it reaches about
#: 0.6 at 1.2e9 shots as at 2.5e8), so a larger budget only adds time.
LIH_BASELINE_SHOTS = 250_000_000
LIH_SCAN_TARGET = 0.8
LIH_BASELINE_TARGET = 0.578

# -- TFIM service inputs ---------------------------------------------------------

TFIM_SITES = 12
TFIM_TASKS = 8
TFIM_LAYERS = 3
TFIM_ROUNDS = 30
TFIM_WORKERS = 2
TENANTS = 4
#: The tenant that runs on the sampling estimator (the others are exact).
SAMPLING_TENANT = 3
SAMPLING_SHOTS_PER_TERM = 1024
#: The sampling tenant splits at this iteration instead of on the slope
#: test: its shot noise would otherwise move the split from seed to seed and
#: with it the amount of work in a run (162 to 222 evaluations over seeds
#: 1-10, against a fixed 60, 60 and 88 for the exact tenants).
SAMPLING_SPLIT_ITERATION = 8
#: Tenant k scans fields [low_k, low_k + width] with low_k = first + k * gap
#: + a seeded offset below ``TFIM_OFFSET``; the windows never overlap.
TFIM_FIRST_FIELD = 0.25
TFIM_WINDOW_GAP = 0.13
TFIM_WINDOW_WIDTH = 0.10
TFIM_OFFSET = 0.02
#: Fidelity target of the exact tenants.  The sampling tenant's trajectory
#: is an estimate with shot noise, so when it first crosses a target varies
#: from seed to seed by several rounds; it is left out of shots_to_target.
TFIM_TARGET = 0.85

#: Relative slack of the variational-bound check (round-off only).
VARIATIONAL_RTOL = 1e-9
#: (sites, field) pairs at which the closed-form TFIM energy is checked
#: against dense diagonalisation, on both sides of the transition at h = 1.
#: Building the dense 10-site matrix takes over 2 s, so it is checked once.
ORACLE_POINTS = ((6, 0.5), (6, 1.3), (8, 0.5), (8, 1.3), (10, 1.3))
ORACLE_ATOL = 1e-9


@dataclass
class RunRecord:
    """Timings and outputs of one application run."""

    setup_s: float
    run_s: float
    evaluations: int
    #: Gaps (s) between successive progress updates; the run start counts as
    #: update zero.  Only the service streams updates; a LiH user sees one,
    #: the result, so there the single gap is the run time.
    update_gaps: list[float]
    shots_to_target: int | None
    fidelity_min: float
    digest: str
    failures: list[str] = field(default_factory=list)
    #: Service runs: per job, the update gaps (queue-wait tracing) ...
    tenant_gaps: dict[str, list[float]] = field(default_factory=dict)
    #: ... the pool's statistics at the end of the run ...
    pool: dict | None = None
    #: ... the start method of the pool's worker processes ...
    start_method: str | None = None
    #: ... and the first tenant's served updates and result (solo check).
    served: tuple | None = None


def result_digest(outcomes, total_shots: int, trajectories) -> str:
    """Bit-exact fingerprint of energies, shots and trajectories."""
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(f"{outcome.task_name}={float(outcome.energy).hex()};".encode())
    digest.update(f"shots={int(total_shots)};".encode())
    for name in sorted(trajectories):
        trajectory = trajectories[name]
        digest.update(name.encode())
        digest.update(np.asarray(trajectory.cumulative_shots, dtype=np.int64).tobytes())
        digest.update(np.asarray(trajectory.energies, dtype=float).tobytes())
    return digest.hexdigest()


def variational_failures(outcomes) -> list[str]:
    """Final energies below their exact reference break the variational bound."""
    failures = []
    for outcome in outcomes:
        reference = outcome.task.exact_ground_energy()
        if outcome.energy < reference - VARIATIONAL_RTOL * max(1.0, abs(reference)):
            failures.append(
                f"{outcome.task_name}: energy {outcome.energy!r} below the exact "
                f"ground energy {reference!r}"
            )
    return failures


def _target_failure(shots: int | None, target: float) -> list[str]:
    if shots is None:
        return [f"fidelity target {target} not reached by every task"]
    return []


# -- LiH ---------------------------------------------------------------------------


def lih_inputs(seed: int) -> tuple[list[VQATask], HardwareEfficientAnsatz]:
    """Ten LiH tasks at seeded, jittered bond lengths, sharing the HF start."""
    rng = np.random.default_rng(seed)
    family = MolecularFamily(get_molecule("LiH"))
    bitstring = family.hartree_fock_bitstring()
    lengths = (
        LIH_FIRST_BOND
        + LIH_BOND_STEP * np.arange(LIH_POINTS)
        + rng.uniform(-LIH_JITTER, LIH_JITTER, LIH_POINTS)
    )
    tasks = [
        VQATask(
            name=f"LiH@{length:.6f}",
            hamiltonian=family.hamiltonian(float(length)),
            scan_parameter=float(length),
            initial_bitstring=bitstring,
        )
        for length in lengths
    ]
    return tasks, HardwareEfficientAnsatz(family.num_qubits, num_layers=LIH_LAYERS)


def lih_config(max_total_shots: int) -> TreeVQAConfig:
    return TreeVQAConfig(
        max_total_shots=max_total_shots,
        max_rounds=100_000,
        warmup_iterations=12,
        window_size=6,
        epsilon_split=1.5e-3,
        optimizer_kwargs={"learning_rate": 0.35, "perturbation": 0.15},
        seed=2,
    )


def _lih_scan_setup(seed: int) -> TreeVQAController:
    tasks, ansatz = lih_inputs(seed)
    return TreeVQAController(tasks, ansatz, lih_config(LIH_SCAN_SHOTS))


def lih_scan_execute(seed: int, tracer=None) -> RunRecord:
    start = time.perf_counter()
    controller = _traced(tracer, _lih_scan_setup, seed)
    run_start = time.perf_counter()
    try:
        while controller.step_round() is not None:
            pass
        result = controller.finalize()
    finally:
        controller.close()
    run_end = time.perf_counter()
    shots = result.shots_to_reach_fidelity(LIH_SCAN_TARGET)
    return RunRecord(
        setup_s=run_start - start,
        run_s=run_end - run_start,
        evaluations=controller.estimator.total_evaluations,
        update_gaps=[run_end - run_start],
        shots_to_target=shots,
        fidelity_min=min(outcome.fidelity for outcome in result.outcomes),
        digest=result_digest(result.outcomes, result.total_shots, result.trajectories),
        failures=variational_failures(result.outcomes)
        + _target_failure(shots, LIH_SCAN_TARGET),
    )


def _lih_baseline_setup(seed: int) -> IndependentVQABaseline:
    tasks, ansatz = lih_inputs(seed)
    return IndependentVQABaseline(tasks, ansatz, lih_config(LIH_BASELINE_SHOTS))


def lih_baseline_execute(seed: int, tracer=None) -> RunRecord:
    start = time.perf_counter()
    baseline = _traced(tracer, _lih_baseline_setup, seed)
    run_start = time.perf_counter()
    result = baseline.run()
    run_end = time.perf_counter()
    shots = result.shots_to_reach_fidelity(LIH_BASELINE_TARGET)
    return RunRecord(
        setup_s=run_start - start,
        run_s=run_end - run_start,
        evaluations=baseline.estimator.total_evaluations,
        update_gaps=[run_end - run_start],
        shots_to_target=shots,
        fidelity_min=min(outcome.fidelity for outcome in result.outcomes),
        digest=result_digest(result.outcomes, result.total_shots, result.trajectories),
        failures=variational_failures(result.outcomes)
        + _target_failure(shots, LIH_BASELINE_TARGET),
    )


# -- TFIM service ------------------------------------------------------------------


def tfim_ground_energy(num_sites: int, field_strength: float, coupling: float = 1.0) -> float:
    """Closed-form ground energy of the open transverse-field Ising chain.

    ``H = -J sum Z_i Z_{i+1} - h sum X_i`` maps to free fermions whose
    single-particle energies are twice the singular values of the bidiagonal
    matrix with ``h`` on the diagonal and ``J`` above it; the ground energy
    is minus their sum.
    """
    matrix = np.diag(np.full(num_sites, field_strength)) + np.diag(
        np.full(num_sites - 1, coupling), 1
    )
    return -float(np.linalg.svd(matrix, compute_uv=False).sum())


def oracle_failures() -> list[str]:
    """The closed-form TFIM energy must match dense diagonalisation."""
    failures = []
    for sites, field_strength in ORACLE_POINTS:
        closed = tfim_ground_energy(sites, field_strength)
        exact = ground_state(transverse_field_ising_chain(sites, field_strength)).energy
        if abs(closed - exact) > ORACLE_ATOL:
            failures.append(
                f"closed-form TFIM energy {closed!r} != exact {exact!r} "
                f"at {sites} sites, h={field_strength}"
            )
    return failures


def tfim_inputs(
    seed: int,
) -> tuple[list[tuple[str, list[VQATask], TreeVQAConfig]], HardwareEfficientAnsatz]:
    """Four tenants' jobs over disjoint seeded field windows, and the ansatz."""
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(0.0, TFIM_OFFSET, TENANTS)
    tenants = []
    for index in range(TENANTS):
        low = TFIM_FIRST_FIELD + TFIM_WINDOW_GAP * index + offsets[index]
        fields = low + np.linspace(0.0, TFIM_WINDOW_WIDTH, TFIM_TASKS)
        job_id = f"tenant{index}"
        tasks = [
            VQATask(
                name=f"{job_id}@h={h:.6f}",
                hamiltonian=transverse_field_ising_chain(TFIM_SITES, float(h)),
                scan_parameter=float(h),
                reference_energy=tfim_ground_energy(TFIM_SITES, float(h)),
            )
            for h in fields
        ]
        sampling = index == SAMPLING_TENANT
        config = TreeVQAConfig(
            max_rounds=TFIM_ROUNDS,
            warmup_iterations=6,
            window_size=4,
            epsilon_split=2e-3,
            optimizer_kwargs={"learning_rate": 0.05, "perturbation": 0.1},
            estimator="sampling" if sampling else "exact",
            shots_per_pauli_term=SAMPLING_SHOTS_PER_TERM if sampling else 4096,
            forced_split_iteration=SAMPLING_SPLIT_ITERATION if sampling else None,
            seed=100 + index,
        )
        tenants.append((job_id, tasks, config))
    return tenants, HardwareEfficientAnsatz(TFIM_SITES, num_layers=TFIM_LAYERS)


async def _tenant(service, job_id, tasks, ansatz, config, run_start):
    job = await service.submit(tasks, ansatz, config, job_id=job_id)
    submitted = time.perf_counter()
    gaps = []
    losses = []
    last = run_start
    async for update in job.updates:
        now = time.perf_counter()
        gaps.append(now - last)
        last = now
        losses.append(update.individual_losses)
    result = await job.result()
    return job, submitted, gaps, losses, result


async def _service_run(seed: int, tracer) -> RunRecord:
    start = time.perf_counter()
    tenants, ansatz = _traced(tracer, tfim_inputs, seed)
    service = TreeVQAService(workers=TFIM_WORKERS)
    try:
        run_start = time.perf_counter()
        served = await asyncio.gather(
            *(
                _tenant(service, job_id, tasks, ansatz, config, run_start)
                for job_id, tasks, config in tenants
            )
        )
        run_end = time.perf_counter()
        pool = service.stats()["backend_pool"]
        start_methods = {
            process._start_method for process in multiprocessing.active_children()
        }
    finally:
        await service.aclose()
    outcomes = [outcome for *_, result in served for outcome in result.outcomes]
    per_job = [
        result.shots_to_reach_fidelity(TFIM_TARGET)
        for index, (*_, result) in enumerate(served)
        if index != SAMPLING_TENANT
    ]
    shots = None if None in per_job else sum(per_job)
    digest = hashlib.sha256()
    for *_, result in served:
        digest.update(
            result_digest(result.outcomes, result.total_shots, result.trajectories).encode()
        )
    _, _, _, first_losses, first_result = served[0]
    return RunRecord(
        setup_s=max(submitted for _, submitted, *_ in served) - start,
        run_s=run_end - run_start,
        evaluations=sum(job.controller.estimator.total_evaluations for job, *_ in served),
        update_gaps=[gap for _, _, gaps, *_ in served for gap in gaps],
        shots_to_target=shots,
        fidelity_min=min(outcome.fidelity for outcome in outcomes),
        digest=digest.hexdigest(),
        failures=variational_failures(outcomes) + _target_failure(shots, TFIM_TARGET),
        tenant_gaps={job.job_id: gaps for job, _, gaps, *_ in served},
        pool=pool,
        start_method=",".join(sorted(map(str, start_methods))),
        served=(first_losses, first_result),
    )


def tfim12_service_execute(seed: int, tracer=None) -> RunRecord:
    return asyncio.run(_service_run(seed, tracer))


def solo_failures(seed: int, served: tuple) -> list[str]:
    """The first tenant's served run must equal a solo in-process run."""
    served_losses, served_result = served
    tenants, ansatz = tfim_inputs(seed)
    _, tasks, config = tenants[0]
    controller = TreeVQAController(tasks, ansatz, config)
    losses = []
    try:
        while (snapshot := controller.step_round()) is not None:
            losses.append(snapshot.individual_losses)
        result = controller.finalize()
    finally:
        controller.close()
    failures = []
    if losses != served_losses:
        failures.append("served round updates differ from a solo controller run")
    solo = result_digest(result.outcomes, result.total_shots, result.trajectories)
    served_digest = result_digest(
        served_result.outcomes, served_result.total_shots, served_result.trajectories
    )
    if solo != served_digest:
        failures.append("served energies or trajectories differ from a solo controller run")
    return failures


def _traced(tracer, build, seed):
    """Input generation (and construction), as span ``inputs.build`` when traced."""
    if tracer is None:
        return build(seed)
    with tracer.span("inputs.build"):
        return build(seed)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``execute(seed, tracer=None)``: one application run.
    execute: Callable[..., RunRecord]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "lih_scan",
            "the paper's chemistry scan through TreeVQA: many rounds of small "
            "batches, so controller, cluster, scheduler and reference layers show",
            lih_scan_execute,
        ),
        Workload(
            "lih_baseline",
            "the same LiH inputs through the independent baseline's per-request "
            "path, which bypasses scheduler, backend and program",
            lih_baseline_execute,
        ),
        Workload(
            "tfim12_service",
            "four 12-qubit tenants on one service and 2-worker pool: service, "
            "dispatcher, parallel backend, transport and sampling plans",
            tfim12_service_execute,
        ),
    )
}
