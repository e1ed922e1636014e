"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lih_scan --seed 1 --seconds 30 --trace 0

The workload's inputs come from ``--seed``.  One untimed warm-up run fills
the caches, fixes the reference outputs for the repeatability check and
runs the once-per-invocation checks; timed runs then repeat for
``--seconds``, each bracketed by a host-speed calibration
(``perfbench/calibration.py``) by which the timings are scaled to the
reference speed.  With ``--trace 0`` the last line of standard output is the
end-to-end metrics; with ``--trace 1`` untraced and traced runs alternate
and it is the per-layer metrics, taken from the traced runs.  The line
before it is the full record: environment fingerprint, every run's unscaled
timings with the calibrations around it, and any failed checks.  A failed
check sets ``"correct": false`` and the exit code to 1.  Records and spans
are also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_RUNS = 3


@dataclass
class TracedRun:
    record: object
    spans: list
    counts: dict
    worker_self: dict
    worker_counts: dict
    dispatches: dict
    caches_before: dict
    caches_after: dict


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, label: str, failures: list[str]) -> bool:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(f"{label}: {failure}" for failure in failures)
        return not failures


def _cache_stats() -> dict:
    from repro.quantum.measurement import measurement_plan_cache_stats
    from repro.quantum.program import program_cache_stats

    return {"program": program_cache_stats(), "plans": measurement_plan_cache_stats()}


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def _parse(argv: list[str] | None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    load_average = os.getloadavg()
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT))
    from perfbench.envinfo import fingerprint, pin_blas_threads

    # Before numpy loads: the deployment setting is one BLAS thread per
    # process, and forked pool workers inherit it.
    threads = pin_blas_threads()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))

    from perfbench import metrics, workloads
    from perfbench.calibration import host_seconds
    from perfbench.tracer import Tracer, install_layers, read_worker_totals

    args = _parse(argv)
    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    outcome = Outcome()
    reference = None

    def attempt(label: str, tracer=None):
        # Collect the previous run's garbage outside the timed region, so a
        # collection it triggers is not charged to this run.
        gc.collect()
        before = host_seconds()
        cpu, wall = _cpu_seconds(), time.perf_counter()
        try:
            record = workload.execute(args.seed, tracer)
        except Exception:
            outcome.check(label, [traceback.format_exc()])
            return None
        cpu, wall = _cpu_seconds() - cpu, time.perf_counter() - wall
        after = host_seconds()
        per_run.append({
            "run_s": record.run_s,
            "setup_s": record.setup_s,
            "cpu_s": cpu,
            "wall_s": wall,
            "host_s": [before, after],
        })
        failures = list(record.failures)
        if reference is not None and record.digest != reference.digest:
            failures.append("energies, shots or trajectories differ from the first run")
        outcome.check(label, failures)
        return record

    per_run: list[dict] = []
    reference = attempt("warm-up")
    if reference is not None and reference.served is not None:
        outcome.check("solo", workloads.solo_failures(args.seed, reference.served))
        outcome.check("oracle", workloads.oracle_failures())

    records = []
    calibrations = []
    traced: list[TracedRun] = []
    untraced_cpu = []
    tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    index = 0
    min_runs = 2 * MIN_RUNS if args.trace else MIN_RUNS
    while index < min_runs or time.perf_counter() < deadline:
        index += 1
        traced_run = bool(args.trace) and index % 2 == 0
        if not traced_run:
            record = attempt(f"run {index}")
            if record is not None:
                untraced_cpu.append((per_run[-1]["cpu_s"], per_run[-1]["wall_s"]))
                calibrations.append(per_run[-1]["host_s"])
                records.append(record)
            continue
        worker_dir = OUT_DIR / "workers"
        worker_dir.mkdir(exist_ok=True)
        tracer.run = index
        tracer.counts.clear()
        tracer.dispatches.clear()
        caches_before = _cache_stats()
        install_layers(tracer, str(worker_dir))
        try:
            record = attempt(f"run {index} (traced)", tracer)
        finally:
            tracer.uninstall()
        worker_self, worker_counts = read_worker_totals(str(worker_dir))
        if record is not None:
            traced.append(
                TracedRun(
                    record=record,
                    spans=tracer.run_spans(index),
                    counts=dict(tracer.counts),
                    worker_self=worker_self,
                    worker_counts=worker_counts,
                    dispatches={job: list(d) for job, d in tracer.dispatches.items()},
                    caches_before=caches_before,
                    caches_after=_cache_stats(),
                )
            )

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": {}}
    if records and (traced or not args.trace):
        if args.trace:
            values = metrics.per_layer(traced, records, untraced_cpu)
            units = metrics.PER_LAYER
        else:
            values = metrics.end_to_end(
                records,
                calibrations,
                attempted=outcome.attempted,
                failed=outcome.failed,
                peak_rss_mb=peak_rss_mb,
            )
            units = metrics.END_TO_END
        result["metrics"] = {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units
        }
    else:
        result["correct"] = False

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full_record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": fingerprint(
            threads, load_average, reference.start_method if reference else None
        ),
        "wall_s": time.perf_counter() - started,
        "samples": {
            "runs": len(records),
            "traced_runs": len(traced),
            "updates": sum(len(record.update_gaps) for record in records),
            # Every run, warm-up and traced ones included, unscaled, with
            # the host calibration (s per kernel call) before and after it.
            "per_run": per_run,
        },
        "failures": outcome.failures,
        "result": result,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(full_record, indent=1))
    if traced:
        tracer.dump(str(OUT_DIR / f"{stem}-spans.jsonl"))
    print(json.dumps({"record": full_record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
