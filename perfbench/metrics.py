"""Metric computation from runs and traces.

The metric names, their order and units are the ones ``BENCHMARK.json``
declares; this module reads them from there.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

from perfbench.calibration import REFERENCE_S
from perfbench.tracer import self_times

_DECLARED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
#: ``(name, unit)`` of each end-to-end and each per-layer metric.
END_TO_END = tuple((metric["name"], metric["unit"]) for metric in _DECLARED["end_to_end"])
PER_LAYER = tuple((metric["name"], metric["unit"]) for metric in _DECLARED["per_layer"])

#: Layer self time per run: metric name -> span name.
SELF_TIME = {
    "controller.init.s": "controller.init",
    "controller.step_round.s": "controller.step_round",
    "controller.finalize.s": "controller.finalize",
    "cluster.ask.s": "cluster.ask",
    "cluster.tell.s": "cluster.tell",
    "monitor.report.s": "monitor.report",
    "scheduler.run_round.s": "scheduler.run_round",
    "estimator.convert.s": "estimator.convert",
    "postprocess.select_best_states.s": "postprocess.select_best_states",
    "baseline.step.s": "baseline.step",
    "estimator.estimate.s": "estimator.estimate",
    "statevector.evolve.s": "statevector.evolve",
    "reference.ground_state.s": "reference.ground_state",
    "reference.to_matrix.s": "reference.to_matrix",
    "backend.run_batch.s": "backend.run_batch",
    "program.execute.s": "program.execute",
    "engine.expectation_values.s": "engine.expectation_values",
    "engine.compile.s": "engine.compile",
    "measurement.term_matrix.s": "measurement.term_matrix",
    "parallel.run_batch.s": "parallel.run_batch",
    "transport.send.s": "transport.send",
    "transport.recv.s": "transport.recv",
    "service.submit.s": "service.submit",
    "service.round_dispatch.s": "service.round_dispatch",
    "inputs.build.s": "inputs.build",
}

#: Counts per run, recorded by the wrappers (parent and pool workers).
COUNTS = (
    "cluster.splits.n",
    "postprocess.states.n",
    "statevector.evolve.n",
    "reference.ground_state.n",
    "backend.requests.n",
    "program.rows.n",
    "program.gate_passes.n",
    "program.bytes_computed",
    "engine.terms.n",
)

#: Counts per run read from the pool's ``worker_cache_stats()``.
POOL_COUNTS = {
    "parallel.shards.n": "shards_dispatched",
    "parallel.states_shipped.n": "states_shipped",
    "parallel.shard_retries.n": "shard_retries",
    "parallel.worker_respawns.n": "worker_respawns",
    "parallel.fallback_shards.n": "fallback_shards",
}


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(records, calibrations, *, attempted, failed, peak_rss_mb) -> dict:
    """End-to-end metric values: medians over the invocation's timed runs.

    ``calibrations`` holds, per record, the host calibration before and
    after the run (``calibration.host_seconds``).  Timings are scaled to the
    reference host speed.  Set-up is a burst of a few milliseconds at the
    start of its run, so it is scaled by the calibration just before it.  A
    run spans seconds in which the host changes speed several times, which
    two calibrations sample too sparsely; run timings are scaled by the
    median calibration of the whole invocation instead.
    """
    run_scale = REFERENCE_S / statistics.median(
        seconds for pair in calibrations for seconds in pair
    )
    gaps_ms = [1e3 * run_scale * gap for record in records for gap in record.update_gaps]
    shots = [record.shots_to_target for record in records if record.shots_to_target]
    return {
        "run_s": run_scale * statistics.median(record.run_s for record in records),
        "setup_s": statistics.median(
            record.setup_s * REFERENCE_S / before
            for record, (before, _) in zip(records, calibrations)
        ),
        "evals_per_s": statistics.median(
            record.evaluations / record.run_s for record in records
        ) / run_scale,
        "update_ms_p50": percentile(gaps_ms, 50),
        "update_ms_p90": percentile(gaps_ms, 90),
        "shots_to_target": statistics.median(shots) if shots else 0,
        "fidelity_min": statistics.median(record.fidelity_min for record in records),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }


def _cache_delta(before: dict, after: dict) -> tuple[float, float]:
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits, lookups


def traced_run_layers(run) -> dict[str, float]:
    """Per-layer values of one traced run (``run`` is a ``TracedRun``)."""
    spans_self = self_times(run.spans)
    for name, value in run.worker_self.items():
        spans_self[name] = spans_self.get(name, 0.0) + value
    counts = dict(run.counts)
    # The scheduler's requests per backend dispatch is a parent-side ratio:
    # pool workers' own dispatches are shards, counted separately.
    requests = counts.get("backend.requests.n", 0) + counts.get("parallel.requests.n", 0)
    dispatches = counts.get("dispatch.n", 0)
    for name, value in run.worker_counts.items():
        counts[name] = counts.get(name, 0) + value
    values = {metric: spans_self.get(span, 0.0) for metric, span in SELF_TIME.items()}
    values.update({name: counts.get(name, 0) for name in COUNTS})
    values["_requests"] = requests
    values["_dispatches"] = dispatches
    for prefix, key in (("program.cache", "program"), ("measurement.plan_cache", "plans")):
        hits, lookups = _cache_delta(run.caches_before[key], run.caches_after[key])
        values[f"_{prefix}.hits"] = hits
        values[f"{prefix}.lookups.n"] = lookups
    pool = run.record.pool or {}
    for name, key in POOL_COUNTS.items():
        values[name] = pool.get(key, 0)
    values["parallel.worker_busy.s"] = sum(
        worker["latency_s"] for worker in pool.get("per_worker", ())
    )
    queue_wait = 0.0
    for job_id, gaps in run.record.tenant_gaps.items():
        for gap, dispatch in zip(gaps, run.dispatches.get(job_id, ())):
            queue_wait += max(gap - dispatch, 0.0)
    values["service.queue_wait.s"] = queue_wait
    return values


def per_layer(traced_runs, untraced_records, untraced_cpu) -> dict:
    """Per-layer metric values: per-run means over the traced runs."""
    rows = [traced_run_layers(run) for run in traced_runs]
    totals: dict[str, float] = {}
    for row in rows:
        for name, value in row.items():
            totals[name] = totals.get(name, 0.0) + value
    count = len(rows)
    values = {
        name: total / count for name, total in totals.items() if not name.startswith("_")
    }
    values["scheduler.requests_per_dispatch"] = _ratio(
        totals["_requests"], totals["_dispatches"]
    )
    for prefix in ("program.cache", "measurement.plan_cache"):
        values[f"{prefix}.hit_ratio"] = _ratio(
            totals[f"_{prefix}.hits"], totals[f"{prefix}.lookups.n"]
        )
    cpu = [cpu_s for cpu_s, _ in untraced_cpu]
    values["process.cpu_s"] = statistics.median(cpu)
    values["process.cpu_per_wall"] = statistics.median(
        cpu_s / wall_s for cpu_s, wall_s in untraced_cpu
    )
    values["tracing.overhead_ratio"] = statistics.median(
        run.record.run_s for run in traced_runs
    ) / statistics.median(record.run_s for record in untraced_records)
    return values


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
