"""Tests of the benchmark itself: tracer arithmetic, metric table, inputs."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from perfbench import metrics, workloads
from perfbench.calibration import REFERENCE_S
from perfbench.tracer import Span, Tracer, install_layers, self_times

ROOT = Path(__file__).resolve().parent.parent


def _span(span_id, name, start, end, parent=None):
    return Span(span_id, name, start, end, parent, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, "parent", 0, 100_000_000),
        # Overlapping children (another thread) count once: 10..50.
        _span(2, "child", 10_000_000, 30_000_000, parent=1),
        _span(3, "child", 20_000_000, 50_000_000, parent=1),
        _span(4, "child", 60_000_000, 70_000_000, parent=1),
        _span(5, "grandchild", 62_000_000, 66_000_000, parent=4),
    ]
    times = self_times(spans)
    assert np.isclose(times["parent"], 0.050)
    assert np.isclose(times["child"], 0.020 + 0.030 + 0.006)
    assert np.isclose(times["grandchild"], 0.004)


def test_self_time_clips_children_to_the_parent_interval():
    spans = [
        _span(1, "dispatch", 0, 10_000_000),
        _span(2, "step", 5_000_000, 15_000_000, parent=1),
    ]
    assert np.isclose(self_times(spans)["dispatch"], 0.005)


def test_tracer_records_nested_spans_and_restores_the_program():
    from repro.core.controller import TreeVQAController
    from repro.quantum import transport

    original_step = TreeVQAController.__dict__["step_round"]
    original_worker = transport.worker_main
    tracer = Tracer()
    install_layers(tracer, None)
    try:
        assert TreeVQAController.__dict__["step_round"] is not original_step
        tasks, ansatz = workloads.lih_inputs(3)
        with tracer.span("inputs.build"):
            TreeVQAController(tasks, ansatz, workloads.lih_config(10**7)).close()
    finally:
        tracer.uninstall()
    assert TreeVQAController.__dict__["step_round"] is original_step
    assert transport.worker_main is original_worker
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["controller.init"].parent == by_name["inputs.build"].id


def test_metric_names_and_units_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    record = workloads.RunRecord(
        setup_s=0.01, run_s=2.0, evaluations=100, update_gaps=[2.0],
        shots_to_target=10, fidelity_min=0.9, digest="",
    )
    end_to_end = metrics.end_to_end(
        [record], [(0.002, 0.002)], attempted=1, failed=0, peak_rss_mb=100.0
    )
    assert list(end_to_end) == [m["name"] for m in declared["end_to_end"]]
    # A traced run that touched no layer still yields every declared metric.
    caches = {"program": {"hits": 0, "misses": 0}, "plans": {"hits": 0, "misses": 0}}
    traced = SimpleNamespace(
        record=record, spans=[], counts={}, worker_self={}, worker_counts={},
        dispatches={}, caches_before=caches, caches_after=caches,
    )
    per_layer = metrics.per_layer([traced], [record], [(1.0, 1.0)])
    assert sorted(per_layer) == sorted(m["name"] for m in declared["per_layer"])
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert all(units[name] == "s" for name in metrics.SELF_TIME)


def test_timings_are_scaled_to_the_reference_host_speed():
    def record(setup_s, run_s):
        return workloads.RunRecord(
            setup_s=setup_s, run_s=run_s, evaluations=100, update_gaps=[run_s],
            shots_to_target=10, fidelity_min=0.9, digest="",
        )

    reference = REFERENCE_S
    # Set-up by the calibration just before it; runs by the invocation's
    # median calibration (here 2x the reference: a host at half speed).
    values = metrics.end_to_end(
        [record(0.010, 4.0), record(0.030, 6.0), record(0.004, 5.0)],
        [(2 * reference, 2 * reference), (3 * reference, 2 * reference),
         (reference, 2 * reference)],
        attempted=3, failed=0, peak_rss_mb=100.0,
    )
    assert np.isclose(values["setup_s"], 0.005)
    assert np.isclose(values["run_s"], 2.5)
    assert np.isclose(values["evals_per_s"], 40.0)
    assert np.isclose(values["update_ms_p50"], 2500.0)


def _hamiltonians(tasks):
    return [sorted((p.label, c) for p, c in task.hamiltonian.items()) for task in tasks]


def test_same_seed_gives_identical_inputs_and_another_seed_different_ones():
    first, _ = workloads.lih_inputs(11)
    again, _ = workloads.lih_inputs(11)
    held_out, _ = workloads.lih_inputs(12)
    assert [t.name for t in first] == [t.name for t in again]
    assert _hamiltonians(first) == _hamiltonians(again)
    assert _hamiltonians(first) != _hamiltonians(held_out)

    tenants, _ = workloads.tfim_inputs(11)
    tenants_again, _ = workloads.tfim_inputs(11)
    tenants_held_out, _ = workloads.tfim_inputs(12)

    def describe(specs):
        return [
            (job_id, [t.reference_energy for t in tasks], _hamiltonians(tasks), config.seed)
            for job_id, tasks, config in specs
        ]

    assert describe(tenants) == describe(tenants_again)
    assert describe(tenants) != describe(tenants_held_out)


def test_tfim_windows_are_disjoint_and_references_exact():
    tenants, _ = workloads.tfim_inputs(5)
    windows = sorted(
        (min(t.scan_parameter for t in tasks), max(t.scan_parameter for t in tasks))
        for _, tasks, _ in tenants
    )
    assert all(high < low for (_, high), (low, _) in zip(windows, windows[1:]))
    assert workloads.oracle_failures() == []
