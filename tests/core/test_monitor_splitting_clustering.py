"""Tests for slope monitoring, split conditions and spectral clustering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import kmeans, normalized_laplacian, spectral_clustering, spectral_embedding
from repro.core.monitor import SlopeMonitor, linear_regression_slope
from repro.core.splitting import SplitDecision, assign_split_groups, evaluate_split_condition


class TestLinearRegressionSlope:
    def test_known_slopes(self):
        assert linear_regression_slope([1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.0)
        assert linear_regression_slope([5.0, 3.0, 1.0]) == pytest.approx(-2.0)
        assert linear_regression_slope([2.0, 2.0, 2.0]) == pytest.approx(0.0)

    def test_short_series(self):
        assert linear_regression_slope([1.0]) == 0.0
        assert linear_regression_slope([]) == 0.0

    @given(st.floats(-3, 3), st.floats(-5, 5), st.integers(3, 30))
    @settings(max_examples=30, deadline=None)
    def test_recovers_exact_linear_trend(self, slope, intercept, length):
        values = [slope * i + intercept for i in range(length)]
        assert linear_regression_slope(values) == pytest.approx(slope, abs=1e-8)


class TestSlopeMonitor:
    @given(
        st.integers(1, 11),
        st.integers(2, 40),
        st.integers(0, 60),
        st.integers(0, 2 ** 32 - 1),
        st.floats(-12, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_report_is_bitwise_the_scalar_slopes(self, tasks, window, steps, seed, log_scale):
        # Window sizes reach past 16 so the row reductions cross NumPy's
        # unrolled-summation block boundaries.
        rng = np.random.default_rng(seed)
        monitor = SlopeMonitor(tasks, window, warmup_iterations=0)
        history = rng.normal(size=(steps, 1 + tasks)) * 10.0 ** log_scale + rng.normal()
        for row in history:
            monitor.record(row[0], row[1:])
        report = monitor.report()
        recent = history[-window:]
        assert np.array_equal(report.mixed_slope, linear_regression_slope(recent[:, 0]))
        assert np.array_equal(
            report.individual_slopes,
            [linear_regression_slope(recent[:, 1 + t]) for t in range(tasks)],
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SlopeMonitor(0, 5, 2)
        with pytest.raises(ValueError):
            SlopeMonitor(2, 1, 2)
        with pytest.raises(ValueError):
            SlopeMonitor(2, 5, -1)

    def test_record_length_check(self):
        monitor = SlopeMonitor(num_tasks=2, window_size=3, warmup_iterations=0)
        with pytest.raises(ValueError):
            monitor.record(1.0, [1.0])

    def test_ready_requires_warmup_and_full_window(self):
        monitor = SlopeMonitor(num_tasks=1, window_size=3, warmup_iterations=5)
        for i in range(3):
            monitor.record(float(i), [float(i)])
        report = monitor.report()
        assert report.window_filled
        assert not report.past_warmup
        assert not report.ready
        for i in range(3):
            monitor.record(float(i), [float(i)])
        assert monitor.report().ready

    def test_slopes_track_recent_window_only(self):
        monitor = SlopeMonitor(num_tasks=2, window_size=4, warmup_iterations=0)
        # Decreasing for 10 steps then flat for 4: window slope should be ~0.
        for i in range(10):
            monitor.record(10.0 - i, [10.0 - i, 5.0])
        for _ in range(4):
            monitor.record(1.0, [1.0, 5.0])
        report = monitor.report()
        assert abs(report.mixed_slope) < 1e-9
        assert report.individual_slopes[1] == pytest.approx(0.0)


class TestSplitCondition:
    def _report(self, mixed_slope, individual, ready=True):
        from repro.core.monitor import SlopeReport

        return SlopeReport(
            mixed_slope=mixed_slope,
            individual_slopes=tuple(individual),
            window_filled=ready,
            past_warmup=ready,
        )

    def test_not_ready_never_splits(self):
        decision = evaluate_split_condition(self._report(0.0, [0.0], ready=False), 1e-3)
        assert not decision.should_split

    def test_stall_triggers_split(self):
        decision = evaluate_split_condition(self._report(1e-5, [-0.1, -0.2]), 1e-3)
        assert decision.should_split
        assert "stalled" in decision.reason

    def test_positive_individual_slope_triggers_split(self):
        decision = evaluate_split_condition(self._report(-0.5, [-0.1, 0.05]), 1e-3)
        assert decision.should_split
        assert "divergence" in decision.reason

    def test_progressing_does_not_split(self):
        decision = evaluate_split_condition(self._report(-0.5, [-0.1, -0.2]), 1e-3)
        assert not decision.should_split

    def test_individual_threshold_relaxation(self):
        report = self._report(-0.5, [-0.1, 0.001])
        assert evaluate_split_condition(report, 1e-3).should_split
        held = evaluate_split_condition(report, 1e-3, individual_slope_threshold=0.01)
        assert not held.should_split

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            evaluate_split_condition(self._report(0.0, [0.0]), -1.0)

    def test_no_split_constructor(self):
        decision = SplitDecision.no_split("because")
        assert not decision.should_split


class TestKMeans:
    def test_two_obvious_clusters(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        labels = kmeans(points, 2, seed=0)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_degenerate_cases(self):
        points = np.random.default_rng(0).normal(size=(4, 2))
        assert set(kmeans(points, 1).tolist()) == {0}
        assert sorted(kmeans(points, 4).tolist()) == [0, 1, 2, 3]
        with pytest.raises(ValueError):
            kmeans(points, 5)
        with pytest.raises(ValueError):
            kmeans(points[0], 1)


class TestSpectralClustering:
    def _block_similarity(self):
        similarity = np.full((6, 6), 0.05)
        similarity[:3, :3] = 0.95
        similarity[3:, 3:] = 0.95
        np.fill_diagonal(similarity, 1.0)
        return similarity

    def test_laplacian_properties(self):
        laplacian = normalized_laplacian(self._block_similarity())
        eigenvalues = np.linalg.eigvalsh(laplacian)
        assert eigenvalues[0] == pytest.approx(0.0, abs=1e-9)
        assert np.all(eigenvalues >= -1e-9)

    def test_embedding_shape(self):
        embedding = spectral_embedding(self._block_similarity(), 2)
        assert embedding.shape == (6, 2)

    def test_block_structure_recovered(self):
        labels = spectral_clustering(self._block_similarity(), 2, seed=0)
        assert len(set(labels[:3])) == 1
        assert len(set(labels[3:])) == 1
        assert labels[0] != labels[5]

    def test_all_labels_used_even_for_uniform_similarity(self):
        similarity = np.ones((4, 4))
        labels = spectral_clustering(similarity, 2, seed=1)
        assert set(labels.tolist()) == {0, 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            spectral_clustering(np.ones((2, 3)), 2)
        asymmetric = np.array([[1.0, 0.2], [0.4, 1.0]])
        with pytest.raises(ValueError):
            spectral_clustering(asymmetric, 2)
        with pytest.raises(ValueError):
            spectral_clustering(np.ones((3, 3)), 4)

    def test_single_cluster(self):
        labels = spectral_clustering(np.ones((3, 3)), 1)
        assert set(labels.tolist()) == {0}


class TestAssignSplitGroups:
    def test_groups_are_non_empty_partition(self):
        similarity = np.full((5, 5), 0.1)
        similarity[:2, :2] = 0.9
        similarity[2:, 2:] = 0.9
        np.fill_diagonal(similarity, 1.0)
        groups = assign_split_groups(similarity, 2, seed=0)
        assert len(groups) == 2
        flattened = sorted(index for group in groups for index in group)
        assert flattened == list(range(5))
        assert all(groups)

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            assign_split_groups(np.ones((1, 1)), 2)

    def test_more_groups_than_items_clamped(self):
        groups = assign_split_groups(np.ones((2, 2)), 4, seed=0)
        assert len(groups) == 2
