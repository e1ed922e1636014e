"""Sliding-window slope monitoring (paper §5.2.2).

After a warm-up period, TreeVQA fits a linear regression to the last W loss
values of the cluster's mixed Hamiltonian and of every member Hamiltonian.
A flat mixed slope (|slope| < ε_split) signals stagnation; a *positive*
individual slope signals that one member is being dragged uphill by the
mixed optimisation — either condition triggers a split (§5.2.3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["linear_regression_slope", "SlopeMonitor", "SlopeReport"]


def linear_regression_slope(values: list[float] | np.ndarray) -> float:
    """Least-squares slope of ``values`` against their index."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return 0.0
    x = np.arange(values.size, dtype=float)
    x_centered = x - x.mean()
    denominator = float(np.sum(x_centered ** 2))
    if denominator == 0:
        return 0.0
    return float(np.sum(x_centered * (values - values.mean())) / denominator)


def windowed_slopes(windows) -> list[float]:
    """:func:`linear_regression_slope` of equal-length windows in one array pass.

    Row-wise reductions over a ``(windows, length)`` array run the same
    summation as the 1-D calls, so each slope is bitwise-equal to the scalar
    function's.
    """
    values = np.array(windows, dtype=float)
    if values.shape[1] < 2:
        return [0.0] * len(values)
    x = np.arange(values.shape[1], dtype=float)
    x_centered = x - x.mean()
    denominator = float(np.sum(x_centered ** 2))
    centered = values - values.mean(axis=1, keepdims=True)
    return (np.sum(x_centered * centered, axis=1) / denominator).tolist()


@dataclass(frozen=True)
class SlopeReport:
    """Slopes computed over the current window."""

    mixed_slope: float
    individual_slopes: tuple[float, ...]
    window_filled: bool
    past_warmup: bool

    @property
    def ready(self) -> bool:
        """True when slopes are meaningful (full window and past warm-up)."""
        return self.window_filled and self.past_warmup


class SlopeMonitor:
    """Track mixed and per-task loss histories and compute windowed slopes."""

    def __init__(self, num_tasks: int, window_size: int, warmup_iterations: int) -> None:
        if num_tasks < 1:
            raise ValueError("num_tasks must be >= 1")
        if window_size < 2:
            raise ValueError("window_size must be >= 2")
        if warmup_iterations < 0:
            raise ValueError("warmup_iterations must be >= 0")
        self.num_tasks = num_tasks
        self.window_size = window_size
        self.warmup_iterations = warmup_iterations
        self._mixed_window: deque[float] = deque(maxlen=window_size)
        self._individual_windows: list[deque[float]] = [
            deque(maxlen=window_size) for _ in range(num_tasks)
        ]
        self._iterations_recorded = 0

    @property
    def iterations_recorded(self) -> int:
        return self._iterations_recorded

    def record(self, mixed_loss: float, individual_losses: list[float] | np.ndarray) -> None:
        """Record the losses of one iteration."""
        individual_losses = list(np.asarray(individual_losses, dtype=float))
        if len(individual_losses) != self.num_tasks:
            raise ValueError(
                f"expected {self.num_tasks} individual losses, got {len(individual_losses)}"
            )
        self._mixed_window.append(float(mixed_loss))
        for window, loss in zip(self._individual_windows, individual_losses):
            window.append(loss)
        self._iterations_recorded += 1

    def report(self) -> SlopeReport:
        """Current slopes and readiness flags."""
        slopes = windowed_slopes([self._mixed_window, *self._individual_windows])
        return SlopeReport(
            mixed_slope=slopes[0],
            individual_slopes=tuple(slopes[1:]),
            window_filled=len(self._mixed_window) >= self.window_size,
            past_warmup=self._iterations_recorded >= self.warmup_iterations,
        )
