"""Uniform time grids for path simulation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * dt for k = 0 .. n_steps."""

    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_nodes, dtype=np.float64) * self.dt

    def subsampled(self, stride: int) -> "TimeGrid":
        """Grid seen when keeping every ``stride``-th node."""
        if stride < 1 or self.n_steps % stride != 0:
            raise ValueError("stride must be a positive divisor of n_steps")
        return TimeGrid(dt=self.dt * stride, n_steps=self.n_steps // stride)


def node_stride(n_steps: int, target_nodes: int) -> int:
    """Output stride for about target_nodes nodes: n_steps // target_nodes, lowered to a divisor."""
    s = max(1, n_steps // target_nodes)
    while n_steps % s:
        s -= 1
    return s


def default_dt(a: float, *tau_cs: float) -> float:
    """Step small enough to resolve both relaxation scales.

    One percent of the shortest of 1/a and the correlation times; this
    keeps trapezoidal quadrature bias far below Monte Carlo noise at the
    ensemble sizes used here.
    """
    scales = [1.0 / a] if a > 0 else []
    scales.extend(t for t in tau_cs if t > 0)
    if not scales:
        raise ValueError("cannot infer a time step without positive scales")
    return 0.01 * min(scales)
