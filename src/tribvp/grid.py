"""Uniform grids on [0, T] and sampled C^1 functions living on them.

Values and first derivatives are carried as separate arrays: derivatives are
always known in closed form wherever this package builds a function, so they
are never reconstructed by differencing.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def integer_at_least(name: str, value, least: int) -> int:
    """value as an int when it is a Python or numpy integer (not a float of
    integral value) no less than least; else a ValueError naming the field."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or number < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return number


def _locked(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """n equal intervals on [0, T]; n + 1 nodes including both endpoints."""

    T: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"horizon must be positive and finite, got {self.T!r}")
        object.__setattr__(self, "n", integer_at_least("interval count", self.n, 2))

    @property
    def h(self) -> float:
        return self.T / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        return _locked(np.linspace(0.0, self.T, self.n + 1))


@dataclass(frozen=True)
class GridFunction:
    """A sampled C^1 function: values u(t_i) and derivatives u'(t_i).

    Arrays are copied on construction and marked read-only.
    """

    grid: Grid
    values: np.ndarray
    derivs: np.ndarray

    def __post_init__(self):
        vals = _locked(self.values)
        ders = _locked(self.derivs)
        want = (self.grid.n + 1,)
        if vals.shape != want or ders.shape != want:
            raise ValueError(
                f"need {want[0]} samples, got values {vals.shape} derivs {ders.shape}")
        if not (np.isfinite(vals).all() and np.isfinite(ders).all()):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "derivs", ders)


def norm_sup(values) -> float:
    v = np.asarray(values, dtype=float)
    return float(np.abs(v).max())


def norm_c1(u: GridFunction) -> float:
    """sup|u| + sup|u'|."""
    return norm_sup(u.values) + norm_sup(u.derivs)

