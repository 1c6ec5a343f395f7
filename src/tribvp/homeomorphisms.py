"""Bounded increasing homeomorphisms of the line onto an interval (-a, a).

These play the role of the flux nonlinearity phi in (phi(u'))' = f(t, u, u').
Both catalog members are odd, fix 0, and have closed-form inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import RangeViolation

__all__ = ["Homeomorphism", "curvature", "scaled_atan", "by_name"]


@dataclass(frozen=True)
class Homeomorphism:
    """An increasing bijection R -> (-a, a) with an explicit inverse.

    inv_fn never returns a finite value for an input outside (-a, a), so a
    caller that only needs to detect such inputs may skip the range check.
    """

    name: str
    a: float
    fwd_fn: Callable
    inv_fn: Callable

    def forward(self, s):
        """Map slopes into (-a, a).  Accepts scalars or arrays.

        In double precision the true value can round onto the closed endpoint
        for huge |s|; results are pulled strictly inside the open range.
        """
        arr = np.asarray(s, dtype=float)
        limit = np.nextafter(self.a, 0.0)
        out = np.clip(self.fwd_fn(arr), -limit, limit)
        return float(out) if out.ndim == 0 else out

    def inverse(self, y):
        """Map back from (-a, a); rejects any input with |y| >= a."""
        arr = np.asarray(y, dtype=float)
        bad = ~(np.abs(arr) < self.a)
        if bad.any():
            i = int(np.argmax(bad))
            node = i if arr.ndim else None
            val = float(arr.flat[i])
            where = "" if node is None else f" at node {node}"
            raise RangeViolation(
                f"value {val!r}{where} is outside the open range "
                f"(-{self.a}, {self.a}) of {self.name}; a priori bound violated",
                worst=val, node=node)
        out = self.inv_fn(arr)
        return float(out) if out.ndim == 0 else out


def curvature() -> Homeomorphism:
    """The mean-curvature flux s -> s / sqrt(1 + s^2), range (-1, 1)."""
    return Homeomorphism(
        name="curvature",
        a=1.0,
        fwd_fn=lambda s: s / np.hypot(1.0, s),  # hypot: no overflow at huge |s|
        inv_fn=lambda y: y / np.sqrt(1.0 - y * y),  # inf at +-1, nan beyond
    )


def scaled_atan(a: float = 1.0) -> Homeomorphism:
    """Rescaled arctangent s -> (2a/pi) atan(s), range (-a, a)."""
    if not (np.isfinite(a) and a > 0.0):
        raise ValueError(f"range half-width must be positive, got {a!r}")
    a = float(a)
    c = a / (0.5 * np.pi)  # 2 a / pi, finite for every finite a
    return Homeomorphism(
        name="atan",
        a=a,
        fwd_fn=lambda s: c * np.arctan(s),
        # tan is finite garbage beyond +-a: mask first
        inv_fn=lambda y: np.tan(np.where(np.abs(y) < a, y, np.nan) / c),
    )


def by_name(name: str, a: float | None = None) -> Homeomorphism:
    """Catalog lookup used by problem files."""
    if name == "curvature":
        if a is not None and a != 1.0:
            raise ValueError("the curvature flux has fixed half-width a = 1")
        return curvature()
    if name == "atan":
        return scaled_atan(1.0 if a is None else a)
    raise ValueError(f"unknown flux nonlinearity {name!r} (choices: curvature, atan)")
