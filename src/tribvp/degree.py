"""Planar Brouwer degree via certified winding numbers.

The degree of a continuous map g on a bounded planar domain with g != 0 on the
boundary equals the winding number of g around 0 along the positively oriented
boundary.  The winding is accumulated as a sum of signed angle increments
between consecutive boundary samples; every increment must stay below pi/2 in
magnitude, otherwise the segment is bisected recursively.  That certificate
rules out silently skipping a half-turn between samples.

`reduction_map` collapses a p1/p1t boundary value problem to the plane: a
two-parameter family of affine candidates u = x + y t turns the solvability
question into a zero count for

    g(x, y) = ( -(1/T) * int_0^T f(t, x + y t, y) dt,  y - x ),

whose first component is `operators.affine_mean`, which also seeds the solver.

A nonzero degree of this map on a suitable ball-and-strip domain certifies
that the full solver has something to converge to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (EmptyDomain, NonFinite, PreconditionViolated,
                     RefinementExhausted, ZeroOnBoundary)
from .homeomorphisms import Homeomorphism
from .operators import ProblemSpec, affine_mean

__all__ = [
    "PlanarMap", "DomainDelta", "DegreeResult", "reduction_map",
    "boundary_polygon", "winding_degree", "degree_for_problem",
    "ZERO_TOL", "MAX_DEPTH",
]

ZERO_TOL = 1e-12
MAX_DEPTH = 20


@dataclass(frozen=True)
class PlanarMap:
    """A map R^2 -> R^2 evaluated point-wise."""

    fn: Callable[[float, float], tuple[float, float]]

    def __call__(self, x: float, y: float) -> tuple[float, float]:
        gx, gy = self.fn(float(x), float(y))
        gx = float(gx)
        gy = float(gy)
        if not (math.isfinite(gx) and math.isfinite(gy)):
            raise NonFinite(f"planar map returned ({gx!r}, {gy!r}) at ({x:.6g}, {y:.6g})")
        return gx, gy


def reduction_map(spec: ProblemSpec) -> PlanarMap:
    """The planar reduction of a p1/p1t problem (see module docstring)."""

    def fn(x: float, y: float) -> tuple[float, float]:
        mean = float(affine_mean(spec, x, y))
        if math.isnan(mean):
            raise NonFinite(f"right-hand side not finite along u = {x:.6g} + {y:.6g} t")
        return -mean, y - x

    return PlanarMap(fn)


@dataclass(frozen=True)
class DomainDelta:
    """Open ball of radius rho intersected with the strip |phi(x)| < kappa."""

    rho: float
    kappa: float
    phi: Homeomorphism

    def __post_init__(self):
        if not (np.isfinite(self.rho) and self.rho > 0.0):
            raise EmptyDomain(f"ball radius must be positive, got {self.rho!r}")
        if not (0.0 < self.kappa < self.phi.a):
            raise EmptyDomain(
                f"strip level must satisfy 0 < kappa < a = {self.phi.a}, "
                f"got {self.kappa!r}")


def boundary_polygon(delta: DomainDelta, m: int = 512) -> np.ndarray:
    """Closed counterclockwise polyline along the boundary of the domain.

    Circle arcs and the vertical strip walls are joined at their exact
    intersection points; consecutive samples are at most perimeter/m apart.
    The first point is repeated (exactly) as the last.
    """
    if m < 64:
        raise PreconditionViolated(f"need at least 64 boundary samples, got {m}")
    rho = delta.rho
    x_hi = delta.phi.inverse(delta.kappa)
    x_lo = delta.phi.inverse(-delta.kappa)
    right = x_hi < rho
    left = x_lo > -rho

    pieces: list[tuple[str, tuple]] = []
    if right and left:
        y_r = math.sqrt(rho * rho - x_hi * x_hi)
        y_l = math.sqrt(rho * rho - x_lo * x_lo)
        th_r = math.atan2(y_r, x_hi)
        th_l = math.atan2(y_l, x_lo)
        pieces = [
            ("seg", ((x_hi, -y_r), (x_hi, y_r))),
            ("arc", (th_r, th_l)),
            ("seg", ((x_lo, y_l), (x_lo, -y_l))),
            ("arc", (2.0 * math.pi - th_l, 2.0 * math.pi - th_r)),
        ]
    elif right:
        y_r = math.sqrt(rho * rho - x_hi * x_hi)
        th_r = math.atan2(y_r, x_hi)
        pieces = [
            ("seg", ((x_hi, -y_r), (x_hi, y_r))),
            ("arc", (th_r, 2.0 * math.pi - th_r)),
        ]
    elif left:
        y_l = math.sqrt(rho * rho - x_lo * x_lo)
        th_l = math.atan2(y_l, x_lo)
        pieces = [
            ("arc", (-th_l, th_l)),
            ("seg", ((x_lo, y_l), (x_lo, -y_l))),
        ]
    else:
        pieces = [("arc", (0.0, 2.0 * math.pi))]

    def piece_length(kind, data):
        if kind == "arc":
            return rho * (data[1] - data[0])
        (xa, ya), (xb, yb) = data
        return math.hypot(xb - xa, yb - ya)

    perimeter = sum(piece_length(k, d) for k, d in pieces)
    spacing = perimeter / m

    chunks: list[np.ndarray] = []
    for kind, data in pieces:
        length = piece_length(kind, data)
        count = max(1, math.ceil(length / spacing - 1e-12))
        if kind == "arc":
            angles = np.linspace(data[0], data[1], count + 1)
            pts = np.column_stack([rho * np.cos(angles), rho * np.sin(angles)])
        else:
            (xa, ya), (xb, yb) = data
            s = np.linspace(0.0, 1.0, count + 1)
            pts = np.column_stack([xa + (xb - xa) * s, ya + (yb - ya) * s])
        if chunks:
            pts = pts[1:]
        chunks.append(pts)
    poly = np.vstack(chunks)

    # drop a duplicated seam point, then close the loop with an exact copy
    if len(poly) > 1 and np.allclose(poly[0], poly[-1], rtol=0.0, atol=1e-12 * max(1.0, rho)):
        poly = poly[:-1]
    poly = np.vstack([poly, poly[:1]])
    return poly


@dataclass(frozen=True)
class DegreeResult:
    degree: int
    min_boundary_norm: float
    samples_used: int
    refined: bool


class _WalkState:
    __slots__ = ("min_norm", "count", "refined")

    def __init__(self):
        self.min_norm = math.inf
        self.count = 0
        self.refined = False


def _evaluate(gmap: PlanarMap, point, state: _WalkState) -> tuple[float, float]:
    gx, gy = gmap(point[0], point[1])
    norm = math.hypot(gx, gy)
    if norm < ZERO_TOL:
        raise ZeroOnBoundary(
            f"|g({point[0]:.6g}, {point[1]:.6g})| = {norm:.3g} is below {ZERO_TOL:g}",
            point=(float(point[0]), float(point[1])), norm=norm)
    state.count += 1
    if norm < state.min_norm:
        state.min_norm = norm
    return gx, gy


def _signed_angle(g0: tuple[float, float], g1: tuple[float, float]) -> float:
    cross = g0[0] * g1[1] - g0[1] * g1[0]
    dot = g0[0] * g1[0] + g0[1] * g1[1]
    return math.atan2(cross, dot)


def _segment_angle(gmap, p0, p1, g0, g1, depth, state: _WalkState) -> float:
    d = _signed_angle(g0, g1)
    if abs(d) < 0.5 * math.pi:
        return d
    if depth >= MAX_DEPTH:
        mid = 0.5 * (np.asarray(p0) + np.asarray(p1))
        raise RefinementExhausted(
            f"angle step stayed >= pi/2 after {MAX_DEPTH} bisections near "
            f"({mid[0]:.6g}, {mid[1]:.6g}); a zero of the map most likely "
            "touches the boundary",
            point=(float(mid[0]), float(mid[1])))
    state.refined = True
    pm = 0.5 * (np.asarray(p0, dtype=float) + np.asarray(p1, dtype=float))
    gm = _evaluate(gmap, pm, state)
    return (_segment_angle(gmap, p0, pm, g0, gm, depth + 1, state)
            + _segment_angle(gmap, pm, p1, gm, g1, depth + 1, state))


def winding_degree(gmap: PlanarMap, boundary) -> DegreeResult:
    """Winding number of g along a closed positively oriented polyline."""
    pts = np.asarray(boundary, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 4:
        raise ValueError("boundary must be an (N, 2) array with N >= 4")
    if not np.array_equal(pts[0], pts[-1]):
        raise ValueError("boundary polyline must be closed (first point == last)")
    state = _WalkState()
    g_first = _evaluate(gmap, pts[0], state)
    total = 0.0
    g_prev = g_first
    for i in range(len(pts) - 1):
        g_next = g_first if i + 1 == len(pts) - 1 else _evaluate(gmap, pts[i + 1], state)
        total += _segment_angle(gmap, pts[i], pts[i + 1], g_prev, g_next, 0, state)
        g_prev = g_next
    deg = round(total / (2.0 * math.pi))
    return DegreeResult(int(deg), state.min_norm, state.count, state.refined)


def degree_for_problem(spec: ProblemSpec, rho: float, kappa: float,
                       m: int = 512) -> DegreeResult:
    """Degree of the planar reduction of spec on the ball-and-strip domain."""
    delta = DomainDelta(rho, kappa, spec.phi)
    return winding_degree(reduction_map(spec), boundary_polygon(delta, m))
