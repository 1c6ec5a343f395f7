"""Planar Brouwer degree via certified winding numbers.

The degree of a continuous map g on a bounded planar domain with g != 0 on the
boundary equals the winding number of g around 0 along the positively oriented
boundary.  On the ball-and-strip domain that boundary is one formula, the
circle of radius rho clipped to the strip, sampled at m equally spaced angles
(at most 2 pi rho / m apart) and at the corners where a wall meets the
circle.  The winding is a sum of signed angle steps between consecutive
boundary samples; a step of pi/2 or more bisects its segment, so no half-turn
between samples is skipped silently.  Planar maps take arrays of points: the
walk maps all samples in one call of the planar map, and each round's
midpoints in one call; `reduction_map` evaluates f on those points' lines
`operators.BLOCK // (n + 1)` lines at a time.

`reduction_map` collapses a p1/p1t boundary value problem to the plane: a
two-parameter family of affine candidates u = x + y (t - t_e), with t_e = 0
for p1 and t_e = T for p1t (the node `BoundaryCondition.end` where u and u'
are tied), turns the solvability question into a zero count for

    g(x, y) = ( -(1/T) * int_0^T f(t, x + y (t - t_e), y) dt,  y - x ),

whose first component is `operators.affine_mean`, which also seeds the solver.
Its zeros on the diagonal x = y = k are the lambda = 0 solutions
u = k (1 + t - t_e) the solver continues from.

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
from .grid import integer_at_least
from .homeomorphisms import Homeomorphism
from .operators import BoundaryCondition, ProblemSpec, affine_mean

__all__ = ["PlanarMap", "DomainDelta", "DegreeResult", "reduction_map", "boundary_polygon",
           "winding_degree", "degree_for_problem", "ZERO_TOL", "MAX_DEPTH"]

ZERO_TOL = 1e-12
MAX_DEPTH = 20


@dataclass(frozen=True)
class PlanarMap:
    """A map R^2 -> R^2 on arrays of points: fn(xs, ys) returns (gx, gy),
    each broadcasting to the common shape of xs and ys."""

    fn: Callable[[np.ndarray, np.ndarray], tuple]

    def __call__(self, xs, ys) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
        gx, gy = (np.broadcast_to(np.asarray(g, dtype=float), xs.shape) for g in self.fn(xs, ys))
        bad = ~(np.isfinite(gx) & np.isfinite(gy))
        if bad.any():
            i = np.unravel_index(np.argmax(bad), xs.shape)
            raise NonFinite(f"planar map returned ({float(gx[i])!r}, {float(gy[i])!r}) "
                            f"at ({xs[i]:.6g}, {ys[i]:.6g})")
        return gx, gy


def reduction_map(spec: ProblemSpec) -> PlanarMap:
    """The planar reduction of a p1/p1t problem (see module docstring)."""
    if spec.bc is BoundaryCondition.P2:
        raise PreconditionViolated("the plane reduction applies to the "
                                   "slope-anchored cases only (bc = p1 or p1t)")

    def fn(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = affine_mean(spec, xs, ys)
        if np.isnan(mean).any():
            i = np.unravel_index(np.argmax(np.isnan(mean)), mean.shape)
            raise NonFinite(f"right-hand side not finite along u = {xs[i]:.6g} + "
                            f"{ys[i]:.6g} (t - {float(spec.grid.nodes[spec.bc.end]):g})")
        return -mean, ys - xs

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

    The boundary is the circle clipped to the strip,

        gamma(theta) = (clip(rho cos theta, x_lo, x_hi), rho sin theta),

    with the walls at x_lo = phi^-1(-kappa) and x_hi = phi^-1(kappa).  Clipping
    moves the arc outside the strip onto the wall at the same height, where
    rho sin theta is monotone as long as the strip contains x = 0 (it does
    when phi(0) = 0), so each wall is swept once and every vertex lies on the
    boundary.  The angles are m equally spaced ones on the full circle, so
    samples are at most 2 pi rho / m apart, plus the corners where a wall
    meets the circle.  The first point is repeated (exactly) as the last.
    """
    try:
        m = integer_at_least("the boundary sample count", m, 64)
    except ValueError as exc:
        raise PreconditionViolated(str(exc)) from None
    rho = delta.rho
    x_lo = delta.phi.inverse(-delta.kappa)
    x_hi = delta.phi.inverse(delta.kappa)
    if not x_lo <= 0.0 <= x_hi:
        raise PreconditionViolated(f"the strip [{x_lo:.6g}, {x_hi:.6g}] must contain "
                                   "x = 0, so that each wall is swept once")
    corners = [math.acos(x / rho) for x in (x_lo, x_hi) if abs(x) < rho]
    # a set, not np.union1d, which imports numpy.ma
    theta = np.array(sorted({*np.linspace(0.0, 2.0 * math.pi, m + 1)[:-1].tolist(),
                             *corners, *(2.0 * math.pi - c for c in corners)}))
    poly = np.column_stack([np.clip(rho * np.cos(theta), x_lo, x_hi), rho * np.sin(theta)])
    return np.vstack([poly, poly[:1]])


@dataclass(frozen=True)
class DegreeResult:
    degree: int
    min_boundary_norm: float
    samples_used: int
    refined: bool


def _mapped(gmap: PlanarMap, z: np.ndarray) -> tuple[np.ndarray, float]:
    """g at the points z = x + iy as gx + i gy, from one call of gmap, and the
    least |g| among them; raises at the first point where |g| < ZERO_TOL."""
    gx, gy = gmap(z.real, z.imag)
    g = gx + 1j * gy
    norm = np.abs(g)
    i = int(np.argmax(norm < ZERO_TOL))  # the first zero, if any
    if norm[i] < ZERO_TOL:
        x, y = float(z[i].real), float(z[i].imag)
        raise ZeroOnBoundary(f"|g({x:.6g}, {y:.6g})| = {norm[i]:.3g} is below {ZERO_TOL:g}",
                             point=(x, y), norm=float(norm[i]))
    return g, float(norm.min())


def winding_degree(gmap: PlanarMap, boundary) -> DegreeResult:
    """Winding number of g along a closed positively oriented polyline.

    The m = len(boundary) - 1 vertices are mapped in one call of gmap.  The
    segments still to walk wait on a stack, the first in walk order on top.
    Each round takes up to m of them off the top, adds the angle step of each
    one that turns by less than pi/2 and bisects the others, mapping all their
    midpoints in one call; the halves go back on top in walk order.
    """
    pts = np.asarray(boundary, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 4:
        raise ValueError("boundary must be an (N, 2) array with N >= 4")
    if not np.array_equal(pts[0], pts[-1]):
        raise ValueError("boundary polyline must be closed (first point == last)")
    m = len(pts) - 1
    z = pts[:-1, 0] + 1j * pts[:-1, 1]
    g, min_norm = _mapped(gmap, z)
    # one row (p0, p1, g0, g1, depth) per segment, points and values complex
    stack = np.column_stack([z, np.roll(z, -1), g, np.roll(g, -1), np.zeros(m)])[::-1]
    count, total = m, 0.0
    while len(stack):
        rows, stack = stack[-m:][::-1], stack[:-m]
        step = np.angle(rows[:, 3] * rows[:, 2].conj())
        turn = np.abs(step) >= 0.5 * math.pi
        total += float(step[~turn].sum())
        if not turn.any():
            continue
        p0, p1, g0, g1, depth = rows[turn].T
        i = int(np.argmax(depth.real))  # the first one at MAX_DEPTH, if any
        if depth[i].real >= MAX_DEPTH:
            mid, n0, n1 = 0.5 * (p0[i] + p1[i]), float(abs(g0[i])), float(abs(g1[i]))
            raise RefinementExhausted(
                f"angle step stayed >= pi/2 after {MAX_DEPTH} bisections near ({mid.real:.6g}, "
                f"{mid.imag:.6g}), with |g| = {n0:.3g} and {n1:.3g} at the ends of the segment: "
                "the map has a zero on the boundary there, or jumps across it",
                point=(float(mid.real), float(mid.imag)), norm=min(n0, n1))
        mid = 0.5 * (p0 + p1)
        gm, norm = _mapped(gmap, mid)
        count, min_norm = count + len(mid), min(min_norm, norm)
        halves = np.stack([np.column_stack([mid, p1, gm, g1, depth + 1]),
                           np.column_stack([p0, mid, g0, gm, depth + 1])], axis=1)
        stack = np.vstack([stack, halves[::-1].reshape(-1, 5)])
    return DegreeResult(round(total / (2.0 * math.pi)), min_norm, count, count > m)


def degree_for_problem(spec: ProblemSpec, rho: float, kappa: float,
                       m: int = 512) -> DegreeResult:
    """Degree of the planar reduction of spec on the ball-and-strip domain."""
    gmap = reduction_map(spec)
    delta = DomainDelta(rho, kappa, spec.phi)
    return winding_degree(gmap, boundary_polygon(delta, m))
