"""Function-space operators behind the three-point boundary value problems.

The equation (phi(u'))' = f(t, u, u') with a bounded invertible flux phi has an
equivalent fixed-point formulation for each boundary condition handled here:

    p1   u(0) = u'(0) = u'(T)
    p1t  u(T) = u'(0) = u'(T)
    p2   u(0) = u(T)  = u'(T)

The solution maps are assembled from a handful of primitives on sampled
functions: the running integral from the left endpoint, its companion anchored
at the right endpoint, the mean over [0, T], the endpoint evaluations, and the
superposition (Nemytskii) evaluation of f along a function.  All quadrature in
this module is trapezoidal, and the companion integral is literally computed
as H - H(T), so the endpoint identities the continuum operators enjoy hold
node-for-node in floating point rather than merely up to discretization error.
(General-purpose integration with the Simpson branch lives in `grid`.)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import NonFinite, PreconditionViolated, RangeViolation
from .grid import Grid, GridFunction
from .homeomorphisms import Homeomorphism

__all__ = [
    "BoundaryCondition", "RightHandSide", "ProblemSpec", "ResidualReport",
    "nemytskii", "running_integral", "running_integral_from_end", "mean_value",
    "left_value", "right_value", "balancing_shift", "fixed_point_map",
    "bc_defects", "residual",
]


class BoundaryCondition(enum.Enum):
    P1 = "p1"
    P1T = "p1t"
    P2 = "p2"

    @classmethod
    def from_string(cls, text: str) -> "BoundaryCondition":
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"unknown boundary condition {text!r} (choices: p1, p1t, p2)")


@dataclass(frozen=True)
class RightHandSide:
    """f(t, x, y) evaluated vectorized; x is the value slot, y the slope slot."""

    fn: Callable[[Any, Any, Any], Any]


@dataclass(frozen=True)
class ProblemSpec:
    grid: Grid
    phi: Homeomorphism
    rhs: RightHandSide
    bc: BoundaryCondition


def nemytskii(spec: ProblemSpec, u: GridFunction) -> np.ndarray:
    """Node-wise evaluation f(t_i, u(t_i), u'(t_i))."""
    t = spec.grid.nodes
    with np.errstate(all="ignore"):
        raw = np.asarray(spec.rhs.fn(t, u.values, u.derivs), dtype=float)
    out = np.broadcast_to(raw, t.shape).astype(float)
    finite = np.isfinite(out)
    if not finite.all():
        node = int(np.argmin(finite))
        raise NonFinite(
            f"right-hand side returned {out[node]!r} at t={t[node]:.6g} (node {node})",
            node=node)
    return out


def _trapz(grid: Grid, v: np.ndarray) -> float:
    return float((0.5 * (v[0] + v[-1]) + v[1:-1].sum()) * grid.h)


def running_integral(grid: Grid, v) -> np.ndarray:
    """Cumulative trapezoid from the left endpoint; first entry is 0."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[0] = 0.0
    np.cumsum((v[1:] + v[:-1]) * (0.5 * grid.h), out=out[1:])
    return out


def running_integral_from_end(grid: Grid, v) -> np.ndarray:
    """Negated tail integral, -int_t^T v; vanishes at the right endpoint."""
    acc = running_integral(grid, v)
    return acc - acc[-1]


def mean_value(grid: Grid, v) -> float:
    """Trapezoid mean of v over [0, T].

    Deliberately the same rule as `running_integral`, so subtracting the mean
    leaves a function whose running integral returns to ~0 at T exactly; the
    fixed-point boundary identities depend on that cancellation.
    """
    v = np.asarray(v, dtype=float)
    return _trapz(grid, v) / grid.T


def left_value(u: GridFunction) -> float:
    return float(u.values[0])


def right_value(u: GridFunction) -> float:
    return float(u.values[-1])


def _bracket_root(fn, lo: float, hi: float, f_lo: float, f_hi: float,
                  max_iters: int = 200) -> float:
    """Root of the scalar function fn inside the bracket [lo, hi], given the
    values f_lo = fn(lo) and f_hi = fn(hi) of opposite signs.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971): the secant point
    replaces the endpoint of its sign, and an endpoint kept twice in a row has
    its value halved.  A secant point not strictly inside the bracket is
    replaced by the midpoint.  Stops at an exact zero or when lo and hi are
    adjacent floats, and then returns the endpoint of smaller |value|, so the
    result is always a point fn was evaluated at.  NaN when fn turns
    non-finite inside the bracket.
    """
    kept = 0          # -1: lo kept last time, +1: hi kept last time
    true_lo, true_hi = f_lo, f_hi
    for _ in range(max_iters):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        fx = float(fn(x))
        if not np.isfinite(fx):
            return float("nan")
        if fx == 0.0:
            return x
        if (fx > 0.0) == (f_lo > 0.0):
            lo, f_lo, true_lo = x, fx, fx
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi, true_hi = x, fx, fx
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    return lo if abs(true_lo) <= abs(true_hi) else hi


def balancing_shift(phi: Homeomorphism, grid: Grid, h_values) -> float:
    """The unique constant q with  int_0^T phi^{-1}(h(t) - q) dt = 0.

    Defined for sup|h| < a/2 (then |h - q| < a for every q in the range of h,
    so the integrand exists).  q -> integral is continuous and strictly
    decreasing, and changes sign between min h and max h; `_bracket_root` on
    that bracket converges to adjacent floats.
    """
    hv = np.asarray(h_values, dtype=float)
    sup = float(np.abs(hv).max())
    if not sup < 0.5 * phi.a:
        raise PreconditionViolated(
            f"sup|h| = {sup:.6g} must stay below a/2 = {0.5 * phi.a:.6g} "
            "for the balancing constant to be defined")
    lo = float(hv.min())
    hi = float(hv.max())
    if lo == hi:
        return lo

    def balance(q: float) -> float:
        return _trapz(grid, phi.inverse(hv - q))

    f_lo = balance(lo)
    if f_lo <= 0.0:
        return lo
    f_hi = balance(hi)
    if f_hi >= 0.0:
        return hi
    return _bracket_root(balance, lo, hi, f_lo, f_hi)


def fixed_point_map(spec: ProblemSpec, lam: float, u: GridFunction) -> GridFunction:
    """One application of the solution map for spec.bc at homotopy level lam.

    Fixed points at lam = 1 solve the boundary value problem; the lam < 1
    family is the deformation the continuation solver walks.  Output
    derivatives come from the closed-form slope phi^{-1}(...), never from
    differencing the values.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"homotopy level must lie in [0, 1], got {lam!r}")
    if spec.bc is BoundaryCondition.P2:
        return _map_p2(spec, lam, u)
    return _map_anchored(spec, lam, u, at_left=spec.bc is BoundaryCondition.P1)


def _map_anchored(spec: ProblemSpec, lam: float, u: GridFunction,
                  at_left: bool) -> GridFunction:
    # p1:  v = u(0) + mean(Nf) + H(phi^{-1}[lam H(Nf - mean) + phi(u(0))])
    # p1t: same skeleton anchored at u(T), with the tail integral outside.
    grid = spec.grid
    nf = nemytskii(spec, u)
    mean = mean_value(grid, nf)
    anchor = left_value(u) if at_left else right_value(u)
    w = lam * running_integral(grid, nf - mean) + spec.phi.forward(anchor)
    worst = float(np.abs(w).max())
    if not worst < spec.phi.a:
        raise RangeViolation(
            f"iterate left the admissible set: sup of the flux argument is "
            f"{worst:.6g} >= a = {spec.phi.a:.6g} (a priori bound violated)",
            worst=worst, bound=spec.phi.a)
    slope = spec.phi.inverse(w)
    if at_left:
        vals = anchor + mean + running_integral(grid, slope)
    else:
        vals = anchor + mean + running_integral_from_end(grid, slope)
    return GridFunction(grid, vals, slope)


def _map_p2(spec: ProblemSpec, lam: float, u: GridFunction) -> GridFunction:
    grid = spec.grid
    nf = nemytskii(spec, u)
    g = lam * running_integral_from_end(grid, nf)
    q = balancing_shift(spec.phi, grid, g)
    slope = spec.phi.inverse(g - q)
    # g(T) = 0 exactly, so the output satisfies v(0) = v'(T) = phi^{-1}(-q)
    # identically, and v(T) - v(0) equals the balancing residual.
    vals = spec.phi.inverse(-q) + running_integral(grid, slope)
    return GridFunction(grid, vals, slope)


@dataclass(frozen=True)
class ResidualReport:
    """How far u is from solving the problem at homotopy level lam.

    c1           sup-gap of values plus sup-gap of derivatives to the mapped
                 output (the fixed-point defect)
    bc_defects   absolute pairwise gaps of the three quantities tied together
                 by the boundary condition
    mean         |mean of f along u|; at a fixed point of the p1/p1t maps this
                 vanishes with the defect
    """

    c1: float
    bc_defects: tuple[float, float, float]
    mean: float


def bc_defects(bc: BoundaryCondition, u: GridFunction) -> tuple[float, float, float]:
    """Absolute pairwise gaps of the three quantities bc ties together."""
    u0 = float(u.values[0])
    uT = float(u.values[-1])
    d0 = float(u.derivs[0])
    dT = float(u.derivs[-1])
    qa, qb, qc = {BoundaryCondition.P1: (u0, d0, dT),
                  BoundaryCondition.P1T: (uT, d0, dT),
                  BoundaryCondition.P2: (u0, uT, dT)}[bc]
    return abs(qa - qb), abs(qb - qc), abs(qa - qc)


def residual(spec: ProblemSpec, lam: float, u: GridFunction) -> ResidualReport:
    v = fixed_point_map(spec, lam, u)
    c1 = float(np.abs(u.values - v.values).max() + np.abs(u.derivs - v.derivs).max())
    mean = abs(mean_value(spec.grid, nemytskii(spec, u)))
    return ResidualReport(c1, bc_defects(spec.bc, u), mean)
