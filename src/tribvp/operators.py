"""Function-space operators behind the three-point boundary value problems.

The equation (phi(u'))' = f(t, u, u') with a bounded invertible flux phi has an
equivalent fixed-point formulation for each boundary condition handled here:

    p1   u(0) = u'(0) = u'(T)
    p1t  u(T) = u'(0) = u'(T)
    p2   u(0) = u(T)  = u'(T)

The solution maps are assembled from a handful of primitives on sampled
functions: the running integral from the left endpoint, its companion anchored
at the right endpoint, the mean over [0, T], and the superposition (Nemytskii)
evaluation of f along a function.  All quadrature in this module is
trapezoidal, and an integral anchored at a node is literally computed as
H - H(t_e), so the endpoint identities the continuum operators enjoy hold
node-for-node in floating point rather than merely up to discretization error.
`BoundaryCondition.end` names the node t_e where a condition ties u and u'.
`affine_mean`, the mean of f along the lines u = x + y (t - t_e), is the
reduced map both the lambda = 0 seed of the solver and the degree certificate
rest on.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import NonFinite, PreconditionViolated
from .grid import Grid, GridFunction
from .homeomorphisms import Homeomorphism

__all__ = [
    "BoundaryCondition", "RightHandSide", "ProblemSpec", "ResidualReport",
    "nemytskii", "affine_mean", "running_integral", "running_integral_from_end",
    "mean_value", "balancing_shift", "fixed_point_map",
    "bc_defects", "residual",
]

# The most points f sees in one call from the sampler or the degree map (unless
# one line of the grid is longer): 64 KiB per float array, under glibc's
# 128 KiB mmap threshold, so a block's temporaries come from the heap and stay
# in cache instead of each being mapped and page-faulted afresh.
BLOCK = 8192


class BoundaryCondition(enum.Enum):
    """The three-point conditions of the module docstring.  `end` is the node
    index where u and u' are both tied: 0 for p1, -1 for p1t and p2.  The
    third tied quantity sits at the other node, -1 - end: u' for p1 and p1t,
    u for p2."""

    P1 = "p1"
    P1T = "p1t"
    P2 = "p2"

    @classmethod
    def from_string(cls, text: str) -> "BoundaryCondition":
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"unknown boundary condition {text!r} (choices: p1, p1t, p2)")

    @property
    def end(self) -> int:
        return 0 if self is BoundaryCondition.P1 else -1


@dataclass(frozen=True)
class RightHandSide:
    """f(t, x, y) evaluated vectorized; x is the value slot, y the slope slot.

    Every argument may be an array, and they broadcast: `nemytskii` and
    `affine_mean` pass t as an array of nodes, and the shooting oracle's
    near sweep passes t as an (S, 1) array, one time per parareal segment,
    against (S, shots) arrays of u and u'."""

    fn: Callable[[Any, Any, Any], Any]

    def __call__(self, t, x, y) -> np.ndarray:
        """f as a float array of the broadcast shape of (t, x, y), inf or NaN
        where f cannot evaluate, with numpy's warnings silenced."""
        with np.errstate(all="ignore"):
            vals = np.asarray(self.fn(t, x, y), dtype=float)
        shape = np.broadcast(t, x, y).shape
        return vals if vals.shape == shape else np.broadcast_to(vals, shape)


@dataclass(frozen=True)
class ProblemSpec:
    grid: Grid
    phi: Homeomorphism
    rhs: RightHandSide
    bc: BoundaryCondition


def nemytskii(spec: ProblemSpec, u: GridFunction) -> np.ndarray:
    """Node-wise evaluation f(t_i, u(t_i), u'(t_i))."""
    t = spec.grid.nodes
    out = spec.rhs(t, u.values, u.derivs)
    finite = np.isfinite(out)
    if not finite.all():
        node = int(np.argmin(finite))
        raise NonFinite(
            f"right-hand side returned {float(out[node])} at t={t[node]:.6g} "
            f"(node {node})", node=node)
    return out


def affine_mean(spec: ProblemSpec, x, y) -> np.ndarray:
    """Trapezoid mean over [0, T] of f(t, x + y (t - t_e), y), t_e the node
    `spec.bc.end`, for x and y broadcast against each other; NaN where the
    mean is not finite.  f is called on max(1, BLOCK // (n + 1)) lines at a
    time, as a (lines, n + 1) array, so its temporaries stay in cache; each
    line is a row of its own, so how they are blocked changes no value."""
    grid = spec.grid
    t = grid.nodes
    dt = t - t[spec.bc.end]
    x, y = np.broadcast_arrays(x, y)
    mean = np.empty(x.shape)
    xs, ys, out = x.reshape(-1, 1), y.reshape(-1, 1), mean.reshape(-1)
    lines = max(1, BLOCK // len(t))
    for i in range(0, len(out), lines):
        yi = ys[i:i + lines]
        out[i:i + lines] = _trapz(grid, spec.rhs(t, xs[i:i + lines] + yi * dt, yi))
    with np.errstate(all="ignore"):
        mean /= grid.T
        return (mean + 0.0 * mean)[()]  # 0 * inf is NaN; finite means pass unchanged


def _trapz(grid: Grid, v: np.ndarray):
    """Trapezoid integral over [0, T] along the last axis of v."""
    return (0.5 * (v[..., 0] + v[..., -1]) + v[..., 1:-1].sum(axis=-1)) * grid.h


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
    return float(_trapz(grid, v) / grid.T)


# Illinois' own cycle is two one-sided steps and then the modified one, and the
# first of those often keeps just over half the bracket.  A guard after two
# slow steps replaces the modified step: on the benchmark's p2 problems it
# raised balancing_shift from 6.4 to 9.6 evaluations per call.
SLOW_STEPS = 3
MAX_BRACKET_STEPS = 200  # evaluations before the narrowest bracket so far is returned


def _bracket_root(fn, ks: np.ndarray, vals: np.ndarray, i: int) -> float:
    """Root of fn inside [ks[i], ks[i + 1]], where the values vals[i] and
    vals[i + 1] have opposite signs; a refiner of the `solver` contract that
    calls fn with one argument at a time.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971): the secant point
    replaces the endpoint of its sign, and an endpoint kept twice in a row has
    its value halved.  A secant point that rounds onto an endpoint made by a
    secant step (or by a step off one) becomes the float next to it, inside;
    next to any other endpoint the secant is not trusted and the midpoint is
    taken.  After SLOW_STEPS steps in a row that each kept more than half of
    the bracket, the next point is the midpoint, so no function costs more
    than about SLOW_STEPS + 1 times bisection's count, not even a convex one
    whose far endpoint value takes dozens of halvings.  Stops at an exact
    zero or at adjacent floats, returning the endpoint of smaller |value|.
    NaN when fn turns non-finite inside.
    """
    lo, hi = float(ks[i]), float(ks[i + 1])
    f_lo, f_hi = float(vals[i]), float(vals[i + 1])
    kept = 0          # -1: lo kept last time, +1: hi kept last time
    true_lo, true_hi = f_lo, f_hi
    trusted = math.nan  # the last point a secant step, or a step off one, produced
    slow = 0          # steps in a row that kept more than half of the bracket
    for _ in range(MAX_BRACKET_STEPS):
        if slow == SLOW_STEPS:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        else:
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if lo < x < hi:
                trusted = x
            else:
                end = lo if x <= lo else hi
                if end == trusted:
                    x = trusted = float(np.nextafter(end, hi if end == lo else lo))
                else:
                    x, trusted = 0.5 * (lo + hi), math.nan
                if not lo < x < hi:
                    break
        width = hi - lo
        fx = float(fn(np.array([x]))[0])
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
        slow = 0 if hi - lo <= 0.5 * width or slow == SLOW_STEPS else slow + 1
    return lo if abs(true_lo) <= abs(true_hi) else hi


def balancing_shift(phi: Homeomorphism, grid: Grid, h_values) -> float:
    """The unique constant q with  int_0^T phi^{-1}(h(t) - q) dt = 0.

    Defined for sup|h| < a/2: then |h - q| < a for every q in the range of h,
    so the integrand exists without the range check of `phi.inverse`.
    q -> integral is continuous and strictly decreasing, and changes sign
    between min h and max h; `_bracket_root` on that bracket converges to
    adjacent floats.
    """
    hv = np.asarray(h_values, dtype=float)
    sup = float(np.abs(hv).max())
    if not sup < 0.5 * phi.a:
        raise PreconditionViolated(
            f"sup|h| = {sup:.6g} must stay below a/2 = {0.5 * phi.a:.6g} "
            "for the balancing constant to be defined")

    def balance(qs: np.ndarray) -> np.ndarray:
        return _trapz(grid, phi.inv_fn(hv - qs[:, None]))

    ends = np.array([hv.min(), hv.max()])
    f_ends = balance(ends)
    if f_ends[0] <= 0.0:  # a constant h returns here or just below
        return float(ends[0])
    if f_ends[1] >= 0.0:
        return float(ends[1])
    return _bracket_root(balance, ends, f_ends, 0)


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
    return _map_anchored(spec, lam, u)


def _map_anchored(spec: ProblemSpec, lam: float, u: GridFunction) -> GridFunction:
    # v = u(t_e) + mean(Nf) + H(s) - H(s)(t_e), t_e the node spec.bc.end,
    # where s = phi^{-1}[lam H(Nf - mean) + phi(u(t_e))] is the slope of v.
    grid = spec.grid
    end = spec.bc.end
    nf = nemytskii(spec, u)
    mean = mean_value(grid, nf)
    anchor = float(u.values[end])
    w = lam * running_integral(grid, nf - mean) + spec.phi.forward(anchor)
    slope = spec.phi.inverse(w)  # RangeViolation names the first node off (-a, a)
    acc = running_integral(grid, slope)
    vals = anchor + mean + (acc - acc[end])
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


class ResidualReport(NamedTuple):
    """How far u is from solving the problem at homotopy level lam.

    c1           sup-gap of values plus sup-gap of derivatives to the mapped
                 output (the fixed-point defect)
    bc_defects   absolute pairwise gaps of the three quantities tied together
                 by the boundary condition
    """

    c1: float
    bc_defects: tuple[float, float, float]


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
    return ResidualReport(c1, bc_defects(spec.bc, u))
