"""Two independent solution routes for the boundary value problems.

The primary route iterates the fixed-point maps from `operators` along a
homotopy in lambda: the lambda = 0 member is solvable in closed form (an
affine one-parameter family for p1/p1t, the zero function for p2), and the
solution is continued stepwise to lambda = 1.  Each stage is solved by
Anderson acceleration of the map (Walker & Ni, SIAM J. Numer. Anal. 49, 2011),
with step halving toward the last accepted iterate whenever an extrapolated
iterate leaves the map's domain.

The oracle route never touches those maps: it rewrites the equation as the
first-order system u' = phi^{-1}(v), v' = f(t, u, phi^{-1}(v)) and shoots with
a fixed-step classical Runge-Kutta integrator, matching the boundary condition
by scalar bisection (p1/p1t) or a damped two-parameter Newton search (p2).
Agreement between the two routes is the package's main self-check.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import (BvpError, HypothesisFailed, NoConvergence, NonFinite,
                     NoRoot, PreconditionViolated, RangeViolation, StepRejected)
from .grid import Grid, GridFunction, norm_c1
from .operators import (BoundaryCondition, ProblemSpec, ResidualReport,
                        _trapz, bc_defects, fixed_point_map, mean_value,
                        nemytskii, residual)

__all__ = [
    "SolveOptions", "LambdaStage", "SolveReport",
    "solve", "solve_fixed_point", "solve_shooting", "cross_validate",
    "shoot_ivp",
]

DEFAULT_SEED_RADIUS = 2.0
BACKENDS = ("fixed-point", "shooting", "both")
ANDERSON_DEPTH = 5   # secant pairs kept per lambda-stage
MAX_HALVINGS = 6     # pull-backs of one out-of-domain iterate before giving up


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for both routes.

    seed_radius bounds the search for initial data (the scalar scan interval
    for p1/p1t, the multistart box for p2 shooting); apriori_bound, when set,
    is compared against the C^1 norm of the result to fill SolveReport.apriori_ok.
    """

    tol: float = 1e-10
    max_iters: int = 5000
    lambda_steps: int = 5
    backend: str = "fixed-point"
    seed_radius: float | None = None
    apriori_bound: float | None = None

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tol!r}")
        if self.max_iters < 1 or self.lambda_steps < 1:
            raise ValueError("iteration and continuation budgets must be >= 1")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")


@dataclass(frozen=True)
class LambdaStage:
    """One continuation stage.  newton_calls is always 0; the field stays
    because existing readers of the report still sum it."""

    lam: float
    iterations: int
    residual: float
    newton_calls: int = 0


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve.

    For the fixed-point backend `residuals.c1` is the fixed-point defect and
    is <= tol on success.  For the shooting backend it is the boundary
    matching defect of the shot (the integrator satisfies its own difference
    equations exactly, so the operator metric would only measure the gap
    between two discretizations).
    """

    solution: GridFunction
    residuals: ResidualReport
    iterations: int
    lambda_path: tuple[LambdaStage, ...]
    backend: str
    apriori_ok: bool | None = None
    solution_family: bool = False
    backend_agreement: float | None = None
    disagreement_flagged: bool = False


def solve(spec: ProblemSpec, opts: SolveOptions = SolveOptions()) -> SolveReport:
    if opts.backend == "shooting":
        return solve_shooting(spec, opts)
    if opts.backend == "both":
        return cross_validate(spec, opts)
    return solve_fixed_point(spec, opts)


# ---------------------------------------------------------------- fixed point

def solve_fixed_point(spec: ProblemSpec, opts: SolveOptions = SolveOptions()) -> SolveReport:
    u = _seed(spec, opts)
    stages: list[LambdaStage] = []
    total = 0
    for j in range(1, opts.lambda_steps + 1):
        lam = j / opts.lambda_steps
        u, stage = _converge_stage(spec, lam, u, opts)
        stages.append(stage)
        total += stage.iterations
    rep = residual(spec, 1.0, u)
    return SolveReport(
        solution=u, residuals=rep, iterations=total,
        lambda_path=tuple(stages), backend="fixed-point",
        apriori_ok=_apriori_ok(u, opts),
        solution_family=_family_flag(spec, u, opts))


def _apriori_ok(u: GridFunction, opts: SolveOptions) -> bool | None:
    if opts.apriori_bound is None:
        return None
    return bool(norm_c1(u) < opts.apriori_bound)


def _affine_direction(spec: ProblemSpec) -> np.ndarray:
    t = spec.grid.nodes
    if spec.bc is BoundaryCondition.P1:
        return 1.0 + t
    return 1.0 + t - spec.grid.T


def _seed(spec: ProblemSpec, opts: SolveOptions) -> GridFunction:
    """Closed-form solution of the lambda = 0 problem."""
    grid = spec.grid
    if spec.bc is BoundaryCondition.P2:
        zero = np.zeros(grid.n + 1)
        return GridFunction(grid, zero, zero)
    direction = _affine_direction(spec)
    radius = DEFAULT_SEED_RADIUS if opts.seed_radius is None else float(opts.seed_radius)

    def mismatch(k: float) -> float:
        u = GridFunction(grid, k * direction, np.full(grid.n + 1, k))
        return _trapz(grid, nemytskii(spec, u))

    try:
        k_root = _scan_root(mismatch, -radius, radius, 65)
    except NoRoot as exc:
        raise HypothesisFailed(
            f"seeding failed: the reduced scalar equation has no sign change "
            f"for k in [-{radius:g}, {radius:g}]") from exc
    return GridFunction(grid, k_root * direction, np.full(grid.n + 1, k_root))


def _pack(u: GridFunction) -> np.ndarray:
    return np.concatenate([u.values, u.derivs])


def _unpack(grid: Grid, x: np.ndarray) -> GridFunction:
    return GridFunction(grid, x[:grid.n + 1], x[grid.n + 1:])


def _c1_gap(defect: np.ndarray, n1: int) -> float:
    """sup-gap of values plus sup-gap of derivatives of a packed defect."""
    return float(np.abs(defect[:n1]).max() + np.abs(defect[n1:]).max())


def _converge_stage(spec: ProblemSpec, lam: float, u: GridFunction,
                    opts: SolveOptions) -> tuple[GridFunction, LambdaStage]:
    """Anderson acceleration (depth ANDERSON_DEPTH, mixing 1) of the map at
    level lam on the packed (values, derivs) vector, started from u.

    Plain iteration is not locally contractive for every admissible f (the
    mean-feedback direction can be repulsive); the extrapolation from the
    last few secant pairs removes that.  An extrapolated iterate may leave
    the map's domain: it is then pulled halfway back toward the last iterate
    the map accepted, at most MAX_HALVINGS times.
    """
    grid = spec.grid
    n1 = grid.n + 1
    x = _pack(u)
    d_defect: deque[np.ndarray] = deque(maxlen=ANDERSON_DEPTH)
    d_image: deque[np.ndarray] = deque(maxlen=ANDERSON_DEPTH)
    accepted: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    best = math.inf
    halvings = 0
    for it in range(1, opts.max_iters + 1):
        try:
            g = _pack(fixed_point_map(spec, lam, _unpack(grid, x)))
        except (RangeViolation, PreconditionViolated, NonFinite):
            if accepted is None or halvings == MAX_HALVINGS:
                raise
            halvings += 1
            x = 0.5 * (accepted[0] + x)
            continue
        halvings = 0
        defect = g - x
        res = _c1_gap(defect, n1)
        best = min(best, res)
        if res <= opts.tol:
            return _unpack(grid, x), LambdaStage(lam, it, res)
        if accepted is not None:
            d_defect.append(defect - accepted[1])
            d_image.append(g - accepted[2])
        accepted = (x, defect, g)
        x = g
        if d_defect:
            gamma = np.linalg.lstsq(np.column_stack(d_defect), defect, rcond=None)[0]
            x = g - np.column_stack(d_image) @ gamma
    raise NoConvergence(
        f"stage lambda={lam:g}: residual {best:.3g} after {opts.max_iters} "
        f"iterations (target {opts.tol:g})",
        best_residual=best, iterations=opts.max_iters)


def _family_flag(spec: ProblemSpec, u: GridFunction, opts: SolveOptions) -> bool:
    """Detect a one-parameter family of solutions (e.g. f == 0 under p1/p1t):
    the residual stays flat along the affine seed direction."""
    if spec.bc is BoundaryCondition.P2:
        return False
    direction = _affine_direction(spec)
    delta = 1e-2
    try:
        pert = GridFunction(spec.grid, u.values + delta * direction,
                            u.derivs + delta)
        r = residual(spec, 1.0, pert).c1
    except BvpError:
        return False
    return r <= max(10.0 * opts.tol, 1e-12)


# ---------------------------------------------------------------- root scans

def _scan_root(fn, lo: float, hi: float, seeds: int, *,
               tolerate_failures: bool = False) -> float:
    """Sign-change scan followed by bisection.

    If the scan finds no sign change but some value is numerically zero, that
    argument is returned (covers flat one-parameter families).  Evaluation
    failures (rejected integrations) only skip seeds when tolerated.
    """
    ks = np.linspace(lo, hi, seeds)
    vals: list[float | None] = []
    for k in ks:
        try:
            vals.append(float(fn(float(k))))
        except (StepRejected, RangeViolation, PreconditionViolated):
            if not tolerate_failures:
                raise
            vals.append(None)
    valid = [(k, v) for k, v in zip(ks, vals) if v is not None]
    if not valid:
        raise NoRoot("every seed of the scan failed to evaluate")
    scale = max(1.0, max(abs(v) for _, v in valid))
    tiny = 1e-12 * scale
    for i in range(len(vals) - 1):
        va, vb = vals[i], vals[i + 1]
        if va is None or vb is None:
            continue
        if va == 0.0:
            return float(ks[i])
        if va * vb < 0.0:
            try:
                return _bisect(fn, float(ks[i]), float(ks[i + 1]), va, vb)
            except (StepRejected, RangeViolation, PreconditionViolated):
                if not tolerate_failures:
                    raise
                continue
    k_best, v_best = min(valid, key=lambda kv: abs(kv[1]))
    if abs(v_best) <= tiny:
        return float(k_best)
    raise NoRoot(
        f"no sign change among {len(valid)} valid seeds in [{lo:g}, {hi:g}] "
        f"(smallest |value| {abs(v_best):.3g})")


def _bisect(fn, lo: float, hi: float, f_lo: float, f_hi: float,
            max_iters: int = 200) -> float:
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = float(fn(mid))
        if f_mid == 0.0:
            return mid
        if (f_lo > 0.0) == (f_mid > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


# ------------------------------------------------------------------ shooting

def shoot_ivp(spec: ProblemSpec, u0: float, slope0: float, *,
              backward: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step classical Runge-Kutta for the first-order system

        u' = phi^{-1}(v),   v' = f(t, u, phi^{-1}(v)),   v = phi(u'),

    landing exactly on the grid nodes.  With backward=True the data
    (u0, slope0) is imposed at t = T and the sweep runs right to left; arrays
    are always returned in ascending node order.  Raises StepRejected the
    moment any stage needs phi^{-1} outside (-a, a).
    """
    grid = spec.grid
    phi = spec.phi
    a = phi.a
    f = spec.rhs.fn
    t_nodes = grid.nodes
    h = grid.h if not backward else -grid.h
    n = grid.n

    def deriv(t: float, uu: float, vv: float) -> tuple[float, float]:
        if not abs(vv) < a:
            raise StepRejected(
                f"phi(u') reached {vv:.6g} at t = {t:.6g}, outside (-{a:g}, {a:g})",
                time=t)
        du = float(phi.inv_fn(vv))
        with np.errstate(all="ignore"):
            dv = float(f(t, uu, du))
        if not (math.isfinite(du) and math.isfinite(dv)):
            raise StepRejected(f"non-finite derivative at t = {t:.6g}", time=t)
        return du, dv

    us = np.empty(n + 1)
    vs = np.empty(n + 1)
    order = range(n, -1, -1) if backward else range(n + 1)
    idx = list(order)
    us[idx[0]] = u0
    vs[idx[0]] = phi.forward(slope0)
    for step in range(n):
        i = idx[step]
        j = idx[step + 1]
        t0 = float(t_nodes[i])
        uu, vv = float(us[i]), float(vs[i])
        k1u, k1v = deriv(t0, uu, vv)
        k2u, k2v = deriv(t0 + 0.5 * h, uu + 0.5 * h * k1u, vv + 0.5 * h * k1v)
        k3u, k3v = deriv(t0 + 0.5 * h, uu + 0.5 * h * k2u, vv + 0.5 * h * k2v)
        k4u, k4v = deriv(t0 + h, uu + h * k3u, vv + h * k3v)
        us[j] = uu + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        vs[j] = vv + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not abs(vs[j]) < a:
            raise StepRejected(
                f"phi(u') reached {vs[j]:.6g} at t = {float(t_nodes[j]):.6g}, "
                f"outside (-{a:g}, {a:g})", time=float(t_nodes[j]))
    return us, vs


def solve_shooting(spec: ProblemSpec, opts: SolveOptions = SolveOptions()) -> SolveReport:
    radius = DEFAULT_SEED_RADIUS if opts.seed_radius is None else float(opts.seed_radius)
    shots = 0

    def count():
        nonlocal shots
        shots += 1

    if spec.bc is BoundaryCondition.P2:
        u, defect = _shoot_p2(spec, radius, opts, count)
    else:
        u, defect = _shoot_anchored(spec, radius, count)
    rep = ResidualReport(
        c1=defect,
        bc_defects=bc_defects(spec.bc, u),
        mean=abs(mean_value(spec.grid, nemytskii(spec, u))))
    return SolveReport(
        solution=u, residuals=rep, iterations=shots,
        lambda_path=(), backend="shooting",
        apriori_ok=_apriori_ok(u, opts),
        solution_family=_family_flag(spec, u, opts))


def _shoot_anchored(spec: ProblemSpec, radius: float, count) -> tuple[GridFunction, float]:
    """p1: unknown k = u(0) = u'(0), forward sweep, match u'(T) = k.
    p1t: unknown k = u(T) = u'(T), backward sweep, match u'(0) = k."""
    phi = spec.phi
    backward = spec.bc is BoundaryCondition.P1T

    def mismatch(k: float) -> float:
        count()
        us, vs = shoot_ivp(spec, k, k, backward=backward)
        v_far = float(vs[0] if backward else vs[-1])
        if not abs(v_far) < phi.a:
            raise StepRejected(f"terminal phi(u') = {v_far:.6g} out of range")
        return float(phi.inverse(v_far)) - k

    k_root = _scan_root(mismatch, -radius - 1.0, radius + 1.0, 64,
                        tolerate_failures=True)
    count()
    us, vs = shoot_ivp(spec, k_root, k_root, backward=backward)
    u = GridFunction(spec.grid, us, phi.inverse(vs))
    return u, abs(mismatch(k_root))


def _shoot_p2(spec: ProblemSpec, radius: float, opts: SolveOptions,
              count) -> tuple[GridFunction, float]:
    """p2: unknowns (p, q) = (u(0), u'(0)); match (u(T) - p, u'(T) - p) = 0
    by damped Newton with a forward-difference Jacobian, multistart grid."""
    phi = spec.phi
    ftol = max(1e-13, min(1e-11, opts.tol))

    def mismatch(z: np.ndarray) -> np.ndarray:
        count()
        us, vs = shoot_ivp(spec, float(z[0]), float(z[1]))
        v_T = float(vs[-1])
        if not abs(v_T) < phi.a:
            raise StepRejected(f"terminal phi(u') = {v_T:.6g} out of range")
        return np.array([float(us[-1]) - float(z[0]),
                         float(phi.inverse(v_T)) - float(z[0])])

    centers = np.linspace(-radius - 1.0, radius + 1.0, 3)
    starts = sorted(((x, y) for x in centers for y in centers),
                    key=lambda p: p[0] * p[0] + p[1] * p[1])
    last_error: Exception | None = None
    for start in starts:
        try:
            z = _newton2(mismatch, np.array(start, dtype=float), ftol)
        except (StepRejected, RangeViolation, NoRoot) as exc:
            last_error = exc
            continue
        us, vs = shoot_ivp(spec, float(z[0]), float(z[1]))
        count()
        u = GridFunction(spec.grid, us, phi.inverse(vs))
        return u, float(np.abs(mismatch(z)).max())
    raise NoRoot("p2 shooting: every multistart point failed to converge") from last_error


def _newton2(mismatch, z0: np.ndarray, ftol: float, max_steps: int = 40) -> np.ndarray:
    z = z0.astype(float)
    fz = mismatch(z)
    for _ in range(max_steps):
        scale = float(np.abs(fz).max())
        if scale <= ftol:
            return z
        jac = np.empty((2, 2))
        for j in range(2):
            eps = 1e-7 * max(1.0, abs(z[j]))
            probe = z.copy()
            probe[j] += eps
            jac[:, j] = (mismatch(probe) - fz) / eps
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        if abs(det) < 1e-14 * max(1.0, float(np.abs(jac).max()) ** 2):
            raise NoRoot("singular Jacobian in p2 shooting")
        delta = np.linalg.solve(jac, -fz)
        step = 1.0
        while step >= 1.0 / 256.0:
            try:
                cand = z + step * delta
                fc = mismatch(cand)
            except StepRejected:
                step *= 0.5
                continue
            if float(np.abs(fc).max()) < scale:
                z, fz = cand, fc
                break
            step *= 0.5
        else:
            raise NoRoot("p2 shooting made no progress from this start")
    if float(np.abs(fz).max()) <= ftol:
        return z
    raise NoRoot("p2 shooting Newton budget exhausted")


# ----------------------------------------------------------- cross validation

def cross_validate(spec: ProblemSpec, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Run both routes and compare.  Returns the fixed-point report augmented
    with the sup-distance between the two solutions (values and derivatives).
    Disagreement beyond 100 * tol is flagged, except for detected solution
    families where both routes legitimately pick different members."""
    fp = solve_fixed_point(spec, opts)
    sh = solve_shooting(spec, opts)
    gap_vals = float(np.abs(fp.solution.values - sh.solution.values).max())
    gap_ders = float(np.abs(fp.solution.derivs - sh.solution.derivs).max())
    agreement = max(gap_vals, gap_ders)
    family = fp.solution_family or sh.solution_family
    flagged = (not family) and agreement > 100.0 * opts.tol
    return replace(fp, backend="both",
                   iterations=fp.iterations + sh.iterations,
                   solution_family=family,
                   backend_agreement=agreement,
                   disagreement_flagged=flagged)
