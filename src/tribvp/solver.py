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
a fixed-step classical Runge-Kutta integrator.  Each boundary condition ties
three boundary quantities to one shared value k, so every case is a scalar
equation in k: a batched sweep over a scan of k finds a sign change, and
Illinois regula falsi refines it.  Agreement between the two routes is the
package's main self-check.
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
                        _bracket_root, _trapz, bc_defects, fixed_point_map,
                        mean_value, nemytskii, residual)

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

    seed_radius bounds the search for initial data: the scalar scan interval
    of the lambda = 0 seed for p1/p1t, and, widened by 1, the shooting scan
    over k for every boundary condition.  apriori_bound, when set, is
    compared against the C^1 norm of the result to fill SolveReport.apriori_ok.
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

    def mismatch(ks: np.ndarray) -> np.ndarray:
        out = []
        for k in ks:
            u = GridFunction(grid, k * direction, np.full(grid.n + 1, k))
            out.append(_trapz(grid, nemytskii(spec, u)))
        return np.array(out)

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

def _scan_root(fn, lo: float, hi: float, seeds: int) -> float:
    """Sign-change scan followed by `_bracket_root` on the first bracket.

    fn maps an array of arguments to an array of values in one call; a NaN
    value marks an argument fn could not evaluate, and a bracket whose
    refinement meets one is skipped for the next.  If the scan finds no sign
    change but some value is numerically zero, that argument is returned
    (covers flat one-parameter families).  The result is always an argument
    fn was evaluated at.
    """
    ks = np.linspace(lo, hi, seeds)
    vals = np.asarray(fn(ks), dtype=float)
    valid = np.isfinite(vals)
    if not valid.any():
        raise NoRoot("every seed of the scan failed to evaluate")

    def scalar(k: float) -> float:
        return float(fn(np.array([k]))[0])

    starts = (vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)
    for i in np.flatnonzero(starts):
        if vals[i] == 0.0:
            return float(ks[i])
        root = _bracket_root(scalar, float(ks[i]), float(ks[i + 1]),
                             float(vals[i]), float(vals[i + 1]))
        if math.isfinite(root):
            return root
    magnitude = np.abs(vals)
    best = int(np.nanargmin(magnitude))
    if magnitude[best] <= 1e-12 * max(1.0, float(np.nanmax(magnitude))):
        return float(ks[best])
    raise NoRoot(
        f"no sign change among {int(valid.sum())} valid seeds in [{lo:g}, {hi:g}] "
        f"(smallest |value| {magnitude[best]:.3g})")


# ------------------------------------------------------------------ shooting

def shoot_ivp(spec: ProblemSpec, u0, slope0, *,
              backward: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step classical Runge-Kutta for the first-order system

        u' = phi^{-1}(v),   v' = f(t, u, phi^{-1}(v)),   v = phi(u'),

    landing exactly on the grid nodes.  With backward=True the data
    (u0, slope0) is imposed at t = T and the sweep runs right to left; arrays
    are always returned in ascending node order.

    u0 and slope0 broadcast against each other, and every shot of the
    broadcast shape is integrated in the same sweep: the returned arrays have
    that shape plus one trailing axis of n + 1 nodes.  A shot whose stage
    needs phi^{-1} outside (-a, a), or whose values turn non-finite, comes
    back as a row of NaN.  A single scalar shot raises StepRejected instead.
    """
    grid = spec.grid
    phi = spec.phi
    a = phi.a
    f = spec.rhs.fn
    t_nodes = grid.nodes
    h = -grid.h if backward else grid.h
    n = grid.n
    u0, slope0 = np.broadcast_arrays(np.asarray(u0, dtype=float),
                                     np.asarray(slope0, dtype=float))
    shape = u0.shape

    def deriv(t: float, uu: np.ndarray, vv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # mask before inverting: tan (the atan flux) is finite garbage beyond +-a
        du = phi.inv_fn(np.where(np.abs(vv) < a, vv, np.nan))
        return du, f(t, uu, du)

    order = np.arange(n, -1, -1) if backward else np.arange(n + 1)
    us = np.full((n + 1, u0.size), np.nan)
    vs = np.full_like(us, np.nan)
    us[order[0]] = u0.ravel()
    vs[order[0]] = phi.forward(slope0.ravel())
    with np.errstate(all="ignore"):
        for i, j in zip(order[:-1], order[1:]):
            t0 = float(t_nodes[i])
            uu, vv = us[i], vs[i]
            k1u, k1v = deriv(t0, uu, vv)
            k2u, k2v = deriv(t0 + 0.5 * h, uu + 0.5 * h * k1u, vv + 0.5 * h * k1v)
            k3u, k3v = deriv(t0 + 0.5 * h, uu + 0.5 * h * k2u, vv + 0.5 * h * k2v)
            k4u, k4v = deriv(t0 + h, uu + h * k3u, vv + h * k3v)
            u_next = uu + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            v_next = vv + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            alive = (np.abs(v_next) < a) & np.isfinite(u_next)
            us[j] = u_next
            vs[j] = np.where(alive, v_next, np.nan)
            if not alive.any():
                if not shape:
                    raise StepRejected(
                        f"the shot left the flux range (-{a:g}, {a:g}) or turned "
                        f"non-finite between t = {t0:.6g} and t = "
                        f"{float(t_nodes[j]):.6g}", time=float(t_nodes[j]))
                break
    dead = np.isnan(vs[order[-1]])
    us[:, dead] = np.nan
    vs[:, dead] = np.nan
    return us.T.reshape(shape + (n + 1,)), vs.T.reshape(shape + (n + 1,))


def solve_shooting(spec: ProblemSpec, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Every boundary condition ties three boundary quantities to one shared
    value k, so each is a scalar shooting problem in k:

        p1   forward from u(0) = u'(0) = k, match u'(T) = k
        p1t  backward from u(T) = u'(T) = k, match u'(0) = k
        p2   backward from u(T) = u'(T) = k, match u(0) = k

    k is found by `_scan_root`, whose 64-seed scan is one batched sweep, and
    the solution is the shot already taken at that k.
    """
    radius = DEFAULT_SEED_RADIUS if opts.seed_radius is None else float(opts.seed_radius)
    phi = spec.phi
    bc = spec.bc
    backward = bc is not BoundaryCondition.P1
    shots: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def matched(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        if bc is BoundaryCondition.P2:
            return us[..., 0]
        return phi.inv_fn(vs[..., 0] if backward else vs[..., -1])

    def mismatch(ks: np.ndarray) -> np.ndarray:
        us, vs = shoot_ivp(spec, ks, ks, backward=backward)
        shots.update(zip(ks.tolist(), zip(us, vs)))
        return matched(us, vs) - ks

    # _scan_root returns one of the arguments it evaluated
    k_root = _scan_root(mismatch, -radius - 1.0, radius + 1.0, 64)
    us, vs = shots[k_root]
    u = GridFunction(spec.grid, us, phi.inverse(vs))
    rep = ResidualReport(
        c1=abs(float(matched(us, vs)) - k_root),
        bc_defects=bc_defects(bc, u),
        mean=abs(mean_value(spec.grid, nemytskii(spec, u))))
    return SolveReport(
        solution=u, residuals=rep, iterations=len(shots),
        lambda_path=(), backend="shooting",
        apriori_ok=_apriori_ok(u, opts),
        solution_family=_family_flag(spec, u, opts))


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
