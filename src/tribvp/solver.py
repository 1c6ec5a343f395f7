"""Two independent solution routes for the boundary value problems.

The primary route iterates the fixed-point maps from `operators` along a
homotopy in lambda: the lambda = 0 member is solvable in closed form (an
affine one-parameter family for p1/p1t, the zero function for p2), and the
solution is continued to lambda = 1 in steps halved on failure.  Each stage is
solved by Anderson acceleration of the map (Walker & Ni, SIAM J. Numer. Anal.
49, 2011), with step halving toward the last accepted iterate whenever an
extrapolated iterate leaves the map's domain.

The oracle route never touches those maps: it rewrites the equation as the
first-order system u' = phi^{-1}(v), v' = f(t, u, phi^{-1}(v)) and shoots with
a fixed-step classical Runge-Kutta integrator.  Each boundary condition ties
three boundary quantities to one shared value k, so every case is a scalar
equation in k.  Every evaluation of it is a batched sweep of shots.  As for
the lambda = 0 seed, a scan of k finds a sign change on a coarse grid, and
the root is finished on the problem's own grid.  The seed scans on the
`_coarse` grid, eight times coarser, and `_bracket_root` finishes its root.
The shooting root is located on `_locate_grid`'s, about sqrt(n) intervals,
by sweeps placed geometrically around an interpolated root estimate, until
its bracket is under LOCATE_WIDTH max(1, |k|), on that grid, or else on the
`_coarse` one, or else on the problem's; then one sweep on the problem's
grid, of NEAR_SHOTS = 3 shots, that estimate and one on each side of it,
brackets it again, and the solution interpolates those shots quadratically
(`_lagrange`).  That near sweep runs time-parallel, by parareal over about
sqrt(n) segments (`_shoot_parareal`);
every other sweep is `shoot_ivp`'s serial one, and both step through one
RK4 kernel, `_rk4`.  A shot whose flux leaves (-a, a) gets a NaN u at its
next stage and keeps it, so a serial sweep runs to its end, even when every
shot dies, and decides there which died; a parareal sweep in which any flux
leaves gives way to it.  Agreement between the two routes is the package's
main self-check.

Every scalar equation, the lambda = 0 seed, the p2 balancing constant in
`operators` and the shooting mismatch, is solved under one contract.  fn maps
an array of arguments to an array of values, NaN where it cannot evaluate,
and `_scan_root` finds a sign change.  A refiner refine(fn, ks, vals, i)
returns a root for the bracket [ks[i], ks[i + 1]], or NaN.
`operators._bracket_root` and `_refine_batched` narrow it to adjacent
floats and return an argument they evaluated: the first calls fn with one
argument at a time, the second with a sweep of up to SWEEP_SHOTS.  The
shooting route's locate step stops `_refine_batched` at LOCATE_WIDTH and
returns an interpolated estimate it has not evaluated; the refiner of its
near sweep calls fn not at all (see `solve_shooting`).
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (BvpError, HypothesisFailed, NoConvergence, NonFinite,
                     NoRoot, PreconditionViolated, RangeViolation, StepRejected)
from .grid import Grid, GridFunction, integer_at_least
from .operators import (BoundaryCondition, ProblemSpec, ResidualReport,
                        _bracket_root, affine_mean, bc_defects,
                        fixed_point_map, residual)

__all__ = [
    "SolveOptions", "LambdaStage", "SolveReport",
    "solve", "solve_fixed_point", "solve_shooting", "cross_validate",
    "shoot_ivp",
]

SEED_RADIUS = 2.0    # the seed scans k in [-2, 2], shooting in [-3, 3]
SWEEP_SHOTS = 64     # shots of the shooting scan, at most as many per refining sweep
COARSENING = 8       # the seed scans first on n // 8 intervals ...
MIN_COARSE_N = 16    # ... but on no fewer than 16, nor does shooting locate on fewer
NEAR_REACH = 1e-6    # the near sweep around a located root k reaches 1e-6 max(1, |k|) ...
NEAR_SHOTS = 3       # ... on each side: its shots are k - reach, k and k + reach
LOCATE_WIDTH = 1e-4  # a root is located once its bracket is under 1e-4 max(1, |k|)
SEAM_TOL = 1e-14     # a parareal seam closes within 1e-14 max(1, |y|), in u and u'
BACKENDS = ("fixed-point", "shooting", "both")
ANDERSON_DEPTH = 5   # secant pairs kept per lambda-stage
MAX_HALVINGS = 6     # pull-backs of one out-of-domain iterate before giving up
MIN_LAMBDA_STEP = 1.0 / 64  # smallest continuation step before giving up


@dataclass(frozen=True)
class SolveOptions:
    """`backend` picks the route `solve` runs.  tol and max_iters are the
    fixed-point route's: tol bounds its defect (and `cross_validate` flags a
    disagreement beyond 100 tol), max_iters the map evaluations of each
    lambda-stage.  The shooting route reads neither."""

    tol: float = 1e-10
    max_iters: int = 5000
    backend: str = "fixed-point"

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tolerance must be positive and finite, got {self.tol!r}")
        object.__setattr__(self, "max_iters",
                           integer_at_least("iteration budget", self.max_iters, 1))
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")


class LambdaStage(NamedTuple):
    """One continuation stage.  newton_calls is always 0; the field stays
    because existing readers of the report still sum it."""

    lam: float
    iterations: int
    residual: float
    newton_calls: int = 0


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve.

    `iterations` counts the fixed-point map evaluations of the accepted
    stages for the fixed-point backend, and the sweeps for the shooting
    backend, serial or parareal, on the coarse grid and on the problem's grid
    alike; `cross_validate` reports the sum.  `solution_family` is the
    fixed-point route's flag (f == 0 under p1/p1t sets it): the shooting
    backend reports False, and `cross_validate` copies the fixed-point value.

    For the fixed-point backend `residuals.c1` is the fixed-point defect and
    is <= tol on success.  For the shooting backend it is the boundary
    matching defect of the solution, which interpolates the near sweep's shots
    (see `solve_shooting`): the interpolant's defect, not any one shot's.
    (The integrator satisfies its own difference equations exactly, so the
    operator metric would only measure the gap between two discretizations.)
    """

    solution: GridFunction
    residuals: ResidualReport
    iterations: int
    lambda_path: tuple[LambdaStage, ...]
    backend: str
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
    """Continue the lambda = 0 seed to lambda = 1, first in one stage.  A stage
    whose iterate leaves the map's domain is retried from the last accepted
    level with half the step, down to MIN_LAMBDA_STEP; NoConvergence is not
    retried.  lambda_path and iterations count the accepted stages only."""
    u = _seed(spec)
    stages: list[LambdaStage] = []
    lam, step = 0.0, 1.0
    while lam < 1.0:
        target = min(1.0, lam + step)
        try:
            u_next, stage = _converge_stage(spec, target, u, opts)
        except (RangeViolation, PreconditionViolated, NonFinite):
            if step * 0.5 < MIN_LAMBDA_STEP:
                raise
            step *= 0.5
            continue
        u, lam = u_next, target
        stages.append(stage)
    # the lambda = 1 stage's last defect is that of u: it mapped u last
    return SolveReport(
        solution=u,
        residuals=ResidualReport(stages[-1].residual, bc_defects(spec.bc, u)),
        iterations=sum(stage.iterations for stage in stages),
        lambda_path=tuple(stages), backend="fixed-point",
        solution_family=_family_flag(spec, u, opts))


def _affine(spec: ProblemSpec, k: float) -> GridFunction:
    """k (1 + t - t_e), t_e the node spec.bc.end: the p1/p1t line with
    u(t_e) = u' = k."""
    t = spec.grid.nodes
    return GridFunction(spec.grid, k * (1.0 + t - t[spec.bc.end]),
                        np.full(spec.grid.n + 1, k))


def _seed(spec: ProblemSpec) -> GridFunction:
    """Solution of the lambda = 0 problem: zero for p2; for p1/p1t the line
    `_affine(spec, k)` along which `affine_mean` vanishes.  k is scanned on
    the `_coarse` grid, then finished on the problem's grid in the first
    sign change, or scanned there if that finds no root.  That root differs
    from the fine scan's only where the coarse mean misses an earlier fine
    sign change yet the interval's fine ends straddle (or one is ~0)."""
    grid = spec.grid
    if spec.bc is BoundaryCondition.P2:
        zero = np.zeros(grid.n + 1)
        return GridFunction(grid, zero, zero)
    scan = np.linspace(-SEED_RADIUS, SEED_RADIUS, 65)
    mean = lambda ks: affine_mean(spec, ks, ks)
    coarse = _coarse(spec)
    starts = _sign_changes(affine_mean(coarse, scan, scan)) if coarse else []
    for i in starts[:1]:  # the first coarse sign change only
        with suppress(NoRoot):
            return _affine(spec, _scan_root(mean, scan[i:i + 2], _bracket_root))
    try:
        k_root = _scan_root(mean, scan, _bracket_root)
    except NoRoot as exc:
        raise HypothesisFailed(f"seeding failed: {exc}") from exc
    return _affine(spec, k_root)


def _coarse(spec: ProblemSpec) -> ProblemSpec | None:
    """spec on max(n // COARSENING, MIN_COARSE_N) intervals; None if not coarser."""
    n = max(spec.grid.n // COARSENING, MIN_COARSE_N)
    return replace(spec, grid=Grid(spec.grid.T, n)) if n < spec.grid.n else None


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
    step = _affine(spec, 1e-2)
    try:
        pert = GridFunction(spec.grid, u.values + step.values, u.derivs + step.derivs)
        r = residual(spec, 1.0, pert).c1
    except BvpError:
        return False
    return r <= max(10.0 * opts.tol, 1e-12)


# ---------------------------------------------------------------- root scans

def _scan_root(fn, ks: np.ndarray, refine) -> float:
    """Sign-change scan of fn over the sorted seeds ks in one call, under the
    contract of the module docstring: the first seed whose value is exactly
    zero, or the root `refine` finds in the first sign change it can narrow,
    whichever comes first.  Failing both, a seed whose value is numerically
    zero (covers flat one-parameter families); NoRoot otherwise, whose
    message counts the sign changes `refine` could not narrow, if any."""
    vals = np.asarray(fn(ks), dtype=float)
    valid = np.isfinite(vals)
    if not valid.any():
        raise NoRoot("every seed of the scan failed to evaluate")
    changes = _sign_changes(vals)
    for i in changes:
        if vals[i] == 0.0:
            return float(ks[i])
        root = refine(fn, ks, vals, int(i))
        if math.isfinite(root):
            return root
    magnitude = np.abs(vals)
    best = int(np.nanargmin(magnitude))
    if magnitude[best] <= 1e-12 * max(1.0, float(np.nanmax(magnitude))):
        return float(ks[best])
    seeds = f"among {int(valid.sum())} valid seeds in [{ks[0]:g}, {ks[-1]:g}]"
    found = (f"{changes.size} sign change{'s' * (changes.size > 1)} {seeds} could "
             f"not be narrowed" if changes.size else f"no sign change {seeds}")
    raise NoRoot(f"{found} (smallest |value| {magnitude[best]:.3g})")


def _sign_changes(vals: np.ndarray) -> np.ndarray:
    """Ascending i where vals[i] is 0 or vals[i] vals[i + 1] < 0."""
    return np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))


def _sweep_around(x: float, nearest: float, farthest: float) -> np.ndarray:
    """x and (SWEEP_SHOTS - 1) // 2 points on each side of it, spaced
    geometrically from nearest out to farthest away; sorted, without
    duplicates (a set, not np.unique, which imports numpy.ma).
    `_refine_batched`'s sweeps."""
    reach = np.geomspace(nearest, farthest, (SWEEP_SHOTS - 1) // 2)
    return np.array(sorted({*(x - reach).tolist(), x, *(x + reach).tolist()}))


def _refine_batched(fn, ks: np.ndarray, vals: np.ndarray, i: int,
                    width: float = 0.0) -> float:
    """Narrow [ks[i], ks[i + 1]] by whole sweeps of fn.

    Each call of fn takes an estimate x of the root and points spaced
    geometrically on both sides of it, from one ulp of x out to half the
    bracket, so the bracket at least halves while a good estimate pins the
    root within a few ulps.  The new bracket is the first adjacent pair of
    finite values of opposite signs inside the old one; a sign change across
    a NaN is never used.  Stops at an exact zero, or at adjacent floats with
    the end of smaller |value|; NaN when no usable pair is left, or as soon
    as the new bracket's larger |value| exceeds the old one's, which no
    sub-bracket of a monotone fn can do: the bracket then holds a pole, not
    a root.  With a width > 0 it stops earlier, once the bracket is narrower
    than width max(1, |x|), and returns the estimate x, which it has not
    evaluated.
    """
    while True:
        lo, hi = float(ks[i]), float(ks[i + 1])
        bound = max(abs(vals[i]), abs(vals[i + 1]))
        if np.nextafter(lo, hi) == hi:
            return lo if abs(vals[i]) <= abs(vals[i + 1]) else hi
        near = slice(max(i - 1, 0), i + 3)  # the bracket and one neighbour each side
        x = _root_estimate(ks[near], vals[near], lo, hi, vals[i], vals[i + 1])
        if hi - lo < width * max(1.0, abs(x)):
            return x
        pts = _sweep_around(x, np.spacing(abs(x)), 0.5 * (hi - lo))
        pts = pts[(pts > lo) & (pts < hi)]
        pvals = np.asarray(fn(pts), dtype=float)
        zero = np.flatnonzero(pvals == 0.0)
        if zero.size:
            return float(pts[zero[0]])
        first = near.start
        ks = np.concatenate([ks[first:i + 1], pts, ks[i + 1:i + 3]])
        vals = np.concatenate([vals[first:i + 1], pvals, vals[i + 1:i + 3]])
        finite = np.isfinite(vals)
        pairs = finite[:-1] & finite[1:] & (vals[:-1] * vals[1:] < 0.0)
        inside = i - first  # the old lo; the old hi sits pts.size + 1 later
        found = np.flatnonzero(pairs[inside:inside + pts.size + 1])
        if not found.size:
            return math.nan
        i = inside + int(found[0])
        if max(abs(vals[i]), abs(vals[i + 1])) > bound:
            return math.nan


def _root_estimate(xs: np.ndarray, ys: np.ndarray, lo: float, hi: float,
                   f_lo: float, f_hi: float) -> float:
    """Inverse interpolation: the value at y = 0 of the polynomial x(y)
    through the finite points (xs, ys), cubic for four points.  Falls back to
    the secant point of the bracket, then to its midpoint, when the estimate
    is not strictly inside (lo, hi)."""
    finite = np.isfinite(ys)
    with np.errstate(all="ignore"):
        x = lo + float(_lagrange(ys[finite], 0.0) @ (xs[finite] - lo))
    if lo < x < hi:
        return x
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    return x if lo < x < hi else 0.5 * (lo + hi)


def _lagrange(nodes: np.ndarray, at: float) -> np.ndarray:
    """Weights w of the polynomial through the nodes at `at`, its value there
    w @ values: w[j] = prod over m != j of (x_m - at) / (x_m - x_j).  Exactly
    one-hot when `at` is a node; inf or NaN where two nodes coincide."""
    with np.errstate(all="ignore"):
        ratios = (nodes[None, :] - at) / (nodes[None, :] - nodes[:, None])
    np.fill_diagonal(ratios, 1.0)
    return ratios.prod(axis=1)


# ------------------------------------------------------------------ shooting

def _rk4(f, inv, ys: np.ndarray, ts, h: float) -> None:
    """Classical Runge-Kutta steps of h for u' = inv(v), v' = f(t, u, inv(v)):
    for each i, ys[i + 1] becomes the state one step on from ys[i], a step
    that starts at time ts[i].  A state is stacked, u in its row 0 and v in
    its row 1, each of any shape f accepts, and a time is a float or an array
    that broadcasts against them.  Each RK4 combination acts on u and v at
    once, in the operation order of u and v stepped as two arrays."""
    k1, k2, k3, k4, mid = (np.empty(ys.shape[1:]) for _ in range(5))

    def stage(t, y, k):
        k[0] = inv(y[1])
        k[1] = f(t, y[0], k[0])

    # 0-d factors and k + k give the bits of float * array and 2.0 * k, faster
    h_half, h_full, h_sixth = (np.array(c) for c in (0.5 * h, h, h / 6.0))
    for i, t0 in enumerate(ts):
        yi = ys[i]
        stage(t0, yi, k1)
        stage(t0 + 0.5 * h, np.add(yi, h_half * k1, out=mid), k2)
        stage(t0 + 0.5 * h, np.add(yi, h_half * k2, out=mid), k3)
        stage(t0 + h, np.add(yi, h_full * k3, out=mid), k4)
        ys[i + 1] = yi + h_sixth * (k1 + (k2 + k2) + (k3 + k3) + k4)


def _by_node(ys: np.ndarray, shape: tuple, backward: bool) -> tuple[np.ndarray, np.ndarray]:
    """u and v of a swept (n + 1, 2, shots) state, in ascending node order,
    each of shape + (n + 1,)."""
    ys = ys[::-1] if backward else ys
    return tuple(x.T.reshape(shape + (len(ys),)) for x in (ys[:, 0], ys[:, 1]))


def shoot_ivp(spec: ProblemSpec, u0, slope0, *,
              backward: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step classical Runge-Kutta for the first-order system

        u' = phi^{-1}(v),   v' = f(t, u, phi^{-1}(v)),   v = phi(u'),

    landing exactly on the grid nodes.  With backward=True the data
    (u0, slope0) is imposed at t = T and the sweep runs right to left; arrays
    are always returned in ascending node order.

    u0 and slope0 broadcast against each other, and every shot of the
    broadcast shape is integrated in the same sweep: the returned arrays have
    that shape plus one trailing axis of n + 1 nodes.

    This is the serial sweep, n steps one after another (`_shoot_parareal`
    takes the same steps time-parallel).  Each stage calls spec.rhs.fn once,
    as f(t, u, u') with t a float and u, u' arrays over the shots (4 n calls
    a sweep, even if every shot dies); a scalar f broadcasts in the RK4
    arithmetic.  The sweep keeps (u, v) of every shot as one (n + 1, 2,
    shots) array stepped by `_rk4`: the results are bit for bit those of u
    and v stepped as two arrays, and u and v are returned as views of the
    one array.  phi^{-1} is never finite outside (-a, a), so a shot whose
    flux leaves it gets a non-finite u at its next stage for good.  After
    the sweep, a shot with a non-finite u or |v| >= a at its last node is
    dead: a row of NaN, or StepRejected for a single scalar shot, at the
    first node where that rule fails.
    """
    grid = spec.grid
    phi = spec.phi
    a = phi.a
    swept = grid.nodes[::-1] if backward else grid.nodes  # the nodes in sweep order
    u0, slope0 = np.broadcast_arrays(np.asarray(u0, dtype=float),
                                     np.asarray(slope0, dtype=float))
    shape = u0.shape
    ys = np.empty((grid.n + 1, 2, u0.size))  # ys[i] = (u, v) of every shot at swept[i]
    ys[0, 0] = u0.ravel()
    ys[0, 1] = phi.forward(slope0.ravel())
    with np.errstate(all="ignore"):
        _rk4(spec.rhs.fn, phi.inv_fn, ys, swept[:-1].tolist(),
             -grid.h if backward else grid.h)
        ok = np.isfinite(ys[:, 0]) & (np.abs(ys[:, 1]) < a)
    dead = ~ok[-1]
    if not shape and dead[0]:
        first = int(np.argmin(ok[1:, 0]))  # the step the shot died in
        raise StepRejected(
            f"the shot left the flux range (-{a:g}, {a:g}) or turned non-finite "
            f"between t = {float(swept[first]):.6g} and t = {float(swept[first + 1]):.6g}",
            time=float(swept[first + 1]))
    ys[:, :, dead] = np.nan
    return _by_node(ys, shape, backward)


def _split(n: int) -> tuple[int, int, int] | None:
    """Parareal's split of n steps: c, the divisor of n nearest sqrt(n); the
    S = n / c segments of c steps; and the cap on passes, (n - 1) // (c + S),
    which keeps their sequential steps under n.  None when fewer than 4
    passes fit, where parareal buys nothing."""
    root = math.sqrt(n)
    divisors = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    c = min(divisors + [n // d for d in divisors], key=lambda d: (abs(d - root), d))
    passes = (n - 1) // (c + n // c)
    return (c, n // c, passes) if passes >= 4 else None


def _locate_grid(spec: ProblemSpec) -> ProblemSpec | None:
    """spec on the grid where `solve_shooting` locates k first: the S
    intervals of the near sweep's coarse propagator when that sweep runs by
    parareal and S >= MIN_COARSE_N, else `_coarse(spec)`."""
    split = _split(spec.grid.n)
    if split and split[1] >= MIN_COARSE_N:
        return replace(spec, grid=Grid(spec.grid.T, split[1]))
    return _coarse(spec)


def _shoot_parareal(spec: ProblemSpec, u0, slope0, *,
                    backward: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """`shoot_ivp`'s sweep, run time-parallel by parareal (Lions, Maday &
    Turinici, C. R. Acad. Sci. Paris 332, 2001) over `_split(n)`'s S = n / c
    segments of c steps, c the divisor of n nearest sqrt(n).  Same arguments
    and returns, but not bit for bit: each segment starts from a corrected
    value that differs from the serial sweep's by rounding.

    The coarse propagator G is one RK4 step of c h; the fine one, F, is c
    steps of h, taken on every segment at once by the same `_rk4`, so f sees
    t as an (S, 1) array, one time per segment.  G chains the segments'
    starts, and each pass runs F from them.  The starts are then corrected
    in order, new(s + 1) = G(new(s)) + F(old(s)) - G(old(s)), and F runs
    again.  Each pass runs F on every shot and compares, in u and in u', each
    segment's end with the next one's start; the first whose seams all close
    within SEAM_TOL max(1, |y|) is the sweep.  A pass costs c + S sequential
    steps, and at most (n - 1) // (c + S) passes run: fewer steps than n.
    The sweep is `shoot_ivp`'s own:
      - when fewer than 4 passes fit (n <= 64 for c and S near sqrt(n),
        and every n with c < 4 or S < 4, prime n among them);
      - when any value of a pass is non-finite or has |v| >= a, so dead
        shots and their NaN rows are exactly `shoot_ivp`'s;
      - when the seams are still open after the last pass.
    """
    n = spec.grid.n
    split = _split(n)
    if split is None:
        return shoot_ivp(spec, u0, slope0, backward=backward)
    c, segments, passes = split
    phi = spec.phi
    f, inv = spec.rhs.fn, phi.inv_fn
    h = -spec.grid.h if backward else spec.grid.h
    swept = spec.grid.nodes[::-1] if backward else spec.grid.nodes
    starts = swept[:-1:c].tolist()  # the time of each segment's start
    times = swept[:-1].reshape(segments, c).T[:, :, None]  # times[i, s]: step i of segment s
    y0, s0 = np.broadcast_arrays(np.asarray(u0, dtype=float),
                                 np.asarray(slope0, dtype=float))
    shape, m = y0.shape, y0.size
    coarse = np.empty((segments + 1, 2, m))  # coarse[s] = (u, v) at the start of segment s
    coarse[0, 0] = y0.ravel()
    coarse[0, 1] = phi.forward(s0.ravel())
    with np.errstate(all="ignore"):
        _rk4(f, inv, coarse, starts, c * h)
        g_prev = coarse[1:].copy()  # G of each start of the last pass
        for iteration in range(passes):
            if iteration:
                delta = fine[c].swapaxes(0, 1) - g_prev  # F - G of the old starts
                for s in range(segments):
                    _rk4(f, inv, coarse[s:s + 2], starts[s:s + 1], c * h)
                    g_prev[s] = coarse[s + 1]
                    coarse[s + 1] += delta[s]
            fine = np.empty((c + 1, 2, segments, m))  # fine[i, :, s]: after step i of s
            fine[0] = coarse[:-1].swapaxes(0, 1)
            _rk4(f, inv, fine, times, h)
            if not (np.isfinite(fine).all() and (np.abs(fine[:, 1]) < phi.a).all()):
                break
            end, start = (np.stack((y[0], inv(y[1])))  # u and u' on both sides of each seam
                          for y in (fine[c, :, :-1], fine[0, :, 1:]))
            if (np.abs(end - start) <= SEAM_TOL * np.maximum(1.0, np.abs(start))).all():
                ys = np.concatenate([fine[:c].transpose(2, 0, 1, 3).reshape(n, 2, m),
                                     fine[c, :, -1:].swapaxes(0, 1)])
                return _by_node(ys, shape, backward)
    return shoot_ivp(spec, u0, slope0, backward=backward)


def solve_shooting(spec: ProblemSpec, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Every boundary condition ties three boundary quantities to one shared
    value k, so each is a scalar shooting problem in k:

        p1   forward from u(0) = u'(0) = k, match u'(T) = k
        p1t  backward from u(T) = u'(T) = k, match u'(0) = k
        p2   backward from u(T) = u'(T) = k, match u(0) = k

    Every sweep is one batched call, whose cost hardly depends on the number
    of shots but grows with n.  So k is located on each grid in turn, the
    `_locate_grid` one and the `_coarse` one (each if coarser, and once if
    they are the same), then the problem's, by `_scan_root` with
    `_refine_batched` stopped once the bracket is under LOCATE_WIDTH
    max(1, |k|), at the bracket's interpolated root estimate; these sweeps
    are `shoot_ivp`'s.  Then one near sweep on the problem's grid,
    `_shoot_parareal`, shoots k and k -+ NEAR_REACH max(1, |k|), so a root
    within that reach is bracketed however well k was located.  Its root is
    a shot that matches exactly at or before its first sign change, else
    the zero of the inverse interpolant through its finite mismatches,
    clamped into that sign change, else a shot that matches to rounding.
    The solution is the `_lagrange` interpolant of the live shots' u and u'
    at that root: quadratic, linear when one shot died, and a shot itself
    at its k.
    `residuals.c1` is the matching defect of that interpolant.  The first
    grid on which neither step raises NoRoot gives the solution; the
    problem's grid's NoRoot propagates.
    `iterations` counts the sweeps on every grid; a NoRoot carries it too.
    """
    phi = spec.phi
    bc = spec.bc
    backward = bc.end == -1
    other = -1 - bc.end
    sweeps = 0
    swept = ()  # the last sweep's ks and shots

    def mismatch(ks: np.ndarray, on: ProblemSpec = spec,
                 parareal: bool = False) -> np.ndarray:
        nonlocal sweeps, swept
        sweeps += 1
        sweep = _shoot_parareal if parareal else shoot_ivp
        us, vs = sweep(on, ks, ks, backward=backward)
        swept = ks, us, vs
        end = us[..., other] if bc is BoundaryCondition.P2 else phi.inv_fn(vs[..., other])
        return end - ks

    def interpolate(fn, ks, vals, i):
        """The zero of the inverse interpolant through the near sweep's finite
        mismatches, clamped into their first sign change [ks[i], ks[i + 1]]
        (ks[i] if NaN, as where two mismatches coincide): evaluates nothing.
        `_scan_root` returns an exact zero at or before ks[i] itself."""
        live = np.isfinite(vals)
        with np.errstate(all="ignore"):
            x = ks[i] + float(_lagrange(vals[live], 0.0) @ (ks[live] - ks[i]))
        return float(max(ks[i], min(x, ks[i + 1])))

    def locate(fn, ks, vals, i):
        return _refine_batched(fn, ks, vals, i, width=LOCATE_WIDTH)

    scan = np.linspace(-SEED_RADIUS - 1.0, SEED_RADIUS + 1.0, SWEEP_SHOTS)
    grids = {on.grid.n: on for on in (_locate_grid(spec), _coarse(spec), spec) if on}
    for on in grids.values():  # each grid once
        try:
            k = _scan_root(lambda ks: mismatch(ks, on), scan, locate)
            near = k + NEAR_REACH * max(1.0, abs(k)) * np.linspace(-1.0, 1.0, NEAR_SHOTS)
            k_root = _scan_root(lambda ks: mismatch(ks, parareal=True), near,
                                interpolate)
            break
        except NoRoot as exc:
            if on is spec:
                exc.iterations = sweeps
                raise
    ks, us, vs = swept
    live = ~np.isnan(us[:, 0])
    w = _lagrange(ks[live], k_root)
    values, derivs = (w @ x for x in (us[live], phi.inverse(vs[live])))
    u = GridFunction(spec.grid, values, derivs)
    end = values[other] if bc is BoundaryCondition.P2 else derivs[other]
    rep = ResidualReport(abs(float(end) - k_root), bc_defects(bc, u))
    return SolveReport(solution=u, residuals=rep, iterations=sweeps,
                       lambda_path=(), backend="shooting")


# ----------------------------------------------------------- cross validation

def cross_validate(spec: ProblemSpec, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Run both routes and compare.  Returns the fixed-point report with
    backend_agreement = max(sup|du|, sup|du'|) between the two solutions.
    Disagreement beyond 100 * tol is flagged, unless the fixed-point route
    detects a solution family, whose members the routes may pick apart."""
    fp = solve_fixed_point(spec, opts)
    sh = solve_shooting(spec, opts)
    gap_vals = float(np.abs(fp.solution.values - sh.solution.values).max())
    gap_ders = float(np.abs(fp.solution.derivs - sh.solution.derivs).max())
    agreement = max(gap_vals, gap_ders)
    flagged = (not fp.solution_family) and agreement > 100.0 * opts.tol
    return replace(fp, backend="both",
                   iterations=fp.iterations + sh.iterations,
                   backend_agreement=agreement,
                   disagreement_flagged=flagged)
