"""Both solution routes, their failure modes, and the cross-check."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tribvp.operators
import tribvp.solver
from tribvp import (BoundaryCondition, Grid, HypothesisFailed, NoConvergence,
                    NoRoot, ProblemSpec, RangeViolation, RightHandSide, SolveOptions,
                    StepRejected, affine_mean, cross_validate, curvature,
                    scaled_atan, shoot_ivp, solve, solve_fixed_point,
                    solve_shooting)

from tribvp.operators import _bracket_root
from tribvp.problem_file import load_problem, loads
from tribvp.solver import (NEAR_REACH, NEAR_SHOTS, SWEEP_SHOTS, _lagrange,
                           _refine_batched, _shoot_parareal, _sweep_around)

from test_acceptance import _admissible_template
from test_operators import RefinerCases, convex_expm1, steep_tanh

PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"


def steep(bc=BoundaryCondition.P1, n=200):
    rhs = RightHandSide(fn=lambda t, u, v: np.exp(4 * v) - np.e)
    return ProblemSpec(Grid(0.01, n), curvature(), rhs, bc)


def cosine(n=100, beta=0.4, phi=None):
    rhs = RightHandSide(fn=lambda t, u, v: beta * np.cos(u))
    return ProblemSpec(Grid(1.0, n), phi or curvature(), rhs, BoundaryCondition.P2)


def template(n):
    """The first criterion-7 p1 template problem, regridded to n intervals."""
    spec, _, _, _ = _admissible_template(np.random.default_rng(7), BoundaryCondition.P1)
    return ProblemSpec(Grid(spec.grid.T, n), spec.phi, spec.rhs, spec.bc)


def singular(params, bc, n=100):
    """f = A (e^{B v} - e^{B y0}) - C / (D + u) from params = (A, B, y0, C,
    D, T), the stress recipe's singular family."""
    A, B, y0, C, D, T = params
    f = f"{A!r}*(exp({B!r}*v) - exp({B!r}*{y0!r})) - {C!r}/({D!r} + u)"
    return loads(f"[problem]\nT = {T!r}\nn = {n}\nf = {f}\nbc = {bc}\n").spec


# (params of `singular`, bc, the root recorded from the full scan) of two
# problems on which the near sweep around the coarse root brackets nothing
NO_BRACKET_PINS = [
    ((0.3899991419384397, 0.8994222899520921, 0.060899014574014476,
      0.05860670251158337, 0.973963042288728, 0.9497477160722585),
     "p1", -1.0052834147164458),
    ((0.34929440330793776, 0.6038191595194384, 0.268997071975065,
      0.23656507783891484, 1.0844965618648954, 0.6579730152622838),
     "p1t", -2.7745553109147556),
]

FLUXES = {"curvature": curvature(), "atan": scaled_atan(1.0)}
GENERATED = [pytest.param(bc, flux, id=f"{bc.value}-{flux}")
             for bc in BoundaryCondition for flux in FLUXES]


def near_shots(k, shots=NEAR_SHOTS):
    """The near sweep's shots around a located k, as `solve_shooting` builds
    them, or as many evenly spaced over the same reach."""
    return k + NEAR_REACH * max(1.0, abs(k)) * np.linspace(-1.0, 1.0, shots)


# The accuracy tests' reference root is refined to adjacent floats from a
# bracket of a fixed 31-point sweep over the near sweep's reach, so it does
# not move with NEAR_SHOTS: where the mismatch is rounding noise near the
# root, brackets from other sweeps end on other adjacent-float roots.
REFERENCE_SHOTS = 31


def generated(bc, flux, seed, n=400):
    """A random problem on n intervals under FLUXES[flux]: the criterion-7
    template for p1 and p1t, c cos(u + w t + s atan(u')) with c < a / (2 T)
    for p2."""
    rng = np.random.default_rng(seed)
    if bc is BoundaryCondition.P2:
        c, w, s = rng.uniform(0.15, 0.45), rng.uniform(0.0, 2 * np.pi), rng.uniform(-1, 1)
        rhs = RightHandSide(fn=lambda t, u, v: c * np.cos(u + w * t + s * np.arctan(v)))
        return ProblemSpec(Grid(1.0, n), FLUXES[flux], rhs, bc)
    spec, _, _, _ = _admissible_template(rng, bc)
    return ProblemSpec(Grid(spec.grid.T, n), FLUXES[flux], spec.rhs, bc)


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(backend="newton")
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)
    # an infinite tol would let every stage converge on its first map
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            SolveOptions(tol=tol)
    # a float budget, even of integral value, is refused as Grid refuses one
    for budget in (2.5, np.float64(3.0)):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            SolveOptions(max_iters=budget)
    budget = SolveOptions(max_iters=np.int64(3)).max_iters
    assert budget == 3 and type(budget) is int


class TestFixedPoint:
    def test_steep_slope_exact(self):
        spec = steep()
        rep = solve_fixed_point(spec)
        exact = 0.25 * (1 + spec.grid.nodes)
        assert np.abs(rep.solution.values - exact).max() < 1e-12
        assert rep.residuals.c1 <= 1e-10
        assert max(rep.residuals.bc_defects) < 1e-12
        assert rep.backend == "fixed-point"
        assert [stage.lam for stage in rep.lambda_path] == [1.0]

    def test_steep_slope_p1t_exact(self):
        spec = steep(BoundaryCondition.P1T)
        rep = solve_fixed_point(spec)
        exact = 0.25 * (1 + spec.grid.nodes - spec.grid.T)
        assert np.abs(rep.solution.values - exact).max() < 1e-12

    def test_cosine_p2_converges(self):
        rep = solve_fixed_point(cosine())
        u = rep.solution
        assert rep.residuals.c1 <= 1e-10
        # boundary structure u(0) = u(T) = u'(T)
        assert abs(u.values[0] - u.values[-1]) < 1e-9
        assert abs(u.values[-1] - u.derivs[-1]) < 1e-9

    def test_deterministic(self):
        a = solve_fixed_point(cosine())
        b = solve_fixed_point(cosine())
        assert np.array_equal(a.solution.values, b.solution.values)
        assert a.residuals.c1 == b.residuals.c1

    def test_no_convergence_reports_best_residual(self):
        with pytest.raises(NoConvergence) as info:
            solve_fixed_point(cosine(), SolveOptions(max_iters=3))
        assert info.value.best_residual > 0
        assert info.value.iterations == 3

    def test_seeding_failure_when_no_root(self):
        # int f dt = T for every affine candidate: nothing to anchor on
        spec = ProblemSpec(Grid(1.0, 32), curvature(),
                           RightHandSide(fn=lambda t, u, v: 1.0 + 0 * t),
                           BoundaryCondition.P1)
        with pytest.raises(HypothesisFailed):
            solve_fixed_point(spec)

    def test_forcing_swing_beyond_flux_range(self):
        # mean-zero but the accumulated swing is ~3.2x the range: the map
        # itself leaves the admissible set and no step halving can help
        spec = ProblemSpec(Grid(1.0, 64), curvature(),
                           RightHandSide(fn=lambda t, u, v: 10 * np.sin(2 * np.pi * t)),
                           BoundaryCondition.P1)
        with pytest.raises(RangeViolation):
            solve_fixed_point(spec)

    def test_family_flag_is_off_when_the_perturbed_slope_leaves_fs_domain(self):
        # the solution has slope 1/4; the flag's probe moves it to 0.26,
        # where sqrt(0.255 - v) is NaN, so the probe is no family evidence
        spec = ProblemSpec(Grid(0.5, 64), curvature(),
                           RightHandSide(fn=lambda t, u, v: np.sqrt(0.255 - v) - np.sqrt(0.005)),
                           BoundaryCondition.P1)
        rep = solve_fixed_point(spec)
        assert np.all(np.abs(rep.solution.derivs - 0.25) < 1e-12)
        assert not rep.solution_family

    def test_zero_rhs_family_detected(self):
        spec = ProblemSpec(Grid(1.0, 64), curvature(),
                           RightHandSide(fn=lambda t, u, v: 0.0 * t),
                           BoundaryCondition.P1)
        rep = solve_fixed_point(spec)
        assert rep.solution_family
        assert rep.residuals.c1 < 1e-12


class TestAnderson:
    @pytest.mark.parametrize("n", [200, 3200])
    def test_template_stages_converge_fast(self, n):
        opts = SolveOptions(tol=1e-10)
        rep = solve_fixed_point(template(n), opts)
        assert rep.residuals.c1 <= opts.tol
        assert max(rep.residuals.bc_defects) <= 10 * opts.tol
        assert [stage.lam for stage in rep.lambda_path] == [1.0]
        assert all(stage.iterations <= 10 for stage in rep.lambda_path)
        assert all(stage.newton_calls == 0 for stage in rep.lambda_path)

    def test_halving_rescues_out_of_range_extrapolation(self):
        # unguarded Anderson extrapolates out of the flux range here
        def f(t, u, v):
            return (0.997 * (np.exp(1.207 * v) - np.exp(1.207 * 0.3))
                    - 0.328 * (1 / (0.988 + u)))
        spec = ProblemSpec(Grid(0.913097618331488, 200), curvature(),
                           RightHandSide(fn=f), BoundaryCondition.P1)
        rep = solve_fixed_point(spec)
        assert rep.residuals.c1 <= 1e-10

    def test_rejected_iterate_is_pulled_back(self, monkeypatch):
        spec = template(200)
        clean = solve_fixed_point(spec)
        real_map = tribvp.solver.fixed_point_map
        calls = 0

        def flaky(spec_, lam, u):
            nonlocal calls
            calls += 1
            if calls == 3:  # the first iterate built from a secant pair
                raise RangeViolation("injected")
            return real_map(spec_, lam, u)

        monkeypatch.setattr(tribvp.solver, "fixed_point_map", flaky)
        rep = solve_fixed_point(spec)
        assert calls > 3
        assert rep.lambda_path[0].iterations > clean.lambda_path[0].iterations
        assert rep.residuals.c1 <= 1e-10
        assert np.abs(rep.solution.values - clean.solution.values).max() <= 1e-9
        assert np.abs(rep.solution.derivs - clean.solution.derivs).max() <= 1e-9


class TestContinuation:
    def test_range_violation_halves_the_step(self):
        # from the seed, the stages aimed at lambda = 1 and 0.5 leave the flux
        # range; so does a fixed first step of 0.2
        def f(t, u, v):
            b = 0.8903900336091478
            return (0.42410593014275366 * (np.exp(b * v) - np.exp(b * -0.0012957882653831243))
                    - 0.11432885905478828 / (1.2634697427323505 + u))
        spec = ProblemSpec(Grid(0.6820029833675156, 100), curvature(),
                           RightHandSide(fn=f), BoundaryCondition.P1T)
        opts = SolveOptions()
        rep = solve_fixed_point(spec, opts)
        assert rep.residuals.c1 <= opts.tol
        lams = [stage.lam for stage in rep.lambda_path]
        assert lams[-1] == 1.0
        assert all(a < b for a, b in zip(lams, lams[1:]))
        assert lams[0] < 1.0
        assert rep.iterations == sum(stage.iterations for stage in rep.lambda_path)

    def test_halving_stops_at_the_floor(self, monkeypatch):
        real_map = tribvp.solver.fixed_point_map
        levels = []

        def refuse_positive_levels(spec_, lam, u):
            if lam > 0.0:
                levels.append(lam)
                raise RangeViolation("injected")
            return real_map(spec_, lam, u)

        monkeypatch.setattr(tribvp.solver, "fixed_point_map", refuse_positive_levels)
        with pytest.raises(RangeViolation):
            solve_fixed_point(template(200))
        assert levels == [2.0 ** -j for j in range(7)]
        assert levels[-1] == tribvp.solver.MIN_LAMBDA_STEP

    def test_no_convergence_is_not_retried(self, monkeypatch):
        real_converge = tribvp.solver._converge_stage
        levels = []

        def spy(spec_, lam, u, opts):
            levels.append(lam)
            return real_converge(spec_, lam, u, opts)

        monkeypatch.setattr(tribvp.solver, "_converge_stage", spy)
        with pytest.raises(NoConvergence):
            solve_fixed_point(cosine(), SolveOptions(max_iters=3))
        assert levels == [1.0]

    def test_seed_scan_is_one_call_per_level(self):
        spec = template(200)
        calls = 0

        def counting(t, u, v):
            nonlocal calls
            calls += 1
            return spec.rhs.fn(t, u, v)

        seed = tribvp.solver._seed(replace(spec, rhs=RightHandSide(fn=counting)))
        assert calls <= 10
        assert seed.values[0] == seed.derivs[0] == seed.derivs[-1]
        assert abs(affine_mean(spec, seed.values[0], seed.derivs[0])) <= 1e-12

    @staticmethod
    def full_scan_seed(spec):
        """The seed of a 65-point scan on the problem's own grid."""
        k = tribvp.solver._scan_root(lambda ks: affine_mean(spec, ks, ks),
                                     np.linspace(-2, 2, 65), _bracket_root)
        return tribvp.solver._affine(spec, k)

    @staticmethod
    def assert_same_line(got, want):
        assert got.values.tobytes() == want.values.tobytes()
        assert got.derivs.tobytes() == want.derivs.tobytes()

    @pytest.mark.parametrize("source,bc", [
        *((n, bc) for n in (200, 800, 3200)
          for bc in (BoundaryCondition.P1, BoundaryCondition.P1T)),
        ("steep_slope", BoundaryCondition.P1), ("steep_slope", BoundaryCondition.P1T),
        # p2 on file, whose seed is zero; its mean has a root only under p1
        ("bounded_forcing", BoundaryCondition.P1)])
    def test_seed_equals_full_fine_scan(self, source, bc):
        if isinstance(source, int):
            spec = template(source)
        else:
            spec = load_problem(PROBLEMS / f"{source}.prob").spec
        spec = replace(spec, bc=bc)
        self.assert_same_line(tribvp.solver._seed(spec), self.full_scan_seed(spec))

    @pytest.mark.parametrize("amplitude", [5.0, 0.5])
    def test_seed_falls_back_to_full_fine_scan(self, amplitude):
        """f = v + A cos(2 pi n_c t / T) is v + A on the n_c-interval coarse
        grid, and its trapezoid mean on the problem's grid is k up to rounding.
        A = 5 leaves the coarse mean no sign change in [-2, 2]; A = 0.5 gives
        one whose fine ends do not straddle zero.  Both must fall back."""
        T = 1.0

        def aliased(t, u, v):
            return v + amplitude * np.cos(2 * np.pi * n_c * t / T)

        spec = ProblemSpec(Grid(T, 800), curvature(), RightHandSide(fn=aliased),
                           BoundaryCondition.P1)
        coarse = tribvp.solver._coarse(spec)
        n_c = coarse.grid.n
        ks = np.linspace(-2, 2, 65)
        assert np.abs(affine_mean(coarse, ks, ks) - (ks + amplitude)).max() < 1e-12
        seed = tribvp.solver._seed(spec)
        self.assert_same_line(seed, self.full_scan_seed(spec))
        assert abs(seed.derivs[0]) < 1e-12

    def test_seed_scans_off_the_problem_grid(self):
        """No call of f made by the seed gets the 65 lines on the problem's
        grid: the scan runs on the coarse grid, the fine grid sees at most
        the two ends of one interval at a time."""
        spec = template(800)
        shapes = []

        def recording(t, u, v):
            shapes.append(np.shape(u))
            return spec.rhs.fn(t, u, v)

        tribvp.solver._seed(replace(spec, rhs=RightHandSide(fn=recording)))
        fine = [shape for shape in shapes if shape[-1] == 801]
        assert (65, 101) in shapes and fine
        assert all(shape[0] <= 2 for shape in fine)


class TestShooting:
    def test_ivp_against_closed_form(self):
        """f = c0: phi(u') is affine in t, u integrates in closed form."""
        c0, v0 = 0.35, 0.2
        g = Grid(1.0, 200)
        spec = ProblemSpec(g, curvature(),
                           RightHandSide(fn=lambda t, u, v: c0 + 0 * t),
                           BoundaryCondition.P1)
        us, vs = shoot_ivp(spec, 0.0, curvature().inverse(v0))
        v_exact = v0 + c0 * g.nodes
        u_exact = (np.sqrt(1 - v0**2) - np.sqrt(1 - v_exact**2)) / c0
        assert np.abs(vs - v_exact).max() < 1e-13
        assert np.abs(us - u_exact).max() < 1e-11

    def test_ivp_backward_matches_forward(self):
        g = Grid(0.5, 100)
        spec = ProblemSpec(g, curvature(),
                           RightHandSide(fn=lambda t, u, v: 0.3 * np.cos(t + u)),
                           BoundaryCondition.P1)
        us, vs = shoot_ivp(spec, 0.1, 0.2)
        us2, vs2 = shoot_ivp(spec, float(us[-1]),
                             float(curvature().inverse(vs[-1])), backward=True)
        assert np.abs(us - us2).max() < 1e-10
        assert np.abs(vs - vs2).max() < 1e-10

    def test_ivp_batch_rows_match_scalar_shots(self):
        spec = ProblemSpec(Grid(0.5, 100), curvature(),
                           RightHandSide(fn=lambda t, u, v: 0.3 * np.cos(t + u)),
                           BoundaryCondition.P1)
        u0 = np.linspace(-0.4, 0.4, 5)
        slope0 = np.linspace(0.3, -0.3, 5)
        for backward in (False, True):
            us, vs = shoot_ivp(spec, u0, slope0, backward=backward)
            assert us.shape == vs.shape == (5, 101)
            for row in range(5):
                u1, v1 = shoot_ivp(spec, u0[row], slope0[row], backward=backward)
                assert np.abs(us[row] - u1).max() <= 1e-13
                assert np.abs(vs[row] - v1).max() <= 1e-13

    @staticmethod
    def textbook_rk4(spec, u0, slope0, backward):
        """shoot_ivp's sweep with u and v in two arrays, in the operation
        order shoot_ivp keeps: float factors, 2.0 * k, left to right."""
        phi, f, t = spec.phi, spec.rhs.fn, spec.grid.nodes
        h = -spec.grid.h if backward else spec.grid.h
        order = np.arange(spec.grid.n, -1, -1) if backward else np.arange(spec.grid.n + 1)
        us = np.empty((spec.grid.n + 1,) + np.shape(u0))
        vs = np.empty_like(us)
        us[order[0]], vs[order[0]] = u0, phi.forward(slope0)
        with np.errstate(all="ignore"):
            for i, j in zip(order[:-1], order[1:]):
                t0, uu, vv = float(t[i]), us[i], vs[i]
                k1u = phi.inv_fn(vv)
                k1v = f(t0, uu, k1u)
                k2u = phi.inv_fn(vv + 0.5 * h * k1v)
                k2v = f(t0 + 0.5 * h, uu + 0.5 * h * k1u, k2u)
                k3u = phi.inv_fn(vv + 0.5 * h * k2v)
                k3v = f(t0 + 0.5 * h, uu + 0.5 * h * k2u, k3u)
                k4u = phi.inv_fn(vv + h * k3v)
                k4v = f(t0 + h, uu + h * k3u, k4u)
                us[j] = uu + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
                vs[j] = vv + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            dead = ~(np.isfinite(us) & (np.abs(vs) < phi.a))[order[-1]]
        us[:, dead] = np.nan
        vs[:, dead] = np.nan
        return us.T, vs.T

    @pytest.mark.parametrize("bc,flux", GENERATED)
    def test_ivp_is_the_textbook_sweep_bit_for_bit(self, bc, flux):
        spec = generated(bc, flux, seed=1, n=100)
        ks = np.linspace(-3.0, 3.0, SWEEP_SHOTS)
        slopes = np.sinh(3.0 * ks)  # out to phi(u') = 0.99992 a: many shots die
        dead = 0
        for backward in (False, True):
            got = shoot_ivp(spec, ks, slopes, backward=backward)
            want = self.textbook_rk4(spec, ks, slopes, backward)
            for g, w in zip(got, want):
                assert np.array_equal(g, w, equal_nan=True)
            dead += int(np.isnan(got[0]).all(axis=1).sum())
            for g, w in zip(shoot_ivp(spec, 0.3, 0.3, backward=backward),
                            self.textbook_rk4(spec, 0.3, 0.3, backward)):
                assert np.array_equal(g, w)
        assert 0 < dead < 2 * SWEEP_SHOTS

    def test_ivp_dying_shot_is_a_nan_row(self):
        # phi(u') = v0 + 0.4 t: the middle shot (v0 = 0.5) reaches a = 1 at
        # t = 1.25, its neighbours stay inside up to T = 2
        spec = ProblemSpec(Grid(2.0, 100), curvature(),
                           RightHandSide(fn=lambda t, u, v: 0.4 + 0 * t),
                           BoundaryCondition.P1)
        slopes = curvature().inverse(np.array([-0.5, 0.5, 0.0]))
        us, vs = shoot_ivp(spec, 0.0, slopes)
        assert np.isnan(us[1]).all() and np.isnan(vs[1]).all()
        for row in (0, 2):
            u1, v1 = shoot_ivp(spec, 0.0, slopes[row])
            assert np.abs(us[row] - u1).max() <= 1e-13
            assert np.abs(vs[row] - v1).max() <= 1e-13
        with pytest.raises(StepRejected):
            shoot_ivp(spec, 0.0, slopes[1])

    @pytest.mark.parametrize("phi", [curvature(), scaled_atan(1.0)],
                             ids=["curvature", "atan"])
    def test_ivp_rejects_range_escape(self, phi):
        # v(t) = t hits the flux bound a = 1 at t = 1
        spec = ProblemSpec(Grid(2.0, 100), phi,
                           RightHandSide(fn=lambda t, u, v: 1.0 + 0 * t),
                           BoundaryCondition.P1)
        with pytest.raises(StepRejected) as info:
            shoot_ivp(spec, 0.0, 0.0)
        assert info.value.time <= 1.0 + 1e-12
        # only the last stage of the first step leaves (-1, 1), at 0.1 * 12;
        # the step itself lands at 0.8.  tan, the inverse of the atan flux,
        # returns finite numbers out there.
        spiky = ProblemSpec(Grid(1.0, 10), phi,
                            RightHandSide(fn=lambda t, u, v: 12.0 * np.sin(10 * np.pi * t)),
                            BoundaryCondition.P1)
        with pytest.raises(StepRejected) as info:
            shoot_ivp(spiky, 0.0, 0.0)
        assert info.value.time == pytest.approx(0.1)

    def test_shooting_steep_slope(self):
        spec = steep()
        rep = solve_shooting(spec)
        exact = 0.25 * (1 + spec.grid.nodes)
        assert np.abs(rep.solution.values - exact).max() < 1e-9
        assert rep.backend == "shooting"

    def test_shooting_p1t(self):
        spec = steep(BoundaryCondition.P1T)
        rep = solve_shooting(spec)
        exact = 0.25 * (1 + spec.grid.nodes - spec.grid.T)
        assert np.abs(rep.solution.values - exact).max() < 1e-9

    def test_shooting_p2_constant_forcing(self):
        spec = ProblemSpec(Grid(1.0, 100), curvature(),
                           RightHandSide(fn=lambda t, u, v: 0.3 + 0 * t),
                           BoundaryCondition.P2)
        fp = solve_fixed_point(spec)
        sh = solve_shooting(spec)
        assert np.abs(fp.solution.values - sh.solution.values).max() < 1e-6
        assert max(sh.residuals.bc_defects) < 1e-10


    @pytest.mark.parametrize("source", ["steep_slope", "bounded_forcing", "zero-p1"])
    def test_oracle_calls_no_fixed_point_map(self, source, monkeypatch):
        if source == "zero-p1":  # a family: every k solves
            spec = ProblemSpec(Grid(1.0, 64), curvature(),
                               RightHandSide(fn=lambda t, u, v: 0.0 * t),
                               BoundaryCondition.P1)
        else:
            spec = load_problem(PROBLEMS / f"{source}.prob").spec
        calls = []

        def counted(name, original):
            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return call
        for module in (tribvp.solver, tribvp.operators):
            for name in ("residual", "fixed_point_map", "nemytskii"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        rep = solve_shooting(spec)
        assert calls == []
        assert not rep.solution_family  # the fixed-point route's flag alone

    @staticmethod
    def record_sweeps(monkeypatch):
        """(intervals, shots) of each sweep that solve_shooting takes.  The
        parareal near sweep is one sweep, also when it falls back to
        shoot_ivp's serial sweep."""
        sweeps, parareal = [], []

        def counted(spec, u0, *args, **kwargs):
            if not parareal:
                sweeps.append((spec.grid.n, np.size(u0)))
            return shoot_ivp(spec, u0, *args, **kwargs)

        def counted_parareal(spec, u0, *args, **kwargs):
            sweeps.append((spec.grid.n, np.size(u0)))
            parareal.append(spec)
            try:
                return _shoot_parareal(spec, u0, *args, **kwargs)
            finally:
                parareal.pop()
        monkeypatch.setattr(tribvp.solver, "shoot_ivp", counted)
        monkeypatch.setattr(tribvp.solver, "_shoot_parareal", counted_parareal)
        return sweeps

    @staticmethod
    def assert_coarse_then_one_fine(spec, sweeps, coarse_sweeps):
        grids = [n for n, _ in sweeps]
        coarse = tribvp.solver._locate_grid(spec).grid.n
        assert grids == [coarse] * coarse_sweeps + [spec.grid.n]

    # the scan, then refining sweeps until the bracket is under LOCATE_WIDTH
    DEMO_COARSE_SWEEPS = {"steep_slope": 3, "bounded_forcing": 2}

    @pytest.mark.parametrize("name", ["steep_slope", "bounded_forcing"])
    def test_demo_files_shoot_at_most_three_grids_of_steps(self, name, monkeypatch):
        doc = load_problem(PROBLEMS / f"{name}.prob")
        sweeps = self.record_sweeps(monkeypatch)
        rep = solve_shooting(doc.spec, doc.options)
        # the sweep cost is per RK4 step: the coarse sweeps and the one fine
        # one take no more steps than three sweeps of the problem's grid
        assert sum(n for n, _ in sweeps) <= 3 * doc.spec.grid.n
        self.assert_coarse_then_one_fine(doc.spec, sweeps, self.DEMO_COARSE_SWEEPS[name])
        assert sweeps[-1][1] == NEAR_SHOTS
        assert rep.iterations == len(sweeps)

    @pytest.mark.parametrize("bc,flux", GENERATED)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_generated_problems_take_one_fine_sweep(self, bc, flux, seed, monkeypatch):
        spec = generated(bc, flux, seed)
        sweeps = self.record_sweeps(monkeypatch)
        rep = solve_shooting(spec)
        # the scan and one refining sweep locate k to LOCATE_WIDTH
        self.assert_coarse_then_one_fine(spec, sweeps, coarse_sweeps=2)
        assert sweeps[-1][1] == NEAR_SHOTS
        assert rep.iterations == len(sweeps)

    def test_without_a_coarser_grid_the_near_sweep_finishes(self, monkeypatch):
        # n = 12: the root is located on the problem's grid alone, and the
        # solution still interpolates the near sweep's bracket
        spec = steep(n=12)
        assert tribvp.solver._locate_grid(spec) is None
        sweeps = self.record_sweeps(monkeypatch)
        rep = solve_shooting(spec)
        assert [n for n, _ in sweeps] == [spec.grid.n] * len(sweeps)
        assert sweeps[0][1] == SWEEP_SHOTS and sweeps[-1][1] == NEAR_SHOTS
        assert rep.iterations == len(sweeps)
        assert rep.residuals.c1 <= SolveOptions().tol

    # k is located on the near sweep's coarse grid of S = n / c intervals
    # (c the divisor of n nearest sqrt(n)) when that sweep runs by parareal
    # and S >= 16; else on `_coarse`'s grid (n = 100: S = 10; the prime 101
    # runs no parareal), or on the problem's grid alone (n = 12)
    @pytest.mark.parametrize("n,intervals", [(400, 20), (800, 32), (3200, 64), (100, 16),
                                             (101, 16), (12, None)])
    def test_locate_grid_rule(self, n, intervals):
        spec = steep(n=n)
        on = tribvp.solver._locate_grid(spec)
        coarse = tribvp.solver._coarse(spec)
        if n in (100, 101, 12):
            assert on == coarse
        assert (on and on.grid.n) == intervals
        assert on is None or replace(on, grid=spec.grid) == spec

    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    @pytest.mark.parametrize("n", [400, 1600, 6400])
    def test_a_solve_takes_at_most_7_sqrt_n_sequential_steps(self, n, bc):
        # every call of f is one RK4 stage of a sweep, serial or parareal,
        # and each sweep's calls come one after another: 4 per sequential step
        spec = generated(bc, "curvature", seed=1, n=n)
        calls = []

        def counted(t, u, v):
            calls.append(None)
            return spec.rhs.fn(t, u, v)
        solve_shooting(replace(spec, rhs=RightHandSide(fn=counted)))
        assert len(calls) % 4 == 0
        assert len(calls) // 4 <= 7 * np.sqrt(n)

    @staticmethod
    def serial_mismatch(spec):
        """solve_shooting's mismatch in k on spec's grid, or on another, by
        shoot_ivp's serial sweep."""
        bc = spec.bc
        backward, other = bc.end == -1, -1 - bc.end

        def mismatch(ks, on=spec):
            us, vs = shoot_ivp(on, ks, ks, backward=backward)
            end = us[..., other] if bc is BoundaryCondition.P2 else on.phi.inv_fn(vs[..., other])
            return end - ks
        return mismatch

    @staticmethod
    def c1_gap_to_the_shot(spec, rep, k):
        """C1 distance from rep's solution to shoot_ivp's shot at k."""
        us, vs = shoot_ivp(spec, k, k, backward=spec.bc.end == -1)
        return (np.abs(rep.solution.values - us).max()
                + np.abs(rep.solution.derivs - spec.phi.inverse(vs)).max())

    @pytest.mark.parametrize("bc,flux", GENERATED)
    def test_interpolant_matches_the_shot_at_the_adjacent_float_root(self, bc, flux):
        """The reference sweep's bracket refined to adjacent floats, and one
        shot there, give the solution of the interpolated shots within 1e-13."""
        spec = generated(bc, flux, seed=3)
        rep = solve_shooting(spec)
        mismatch = self.serial_mismatch(spec)
        solver = tribvp.solver
        coarse = solver._locate_grid(spec)
        k = solver._scan_root(lambda ks: mismatch(ks, coarse),
                              np.linspace(-3.0, 3.0, SWEEP_SHOTS), _refine_batched)
        k_root = solver._scan_root(mismatch, near_shots(k, REFERENCE_SHOTS),
                                   _refine_batched)
        assert self.c1_gap_to_the_shot(spec, rep, k_root) <= 1e-13
        assert rep.residuals.c1 <= SolveOptions().tol

    def test_interpolant_is_as_accurate_when_k_is_located_far_from_the_root(self):
        # a stress problem at n = 400 whose fine root lies 0.81 NEAR_REACH
        # from the located k, between the near sweep's middle and outer shot
        spec = singular((0.7296541837329713, 0.5021046029010398, 0.24624430683950266,
                         0.3454410425712666, 1.0431483020830852, 0.8695627861272857),
                        "p1t", n=400)
        rep = solve_shooting(spec)
        k = rep.solution.values[spec.bc.end]
        k_root = tribvp.solver._scan_root(self.serial_mismatch(spec),
                                          near_shots(k, REFERENCE_SHOTS), _refine_batched)
        assert self.c1_gap_to_the_shot(spec, rep, k_root) <= 1e-11

    # the fine root lies beyond the near sweep's reach of the coarse one, so
    # the near sweep has no sign change (the root recorded from the full scan)
    @pytest.mark.parametrize("params,bc,expected", NO_BRACKET_PINS, ids=["p1", "p1t"])
    def test_near_sweep_without_a_bracket_falls_back_to_the_full_scan(
            self, params, bc, expected, monkeypatch):
        spec = singular(params, bc)
        sweeps = self.record_sweeps(monkeypatch)
        rep = solve_shooting(spec)
        fine = [shots for n, shots in sweeps if n == spec.grid.n]
        # the near sweep, the full scan, its refining sweeps, the near sweep
        # around the root they located
        assert fine[:2] == [NEAR_SHOTS, SWEEP_SHOTS] and fine[-1] == NEAR_SHOTS
        assert len(fine) > 3
        assert abs(rep.solution.values[spec.bc.end] - expected) <= 1e-13

    def test_coarse_grid_takes_over_where_the_located_grid_misses(self, monkeypatch):
        # n = 400: the root located on the near sweep's coarse grid of 20
        # intervals lies beyond the near sweep's reach of the fine root, so k
        # is located again on `_coarse`'s 50 intervals, not on the problem's
        params, bc, _ = NO_BRACKET_PINS[1]
        spec = singular(params, bc, n=400)
        sweeps = self.record_sweeps(monkeypatch)
        rep = solve_shooting(spec)
        assert [n for n, _ in sweeps] == [20] * 3 + [400] + [50] * 3 + [400]
        assert rep.iterations == len(sweeps)
        # the root of a search on the problem's grid alone
        monkeypatch.setattr(tribvp.solver, "_locate_grid", lambda spec: None)
        monkeypatch.setattr(tribvp.solver, "_coarse", lambda spec: None)
        alone = solve_shooting(spec).solution.values[spec.bc.end]
        assert abs(rep.solution.values[spec.bc.end] - alone) <= 1e-12

    def test_a_dead_outer_shot_leaves_the_chord_of_the_live_pair(self, monkeypatch):
        # the near sweep's outer shot on the far side of the middle one from
        # the root dies (a NaN row): the root and the solution are those of
        # the chord through the live pair
        spec = generated(BoundaryCondition.P1, "curvature", seed=1)
        k_root = solve_shooting(spec).solution.values[0]  # p1: u(0) = k
        near = []

        def dying(on, ks, *args, **kwargs):
            us, vs = _shoot_parareal(on, ks, *args, **kwargs)
            near.append((ks, us.copy(), vs.copy()))
            dead = 0 if k_root > ks[1] else -1
            us[dead] = vs[dead] = np.nan
            return us, vs
        monkeypatch.setattr(tribvp.solver, "_shoot_parareal", dying)
        rep = solve_shooting(spec)
        (ks, us, vs), = near
        pair = [1, 2] if k_root > ks[1] else [0, 1]
        ks, us, derivs = ks[pair], us[pair], spec.phi.inverse(vs[pair])
        m = derivs[:, -1] - ks  # p1 matches u'(T) = k
        root = ks[0] - m[0] * (ks[1] - ks[0]) / (m[1] - m[0])
        w = (root - ks[0]) / (ks[1] - ks[0])
        assert 0.0 < w < 1.0
        assert abs(rep.solution.values[0] - root) <= 1e-15
        for got, x in ((rep.solution.values, us), (rep.solution.derivs, derivs)):
            assert np.abs(got - (x[0] + w * (x[1] - x[0]))).max() <= 1e-15
        assert rep.residuals.c1 <= SolveOptions().tol

    @pytest.mark.parametrize("bc", [BoundaryCondition.P1, BoundaryCondition.P1T],
                             ids=["p1", "p1t"])
    def test_flat_family_keeps_an_exact_zero_root(self, bc):
        # f == 0: the mismatch is rounding noise of both signs with exact
        # zeros among it; the solution is the shot at one of those zeros
        spec = ProblemSpec(Grid(1.0, 64), curvature(),
                           RightHandSide(fn=lambda t, u, v: 0.0 * t), bc)
        rep = solve_shooting(spec)
        k = rep.solution.values[bc.end]
        us, vs = shoot_ivp(spec, k, k, backward=bc.end == -1)
        assert rep.residuals.c1 == 0.0
        assert np.array_equal(rep.solution.values, us)
        assert np.array_equal(rep.solution.derivs, spec.phi.inverse(vs))

    # the cubic in v kills the shots of large |k| in the direction of the sweep
    @pytest.mark.parametrize("cubic,bc,backward", [("v*v*v - 4*v", "p1", False),
                                                   ("4*v - v*v*v", "p2", True)],
                             ids=["p1", "p2"])
    def test_wrapped_f_sweeps_bit_identically(self, cubic, bc, backward):
        # a wrapper around f, such as a tracer's, changes nothing in a sweep
        doc = loads(f"[problem]\nT = 0.5\nn = 100\n"
                    f"f = {cubic} + 0.5*cos(6.283*t/0.5) + 0.3*sin(u)\nbc = {bc}\n")
        f = doc.spec.rhs.fn
        calls = []

        def called(t, u, v):
            calls.append(t)
            return f(t, u, v)
        wrapped = replace(doc.spec, rhs=RightHandSide(fn=called))
        ks = np.linspace(-3.0, 3.0, SWEEP_SHOTS)
        loaded = shoot_ivp(doc.spec, ks, ks, backward=backward)
        through_wrapper = shoot_ivp(wrapped, ks, ks, backward=backward)
        assert len(calls) == 4 * doc.spec.grid.n
        dead = np.isnan(loaded[0]).all(axis=1)
        assert dead.any() and not dead.all()
        for got, want in zip(through_wrapper, loaded):
            assert np.array_equal(got, want, equal_nan=True)

    # The two-level search picks the root that a search on the problem's grid
    # alone picks (k recorded from it), or raises its exception and message.
    @pytest.mark.parametrize("f,bc,T,expected", [
        ("v*v*v - 4*v + 0.5*cos(6.283*t/0.1)", "p1", 0.1, 0.0005001410615961111),
        ("v*v*v - 4*v + 0.5*cos(6.283*t/0.1)", "p1t", 0.1, -2.041681934433797),
        ("v*v*v - 4*v + 0.5*cos(6.283*t/0.1)", "p1", 0.01, -2.0569964099481726),
        ("(v + 2.5)*(v - 0.5)", "p1t", 0.1, 0.49999999999998457),
        ("sin(3*v)", "p1", 0.1, -2.094395102393202),
        ("(v - 1)*v*(v + 1)", "p1", 0.1, -1.0000000000000004),
        ("exp(v) - exp(3)", "p1", 0.01, 3.0),
        ("exp(v) - exp(3.5)", "p1", 0.01,
         "no sign change among 42 valid seeds in [-3, 3] (smallest |value| 0.326)"),
        ("1/(v-0.25)", "p1", 0.1,
         "1 sign change among 64 valid seeds in [-3, 3] could not be narrowed "
         "(smallest |value| 0.187)"),
    ], ids=["cubic-p1", "cubic-p1t", "cubic-p1-short", "two-lines-p1t", "sine-p1",
            "three-roots-p1", "exp3-exact-zero", "exp3.5-no-root", "pole-no-root"])
    def test_two_level_search_keeps_the_fine_grid_root(self, f, bc, T, expected):
        spec = loads(f"[problem]\nT = {T}\nn = 200\nf = {f}\nbc = {bc}\n").spec
        if isinstance(expected, str):
            with pytest.raises(NoRoot) as info:
                solve_shooting(spec)
            assert str(info.value) == expected
            assert info.value.iterations >= 1
        else:
            k = solve_shooting(spec).solution.values[spec.bc.end]
            assert abs(k - expected) <= 1e-13

    def test_a_bracket_around_a_pole_is_given_up_after_one_sweep(self, monkeypatch):
        # 1/(v - 0.25): the scan's one sign change is the pole at u' = 0.25,
        # and |f| grows toward it, so the first refining sweep's bracket has
        # a larger |value| than the scan's; each grid gives it up there
        spec = loads("[problem]\nT = 0.1\nn = 200\nf = 1/(v-0.25)\nbc = p1\n").spec
        sweeps = self.record_sweeps(monkeypatch)
        with pytest.raises(NoRoot) as info:
            solve_shooting(spec)
        assert [n for n, _ in sweeps] == [20, 20, 25, 25, 200, 200]
        assert info.value.iterations == 6

    def test_scan_in_which_every_shot_dies(self, monkeypatch):
        # u'' grows by 1000 per unit time: every shot leaves the flux range
        spec = loads("[problem]\nT = 1\nf = 1000\nbc = p1\n").spec
        f = spec.rhs.fn
        sweeps = []  # (intervals, calls of f) per sweep

        def counted(t, u, v):
            sweeps[-1][1] += 1
            return f(t, u, v)

        def sweep(on, *args, **kwargs):
            sweeps.append([on.grid.n, 0])
            return shoot_ivp(replace(on, rhs=RightHandSide(fn=counted)), *args, **kwargs)
        monkeypatch.setattr(tribvp.solver, "shoot_ivp", sweep)
        with pytest.raises(NoRoot) as info:
            solve_shooting(spec)
        assert str(info.value) == "every seed of the scan failed to evaluate"
        assert info.value.iterations == 3  # the scan on each grid
        # the located grid, `_coarse`'s, then the problem's; a sweep runs to
        # its end even when every shot has died
        grids = [on.grid.n for on in (tribvp.solver._locate_grid(spec),
                                      tribvp.solver._coarse(spec), spec)]
        assert grids == [20, 50, 400]
        assert sweeps == [[n, 4 * n] for n in grids]

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_shot_dying_in_the_last_step(self, backward):
        # f = 60 within 0.03 of the last node only: the last step's first three
        # RK4 stages see f = 0 and the fourth the unchanged flux v0, so every
        # stage stays inside (-1, 1) and u stays finite; only the step's
        # result, v0 + 1 (forward) or v0 - 1 (backward), leaves the range
        end = 0.0 if backward else 1.0
        spec = ProblemSpec(Grid(1.0, 10), curvature(),
                           RightHandSide(fn=lambda t, u, v:
                                         np.where(abs(t - end) < 0.03, 60.0, 0.0) + 0 * u),
                           BoundaryCondition.P1)
        v0 = (-1.0 if backward else 1.0) * np.array([-0.5, 0.5, -0.2])
        slopes = curvature().inverse(v0)
        us, vs = shoot_ivp(spec, 0.0, slopes, backward=backward)
        assert np.isnan(us[1]).all() and np.isnan(vs[1]).all()
        for row in (0, 2):
            u1, v1 = shoot_ivp(spec, 0.0, slopes[row], backward=backward)
            assert np.array_equal(us[row], u1) and np.array_equal(vs[row], v1)
        with pytest.raises(StepRejected) as info:
            shoot_ivp(spec, 0.0, slopes[1], backward=backward)
        assert info.value.time == end

    def test_atan_flux_shots_leaving_the_range_are_nan_rows(self):
        # f = 12 a sin(10 pi t) on h = 0.1: RK4 takes phi(u') from v0 to
        # v0 + 0.8 a and back, and its last stages reach v0 + 1.2 a and
        # v0 - 0.4 a, so a shot survives only for v0 in (-0.6 a, -0.2 a).
        # tan, the atan flux's inverse, is finite out there: the flux masks it.
        for a in (1.0, 2.0):
            phi = scaled_atan(a)
            forcing = RightHandSide(fn=lambda t, u, v: 12.0 * a * np.sin(10 * np.pi * t))
            spec = ProblemSpec(Grid(1.0, 10), phi, forcing, BoundaryCondition.P1)
            v0 = a * np.array([-0.9, -0.5, -0.3, 0.0, 0.5])
            us, vs = shoot_ivp(spec, 0.0, phi.inverse(v0))
            dead = np.isnan(us).all(axis=1)
            assert np.array_equal(np.isnan(vs).all(axis=1), dead)
            assert dead.tolist() == [True, False, False, True, True]
            assert np.isfinite(us[~dead]).all() and np.isfinite(vs[~dead]).all()
            for row in (1, 2):
                u1, v1 = shoot_ivp(spec, 0.0, phi.inverse(v0[row]))
                assert np.array_equal(us[row], u1) and np.array_equal(vs[row], v1)


class TestParareal:
    """The near sweep's parareal against shoot_ivp, the serial reference."""

    @staticmethod
    def near_sweeps(spec, monkeypatch):
        """(shots, backward) of each parareal sweep of solve_shooting(spec)."""
        sweeps = []

        def recorded(on, u0, slope0, *, backward=False):
            sweeps.append((np.array(u0), backward))
            return _shoot_parareal(on, u0, slope0, backward=backward)
        with monkeypatch.context() as patch:
            patch.setattr(tribvp.solver, "_shoot_parareal", recorded)
            solve_shooting(spec)
        return sweeps

    @staticmethod
    def counting(spec, of=lambda t, u: np.ndim(t)):
        """spec with its f recording of(t, u) in each call (the ndim of t by
        default), and that record."""
        f, dims = spec.rhs.fn, []

        def counted(t, u, v):
            dims.append(of(t, u))
            return f(t, u, v)
        return replace(spec, rhs=RightHandSide(fn=counted)), dims

    def parareal(self, spec, ks, backward, monkeypatch, of=lambda t, u: np.ndim(t)):
        """_shoot_parareal(spec, ks, ks), which must not fall back to
        shoot_ivp, and the record of(t, u) of each call of f."""
        counted, dims = self.counting(spec, of)

        def serial(*args, **kwargs):
            raise AssertionError("the parareal sweep fell back to shoot_ivp")
        with monkeypatch.context() as patch:
            patch.setattr(tribvp.solver, "shoot_ivp", serial)
            got = _shoot_parareal(counted, ks, ks, backward=backward)
        return got, dims

    @staticmethod
    def c1_gap(spec, got, want):
        return max(np.abs(got[0] - want[0]).max(),
                   np.abs(spec.phi.inverse(got[1]) - spec.phi.inverse(want[1])).max())

    @pytest.mark.parametrize("bc,flux", GENERATED)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_near_sweep_within_1e13_of_the_serial_sweep(self, bc, flux, seed, monkeypatch):
        spec = generated(bc, flux, seed)
        (ks, backward), = self.near_sweeps(spec, monkeypatch)
        got, dims = self.parareal(spec, ks, backward, monkeypatch)
        assert got[0].shape == got[1].shape == (NEAR_SHOTS, spec.grid.n + 1)
        # F passes of c = 20 steps: 4 c calls of f each, with t of shape (20, 1)
        assert dims.count(2) % 80 == 0 and dims.count(2) >= 80
        assert self.c1_gap(spec, got, shoot_ivp(spec, ks, ks, backward=backward)) <= 1e-13

    @staticmethod
    def f_shots(t, u):
        """The shape of u in an F call (t an (S, 1) array), else None."""
        return np.shape(u) if np.ndim(t) == 2 else None

    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    def test_every_pass_runs_f_on_every_shot(self, bc):
        # n = 400: c = 20 steps on S = 20 segments; in a solve, every F pass
        # shoots all NEAR_SHOTS shots of the near sweep, and the first pass
        # is not the sweep on these problems
        counted, shapes = self.counting(generated(bc, "curvature", seed=1), self.f_shots)
        solve_shooting(counted)
        shapes = [shape for shape in shapes if shape]
        assert shapes == [(20, NEAR_SHOTS)] * len(shapes)
        assert len(shapes) >= 160 and len(shapes) % 80 == 0

    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    def test_near_sweep_shoots_evenly_spaced_shots_around_k(self, bc, monkeypatch):
        # n = 400: the near sweep of a solve shoots the located k and
        # NEAR_SHOTS - 1 points evenly spaced out to NEAR_REACH max(1, |k|)
        located = []

        def locate(*args, **kwargs):
            located.append(_refine_batched(*args, **kwargs))
            return located[-1]
        monkeypatch.setattr(tribvp.solver, "_refine_batched", locate)
        (ks, _), = self.near_sweeps(generated(bc, "curvature", seed=1), monkeypatch)
        k = located[-1]
        reach = NEAR_REACH * max(1.0, abs(k))
        assert ks.shape == (NEAR_SHOTS,) and (np.diff(ks) > 0.0).all()
        assert ks[NEAR_SHOTS // 2] == k
        assert ks[0] == k - reach and ks[-1] == k + reach
        assert np.allclose(np.diff(ks), 2.0 * reach / (NEAR_SHOTS - 1), rtol=1e-7, atol=0.0)

    def test_a_first_pass_whose_seams_close_is_the_sweep(self, monkeypatch):
        # f == 0: v is constant and u linear, so G is exact to rounding and
        # every seam closes on the first pass, which is the sweep: one F pass
        # of c = 10 steps over every shot
        spec = ProblemSpec(Grid(1.0, 100), curvature(),
                           RightHandSide(fn=lambda t, u, v: 0.0 * t), BoundaryCondition.P1)
        ks = near_shots(0.3)
        got, shapes = self.parareal(spec, ks, False, monkeypatch, self.f_shots)
        shapes = [shape for shape in shapes if shape]
        assert shapes == [(10, NEAR_SHOTS)] * 40
        assert got[0].shape == (NEAR_SHOTS, 101)
        assert self.c1_gap(spec, got, shoot_ivp(spec, ks, ks)) <= 1e-13

    @pytest.mark.parametrize("params,bc", [pin[:2] for pin in NO_BRACKET_PINS],
                             ids=["p1", "p1t"])
    def test_seams_closing_after_several_corrections(self, params, bc, monkeypatch):
        # both near sweeps of these singular problems, n = 100 (c = 10),
        # close their seams only on the fourth pass, the last one allowed
        spec = singular(params, bc)
        sweeps = self.near_sweeps(spec, monkeypatch)
        assert len(sweeps) == 2
        for ks, backward in sweeps:
            got, dims = self.parareal(spec, ks, backward, monkeypatch)
            assert dims.count(2) == 4 * 40
            assert self.c1_gap(spec, got, shoot_ivp(spec, ks, ks, backward=backward)) <= 1e-13

    def test_seams_are_closed_in_u_prime_not_in_v(self, monkeypatch):
        # near the root k = -2.04168 of the cubic, |v| reaches 0.9 of a, where
        # u' = phi^{-1}(v) magnifies an error in v about 12 times.  At a seam
        # tolerance of 1e-13 the v seams close one pass before the u' seams,
        # and a sweep accepted on them is 2e-12 from the serial one in u'.
        spec = loads("[problem]\nT = 0.1\nn = 200\n"
                     "f = v*v*v - 4*v + 0.5*cos(6.283*t/0.1)\nbc = p1t\n").spec
        k = -2.041681934433797
        ks = near_shots(k)
        monkeypatch.setattr(tribvp.solver, "SEAM_TOL", 1e-13)
        got, dims = self.parareal(spec, ks, True, monkeypatch)
        assert dims.count(2) == 4 * 4 * 10  # four passes of c = 10 steps
        assert self.c1_gap(spec, got, shoot_ivp(spec, ks, ks, backward=True)) <= 1e-13

    @pytest.mark.parametrize("bc,flux", GENERATED)
    def test_dying_shots_give_the_serial_sweep_bit_for_bit(self, bc, flux):
        spec = generated(bc, flux, seed=1, n=100)
        ks = np.linspace(-3.0, 3.0, SWEEP_SHOTS)
        slopes = np.sinh(3.0 * ks)  # out to phi(u') = 0.99992 a: many shots die
        dying = 0  # the directions in which some, not all, shots die
        for backward in (False, True):
            want = shoot_ivp(spec, ks, slopes, backward=backward)
            dead = np.isnan(want[0]).all(axis=1)
            if dead.any() and not dead.all():
                dying += 1
                for g, w in zip(_shoot_parareal(spec, ks, slopes, backward=backward), want):
                    assert np.array_equal(g, w, equal_nan=True)
        assert dying

    def test_near_sweep_across_the_edge_where_shots_die(self):
        # the cubic's root k = 1.95805 lies 4e-5 below the k where shots
        # start to die; a near sweep around that k loses about half its shots
        spec = loads("[problem]\nT = 0.1\nn = 200\n"
                     "f = v*v*v - 4*v + 0.5*cos(6.283*t/0.1)\nbc = p1\n").spec
        edge = 1.958093971923626
        ks = near_shots(edge)
        got = _shoot_parareal(spec, ks, ks)
        want = shoot_ivp(spec, ks, ks)
        dead = np.isnan(want[0]).all(axis=1)
        assert dead.any() and not dead.all()
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)

    # n = 12 (c = 3), 64 (c = 8, S = 8: 4 passes take 64 sequential steps)
    # and the prime 101 (c = 1) are serial; n = 100 (c = 10) is not
    @pytest.mark.parametrize("n,serial", [(12, True), (64, True), (101, True), (100, False)])
    def test_small_and_prime_n_take_the_serial_sweep(self, n, serial):
        spec = generated(BoundaryCondition.P1, "curvature", seed=1, n=n)
        counted, dims = self.counting(spec)
        ks = np.linspace(-0.5, 0.5, SWEEP_SHOTS - 1)
        for backward in (False, True):
            dims.clear()
            got = _shoot_parareal(counted, ks, ks, backward=backward)
            want = shoot_ivp(spec, ks, ks, backward=backward)
            assert (dims == [0] * (4 * n)) is serial
            # shots spread over [-0.5, 0.5] still give the serial sweep:
            # within 1e-13, or bit for bit after a fallback
            if serial or dims[-1] == 0:
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
            else:
                assert self.c1_gap(spec, got, want) <= 1e-13


class TestLagrange:
    # the near sweep's shots, mismatch-like values of both signs, and
    # unevenly spaced nodes
    NODES = [near_shots(0.3), near_shots(-2.5), np.array([2e-9, -1e-9, -4e-9]),
             np.array([-1.0, 0.25, 3.0, 7.5])]

    @pytest.mark.parametrize("nodes", NODES, ids=["near", "near-negative", "mismatches",
                                                  "four"])
    def test_exactly_one_hot_at_each_node(self, nodes):
        for j, x in enumerate(nodes):
            assert np.array_equal(_lagrange(nodes, x), np.eye(nodes.size)[j])

    def test_exact_on_a_quadratic(self):
        # small dyadic nodes and points: every operation is exact
        nodes = np.array([0.0, 1.0, 2.0])
        q = lambda x: 3.0 * x * x - 2.0 * x + 0.5
        for at in (0.25, 0.5, 1.75, -0.5, 3.0):
            assert _lagrange(nodes, at) @ q(nodes) == q(at)


class TestRefineBatched(RefinerCases):
    refiner = staticmethod(_refine_batched)
    ARGS_PER_CALL = SWEEP_SHOTS
    # every sweep at least halves the bracket; bisection needs 54 halvings
    MAX_CALLS = {"steep_tanh": 8, "convex_expm1": 8}

    def test_never_brackets_across_a_nan(self):
        # the only sign change of x - 0.5 is hidden by NaN on (0.4, 0.6)
        root, calls = self.refine(
            lambda x: np.where((x > 0.4) & (x < 0.6), np.nan, x - 0.5), 0.0, 1.0)
        assert np.isnan(root)
        assert len(calls) == 1

    def test_uses_a_finite_pair_beside_a_nan(self):
        root, _ = self.refine(
            lambda x: np.where((x > 0.7) & (x < 0.8), np.nan, x - 0.3), 0.0, 1.0)
        assert root == 0.3

    @pytest.mark.parametrize("fn", [steep_tanh, convex_expm1],
                             ids=["steep_tanh", "convex_expm1"])
    def test_a_width_stops_inside_a_bracket_under_it(self, fn):
        _, to_adjacent_floats = self.refine(fn, 0.0, 1.0)
        calls = []

        def counted(xs):
            calls.append(np.array(xs))
            return fn(xs)
        ks = np.array([0.0, 1.0])
        estimate = _refine_batched(counted, ks, fn(ks), 0, width=1e-4)
        assert len(calls) < len(to_adjacent_floats)
        # the evaluated arguments on each side of the estimate straddle the
        # root less than 1e-4 apart
        xs = np.unique(np.concatenate([ks, *calls]))
        hi = int(np.searchsorted(xs, estimate))
        assert xs[hi - 1] < estimate < xs[hi] < xs[hi - 1] + 1e-4
        assert fn(xs[hi - 1]) < 0.0 < fn(xs[hi])


    @pytest.mark.parametrize("x, nearest, farthest, duplicates", [
        (1.0, 1e-17, 1e-3, True),              # the nearest reaches round back to x
        (1.0, np.spacing(1.0), 1e-14, True),   # several reaches round to one float
        (2.0, np.spacing(2.0) / 2, 1e-12, True),
        (-2.0, 1e-16, 1e-15, True),            # 63 points, 8 floats
        (-3.5, np.spacing(3.5), 0.25, False),
        (0.0, np.spacing(0.0), 1.0, False),
        (0.1, np.spacing(0.1), 0.05, False),
        (-1e6, np.spacing(1e6), 1e3, False),
    ])
    def test_sweep_around_is_the_np_unique_formula(self, x, nearest, farthest, duplicates):
        reach = np.geomspace(nearest, farthest, (SWEEP_SHOTS - 1) // 2)
        want = np.unique(np.concatenate([x - reach, [x], x + reach]))
        got = _sweep_around(x, nearest, farthest)
        assert (want.size < SWEEP_SHOTS - 1) == duplicates
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

class TestCrossValidate:
    def test_steep_agreement(self):
        rep = cross_validate(steep())
        assert rep.backend == "both"
        assert rep.backend_agreement < 1e-6
        assert not rep.disagreement_flagged

    def test_cosine_agreement(self):
        rep = cross_validate(cosine(n=400), SolveOptions(tol=1e-9))
        assert rep.backend_agreement < 1e-6
        assert not rep.disagreement_flagged

    def test_cosine_atan_flux_agreement(self):
        # p2 shooting sweeps backward through tan, the atan flux's inverse
        rep = cross_validate(cosine(n=400, phi=scaled_atan(1.0)), SolveOptions(tol=1e-9))
        assert rep.backend_agreement < 1e-6
        assert not rep.disagreement_flagged

    def test_family_suppresses_flag(self):
        # f == 0 under p1: both routes pick different members of the affine
        # family; the gap is real but not a defect
        spec = ProblemSpec(Grid(1.0, 64), curvature(),
                           RightHandSide(fn=lambda t, u, v: 0.0 * t),
                           BoundaryCondition.P1)
        rep = cross_validate(spec)
        assert rep.solution_family
        assert not rep.disagreement_flagged
        assert rep.residuals.c1 < 1e-12


def test_solve_dispatch():
    spec = cosine(n=50)
    assert solve(spec, SolveOptions(backend="fixed-point")).backend == "fixed-point"
    assert solve(spec, SolveOptions(backend="shooting")).backend == "shooting"
    assert solve(spec, SolveOptions(backend="both")).backend == "both"
