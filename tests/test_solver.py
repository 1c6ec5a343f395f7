"""Both solution routes, their failure modes, and the cross-check."""

import numpy as np
import pytest

import tribvp.solver
from tribvp import (BoundaryCondition, Grid, HypothesisFailed, NoConvergence,
                    ProblemSpec, RangeViolation, RightHandSide, SolveOptions,
                    StepRejected, cross_validate, curvature, scaled_atan,
                    shoot_ivp, solve, solve_fixed_point, solve_shooting)

from test_acceptance import _admissible_template


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


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(backend="newton")
    with pytest.raises(ValueError):
        SolveOptions(lambda_steps=0)


class TestFixedPoint:
    def test_steep_slope_exact(self):
        spec = steep()
        rep = solve_fixed_point(spec)
        exact = 0.25 * (1 + spec.grid.nodes)
        assert np.abs(rep.solution.values - exact).max() < 1e-12
        assert rep.residuals.c1 <= 1e-10
        assert max(rep.residuals.bc_defects) < 1e-12
        assert rep.backend == "fixed-point"
        assert len(rep.lambda_path) == 5

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

    def test_apriori_flag(self):
        rep = solve_fixed_point(cosine(), SolveOptions(apriori_bound=4.0))
        assert rep.apriori_ok is True
        rep2 = solve_fixed_point(cosine(), SolveOptions(apriori_bound=1e-3))
        assert rep2.apriori_ok is False
        rep3 = solve_fixed_point(cosine())
        assert rep3.apriori_ok is None

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
        assert len(rep.lambda_path) == opts.lambda_steps
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
