"""The integral operators and fixed-point maps.

Pinned balancing-shift values below were derived once with an independent
scipy.optimize.brentq root find at tolerance ~1e-15 and frozen.
"""

import numpy as np
import pytest

from tribvp import (BoundaryCondition, Grid, GridFunction,
                    PreconditionViolated, ProblemSpec, RangeViolation,
                    RightHandSide, balancing_shift, curvature,
                    fixed_point_map, mean_value, nemytskii, residual,
                    running_integral, running_integral_from_end, scaled_atan)
from tribvp.operators import _bracket_root, _trapz, left_value, right_value


def make_spec(T=1.0, n=100, f=lambda t, u, v: 0 * t, bc=BoundaryCondition.P1,
              phi=None):
    return ProblemSpec(Grid(T, n), phi or curvature(), RightHandSide(fn=f), bc)


def test_running_integral_linear_exact():
    g = Grid(2.0, 50)
    acc = running_integral(g, 3.0 * np.ones(51))
    assert acc[0] == 0.0
    assert np.allclose(acc, 3.0 * g.nodes, atol=1e-14)
    # trapezoid is exact on linear integrands
    acc2 = running_integral(g, g.nodes)
    assert np.allclose(acc2, g.nodes**2 / 2, atol=1e-13)


def test_running_integral_from_end_vanishes_at_T():
    rng = np.random.default_rng(0)
    g = Grid(1.5, 64)
    v = rng.normal(size=65)
    k = running_integral_from_end(g, v)
    assert k[-1] == 0.0  # exact by construction, not approximately
    h = running_integral(g, v)
    assert np.allclose(k, h - h[-1], atol=1e-15)


def test_mean_value_constant():
    g = Grid(3.0, 30)
    assert mean_value(g, 7.0 * np.ones(31)) == pytest.approx(7.0, abs=1e-14)


def test_left_right_values():
    g = Grid(1.0, 4)
    u = GridFunction(g, np.array([2.0, 0, 0, 0, 5.0]), np.zeros(5))
    assert left_value(u) == 2.0
    assert right_value(u) == 5.0


def test_nemytskii_evaluates_along_function():
    spec = make_spec(f=lambda t, u, v: t + 2 * u + 3 * v, n=10)
    g = spec.grid
    u = GridFunction(g, g.nodes**2, 2 * g.nodes)
    out = nemytskii(spec, u)
    assert np.allclose(out, g.nodes + 2 * g.nodes**2 + 6 * g.nodes)


def test_nemytskii_scalar_rhs_broadcasts():
    spec = make_spec(f=lambda t, u, v: 1.25, n=8)
    u = GridFunction(spec.grid, np.zeros(9), np.zeros(9))
    out = nemytskii(spec, u)
    assert out.shape == (9,)
    assert np.all(out == 1.25)


class TestBalancingShift:
    def test_pinned_linear_case(self):
        # h(t) = 0.4 t on [0,1], n=200: by oddness of the inverse flux about
        # the midpoint the shift is exactly the mid value 0.2
        g = Grid(1.0, 200)
        q = balancing_shift(curvature(), g, 0.4 * g.nodes)
        assert q == pytest.approx(0.2, abs=1e-14)

    def test_pinned_quadratic_cases(self):
        g = Grid(1.0, 200)
        h = 0.4 * g.nodes**2
        q1 = balancing_shift(curvature(), g, h)
        assert q1 == pytest.approx(0.13389218682779463, abs=1e-13)
        q2 = balancing_shift(scaled_atan(1.0), g, h)
        assert q2 == pytest.approx(0.13425289132291962, abs=1e-13)

    def test_balances_the_integral(self):
        rng = np.random.default_rng(21)
        g = Grid(1.0, 128)
        phi = curvature()
        for _ in range(25):
            h = rng.uniform(-0.45, 0.45, size=129)
            q = balancing_shift(phi, g, h)
            assert h.min() <= q <= h.max()
            assert abs(_trapz(g, phi.inverse(h - q))) < 1e-12

    def test_constant_input_returns_it(self):
        g = Grid(2.0, 16)
        assert balancing_shift(curvature(), g, np.full(17, 0.3)) == 0.3

    def test_rejects_large_input(self):
        g = Grid(1.0, 16)
        with pytest.raises(PreconditionViolated):
            balancing_shift(curvature(), g, np.full(17, 0.6))  # >= a/2


class TestBracketRoot:
    @staticmethod
    def counted(fn):
        calls = []

        def wrapped(x):
            calls.append(x)
            return fn(x)
        return wrapped, calls

    def test_returns_an_exact_zero(self):
        # the first secant point of a linear function is its root
        fn, calls = self.counted(lambda x: x - 0.5)
        assert _bracket_root(fn, 0.0, 1.0, -0.5, 0.5) == 0.5
        assert calls == [0.5]

    def test_steep_function_down_to_adjacent_floats(self):
        def steep(x):
            return np.tanh(1e4 * (x - 1.0 / 3.0))
        fn, calls = self.counted(steep)
        root = _bracket_root(fn, 0.0, 1.0, steep(0.0), steep(1.0))
        assert root in calls
        assert steep(np.nextafter(root, 0.0)) <= 0.0 <= steep(np.nextafter(root, 1.0))
        # plain bisection needs about 54 halvings of [0, 1] to get there
        assert len(calls) < 40

    def test_nan_when_fn_turns_non_finite(self):
        fn, calls = self.counted(lambda x: np.nan if x > 0.4 else x - 0.7)
        assert np.isnan(_bracket_root(fn, 0.0, 1.0, -0.7, 0.3))
        assert len(calls) == 1


class TestFixedPointMaps:
    def test_lambda_zero_p1_reproduces_affine(self):
        """At lam=0 the map is v(t) = anchor + mean + H(phi^{-1}(phi(anchor)));
        feeding the affine function k(1+t) with mean-zero f returns it."""
        spec = make_spec(T=0.01, n=50, f=lambda t, u, v: np.exp(4 * v) - np.e)
        k = 0.25  # root: exp(4k) == e exactly
        g = spec.grid
        u = GridFunction(g, k * (1 + g.nodes), np.full(51, k))
        out = fixed_point_map(spec, 0.0, u)
        assert np.allclose(out.values, u.values, atol=1e-15)
        assert np.allclose(out.derivs, u.derivs, atol=1e-15)

    def test_fixed_point_boundary_identities_p1(self):
        # any output of the p1 map has u(0) tied to the anchor and
        # phi(v'(0)) = phi(anchor slope): check the structural identities
        spec = make_spec(T=1.0, n=64, f=lambda t, u, v: 0.3 * np.cos(t + u))
        g = spec.grid
        u = GridFunction(g, 0.1 * (1 + g.nodes), np.full(65, 0.1))
        out = fixed_point_map(spec, 1.0, u)
        # H starts at zero, so out(0) = anchor + mean(N_f)
        assert out.values[0] == pytest.approx(
            u.values[0] + mean_value(g, nemytskii(spec, u)), abs=1e-15)
        # the slope at 0 comes from phi(anchor) alone
        assert out.derivs[0] == pytest.approx(u.values[0], abs=1e-12)

    def test_fixed_point_boundary_identities_p1t(self):
        spec = make_spec(T=1.0, n=64, f=lambda t, u, v: 0.3 * np.sin(t - u),
                         bc=BoundaryCondition.P1T)
        g = spec.grid
        u = GridFunction(g, 0.2 * (1 + g.nodes - 1.0), np.full(65, 0.2))
        out = fixed_point_map(spec, 1.0, u)
        # the end-anchored accumulation vanishes at T
        assert out.values[-1] == pytest.approx(
            u.values[-1] + mean_value(g, nemytskii(spec, u)), abs=1e-15)

    def test_p2_map_constant_rhs_closed_form(self):
        """f = c0, lam = 1: the end-anchored integral is g(t) = -c0 (T - t)."""
        c0 = 0.3
        spec = make_spec(T=1.0, n=100, f=lambda t, u, v: c0 + 0 * t,
                         bc=BoundaryCondition.P2)
        g = spec.grid
        u = GridFunction(g, np.zeros(101), np.zeros(101))
        phi = spec.phi
        gexp = -c0 * (g.T - g.nodes)
        q = balancing_shift(phi, g, gexp)
        out = fixed_point_map(spec, 1.0, u)
        assert np.allclose(out.derivs, phi.inverse(gexp - q), atol=1e-13)
        vals = phi.inverse(-q) + running_integral(g, phi.inverse(gexp - q))
        assert np.allclose(out.values, vals, atol=1e-13)
        # boundary structure: v(0) = v'(T)
        assert out.values[0] == pytest.approx(out.derivs[-1], abs=1e-13)

    def test_p2_lambda_zero_is_zero(self):
        spec = make_spec(f=lambda t, u, v: np.cos(u), bc=BoundaryCondition.P2,
                         n=32)
        g = spec.grid
        u = GridFunction(g, 0.3 * np.sin(g.nodes), 0.3 * np.cos(g.nodes))
        out = fixed_point_map(spec, 0.0, u)
        assert np.all(out.values == 0.0)
        assert np.all(out.derivs == 0.0)

    def test_map_rejects_escape_from_admissible_set(self):
        # mean-zero forcing with accumulated swing far beyond the flux range
        spec = make_spec(T=1.0, n=32,
                         f=lambda t, u, v: 10.0 * np.sin(2 * np.pi * t))
        g = spec.grid
        u = GridFunction(g, np.zeros(33), np.zeros(33))
        with pytest.raises(RangeViolation):
            fixed_point_map(spec, 1.0, u)

    def test_lambda_out_of_range(self):
        spec = make_spec(n=8)
        u = GridFunction(spec.grid, np.zeros(9), np.zeros(9))
        with pytest.raises(ValueError):
            fixed_point_map(spec, 1.5, u)
        with pytest.raises(ValueError):
            fixed_point_map(spec, -0.1, u)


def test_residual_reports_zero_at_fixed_point():
    spec = make_spec(T=0.01, n=50, f=lambda t, u, v: np.exp(4 * v) - np.e)
    g = spec.grid
    u = GridFunction(g, 0.25 * (1 + g.nodes), np.full(51, 0.25))
    rep = residual(spec, 1.0, u)
    assert rep.c1 < 1e-15
    assert max(rep.bc_defects) < 1e-15
    assert rep.mean < 1e-15


def test_residual_positive_off_solution():
    spec = make_spec(T=1.0, n=32, f=lambda t, u, v: 0.4 * np.cos(u),
                     bc=BoundaryCondition.P2)
    g = spec.grid
    u = GridFunction(g, 0.1 * np.sin(g.nodes), 0.1 * np.cos(g.nodes))
    rep = residual(spec, 1.0, u)
    assert rep.c1 > 0.01
