"""The integral operators and fixed-point maps.

Pinned balancing-shift values below were derived once with an independent
scipy.optimize.brentq root find at tolerance ~1e-15 and frozen.
"""

import numpy as np
import pytest

from tribvp import (BoundaryCondition, Grid, GridFunction, NonFinite,
                    PreconditionViolated, ProblemSpec, RangeViolation,
                    RightHandSide, affine_mean, balancing_shift, curvature,
                    fixed_point_map, mean_value, nemytskii, residual,
                    running_integral, running_integral_from_end, scaled_atan)
from tribvp.expressions import as_callable, evaluate, parse
from tribvp.operators import BLOCK, _bracket_root, _trapz


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


def test_nemytskii_names_the_first_non_finite_node():
    spec = make_spec(f=lambda t, u, v: np.where(t > 0.5, np.nan, 0 * t), n=8)
    u = GridFunction(spec.grid, np.zeros(9), np.zeros(9))
    with pytest.raises(NonFinite) as info:
        nemytskii(spec, u)
    assert "returned nan at t=0.625 (node 5)" in str(info.value)
    assert info.value.node == 5


class TestRightHandSideCall:
    """`RightHandSide.__call__`, the array entry point that nemytskii,
    affine_mean and the sampler share; as_callable's f is not coerced."""

    T = np.linspace(0.0, 1.0, 9)
    ARGS = {
        "nodes": (T, np.linspace(-1.0, 1.0, 9), np.linspace(0.5, -0.5, 9)),
        # affine_mean's (k, n + 1) lines, with one slope per row
        "lines": (T, np.linspace(-1.0, 1.0, 27).reshape(3, 9),
                  np.array([[-0.5], [0.0], [0.5]])),
    }

    @pytest.mark.parametrize("args", ARGS, ids=list(ARGS))
    @pytest.mark.parametrize("src", ["1000", "2*t + 1",
                                     "atan(v - 0.1) + 0.5*cos(6.283*t)*(1 + 0.1*sin(u))"])
    def test_float_array_of_the_broadcast_shape(self, src, args):
        fn = as_callable(parse(src))
        out = RightHandSide(fn=fn)(*self.ARGS[args])
        want = np.asarray(fn(*self.ARGS[args]), dtype=float)
        assert out.dtype == float
        assert out.shape == np.broadcast(*self.ARGS[args]).shape
        assert np.broadcast_to(want, out.shape).tobytes() == out.tobytes()

    @pytest.mark.parametrize("src", ["0/0", "log(u)"])
    def test_nan_without_a_warning(self, src):
        # pytest turns any warning into an error
        rhs = RightHandSide(fn=as_callable(parse(src)))
        assert np.isnan(rhs(self.T, np.full(9, -1.0), np.zeros(9))).all()

    @pytest.mark.parametrize("src", ["1000", "2*t + 1"])
    def test_nemytskii_returns_one_float_per_node(self, src):
        spec = make_spec(n=8, f=as_callable(parse(src)))
        out = nemytskii(spec, GridFunction(spec.grid, np.zeros(9), np.zeros(9)))
        want = evaluate(parse(src), spec.grid.nodes, 0.0, 0.0)
        assert out.shape == (9,) and out.dtype == float
        assert np.array_equal(out, np.broadcast_to(want, (9,)))


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


def steep_tanh(x):
    return np.tanh(1e4 * (x - 1.0 / 3.0))


def convex_expm1(x):
    # the secant points of expm1(50 (x - 0.3)) on [0, 1] crawl up from 0
    # while f(1) ~ 1.6e15 is halved about 50 times; bisection takes 54
    return np.expm1(50.0 * (x - 0.3))


class RefinerCases:
    """The cases both refiners of the root-search contract share.  A test
    class per refiner sets `refiner` and its own bounds: at most
    ARGS_PER_CALL arguments per call of fn, at most MAX_CALLS[case] calls."""

    def refine(self, fn, lo, hi):
        """The refiner on [lo, hi]; returns the root and the argument arrays
        of each call of fn."""
        calls = []

        def counted(xs):
            assert xs.size <= self.ARGS_PER_CALL
            calls.append(np.array(xs))
            return fn(xs)
        ks = np.array([lo, hi])
        return self.refiner(counted, ks, fn(ks), 0), calls

    def test_returns_an_exact_zero(self):
        # the first point either refiner tries on a linear function is its root
        root, calls = self.refine(lambda x: x - 0.5, 0.0, 1.0)
        assert root == 0.5
        assert len(calls) == 1 and 0.5 in calls[0]

    @pytest.mark.parametrize("fn", [steep_tanh, convex_expm1],
                             ids=["steep_tanh", "convex_expm1"])
    def test_reaches_adjacent_floats_at_an_evaluated_argument(self, fn):
        root, calls = self.refine(fn, 0.0, 1.0)
        assert any(root in xs for xs in calls)
        below, at, above = fn(np.array([np.nextafter(root, 0.0), root,
                                        np.nextafter(root, 1.0)]))
        assert at == 0.0 or below * at < 0.0 or at * above < 0.0
        assert below <= 0.0 <= above
        assert len(calls) <= self.MAX_CALLS[fn.__name__]


class TestBracketRoot(RefinerCases):
    refiner = staticmethod(_bracket_root)
    ARGS_PER_CALL = 1
    # plain bisection needs about 54 halvings of [0, 1] to get there
    MAX_CALLS = {"steep_tanh": 39, "convex_expm1": 60}

    def test_first_secant_point_one_ulp_from_the_root(self):
        # the first secant point of x - 0.116 on [-0.53, 0.63] is the float
        # just below 0.116; the next secant point rounds back onto it
        root, calls = self.refine(lambda x: x - 0.116, -0.53, 0.63)
        assert calls[0][0] == np.nextafter(0.116, 0.0)
        assert root == 0.116
        # plain bisection from there needs about 56 evaluations
        assert len(calls) <= 3

    def test_nan_when_fn_turns_non_finite(self):
        root, calls = self.refine(lambda x: np.where(x > 0.4, np.nan, x - 0.7), 0.0, 1.0)
        assert np.isnan(root)
        assert len(calls) == 1


class TestAffineMean:
    @staticmethod
    def spec():
        return make_spec(T=0.7, n=50,
                         f=lambda t, u, v: np.cos(3 * t) * u + v**2 - 0.1 * u * v)

    def test_batched_rows_equal_per_point_calls(self):
        spec = self.spec()
        x = np.linspace(-1.0, 1.0, 7)
        y = np.linspace(0.5, -0.5, 4)[:, None]
        batch = affine_mean(spec, x, y)
        assert batch.shape == (4, 7)
        for i in range(4):
            for j in range(7):
                assert batch[i, j] == affine_mean(spec, x[j], y[i, 0])
        # and the scalar mean is the package's trapezoid mean along the line
        u = GridFunction(spec.grid, 0.3 + 0.2 * spec.grid.nodes, np.full(51, 0.2))
        assert affine_mean(spec, 0.3, 0.2) == pytest.approx(
            mean_value(spec.grid, nemytskii(spec, u)), rel=1e-14)

    @pytest.mark.parametrize("n, count, calls", [
        (50, 400, [160, 160, 80]),   # 160 lines of 51 nodes fill 8160 of BLOCK
        (8191, 3, [1, 1, 1]),        # one line fills the block
        (8192, 3, [1, 1, 1]),        # one line is longer than the block
    ])
    def test_f_sees_blocks_of_lines(self, n, count, calls):
        sizes = []

        def f(t, u, v):
            sizes.append(u.shape)
            return np.cos(3 * t) * u + v**2 - 0.1 * u * v
        spec = make_spec(T=0.7, n=n, f=f)
        x = np.linspace(-1.0, 1.0, count)
        y = np.linspace(0.5, -0.5, count)
        batch = affine_mean(spec, x, y)
        assert sizes == [(k, n + 1) for k in calls]
        assert max(BLOCK // (n + 1), 1) == calls[0]
        # each line's mean is that of a call on the line alone
        for j in range(count):
            assert batch[j] == affine_mean(spec, x[j], y[j])

    def test_nan_where_f_is_not_finite_on_a_line(self):
        # log(1 + u) is undefined once a line dips to u <= -1
        spec = make_spec(T=1.0, n=40, f=lambda t, u, v: np.log(1.0 + u) + v)
        x = np.array([0.0, -1.5, 0.5])
        out = affine_mean(spec, x, 0.25)
        assert np.isnan(out[1])
        assert out[0] == affine_mean(spec, 0.0, 0.25)
        assert out[2] == affine_mean(spec, 0.5, 0.25)
        assert np.isfinite(out[[0, 2]]).all()

    def test_constant_in_u_broadcasts(self):
        # f depending on the slope alone comes back with one column per line
        spec = make_spec(T=0.01, n=20, f=lambda t, u, v: np.exp(4 * v) - np.e)
        out = affine_mean(spec, np.zeros(3), np.array([0.0, 0.25, 0.5]))
        assert out[1] == 0.0
        assert out[0] < 0.0 < out[2]


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
        with pytest.raises(RangeViolation) as info:
            fixed_point_map(spec, 1.0, u)
        # the flux argument is the running integral of f (mean 0, phi(0) = 0)
        nf = spec.rhs.fn(g.nodes, 0, 0)
        w = running_integral(g, nf - mean_value(g, nf))
        assert info.value.node == int(np.argmax(np.abs(w) >= 1.0))

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


def test_residual_positive_off_solution():
    spec = make_spec(T=1.0, n=32, f=lambda t, u, v: 0.4 * np.cos(u),
                     bc=BoundaryCondition.P2)
    g = spec.grid
    u = GridFunction(g, 0.1 * np.sin(g.nodes), 0.1 * np.cos(g.nodes))
    rep = residual(spec, 1.0, u)
    assert rep.c1 > 0.01
