"""Acceptance gate: eight end-to-end criteria, one test (and one line) each.

Run with -v to get the per-criterion pass/fail record; each body also prints
a [PASS]/[FAIL] line with the measured quantities (visible under -s and in
failure reports).
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tribvp.hypotheses
from tribvp import (
    BoundaryCondition,
    DomainDelta,
    Grid,
    HypothesisData,
    PlanarMap,
    ProblemSpec,
    RightHandSide,
    SolveOptions,
    balancing_shift,
    boundary_polygon,
    check_problem,
    compute_bounds_p1,
    cross_validate,
    curvature,
    degree_for_problem,
    evaluate,
    mean_value,
    nemytskii,
    norm_c1,
    norm_sup,
    parse,
    reduction_map,
    running_integral,
    scaled_atan,
    solve,
    to_source,
    winding_degree,
)
from tribvp.problem_file import load_problem

PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"
STEEP = PROBLEMS / "steep_slope.prob"
BOUNDED = PROBLEMS / "bounded_forcing.prob"


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {summary}")
        raise
    print(f"[PASS] criterion {num}: {summary}")


def _bc_defects(spec: ProblemSpec, u) -> tuple[float, float, float]:
    u0, uT = float(u.values[0]), float(u.values[-1])
    d0, dT = float(u.derivs[0]), float(u.derivs[-1])
    tied = {
        BoundaryCondition.P1: (u0, d0, dT),
        BoundaryCondition.P1T: (uT, d0, dT),
        BoundaryCondition.P2: (u0, uT, dT),
    }[spec.bc]
    x, y, z = tied
    return abs(x - y), abs(y - z), abs(x - z)


def _admissible_template(rng: np.random.Generator, bc: BoundaryCondition):
    """A random steep-slope-style problem built to satisfy the p1 hypotheses.

    f = gamma*atan(v - y0) + delta*cos(2*pi*t/T)*(1 + 0.1*sin u): the atan term
    fixes strict signs beyond the thresholds, the oscillatory term stays small
    enough (delta margin 1.5x) not to break them, and T is short enough for
    the width condition.
    """
    T = float(rng.uniform(0.005, 0.02))
    gamma = float(rng.uniform(0.5, 2.0))
    y0 = float(rng.uniform(-0.25, 0.25))
    s = float(rng.uniform(0.3, 0.6))
    # strict signs hold below m1 and above m2; the flip sits at y0
    m1 = y0 - s
    m2 = y0 + s
    delta = float(rng.uniform(0.0, gamma * math.atan(s) / (1.1 * 1.5)))
    omega = 2.0 * math.pi / T

    def f(t, x, y):
        return (gamma * np.arctan(y - y0)
                + delta * np.cos(omega * t) * (1.0 + 0.1 * np.sin(x)))

    c_lower = -(gamma * math.pi / 2.0 + 1.1 * delta)
    spec = ProblemSpec(Grid(T, 200), curvature(), RightHandSide(fn=f), bc)
    return spec, m1, m2, c_lower


def test_criterion_1_steep_slope_end_to_end():
    with criterion(1, "steep-slope check/solve/degree, L and closed form pinned"):
        start = time.perf_counter()
        doc = load_problem(STEEP)
        report = check_problem(doc.spec, doc.hypothesis_data)
        assert report.passed
        assert abs(report.L - 1.0 / math.sqrt(5.0)) <= 1e-12
        sol = solve(doc.spec, doc.options)
        t = doc.spec.grid.nodes
        sup_err = float(np.abs(sol.solution.values - (1.0 + t) / 4.0).max())
        assert sup_err < 1e-6
        deg = degree_for_problem(doc.spec, rho=1.2, kappa=0.9)
        assert deg.degree == -1
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        print(f"  L ok, sup_err={sup_err:.3e}, degree={deg.degree}, "
              f"elapsed={elapsed:.2f}s")


def test_criterion_2_bounded_forcing_end_to_end():
    with criterion(2, "bounded-forcing check, both backends, norms pinned"):
        start = time.perf_counter()
        doc = load_problem(BOUNDED)
        report = check_problem(doc.spec, doc.hypothesis_data)
        assert report.passed
        assert "0.4 < 0.5" in report.verdicts["bound"].detail
        fp = solve(doc.spec, replace(doc.options, backend="fixed-point"))
        sh = solve(doc.spec, replace(doc.options, backend="shooting"))
        assert fp.residuals.c1 < 1e-8
        assert sh.residuals.c1 < 1e-8
        both = cross_validate(doc.spec, doc.options)
        assert both.backend_agreement < 1e-6
        assert norm_sup(both.solution.derivs) <= 4.0 / 3.0 + 1e-9
        assert norm_c1(both.solution) <= 4.0 + 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        print(f"  residuals=({fp.residuals.c1:.2e}, {sh.residuals.c1:.2e}), "
              f"agreement={both.backend_agreement:.2e}, "
              f"sup|u'|={norm_sup(both.solution.derivs):.6f}, "
              f"elapsed={elapsed:.2f}s")


def test_criterion_3_balancing_projector_properties():
    with criterion(3, "1000 random h: q in range(h), defining integral <= 1e-10*T"):
        rng = np.random.default_rng(20260821)
        worst = 0.0
        for trial in range(1000):
            if trial % 2 == 0:
                phi = curvature()
            else:
                phi = scaled_atan(float(rng.uniform(0.5, 3.0)))
            T = float(rng.uniform(0.3, 3.0))
            grid = Grid(T, 2 * int(rng.integers(30, 150)))
            t = grid.nodes
            h = np.full(grid.n + 1, float(rng.normal()))
            for k in range(1, int(rng.integers(1, 4)) + 1):
                h = h + rng.normal() * np.cos(
                    2.0 * math.pi * k * t / T + rng.uniform(0.0, 2.0 * math.pi))
            peak = max(float(np.abs(h).max()), 1e-12)
            h = h * (float(rng.uniform(0.05, 0.49)) * phi.a / peak)
            q = balancing_shift(phi, grid, h)
            assert float(h.min()) <= q <= float(h.max())
            total = float(running_integral(grid, phi.inverse(h - q))[-1])
            assert abs(total) <= 1e-10 * T
            worst = max(worst, abs(total) / T)
        print(f"  1000 trials, worst normalized defect {worst:.3e}")


def test_criterion_4_fixed_points_solve_the_bvp():
    with criterion(4, "converged p1/p1t solves: |Q(N_f u)| and bc defects <= 10*tol"):
        rng = np.random.default_rng(4)
        doc = load_problem(STEEP)
        cases = [(doc.spec, doc.options)]
        cases.append((replace(doc.spec, bc=BoundaryCondition.P1T), doc.options))
        for i in range(6):
            bc = BoundaryCondition.P1 if i % 2 == 0 else BoundaryCondition.P1T
            spec, _, _, _ = _admissible_template(rng, bc)
            cases.append((spec, SolveOptions()))
        worst_mean, worst_defect = 0.0, 0.0
        for spec, opts in cases:
            rep = solve(spec, opts)
            bound = 10.0 * opts.tol
            mean = abs(mean_value(spec.grid, nemytskii(spec, rep.solution)))
            defects = _bc_defects(spec, rep.solution)
            assert mean <= bound
            assert max(defects) <= bound
            worst_mean = max(worst_mean, mean)
            worst_defect = max(worst_defect, max(defects))
        print(f"  {len(cases)} solves, worst |Q(N_f u)|={worst_mean:.2e}, "
              f"worst defect={worst_defect:.2e}")


def test_criterion_5_degree_axioms():
    with criterion(5, "200 linear maps = sign(det); excision; perturbation"):
        rng = np.random.default_rng(5)
        circle = boundary_polygon(DomainDelta(1.0, 0.9, curvature()), 256)
        done = 0
        while done < 200:
            a11, a12, a21, a22 = rng.uniform(-2.0, 2.0, size=4)
            det = a11 * a22 - a12 * a21
            if abs(det) < 0.05:
                continue
            gmap = PlanarMap(lambda x, y, a=a11, b=a12, c=a21, d=a22:
                             (a * x + b * y, c * x + d * y))
            assert winding_degree(gmap, circle).degree == int(np.sign(det))
            done += 1

        doc = load_problem(STEEP)
        for rho, kappa in [(1.2, 0.9), (1.35, 0.92), (1.5, 0.95)]:
            assert degree_for_problem(doc.spec, rho=rho, kappa=kappa).degree == -1

        base = reduction_map(doc.spec)
        poly = boundary_polygon(DomainDelta(1.2, 0.9, doc.spec.phi), 512)
        margin = winding_degree(base, poly).min_boundary_norm
        for _ in range(20):
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            dx = 0.49 * margin * math.cos(angle)
            dy = 0.49 * margin * math.sin(angle)
            shifted = PlanarMap(lambda x, y, dx=dx, dy=dy:
                                tuple(np.add(base(x, y), ((dx,), (dy,)))))
            assert winding_degree(shifted, poly).degree == -1
        print(f"  200 linear maps ok, excision ok, margin={margin:.4f}, "
              f"20 perturbations ok")


def test_criterion_6_grid_convergence():
    with criterion(6, "bounded forcing: empirical sup-norm order >= 1.8"):
        rhs = RightHandSide(fn=lambda t, x, y: 0.4 * np.cos(x))
        opts = SolveOptions(tol=1e-11)

        def solution_at(n: int):
            spec = ProblemSpec(Grid(1.0, n), curvature(), rhs,
                               BoundaryCondition.P2)
            return solve(spec, opts).solution.values

        reference = solution_at(1600)
        sizes = [100, 200, 400, 800]
        errors = []
        for n in sizes:
            stride = 1600 // n
            err = float(np.abs(solution_at(n) - reference[::stride]).max())
            errors.append(err)
        order = -float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
        assert order >= 1.8
        pairs = ", ".join(f"n={n}: {e:.2e}" for n, e in zip(sizes, errors))
        print(f"  {pairs}; fitted order {order:.2f}")


def test_criterion_7_a_priori_bound(monkeypatch):
    monkeypatch.setattr(tribvp.hypotheses, "SAMPLES", 20_000)
    with criterion(7, "20 random admissible p1 problems: ||u||_C1 < r(2+T)"):
        rng = np.random.default_rng(7)
        slack_worst = 0.0
        for trial in range(20):
            spec, m1, m2, c_lower = _admissible_template(rng, BoundaryCondition.P1)
            bounds = compute_bounds_p1(spec, m1, m2, c_lower, seed=trial)
            assert bounds.r is not None
            lo, hi = bounds.kappa_range
            data = HypothesisData(
                m1=m1, m2=m2, c_lower=c_lower,
                kappa=0.5 * (lo + hi), rho=1.05 * bounds.rho_min)
            report = check_problem(spec, data, seed=trial)
            assert report.passed
            rep = solve(spec, SolveOptions(tol=1e-10))
            size = norm_c1(rep.solution)
            cap = report.r * (2.0 + spec.grid.T)
            assert size < cap
            slack_worst = max(slack_worst, size / cap)
        print(f"  20 problems converged inside the bound, "
              f"worst fill ratio {slack_worst:.3f}")


def test_criterion_8_expression_round_trips():
    with criterion(8, "pinned evaluations exact; 1000 random round-trips"):
        steep = parse("exp(4*v) - e")
        assert evaluate(steep, 0.0, 0.0, 0.25) == 0.0
        assert abs(evaluate(steep, 0.0, 0.0, 0.25)) <= 1e-15
        cosine = parse("0.4 * cos(u)")
        assert evaluate(cosine, 0.0, 0.0, 0.0) == 0.4
        assert evaluate(parse("2^3^2"), 0.0, 0.0, 0.0) == 512.0

        from test_expressions import _random_tree

        rng = np.random.default_rng(8)
        for _ in range(1000):
            tree = _random_tree(rng, 5)
            source = to_source(tree)
            again = parse(source)
            assert again == tree
            assert to_source(again) == source
        print("  pinned values exact, 1000/1000 round-trips stable")
