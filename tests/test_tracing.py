"""The benchmark's tracer wraps package attributes by name; a rename under
src/ must fail here rather than silently break `perfbench/run.py --trace 1`."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402

from tribvp import degree, load_problem, solver  # noqa: E402


@pytest.mark.parametrize("owner,attr", [(owner, attr) for owner, attr, _, _
                                        in tracing._TARGETS],
                         ids=[name for _, _, name, _ in tracing._TARGETS])
def test_traced_target_exists(owner, attr):
    assert attr in owner.__dict__


def test_traced_degree_matches_untraced():
    spec = load_problem(ROOT / "demos" / "problems" / "steep_slope.prob").spec
    plain = degree.degree_for_problem(spec, rho=1.2, kappa=0.9)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = degree.degree_for_problem(tracer.traced_spec(spec), rho=1.2, kappa=0.9)
    assert traced == plain
    assert tracer.calls["degree.map"] >= 1
    assert tracer.calls["degree.winding_degree"] == 1
    assert tracer.counters["expressions.f.calls_array"] >= 1
    # every wrapper is taken off again
    assert "__wrapped__" not in vars(degree.PlanarMap.__call__)


def test_traced_solves_match_untraced():
    # the tracer reads report fields (newton_calls, disagreement_flagged,
    # backend_agreement): dropping one of them fails here
    doc = load_problem(ROOT / "demos" / "problems" / "steep_slope.prob")
    plain = [solver.solve_fixed_point(doc.spec, doc.options),
             solver.cross_validate(doc.spec, doc.options)]
    tracer = tracing.Tracer()
    with tracer.installed():
        spec = tracer.traced_spec(doc.spec)
        traced = [solver.solve_fixed_point(spec, doc.options),
                  solver.cross_validate(spec, doc.options)]
    for got, want in zip(traced, plain):
        assert np.array_equal(got.solution.values, want.solution.values)
        assert np.array_equal(got.solution.derivs, want.solution.derivs)
        assert replace(got, solution=None) == replace(want, solution=None)
    assert tracer.calls["solver.solve_fixed_point"] == 2
    assert tracer.calls["solver.cross_validate"] == 1
    assert tracer.counters["solver.picard_iters"] == 2 * plain[0].iterations
    assert tracer.agreement_max == plain[1].backend_agreement
    assert not hasattr(solver.solve_fixed_point, "__wrapped__")
