"""The benchmark's tracer wraps package attributes by name; a rename under
src/ must fail here rather than silently break `perfbench/run.py --trace 1`."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402

from tribvp import degree, load_problem  # noqa: E402


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
