"""The package's record classes: which ones are dataclasses, and the printed
form of the NamedTuple records.

A frozen dataclass costs about ten times a NamedTuple to create at import, so
a class stays a dataclass only where a caller needs what a NamedTuple lacks:
`dataclasses.replace`, `__post_init__` validation or a `cached_property`."""

import dataclasses
import importlib
import pkgutil

import tribvp
from tribvp.degree import DegreeResult
from tribvp.expressions import parse
from tribvp.hypotheses import ConditionVerdict, Verdict

MODULES = [tribvp] + [importlib.import_module(f"tribvp.{info.name}")
                      for info in pkgutil.iter_modules(tribvp.__path__)
                      if info.name != "__main__"]

KEPT_DATACLASSES = {
    # perfbench's tracer wraps f with dataclasses.replace(spec, rhs=...)
    "tribvp.operators.ProblemSpec",
    "tribvp.operators.RightHandSide",
    # the tracer wraps __post_init__, which also validates the samples
    "tribvp.grid.GridFunction",
    # __post_init__ validation and the cached_property nodes
    "tribvp.grid.Grid",
    # __post_init__ validation
    "tribvp.degree.DomainDelta",
    "tribvp.solver.SolveOptions",
    # cross_validate and the tests build reports with dataclasses.replace
    "tribvp.solver.SolveReport",
    # check_problem's dataclasses.replace, and a default_factory for verdicts
    "tribvp.hypotheses.HypothesisReport",
}


def test_the_dataclasses_are_the_kept_ones():
    found = {f"{cls.__module__}.{cls.__qualname__}"
             for module in MODULES for cls in vars(module).values()
             if isinstance(cls, type) and dataclasses.is_dataclass(cls)}
    assert found == KEPT_DATACLASSES


def test_condition_verdict_repr():
    verdict = ConditionVerdict(Verdict.FAIL, "f < c(t)", 100_000, (0.5, -1.0, 2.0))
    assert repr(verdict) == ("ConditionVerdict(status=<Verdict.FAIL: 'fail'>, "
                             "detail='f < c(t)', samples=100000, "
                             "counterexample=(0.5, -1.0, 2.0))")


def test_degree_result_repr():
    result = DegreeResult(-1, 0.4370272887409364, 516, False)
    assert repr(result) == ("DegreeResult(degree=-1, min_boundary_norm="
                            "0.4370272887409364, samples_used=516, refined=False)")


def test_parsed_tree_repr():
    assert repr(parse("-sin(t)^2 + u/v")) == (
        "Binary(op='+', left=Unary(op='-', operand=Binary(op='^', "
        "left=Call(func='sin', arg=Var(name='t')), right=Num(value=2.0))), "
        "right=Binary(op='/', left=Var(name='u'), right=Var(name='v')))")


def test_a_record_is_a_tuple_of_its_fields():
    verdict = ConditionVerdict(Verdict.PASS, "ok")
    assert verdict == (Verdict.PASS, "ok", 0, None)
    assert verdict._replace(samples=3).samples == 3
