"""INI problem files.

A problem file has up to three sections::

    [problem]
    T = 1.0            ; interval length (required)
    n = 400            ; grid cells
    phi = curvature    ; curvature | atan
    a = 1.0            ; flux range half-width (atan only; curvature fixes 1)
    f = 0.4 * cos(u)   ; right-hand side, variables t, u, v (required)
    bc = p2            ; p1 | p1t | p2 (required)

    [hypotheses]
    M1 = -1.0          ; slope thresholds for the sign condition (p1/p1t)
    M2 = 1.0
    c_lower = -3       ; lower envelope c(t), an expression in t alone
    c_bound = 0.4      ; asserted global bound on |f| (p2), not negative
    kappa = 0.9        ; degree-domain parameters to validate
    rho = 1.2

    [solver]
    tol = 1e-10
    max_iters = 5000   ; map evaluations per continuation stage
    backend = fixed-point

Keys are case-sensitive, unknown sections or keys are rejected, and ';'/'#'
start comments.  Every diagnostic names the section and key it came from.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .errors import ExpressionSyntaxError, ProblemFileError
from .expressions import (Binary, Call, Node, Num, Unary, Var, as_callable,
                          parse)
from .grid import Grid
from .homeomorphisms import by_name
from .hypotheses import HypothesisData
from .operators import BoundaryCondition, ProblemSpec, RightHandSide
from .solver import SolveOptions

__all__ = ["ProblemDocument", "load_problem", "loads"]

_PROBLEM_KEYS = {"T", "n", "phi", "a", "f", "bc"}
_HYPOTHESES_KEYS = {"M1", "M2", "c_lower", "c_bound", "kappa", "rho"}
_SOLVER_KEYS = {"tol", "max_iters", "backend"}
_SECTIONS = {"problem": _PROBLEM_KEYS, "hypotheses": _HYPOTHESES_KEYS,
             "solver": _SOLVER_KEYS}


@dataclass(frozen=True)
class ProblemDocument:
    spec: ProblemSpec
    options: SolveOptions
    hypothesis_data: HypothesisData
    f_source: str
    source_path: str | None = None


def load_problem(path) -> ProblemDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    return loads(text, source_path=str(path))


def loads(text: str, source_path: str | None = None) -> ProblemDocument:
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#"))
    cp.optionxform = str  # keep M1/M2/T case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ProblemFileError(f"invalid problem file: {exc}") from exc

    for section in cp.sections():
        known = _SECTIONS.get(section)
        if known is None:
            raise ProblemFileError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in known:
                raise ProblemFileError(f"unknown key {key!r} in [{section}]")
    if not cp.has_section("problem"):
        raise ProblemFileError("missing required section [problem]")

    prob = cp["problem"]
    T = _float("problem", "T", _require(prob, "problem", "T"))
    if not T > 0.0:
        raise ProblemFileError(f"[problem] T must be positive, got {T!r}")
    n = _int("problem", "n", prob.get("n", "400"))
    phi_name = prob.get("phi", "curvature").strip()
    a = _float("problem", "a", prob.get("a", "1.0"))
    f_source = _require(prob, "problem", "f")
    bc_text = _require(prob, "problem", "bc").strip()

    try:
        bc = BoundaryCondition.from_string(bc_text)
    except ValueError as exc:
        raise ProblemFileError(f"[problem] bc: {exc}") from exc
    try:
        phi = by_name(phi_name, a=a)
    except ValueError as exc:
        raise ProblemFileError(f"[problem] phi: {exc}") from exc
    try:
        grid = Grid(T, n)
    except ValueError as exc:
        raise ProblemFileError(f"[problem] {exc}") from exc
    f_tree = _expression("problem", "f", f_source, allowed=("t", "u", "v"))

    hyp = cp["hypotheses"] if cp.has_section("hypotheses") else {}
    m1 = _opt_float(hyp, "hypotheses", "M1")
    m2 = _opt_float(hyp, "hypotheses", "M2")
    if m1 is not None and m2 is not None and not m1 < m2:
        raise ProblemFileError(
            f"[hypotheses] M1 must be below M2, got M1={m1!r} M2={m2!r}")
    c_bound = _opt_float(hyp, "hypotheses", "c_bound")
    if c_bound is not None and c_bound < 0.0:
        raise ProblemFileError(
            f"[hypotheses] c_bound bounds |f|, so it cannot be negative, "
            f"got {c_bound!r}")
    kappa = _opt_float(hyp, "hypotheses", "kappa")
    rho = _opt_float(hyp, "hypotheses", "rho")
    c_lower = None
    if "c_lower" in hyp:
        c_tree = _expression("hypotheses", "c_lower", hyp["c_lower"],
                             allowed=("t",))
        c_full = as_callable(c_tree)
        c_lower = lambda t, _fn=c_full: _fn(t, 0.0, 0.0)

    sol = cp["solver"] if cp.has_section("solver") else {}
    read = {"tol": _float, "max_iters": _int, "backend": lambda _s, _k, text: text.strip()}
    try:
        options = SolveOptions(**{key: read[key]("solver", key, sol[key]) for key in sol})
    except ValueError as exc:
        raise ProblemFileError(f"[solver] {exc}") from exc

    spec = ProblemSpec(grid=grid, phi=phi,
                       rhs=RightHandSide(fn=as_callable(f_tree)), bc=bc)
    data = HypothesisData(m1=m1, m2=m2, c_lower=c_lower, c_bound=c_bound,
                          kappa=kappa, rho=rho)
    return ProblemDocument(spec=spec, options=options, hypothesis_data=data,
                           f_source=f_source.strip(), source_path=source_path)


def _require(section, name: str, key: str) -> str:
    if key not in section:
        raise ProblemFileError(f"[{name}] is missing required key {key!r}")
    return section[key]


def _float(section: str, key: str, text: str) -> float:
    try:
        value = float(text.strip())
    except ValueError as exc:
        raise ProblemFileError(
            f"[{section}] {key}: not a number: {text.strip()!r}") from exc
    if not math.isfinite(value):
        raise ProblemFileError(f"[{section}] {key}: must be finite")
    return value


def _int(section: str, key: str, text: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ProblemFileError(
            f"[{section}] {key}: not an integer: {text.strip()!r}") from exc


def _opt_float(section, name: str, key: str) -> float | None:
    if key not in section:
        return None
    return _float(name, key, section[key])


def _expression(section: str, key: str, text: str, allowed: tuple) -> Node:
    try:
        tree = parse(text)
    except ExpressionSyntaxError as exc:
        raise ProblemFileError(f"[{section}] {key}: {exc}") from exc
    used = _variables_used(tree)
    extra = used - set(allowed)
    if extra:
        raise ProblemFileError(
            f"[{section}] {key}: variable(s) {sorted(extra)} not allowed here "
            f"(allowed: {', '.join(allowed)})")
    return tree


def _variables_used(node: Node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Unary):
        return _variables_used(node.operand)
    if isinstance(node, Binary):
        return _variables_used(node.left) | _variables_used(node.right)
    if isinstance(node, Call):
        return _variables_used(node.arg)
    return set()
