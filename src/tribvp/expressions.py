"""Small arithmetic expression language for right-hand sides.

Variables t, u, v (v stands for the derivative u'), the binary operators
+ - * / ^ with ^ binding tightest and associating to the right, unary minus,
a fixed catalog of functions, and the constants pi and e.

Grammar:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

So -x^2 parses as -(x^2) and 2^3^2 as 2^(3^2).

Input is ASCII.  One compiled pattern, `_TOKEN`, tokenizes the whole text
before parsing; a character it has no token for, a non-ASCII digit or letter
among them, is refused.  The recursive descent passes levels: `chain`,
`factor` and `atom` take the nesting level their text opens at and return
their tree with the deepest level it reaches.  Error offsets count
characters of the ASCII text, and so bytes.

Nesting is limited to MAX_NESTING levels.  An open parenthesis, a function
argument, a unary minus and a '^' each nest one level deeper; an operator of a
'+ - * /' chain nests one level above the deepest of its two operands, because
the chain builds a left-deep tree.  Deeper text is an ExpressionSyntaxError at
the offset where the limit is crossed, so the compiled source and every
recursive tree walk stay within Python's own limits.
"""

from __future__ import annotations

import math
import re
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import ExpressionSyntaxError, UnknownIdentifier

__all__ = [
    "Node", "Num", "Var", "Unary", "Binary", "Call",
    "parse", "evaluate", "as_callable", "to_source",
    "VARIABLES", "FUNCTIONS", "CONSTANTS", "MAX_NESTING",
]

VARIABLES = ("t", "u", "v")
FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "abs": np.abs, "atan": np.arctan,
}
CONSTANTS = {"pi": math.pi, "e": math.e}
MAX_NESTING = 160


class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Unary(NamedTuple):
    op: str  # only '-'
    operand: "Node"


class Binary(NamedTuple):
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


class Call(NamedTuple):
    func: str
    arg: "Node"


Node = Union[Num, Var, Unary, Binary, Call]


# -------------------------------------------------------------------- parser

_TOKEN = re.compile(r"""[ \t\r\n]*(?:
    (?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]*)(?:[eE][+-]?[0-9]+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<end>\Z)
  | (?P<bad>.))""", re.DOTALL | re.VERBOSE)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token; an 'end' token comes last."""
    tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
              for m in _TOKEN.finditer(src)]
    for kind, text, offset in tokens:
        if kind == "bad":
            raise ExpressionSyntaxError(
                f"unexpected character {text!r}", position=offset)
        if kind == "num":
            try:
                value = float(text)
            except ValueError:
                raise ExpressionSyntaxError(
                    f"malformed number {text!r}", position=offset) from None
            if not math.isfinite(value):
                raise ExpressionSyntaxError(
                    f"number {text!r} is not finite", position=offset)
    return tokens


def _level(level: int, offset: int) -> int:
    """level, refused at offset when it is past MAX_NESTING."""
    if level > MAX_NESTING:
        raise ExpressionSyntaxError(
            f"expression nested more than {MAX_NESTING} levels deep",
            position=offset)
    return level


def parse(src: str) -> Node:
    return _parse(src, VARIABLES)


def _parse(src: str, variables: tuple) -> Node:
    """parse, with a name of VARIABLES that is not in `variables` refused at
    its offset."""
    tokens = _tokenize(src)
    at = 0  # index of the current token

    def take(ops: str):
        """The current token, consumed, if it is one of the operators ops."""
        nonlocal at
        if tokens[at][0] == "op" and tokens[at][1] in ops:
            at += 1
            return tokens[at - 1]

    def chain(depth: int, ops: str) -> tuple[Node, int]:
        """expr (ops '+-', over terms) or term (ops '*/', over factors).  The
        tree is left-deep, so each operator reaches one level past the deeper
        of its operands."""
        node, reach = chain(depth, "*/") if ops == "+-" else factor(depth)
        while token := take(ops):
            right, deepest = chain(depth, "*/") if ops == "+-" else factor(depth)
            node = Binary(token[1], node, right)
            reach = _level(max(reach, deepest) + 1, token[2])
        return node, reach

    def factor(depth: int) -> tuple[Node, int]:
        """factor, with the grammar's power rule folded in."""
        if token := take("-"):
            node, reach = factor(_level(depth + 1, token[2]))
            return Unary("-", node), reach
        node, reach = atom(depth)
        if token := take("^"):
            right, deepest = factor(_level(depth + 1, token[2]))
            node = Binary("^", node, right)
            reach = _level(max(reach + 1, deepest), token[2])
        return node, reach

    def atom(depth: int) -> tuple[Node, int]:
        nonlocal at
        kind, text, offset = tokens[at]
        at += 1
        if kind == "num":
            return Num(float(text)), depth
        if kind == "name":
            opened = take("(")
            if not opened:
                if text in variables:
                    return Var(text), depth
                if text in VARIABLES:
                    raise ExpressionSyntaxError(
                        f"variable {text!r} not allowed here "
                        f"(allowed: {', '.join(variables)})", position=offset)
                if text in CONSTANTS:
                    return Num(CONSTANTS[text]), depth
                raise UnknownIdentifier(
                    f"unknown identifier {text!r}", position=offset)
            if text not in FUNCTIONS:
                raise UnknownIdentifier(
                    f"unknown function {text!r}", position=offset)
            offset = opened[2]  # the argument's level opens at its '('
        elif not (kind == "op" and text == "("):
            raise ExpressionSyntaxError(
                f"expected a value, got {text!r}" if kind != "end"
                else "unexpected end of input", position=offset)
        node, reach = chain(_level(depth + 1, offset), "+-")
        if not take(")"):
            raise ExpressionSyntaxError("expected ')'", position=tokens[at][2])
        return (Call(text, node) if kind == "name" else node), reach

    node, _ = chain(0, "+-")
    if tokens[at][0] != "end":
        raise ExpressionSyntaxError(f"unexpected trailing input "
                                    f"{tokens[at][1]!r}", position=tokens[at][2])
    return node


# ----------------------------------------------------------------- evaluator

def evaluate(node: Node, t, u, v):
    """Value of the tree at (t, u, v) through `as_callable`, with the
    arguments made float arrays and a 0-d result made a python float."""
    t, u, v = (np.asarray(a, dtype=float) for a in (t, u, v))
    out = np.asarray(as_callable(node)(t, u, v), dtype=float)
    return float(out) if out.ndim == 0 else out


def as_callable(node: Node) -> Callable:
    """Compile the tree into a plain python function (t, u, v) -> value that
    evaluates the emitted numpy expression and nothing else: no argument or
    result coercion (`evaluate` and `RightHandSide.__call__` add it)."""
    namespace = {"np": np}
    exec(f"def _compiled(t, u, v):\n    return {_emit(node)}\n", namespace)
    return namespace["_compiled"]


def _emit(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        return f"(-{_emit(node.operand)})"
    if isinstance(node, Call):
        return f"np.{FUNCTIONS[node.func].__name__}({_emit(node.arg)})"
    if isinstance(node, Binary):
        # numpy gives inf or nan where python floats raise, as on 1/0
        if node.op in "^/":
            fn = "np.power" if node.op == "^" else "np.divide"
            return f"{fn}({_emit(node.left)}, {_emit(node.right)})"
        return f"({_emit(node.left)} {node.op} {_emit(node.right)})"
    raise TypeError(f"not an expression node: {node!r}")


# ------------------------------------------------------------------- printer

# Effective precedence of a rendered construct: sums 1, products 2, unary
# minus 3 (factor level), '^' 4, atoms 5.  Each operand slot of the grammar
# admits constructs down to a minimum precedence without parentheses; below
# that a re-parse would group differently, so we wrap.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_MIN_LEFT = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 5}
_MIN_RIGHT = {"+": 2, "-": 2, "*": 3, "/": 3, "^": 3}


def to_source(node: Node) -> str:
    """Render with the minimal parentheses that survive a re-parse with the
    identical tree: parse(to_source(n)) == n for any n a parse can produce."""
    return _render(node, 0)


def _node_prec(node: Node) -> int:
    if isinstance(node, Binary):
        return 4 if node.op == "^" else _PREC[node.op]
    if isinstance(node, Unary):
        return 3
    return 5


def _render(node: Node, min_prec: int) -> str:
    text = _render_bare(node)
    if _node_prec(node) < min_prec:
        return f"({text})"
    return text


def _render_bare(node: Node) -> str:
    if isinstance(node, Num):
        if node.value == math.pi:
            return "pi"
        if node.value == math.e:
            return "e"
        text = repr(node.value)
        if text.endswith(".0"):
            text = text[:-2]
        # a parse never yields a negative literal (that's a Unary); guard
        # anyway so hand-built trees still print evaluable source
        if node.value < 0:
            return f"({text})"
        return text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_render(node.arg, 0)})"
    if isinstance(node, Unary):
        return f"-{_render(node.operand, 3)}"
    if isinstance(node, Binary):
        left = _render(node.left, _MIN_LEFT[node.op])
        right = _render(node.right, _MIN_RIGHT[node.op])
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an expression node: {node!r}")
