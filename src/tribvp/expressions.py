"""Small arithmetic expression language for right-hand sides.

Variables t, u, v (v stands for the derivative u'), the binary operators
+ - * / ^ with ^ binding tightest and associating to the right, unary minus,
a fixed catalog of functions, and the constants pi and e.  Parsing is by
recursive descent over a hand-rolled tokenizer; errors carry the byte offset
into the source string.

Grammar:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

So -x^2 parses as -(x^2) and 2^3^2 as 2^(3^2).

Nesting is limited to MAX_NESTING levels.  An open parenthesis, a function
argument, a unary minus and a '^' each nest one level deeper; an operator of a
'+ - * /' chain nests one level above the deepest of its two operands, because
the chain builds a left-deep tree.  Deeper text is an ExpressionSyntaxError at
the offset where the limit is crossed, so the compiled source and every
recursive tree walk stay within Python's own limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

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


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # only '-'
    operand: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Var, Unary, Binary, Call]


# ----------------------------------------------------------------- tokenizer

_OPS = set("+-*/^()")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'name' | 'op' | 'end'
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    out: list[_Token] = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _OPS:
            out.append(_Token("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    while k < n and src[k].isdigit():
                        k += 1
                    j = k
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExpressionSyntaxError(
                    f"malformed number {text!r}", position=i) from None
            if not math.isfinite(value):
                raise ExpressionSyntaxError(
                    f"number {text!r} is not finite", position=i)
            out.append(_Token("num", text, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(_Token("name", src[i:j], i))
            i = j
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", position=i)
    out.append(_Token("end", "", n))
    return out


# -------------------------------------------------------------------- parser

class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0  # nesting levels open around the current token
        self.reach = 0  # deepest level of the subtree parsed last

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        if self.cur.kind == "op" and self.cur.text == op:
            self.advance()
            return
        raise ExpressionSyntaxError(
            f"expected {op!r}", position=self.cur.pos)

    def level(self, level: int, tok: _Token) -> int:
        """level, refused with tok's offset when it is past MAX_NESTING."""
        if level > MAX_NESTING:
            raise ExpressionSyntaxError(
                f"expression nested more than {MAX_NESTING} levels deep",
                position=tok.pos)
        return level

    def enter(self) -> _Token:
        """Consume the token that opens one more level of nesting."""
        tok = self.advance()
        self.depth = self.level(self.depth + 1, tok)
        return tok

    def parse(self) -> Node:
        node = self.chain("+-")
        if self.cur.kind != "end":
            raise ExpressionSyntaxError(
                f"unexpected trailing input {self.cur.text!r}",
                position=self.cur.pos)
        return node

    def chain(self, ops: str) -> Node:
        """expr (ops '+-', over terms) or term (ops '*/', over factors).  The
        tree is left-deep, so each operator reaches one level past the deeper
        of its operands."""
        node = self.chain("*/") if ops == "+-" else self.factor()
        reach = self.reach
        while self.cur.kind == "op" and self.cur.text in ops:
            tok = self.advance()
            node = Binary(tok.text, node,
                          self.chain("*/") if ops == "+-" else self.factor())
            reach = self.level(max(reach, self.reach) + 1, tok)
        self.reach = reach
        return node

    def factor(self) -> Node:
        if self.cur.kind == "op" and self.cur.text == "-":
            self.enter()
            node = Unary("-", self.factor())
            self.depth -= 1
            return node
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        if self.cur.kind == "op" and self.cur.text == "^":
            reach, tok = self.reach, self.enter()
            node = Binary("^", node, self.factor())
            self.depth -= 1
            self.reach = self.level(max(reach + 1, self.reach), tok)
        return node

    def atom(self) -> Node:
        tok = self.cur
        self.reach = self.depth
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if not (self.cur.kind == "op" and self.cur.text == "("):
                if tok.text in VARIABLES:
                    return Var(tok.text)
                if tok.text in CONSTANTS:
                    return Num(CONSTANTS[tok.text])
                raise UnknownIdentifier(
                    f"unknown identifier {tok.text!r}", position=tok.pos)
            if tok.text not in FUNCTIONS:
                raise UnknownIdentifier(
                    f"unknown function {tok.text!r}", position=tok.pos)
        elif not (tok.kind == "op" and tok.text == "("):
            raise ExpressionSyntaxError(
                f"expected a value, got {tok.text!r}" if tok.kind != "end"
                else "unexpected end of input", position=tok.pos)
        self.enter()
        node = self.chain("+-")
        self.expect_op(")")
        self.depth -= 1
        return Call(tok.text, node) if tok.kind == "name" else node


def parse(src: str) -> Node:
    return _Parser(src).parse()


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
