import math

import numpy as np
import pytest

from tribvp import ExpressionSyntaxError, UnknownIdentifier
from tribvp.expressions import (FUNCTIONS, MAX_NESTING, Binary, Call, Num, Unary,
                                Var, as_callable, evaluate, parse, to_source)


def ev(src, t=0.0, u=0.0, v=0.0):
    return evaluate(parse(src), t, u, v)


def test_literals_and_constants():
    assert ev("3") == 3.0
    assert ev("3.5e2") == 350.0
    assert ev("pi") == math.pi
    assert ev("e") == math.e


def test_variables():
    assert ev("t + 10*u + 100*v", t=1, u=2, v=3) == 321.0


def test_precedence():
    assert ev("2 + 3 * 4") == 14.0
    assert ev("2 * 3 ^ 2") == 18.0
    assert ev("(2 + 3) * 4") == 20.0
    assert ev("8 / 4 / 2") == 1.0       # left associative
    assert ev("2 - 3 - 4") == -5.0


def test_power_right_associative():
    assert ev("2^3^2") == 512.0
    assert ev("(2^3)^2") == 64.0


def test_unary_minus_binds_looser_than_power():
    assert ev("-3^2") == -9.0
    assert ev("(-3)^2") == 9.0
    assert ev("2^-1") == 0.5
    assert ev("--5") == 5.0


def test_functions():
    assert ev("sin(0)") == 0.0
    assert ev("cos(0)") == 1.0
    assert ev("sqrt(9)") == 3.0
    assert ev("abs(-4)") == 4.0
    assert ev("atan(1)") == pytest.approx(math.pi / 4, abs=1e-15)
    assert ev("log(e)") == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_every_catalog_function_compiles_to_its_own_numpy_function(name):
    # the emitter names each function by the catalog entry the parser uses;
    # the arguments cover the NaN of log and sqrt and the poles of tan
    v = np.concatenate([np.linspace(-4.0, 4.0, 81), [np.pi / 2, -np.inf, np.inf]])
    with np.errstate(all="ignore"):
        got = as_callable(parse(f"{name}(v)"))(0.0, 0.0, v)
        want = FUNCTIONS[name](v)
    assert np.array_equal(got, want, equal_nan=True)


def test_flagship_sources():
    # these two right-hand sides must evaluate bit-exactly
    assert ev("exp(4*v) - e", v=0.25) == 0.0
    assert ev("0.4*cos(u)", u=0.0) == 0.4


def test_vectorized_evaluation():
    t = np.linspace(0, 1, 7)
    got = ev("sin(t) + t^2", t=t)
    assert np.allclose(got, np.sin(t) + t**2)


def test_as_callable_matches_evaluate():
    rng = np.random.default_rng(3)
    # hand-written references, so the compiler is not checked against itself
    refs = {
        "exp(4*v) - e": lambda t, u, v: np.exp(4 * v) - np.e,
        "0.4*cos(u)": lambda t, u, v: 0.4 * np.cos(u),
        "t*u - v/2 + sqrt(abs(u))": lambda t, u, v: t * u - v / 2 + np.sqrt(np.abs(u)),
        "atan(v - 1) + cos(2*pi*t)": lambda t, u, v: np.arctan(v - 1) + np.cos(2 * np.pi * t),
    }
    for src, ref in refs.items():
        tree = parse(src)
        fn = as_callable(tree)
        for _ in range(20):
            t, u, v = rng.uniform(-3, 3, size=3)
            want = ref(t, u, v)
            assert fn(t, u, v) == pytest.approx(want, rel=1e-14, abs=1e-14)
            assert evaluate(tree, t, u, v) == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_as_callable_broadcasts():
    fn = as_callable(parse("u + v"))
    out = fn(0.0, np.arange(4.0), 1.0)
    assert np.array_equal(out, np.arange(4.0) + 1.0)
    assert isinstance(fn(0.0, 1.0, 2.0), float)


def test_evaluate_coerces_arguments_and_a_0d_result():
    # as_callable adds no coercion, so evaluate is the one place that has it
    out = evaluate(parse("u + v"), 1, [1, 2], 3)
    assert isinstance(out, np.ndarray) and out.dtype == float
    assert np.array_equal(out, [4.0, 5.0])
    assert type(evaluate(parse("t"), 1, 0, 0)) is float


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExpressionSyntaxError) as info:
        parse("1 + * 2")
    assert info.value.position == 4
    with pytest.raises(ExpressionSyntaxError) as info:
        parse("sin(1")
    assert "expected" in str(info.value)
    with pytest.raises(ExpressionSyntaxError):
        parse("")
    with pytest.raises(ExpressionSyntaxError):
        parse("1 2")
    with pytest.raises(ExpressionSyntaxError):
        parse("1 + 2)")
    with pytest.raises(ExpressionSyntaxError) as info:
        parse("2 @ 3")
    assert info.value.position == 2


@pytest.mark.parametrize("src, error, message, offset", [
    ("t(1)", UnknownIdentifier, "unknown function 't'", 0),
    ("sin(1", ExpressionSyntaxError, "expected ')'", 5),
    ("1 +", ExpressionSyntaxError, "unexpected end of input", 3),
    ("1 2", ExpressionSyntaxError, "unexpected trailing input '2'", 2),
    ("(", ExpressionSyntaxError, "unexpected end of input", 1),
    (")", ExpressionSyntaxError, "expected a value, got ')'", 0),
    # a dangling exponent marker ends the number; 'e' is then the constant
    ("2e", ExpressionSyntaxError, "unexpected trailing input 'e'", 1),
    ("1.2.3", ExpressionSyntaxError, "unexpected trailing input '.3'", 3),
    ("u^^2", ExpressionSyntaxError, "expected a value, got '^'", 2),
])
def test_error_type_message_and_offset(src, error, message, offset):
    with pytest.raises(ExpressionSyntaxError) as info:
        parse(src)
    assert type(info.value) is error
    assert str(info.value) == f"{message} (offset {offset})"
    assert info.value.position == offset


def test_power_nests_one_level_past_a_deep_base():
    # the base reaches 160 levels alone; its '^' is the 161st, found only
    # after the exponent is parsed
    parse("(" * 159 + "u" + ")" * 159 + "^2")
    with pytest.raises(ExpressionSyntaxError) as info:
        parse("(" * 160 + "u" + ")" * 160 + "^2")
    assert str(info.value) == (f"expression nested more than {MAX_NESTING} "
                               f"levels deep (offset 321)")


@pytest.mark.parametrize("src, offset", [
    ("1\u0663.5", 1),      # Arabic-Indic three, once read as a digit
    ("u + \uff11", 4),     # fullwidth one, once read as the number 1
    ("\u00e9", 0),         # once an unknown identifier
    ("u\u00b2", 1),        # superscript two, once part of a name
    ("u\u00a0+ v", 1),     # no-break space, refused before too
])
def test_a_non_ascii_character_is_refused_at_its_offset(src, offset):
    with pytest.raises(ExpressionSyntaxError) as info:
        parse(src)
    assert type(info.value) is ExpressionSyntaxError
    assert str(info.value) == (f"unexpected character {src[offset]!r} "
                               f"(offset {offset})")


def test_signed_exponents_and_a_lone_dot():
    assert ev("1e-3") == 1e-3
    assert ev("2.5E+2*u", u=2.0) == 500.0
    with pytest.raises(ExpressionSyntaxError) as info:
        parse(".")
    assert str(info.value).startswith("malformed number '.'")
    assert info.value.position == 0


def test_literal_that_overflows_is_rejected():
    with pytest.raises(ExpressionSyntaxError) as info:
        parse("u + 1e999*u")
    assert info.value.position == 4
    assert "not finite" in str(info.value)
    assert parse("1e308") == Num(1e308)


def nested(construct, n):
    """Source text that nests one construct n levels deep."""
    return {
        "unary": "-" * n + "u",
        "parens": "(" * n + "0.1*u" + ")" * n,
        "function": "sin(" * n + "u" + ")" * n,
        "power": "^".join(["u"] * n),
        "sum": " + ".join(["0.001*u"] * n),
        # a deep first operand under a long chain: the chain's left-deep tree
        # puts it n levels down although neither half alone is that deep
        "deep-then-sum": "-" * (n - n // 2) + "u" + " + u" * (n // 2),
    }[construct]


CONSTRUCTS = ["unary", "parens", "function", "power", "sum", "deep-then-sum"]

# levels that nested(construct, n) opens beyond n: the product inside the
# parentheses is one more, and n powers have n - 1 carets
EXTRA_LEVELS = {"parens": 1, "power": -1}


@pytest.mark.parametrize("construct, offset", [
    ("unary", 160),           # the 161st '-'
    ("parens", 163),          # the '*' of 0.1*u inside 160 parentheses
    ("function", 643),        # the '(' of the 161st sin
    ("power", 321),           # the 161st '^'
    ("sum", 1598),            # the 160th '+'
    ("deep-then-sum", 399),   # the 80th '+' after 81 minus signs
])
def test_one_level_past_the_limit_is_refused_at_its_offset(construct, offset):
    n = MAX_NESTING + 1 - EXTRA_LEVELS.get(construct, 0)
    parse(nested(construct, n - 1))
    with pytest.raises(ExpressionSyntaxError) as info:
        parse(nested(construct, n))
    assert type(info.value) is ExpressionSyntaxError
    assert str(info.value) == (f"expression nested more than {MAX_NESTING} "
                               f"levels deep (offset {offset})")
    assert info.value.position == offset


@pytest.mark.parametrize("construct", CONSTRUCTS)
def test_nesting_past_the_limit_is_a_syntax_error(construct):
    with pytest.raises(ExpressionSyntaxError, match="nested more than 160 levels"):
        parse(nested(construct, 250))


def test_long_sum_is_refused_before_any_tree_walk():
    src = nested("sum", 1200)
    with pytest.raises(ExpressionSyntaxError) as info:
        parse(src)
    # each 0.001*u is one level deep, so the 160th '+' crosses the limit
    assert info.value.position == src.index("+", 10 * (MAX_NESTING - 1))


def test_nesting_error_names_the_offset_where_the_limit_is_crossed():
    with pytest.raises(ExpressionSyntaxError) as info:
        parse("-" * 250 + "u")
    assert info.value.position == MAX_NESTING


@pytest.mark.parametrize("construct", CONSTRUCTS)
def test_nesting_at_150_still_compiles(construct):
    tree = parse(nested(construct, 150))
    assert parse(to_source(tree)) == tree
    assert np.isfinite(as_callable(tree)(0.0, 0.5, 0.0))


def test_hand_built_negative_literal_prints_evaluable_source():
    # a parse never yields a negative Num; to_source still parenthesizes one
    assert to_source(Num(-1.5)) == "(-1.5)"
    assert to_source(Binary("^", Num(-1.5), Num(2.0))) == "(-1.5) ^ 2"
    assert evaluate(parse(to_source(Num(-1.5))), 0.0, 0.0, 0.0) == -1.5


def test_division_of_constants_by_zero_is_inf():
    fn = as_callable(parse("u + 1/(2-2)"))
    with np.errstate(all="ignore"):
        assert fn(0.0, 1.0, 0.0) == math.inf
        assert np.isnan(as_callable(parse("0/0"))(0.0, 0.0, 0.0))


def test_unknown_identifiers():
    with pytest.raises(UnknownIdentifier):
        parse("x + 1")
    with pytest.raises(UnknownIdentifier):
        parse("sinh(1)")
    with pytest.raises(UnknownIdentifier) as info:
        parse("t + spam")
    assert info.value.position == 4


def test_printer_known_forms():
    cases = [
        ("1+2*3", "1 + 2 * 3"),
        ("(1+2)*3", "(1 + 2) * 3"),
        ("2^3^2", "2 ^ 3 ^ 2"),
        ("(2^3)^2", "(2 ^ 3) ^ 2"),
        ("-u^2", "-u ^ 2"),
        ("(-u)^2", "(-u) ^ 2"),
        ("u-(v-t)", "u - (v - t)"),
        ("pi*e", "pi * e"),
    ]
    for src, want in cases:
        assert to_source(parse(src)) == want


# ---- randomized round-trip: parse(to_source(tree)) must be the same tree

def _random_tree(rng, depth):
    roll = rng.integers(0, 10)
    if depth <= 0 or roll < 3:
        if roll % 2 == 0:
            # non-negative literal: negatives only arise as Unary nodes
            return Num(float(abs(rng.normal()) * 10) if rng.integers(2) else float(rng.integers(0, 9)))
        return Var(("t", "u", "v")[rng.integers(3)])
    if roll < 5:
        return Unary("-", _random_tree(rng, depth - 1))
    if roll < 7:
        fname = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "atan")[rng.integers(8)]
        return Call(fname, _random_tree(rng, depth - 1))
    op = "+-*/^"[rng.integers(5)]
    return Binary(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def test_roundtrip_1000_random_trees():
    rng = np.random.default_rng(2026)
    for i in range(1000):
        tree = _random_tree(rng, 5)
        src = to_source(tree)
        back = parse(src)
        assert back == tree, f"case {i}: {src!r}"


def test_roundtrip_from_source_strings():
    srcs = ["exp(4*v)-e", "0.4*cos(u)", "-t^2+3*u/v", "2^-3^2",
            "abs(-u)-(-v)", "t--u", "1/2/3/4", "sin(cos(tan(t)))"]
    for src in srcs:
        tree = parse(src)
        assert parse(to_source(tree)) == tree


def test_1000_random_trees_compile_and_evaluate():
    # the trees of the round-trip test; f must hand back inf or nan where
    # its arithmetic fails, never raise
    rng = np.random.default_rng(2026)
    t = np.linspace(0.0, 1.0, 5)
    u = np.linspace(-2.0, 2.0, 5)
    v = np.linspace(1.5, -1.5, 5)
    for i in range(1000):
        fn = as_callable(_random_tree(rng, 5))
        with np.errstate(all="ignore"):
            out = np.broadcast_to(fn(t, u, v), t.shape)
            scalar = fn(0.5, 0.0, 0.0)
        assert out.dtype == float, f"case {i}"
        assert isinstance(scalar, float), f"case {i}"
