"""Property tests over generated text: the expression parser and the problem
file loader either accept their input or refuse it with their own typed
error, never anything else, and the command line exits with a documented
code on any problem file."""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tribvp import ExpressionSyntaxError, ProblemFileError, loads  # noqa: E402
from tribvp.cli import main  # noqa: E402
from tribvp.expressions import parse, to_source  # noqa: E402

# deterministic: the same examples on every run, nothing stored between runs
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None,
                         max_examples=300)

# tokens, good and bad, so that joined text often forms a tree
PIECES = ["t", "u", "v", "pi", "e", "sin(", "exp(", "sqrt(", "abs(", "x",
          "0", "1", "2.5", ".5", "3.", "1e3", "2E-2", "1e999", ".", "1e",
          "+", "-", "*", "/", "^", "(", ")", " ", "\t", "\n"]

ascii_text = st.one_of(
    st.text(alphabet=st.characters(max_codepoint=127), max_size=30),
    st.lists(st.sampled_from(PIECES), max_size=25).map("".join))


@DETERMINISTIC
@given(ascii_text)
def test_ascii_text_is_a_tree_that_round_trips_or_a_located_syntax_error(src):
    try:
        tree = parse(src)
    except ExpressionSyntaxError as exc:
        assert 0 <= exc.position <= len(src)
        return
    assert parse(to_source(tree)) == tree


BAD_NUMBERS = ["1e999", "nan", "inf", "abc", "", "1.2.3", "0x10"]
BAD_EXPRESSIONS = ["sin(", "1 2", "x + 1", "1e999*u", "u\u0663", "(" * 200 + "u"
                   + ")" * 200]
# (key, values that may load, values that never load), per section
SECTIONS = {
    "problem": [("T", ["0.01", "1", "0.5"], BAD_NUMBERS + ["0", "-1"]),
                ("n", [str(n) for n in (2, 17, 400, 1000)], BAD_NUMBERS + ["1"]),
                ("phi", ["curvature", "atan"], ["relu", ""]),
                ("a", ["1.0"], BAD_NUMBERS + ["2"]),
                ("f", ["0.4*cos(u)", "exp(4*v) - e", "t*u - v", "1/(u-1)"],
                 BAD_EXPRESSIONS),
                ("bc", ["p1", "p1t", "p2"], ["p3", ""])],
    "hypotheses": [("M1", ["-1", "0"], BAD_NUMBERS),
                   ("M2", ["0.5", "1"], BAD_NUMBERS),
                   ("c_lower", ["-3", "-2 + t", "sin(t)"], BAD_EXPRESSIONS + ["u"]),
                   ("c_bound", ["0.4", "0"], BAD_NUMBERS + ["-1"]),
                   ("kappa", ["0.9"], BAD_NUMBERS),
                   ("rho", ["1.2"], BAD_NUMBERS)],
    "solver": [("tol", ["1e-10", "1e-8"], BAD_NUMBERS + ["0", "-1"]),
               ("max_iters", ["5000", "50"], BAD_NUMBERS + ["0", "2.5"]),
               ("backend", ["fixed-point", "shooting", "both"], ["newton", ""])],
    "extras": [("tol", ["1e-10"], [])],
}
REQUIRED = {"T", "f", "bc"}


@st.composite
def problem_files(draw):
    """INI text that loads unless a draw breaks it: a section left out or
    added, a required key left out, an unknown key, or a bad value."""
    lines = []
    for section, keys in SECTIONS.items():
        if draw(st.integers(0, 9)) >= {"problem": 1, "extras": 9}.get(section, 5):
            lines.append(f"[{section}]")
            for key, good, bad in keys:
                if draw(st.integers(0, 9)) >= (1 if key in REQUIRED else 5):
                    broken = bad and draw(st.integers(0, 9)) == 9
                    lines.append(f"{key} = {draw(st.sampled_from(bad if broken else good))}")
            if draw(st.integers(0, 19)) == 19:
                lines.append("colour = 1")
    return "\n".join(lines) + "\n"


@DETERMINISTIC
@given(problem_files())
def test_problem_file_text_loads_or_is_a_problem_file_error(text):
    try:
        loads(text)
    except ProblemFileError:
        pass


# the exit codes each subcommand documents (see tribvp.cli)
EXIT_CODES = {"solve": {0, 2, 3, 4}, "check": {0, 1, 4}, "degree": {0, 1, 2, 4}}


@settings(DETERMINISTIC, max_examples=150)
@given(problem_files())
def test_cli_exits_with_a_documented_code_and_at_most_one_error_line(text):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "case.prob")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for argv in (["solve", path], ["check", path],
                     ["degree", path, "--rho", "1.2", "--kappa", "0.9"]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in EXIT_CODES[argv[0]]
            errors = [line for line in err.getvalue().splitlines()
                      if line.startswith("error:")]
            assert len(errors) <= 1
