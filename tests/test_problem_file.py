import numpy as np
import pytest

from tribvp import BoundaryCondition, ProblemFileError, SolveOptions, loads
from tribvp.problem_file import load_problem

FULL = """
[problem]
T = 0.01
n = 200
phi = curvature
f = exp(4*v) - e
bc = p1

[hypotheses]
M1 = 0
M2 = 0.5
c_lower = -3
kappa = 0.9
rho = 1.2

[solver]
tol = 1e-9
max_iters = 800
backend = shooting
"""


def test_full_document():
    doc = loads(FULL)
    assert doc.spec.grid.T == 0.01
    assert doc.spec.grid.n == 200
    assert doc.spec.bc is BoundaryCondition.P1
    assert doc.spec.phi.name == "curvature"
    assert doc.spec.rhs.fn(0.0, 0.0, 0.25) == 0.0
    assert doc.f_source == "exp(4*v) - e"
    assert doc.hypothesis_data.m1 == 0.0
    assert doc.hypothesis_data.m2 == 0.5
    assert doc.hypothesis_data.kappa == 0.9
    assert doc.hypothesis_data.rho == 1.2
    env = doc.hypothesis_data.c_lower
    # constant expression: scalar result, broadcasting is the caller's job
    assert float(np.min(env(np.array([0.0, 0.005])))) == -3.0
    assert doc.options.tol == 1e-9
    assert doc.options.max_iters == 800
    assert doc.options.backend == "shooting"


def test_defaults():
    doc = loads("[problem]\nT = 1\nf = 0.4 * cos(u)\nbc = p2\n")
    assert doc.spec.grid.n == 400
    assert doc.spec.phi.name == "curvature"
    assert doc.spec.phi.a == 1.0
    assert doc.options.tol == 1e-10
    assert doc.options.backend == "fixed-point"
    assert doc.options == SolveOptions()
    assert doc.hypothesis_data.m1 is None
    assert doc.hypothesis_data.c_bound is None


def test_atan_flux_with_parameter():
    doc = loads("[problem]\nT = 1\nphi = atan\na = 2.5\nf = 0\nbc = p2\n")
    assert doc.spec.phi.a == 2.5


def test_inline_comments_ignored():
    doc = loads("[problem]\nT = 1 ; one second\nf = 0  # nothing\nbc = p2\n")
    assert doc.spec.grid.T == 1.0


@pytest.mark.parametrize("text,fragment", [
    ("", "missing required section"),
    ("[problem]\nT = 1\nbc = p2\n", "missing required key 'f'"),
    ("[problem]\nf = 0\nbc = p2\n", "missing required key 'T'"),
    ("[problem]\nT = 1\nf = 0\n", "missing required key 'bc'"),
    ("[problem]\nT = 0\nf = 0\nbc = p2\n", "T must be positive"),
    ("[problem]\nT = x\nf = 0\nbc = p2\n", "not a number"),
    ("[problem]\nT = 1\nn = 2.5\nf = 0\nbc = p2\n", "not an integer"),
    ("[problem]\nT = 1\nf = 0\nbc = p9\n", "unknown boundary condition"),
    ("[problem]\nT = 1\nphi = weird\nf = 0\nbc = p2\n", "phi"),
    ("[problem]\nT = 1\nphi = curvature\na = 2\nf = 0\nbc = p2\n", "phi"),
    ("[problem]\nT = 1\nf = 0\nbc = p2\nextra = 1\n", "unknown key 'extra'"),
    ("[problem]\nT = 1\nf = 0\nbc = p2\n[weird]\nx = 1\n", "unknown section"),
    ("[problem]\nT = 1\nf = sin(\nbc = p2\n", "f:"),
    ("[problem]\nT = 1\nf = w + 1\nbc = p2\n", "f:"),
    ("[problem]\nT = 1\nf = 0\nbc = p2\n[solver]\nbackend = magic\n", "backend"),
    ("[problem]\nT = 1\nf = 0\nbc = p2\n[solver]\ndamping = 0\n", "damping"),
    ("[problem]\nT = 1\nf = 0\nbc = p2\n[solver]\nlambda_steps = 5\n",
     "unknown key 'lambda_steps' in [solver]"),
], ids=["empty", "no-f", "no-T", "no-bc", "bad-T", "nan-T", "frac-n",
        "bad-bc", "bad-phi", "curvature-a", "unknown-key", "unknown-section",
        "f-syntax", "f-ident", "bad-backend", "bad-damping", "bad-lambda-steps"])
def test_rejections(text, fragment):
    with pytest.raises(ProblemFileError, match=None) as info:
        loads(text)
    assert fragment in str(info.value)


def test_c_lower_must_be_time_only():
    text = "[problem]\nT = 1\nf = 0\nbc = p1\n[hypotheses]\nc_lower = -u\n"
    with pytest.raises(ProblemFileError) as info:
        loads(text)
    assert "c_lower" in str(info.value)
    assert "'u'" in str(info.value)


def test_c_lower_may_depend_on_time():
    text = ("[problem]\nT = 1\nf = 0\nbc = p1\n"
            "[hypotheses]\nc_lower = -1 - sin(t)\n")
    env = loads(text).hypothesis_data.c_lower
    assert env(0.0) == pytest.approx(-1.0)
    assert env(np.pi / 2) == pytest.approx(-2.0)


def test_load_problem_from_disk(tmp_path):
    path = tmp_path / "case.prob"
    path.write_text(FULL)
    doc = load_problem(path)
    assert doc.source_path == str(path)
    assert doc.spec.grid.n == 200


def test_load_problem_missing_file(tmp_path):
    with pytest.raises(ProblemFileError, match="cannot read"):
        load_problem(tmp_path / "nope.prob")


def test_duplicate_key_rejected():
    text = "[problem]\nT = 1\nT = 2\nf = 0\nbc = p2\n"
    with pytest.raises(ProblemFileError):
        loads(text)
