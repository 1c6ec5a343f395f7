"""numpy is the one runtime dependency, and pyproject.toml says so."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tribvp"


def test_import_loads_no_scipy():
    code = ("import sys, tribvp; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.strip() == "[]"


def _declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        deps = tomllib.load(handle)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
            for d in deps}


def test_every_import_is_stdlib_internal_or_declared():
    allowed = set(sys.stdlib_module_names) | {"tribvp"} | _declared_dependencies()
    undeclared = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            undeclared += [f"{path.name}: {name}" for name in names
                           if name.split(".")[0] not in allowed]
    assert undeclared == []


# numpy routines that import numpy.ma when called (numpy 2.4.6); a process
# that calls one pays 10-14 ms for it, and numpy.random costs as much
MA_LOADERS = {
    "unique": "np.unique([2.0, 1.0])",
    "union1d": "np.union1d([1.0], [2.0])",
    "intersect1d": "np.intersect1d([1.0], [2.0])",
    "setdiff1d": "np.setdiff1d([1.0], [2.0])",
    "setxor1d": "np.setxor1d([1.0], [2.0])",
    "median": "np.median([1.0, 2.0])",
    "percentile": "np.percentile([1.0, 2.0], 50)",
    "quantile": "np.quantile([1.0, 2.0], 0.5)",
}
SLOW_SUBMODULES = ("numpy.ma", "numpy.random")
# the command lines of perfbench's cli_demos workload
CLI_DEMOS = [
    ["solve", "demos/problems/steep_slope.prob"],
    ["solve", "demos/problems/steep_slope.prob", "--backend", "both"],
    ["check", "demos/problems/steep_slope.prob", "--seed", "1"],
    ["degree", "demos/problems/steep_slope.prob", "--rho", "1.2", "--kappa", "0.9"],
    ["solve", "demos/problems/bounded_forcing.prob"],
    ["solve", "demos/problems/bounded_forcing.prob", "--backend", "both"],
    ["check", "demos/problems/bounded_forcing.prob", "--seed", "1"],
]


def _fresh(code: str, *args: str) -> str:
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, check=True, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout


def _loaded_slow_submodules() -> str:
    return f"print([m for m in {SLOW_SUBMODULES!r} if m in sys.modules])"


def test_cli_demos_load_neither_numpy_ma_nor_numpy_random():
    code = ("import contextlib, io, json, sys\n"
            "import tribvp.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "            contextlib.redirect_stderr(io.StringIO()):\n"
            "        assert tribvp.cli.main(argv) == 0, argv\n"
            + _loaded_slow_submodules())
    assert _fresh(code, json.dumps(CLI_DEMOS)).strip() == "[]"


@pytest.mark.parametrize("name", sorted(MA_LOADERS))
def test_banned_routine_loads_numpy_ma(name):
    code = f"import sys\nimport numpy as np\n{MA_LOADERS[name]}\n" + _loaded_slow_submodules()
    assert _fresh(code).strip() == "['numpy.ma']"


def test_src_uses_no_numpy_ma_numpy_random_or_routine_that_loads_them():
    banned = {"ma", "random", *MA_LOADERS}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                names = node.module.split(".")[1:2] or [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("numpy.")]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: numpy.{name}"
                      for name in names if name in banned]
    assert found == []
