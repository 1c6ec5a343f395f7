"""numpy is the one runtime dependency, and pyproject.toml says so."""

import ast
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
