"""Every exported name resolves: a deleted function cannot leave its export
behind.  Every private module-level name, and every public method or property
of a public class, is used: a consolidation cannot leave a helper behind.
exec runs in one place: a second code generator cannot come back silently.
The RK4 combination is written once: a second integrator cannot fork it."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import tribvp

MODULES = [tribvp] + [importlib.import_module(f"tribvp.{info.name}")
                      for info in pkgutil.iter_modules(tribvp.__path__)
                      if info.name != "__main__"]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


SOURCES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(Path(tribvp.__file__).parent.glob("*.py"))}
ROOT = Path(tribvp.__file__).resolve().parents[2]
CALLERS = list(SOURCES.values()) + [ast.parse(path.read_text(encoding="utf-8"))
                                    for folder in ("demos", "perfbench")
                                    for path in sorted((ROOT / folder).rglob("*.py"))]


def _private_definitions(tree):
    """(name, node) of each module-level private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _uses(statement):
    """(bare names read, attribute and imported names) of one statement."""
    bare, qualified = set(), set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            qualified.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            qualified.update(alias.name for alias in node.names)
    return bare, qualified


def test_every_private_name_is_used():
    # a mention in a docstring or comment does not count, nor does use inside
    # the definition itself; a bare name counts only in its own module
    uses = [(module, statement, *_uses(statement))
            for module, tree in SOURCES.items() for statement in tree.body]
    unused = [f"{module}.{name}"
              for module, tree in SOURCES.items()
              for name, node in _private_definitions(tree)
              if not any(name in qualified or (where == module and name in bare)
                         for where, statement, bare, qualified in uses
                         if statement is not node)]
    assert unused == []


def test_every_public_method_is_used():
    # an attribute named like the method, anywhere in src/, demos/ or
    # perfbench/ outside the method itself, counts as a use
    methods = [(f"{module}.{cls.name}.{node.name}", node)
               for module, tree in SOURCES.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
               for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    reads = [node for tree in CALLERS for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)]

    def used(method):
        own = set(ast.walk(method))
        return any(read.attr == method.name and read not in own for read in reads)
    unused = [name for name, method in methods if not used(method)]
    assert unused == []


def _exec_sites(node, where):
    """where.f.g for each call of exec inside function g nested in f."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _exec_sites(child, f"{where}.{child.name}")
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "exec"):
            yield where
        yield from _exec_sites(child, where)


def test_exec_runs_in_as_callable_alone():
    # one code generator for f: a second one could evaluate f differently
    # from the compiled function every caller shares
    sites = [site for module, tree in SOURCES.items()
             for site in _exec_sites(tree, module)]
    assert sites == ["expressions.as_callable"]


# k1 + (k2 + k2) + (k3 + k3) + k4 under any names, and the textbook
# k1 + 2.0 * k2 + 2.0 * k3 + k4
_RK4 = [re.compile(r"\w+ \+ \((\w+) \+ \1\) \+ \((\w+) \+ \2\) \+ \w+"),
        re.compile(r"\w+ \+ 2(\.0)? \* \w+ \+ 2(\.0)? \* \w+ \+ \w+")]


def test_one_rk4_combination_in_src():
    # the serial sweep and both parareal propagators step through one kernel
    found = [(module, ast.unparse(node)) for module, tree in SOURCES.items()
             for node in ast.walk(tree) if isinstance(node, ast.BinOp)
             if any(rule.fullmatch(ast.unparse(node)) for rule in _RK4)]
    assert found == [("solver", "k1 + (k2 + k2) + (k3 + k3) + k4")]
