"""No unused helpers: every module-level definition in the package is used.

A function, class or constant defined at the top of a module under
src/tribvp counts as used when some module there loads it: as a name, as an
attribute, in an import, or as an `__all__` entry.  Tests and benchmarks do
not count, so a helper only they call fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tribvp"


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _defined(tree):
    """Names bound by the module's top-level def, class and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target]):
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _used(tree):
    """Names the module loads, reads as attributes, imports or exports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            yield from (item.value for item in ast.walk(node.value)
                        if isinstance(item, ast.Constant) and isinstance(item.value, str))


def test_every_module_level_definition_is_used_in_the_package():
    trees = _trees()
    used = {name for tree in trees.values() for name in _used(tree)}
    unused = [f"{module}: {name}" for module, tree in trees.items()
              for name in _defined(tree)
              if name not in used and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, f"defined but never used in src/tribvp: {unused}"


def test_the_guard_sees_an_unused_helper():
    tree = ast.parse("def used():\n    pass\n\ndef unused():\n    used()\n\nLIMIT = 3\n")
    used = set(_used(tree))
    assert [name for name in _defined(tree) if name not in used] == ["unused", "LIMIT"]
