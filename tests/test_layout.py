"""Module seams of the package, read from the source with `ast`.

A helper shared between modules is public: no module imports a `_private`
name from another one.  Every name a module lists in `__all__` is bound at
its top level, and every name a top-level import binds is used in the
module or listed in its `__all__`.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "pilip"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _bound_names(body):
    """The names the statements of a module body bind."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _dunder_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def _private_imports(tree):
    """(line, module, name) of every relative import of a _private name; dunders such as
    __version__ are not private."""
    return [(node.lineno, node.module, a.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0 for a in node.names
            if a.name.startswith("_") and not a.name.endswith("__")]


def _unused_imports(tree):
    """(line, name) of every name a top-level import binds that the module never reads and
    does not list in `__all__`; `from __future__` imports bind no name."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    kept = read | set(_dunder_all(tree) or [])
    return [(node.lineno, name) for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None)
            != "__future__" for name in _bound_names([node]) if name not in kept]


def test_the_layout_sees_every_module():
    assert {p.stem for p in MODULES} >= {"__init__", "tensors", "formnorm", "summing", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_across_modules(path):
    assert _private_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_all_entry_is_bound(path):
    tree = _tree(path)
    exported = _dunder_all(tree) or []
    assert sorted(set(exported) - _bound_names(tree.body)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert _unused_imports(_tree(path)) == []


def test_the_checks_catch_a_private_import_and_a_dangling_export():
    tree = ast.parse("from .tensors import _freeze, ShapeError\n"
                     "from . import __version__\n"
                     "__all__ = ['ShapeError', 'gone']\n")
    assert _private_imports(tree) == [(1, "tensors", "_freeze")]
    assert sorted(set(_dunder_all(tree)) - _bound_names(tree.body)) == ["gone"]


def test_the_check_catches_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math\n"
                     "import os.path\n"
                     "from .tensors import NormSpec, vector_norm as vn, flatten\n"
                     "__all__ = ['flatten']\n"
                     "def f(x: NormSpec):\n"
                     "    return os.path.join(vn(x))\n")
    assert _unused_imports(tree) == [(2, "math")]
