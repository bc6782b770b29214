"""Module seams of the package, read from the source with `ast`.

A helper shared between modules is public: no module imports a `_private`
name from another one.  Every name a module lists in `__all__` is bound at
its top level.
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


def test_the_checks_catch_a_private_import_and_a_dangling_export():
    tree = ast.parse("from .tensors import _freeze, ShapeError\n"
                     "from . import __version__\n"
                     "__all__ = ['ShapeError', 'gone']\n")
    assert _private_imports(tree) == [(1, "tensors", "_freeze")]
    assert sorted(set(_dunder_all(tree)) - _bound_names(tree.body)) == ["gone"]
