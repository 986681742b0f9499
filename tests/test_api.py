"""The package defines and re-exports only what its own modules use."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "socsamp"


def _names_used(tree):
    """Names a module loads or imports; definitions and docstrings are
    neither."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_reexport_has_a_caller_in_the_package():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(exported - used) == []


def test_every_top_level_definition_is_loaded_in_the_package():
    # a function or class that no module of the package calls, imports or
    # names in code is dead; a docstring mention does not keep it
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in SRC.glob("*.py")
    }
    used = set().union(*(_names_used(tree) for tree in trees.values()))
    defined = {
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used
    }
    assert sorted(defined) == []
