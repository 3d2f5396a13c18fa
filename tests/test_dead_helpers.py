"""Every private helper of the package is named somewhere besides its definition.

A module-level private function, class or constant, or a private method,
that nothing in ``corridors`` refers to is dead code left behind by a
refactor.  The scan is syntactic (names, attributes and imports), so a
helper reached only through a string would need its own mention here.
"""

import ast
from pathlib import Path

import corridors

PACKAGE = Path(corridors.__file__).resolve().parent


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(tree):
    """(name, line) of the private module-level names and private methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield item.name, item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_private_helper_is_dead():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    dead = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _definitions(tree)
        if _private(name) and name not in referenced
    ]
    assert not dead, "private names nothing in the package refers to: " + ", ".join(dead)
