"""Every private helper of the package is named somewhere besides its definition,
and every public name is reached from outside its module.

A module-level private function, class or constant, or a private method,
that nothing in ``corridors`` refers to is dead code left behind by a
refactor.  A name in a module's ``__all__`` that no other package module,
no demo and not the README reaches is a helper only the tests call; it
belongs in ``tests/oracles.py``.  A public class its own module builds
is a result type, reached through the functions that return it.  Likewise
a public method, property or classmethod of a public class must be named
by some package line, a demo or the README.  The scans are syntactic
(names, attributes and imports; words of the README), so a name reached
only through a string would need its own mention here.

A manifest check of ``scenario.py`` whose verdict is a constant cannot
fail; a guard refuses one.  Two more keep each thing in one place: a
``_task_*`` function of ``scenario.py`` computes and returns its tables,
so it takes no ``outdir`` and writes or hashes no file (``run_scenario``
does), and no ``add_argument`` of ``cli.py`` states a default (the task's
signature holds it).
"""

import ast
import re
from pathlib import Path

import corridors

PACKAGE = Path(corridors.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent


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


def _public(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            yield from ast.literal_eval(node.value)


def _built_classes(tree):
    """The module's classes that it calls by name: result types it returns."""
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)} & called


def _documented():
    """Names the demos reach, and the words of the README."""
    names = {name for path in sorted((REPO / "demos").glob("*.py"))
             for name in _references(ast.parse(path.read_text()))}
    return names | set(re.findall(r"\w+", (REPO / "README.md").read_text()))


def test_no_public_name_is_test_only():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    outside = _documented()
    orphans = [
        f"{module} {name}"
        for module, tree in trees.items()
        for name in _public(tree)
        if name not in outside | _built_classes(tree)
        and not any(name in _references(other) for key, other in trees.items() if key != module)
    ]
    assert not orphans, "public names only the tests reach: " + ", ".join(orphans)


def _public_methods(tree):
    """(class, name) of the public methods, properties and classmethods of
    the module's public classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item.name


def test_no_public_method_is_test_only():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reached = _documented() | {name for tree in trees.values() for name in _references(tree)}
    orphans = [
        f"{module} {cls}.{name}"
        for module, tree in trees.items()
        for cls, name in _public_methods(tree)
        if name not in reached
    ]
    assert not orphans, "public methods only the tests reach: " + ", ".join(orphans)


def _constant_verdicts(tree):
    """Lines of the ``_check(name, value, tolerance, passed)`` calls whose
    verdict is a constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "_check":
            verdict = node.args[3] if len(node.args) > 3 else next(
                (kw.value for kw in node.keywords if kw.arg == "passed"), None)
            if isinstance(verdict, ast.Constant):
                yield node.lineno


def test_no_manifest_check_is_constant():
    lines = list(_constant_verdicts(ast.parse((PACKAGE / "scenario.py").read_text())))
    assert not lines, f"scenario.py checks that cannot fail, at lines {lines}"


def _task_io(tree):
    """What each ``_task_*`` function does that belongs to ``run_scenario``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_task_"):
            if any(arg.arg == "outdir" for arg in node.args.args + node.args.kwonlyargs):
                yield f"{node.name} takes outdir"
            for name in {"emit_plot_data", "file_sha256"} & set(_references(node)):
                yield f"{node.name} calls {name}"


def test_no_task_writes_its_own_tables():
    found = list(_task_io(ast.parse((PACKAGE / "scenario.py").read_text())))
    assert not found, "tasks doing run_scenario's I/O: " + ", ".join(found)


def test_no_cli_option_states_a_default():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    lines = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        and any(kw.arg == "default" for kw in node.keywords)
    ]
    assert not lines, f"cli.py options that restate a task default, at lines {lines}"
