"""Guard the one thread driver.

core._run_lanes is the only code that starts threads: ThreadPoolExecutor is
named only there, threading and concurrent.futures are imported only by
core, and the one sizing rule, core._pool_workers, is called only by
_run_lanes.  The estimator searches of analyze and the Monte Carlo
replications both run on it.  A name counts for the outermost function or
class around it, as in test_one_cone_index.
"""

import ast
from pathlib import Path

from test_one_cone_index import callers

SRC = Path(__file__).resolve().parent.parent / "src" / "lasso_audit"


def mentions(tree, name: str) -> list:
    """The outermost function or class (else "<module>") around each
    occurrence of name: bare, as an attribute or imported."""
    found = []

    def visit(node, owner):
        if isinstance(node, ast.Name) and node.id == name:
            found.append(owner)
        if isinstance(node, ast.Attribute) and node.attr == name:
            found.append(owner)
        if isinstance(node, ast.alias) and name in (node.name, node.asname):
            found.append(owner)
        if owner == "<module>" and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def imported_modules(tree) -> set:
    """The top-level names of the modules tree imports, anywhere in it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def package():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_only_run_lanes_starts_threads():
    pools, importers, sizing = set(), [], []
    for module, tree in package():
        pools.update(f"{module}.{owner}" for owner in mentions(tree, "ThreadPoolExecutor"))
        if {"threading", "concurrent"} & imported_modules(tree):
            importers.append(module)
        sizing += [f"{module}.{owner}" for owner in callers(tree, "_pool_workers")]
    assert pools == {"core._run_lanes"}
    assert importers == ["core"]
    assert sizing == ["core._run_lanes"]


def test_scan_sees_every_form():
    tree = ast.parse(
        "import threading\n"
        "def outer():\n"
        "    from concurrent.futures import ThreadPoolExecutor\n"
        "    def inner():\n"
        "        return concurrent.futures.ThreadPoolExecutor(2)\n"
        "    return ThreadPoolExecutor(2)\n"
        "class Holder:\n"
        "    import os.path\n"
        "pool = ThreadPoolExecutor\n"
        "from . import core\n"
    )
    assert mentions(tree, "ThreadPoolExecutor") == ["outer", "outer", "outer", "<module>"]
    assert imported_modules(tree) == {"threading", "concurrent", "os"}
