"""Guard against a second enumerator of index sets.

Every enumeration of index sets in src/lasso_audit/ runs on the kernel in
constants: _index_chunks over _supersets over _combinations.  This scan
asserts that itertools.combinations is called in one function only,
constants._combinations, so a per-subset generator beside the kernel shows
up as a failure.  A call counts for the outermost function or class around
it, and the scan follows `import itertools [as x]` and
`from itertools import combinations [as y]`.

The index sets reach their scores in three functions only: _first_best, the
one kernel that keeps a first extreme score (and prunes by a bound inside
it), _leverage_chunks and block_norm_maxima.  A second loop over
_index_chunks, or a _first_best_* variant beside the kernel, shows up as a
failure too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lasso_audit"


def combinations_calls(tree, module: str) -> list:
    """(module, outermost function or class, else "<module>") of each
    combinations call."""
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "itertools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "itertools":
            functions |= {a.asname or a.name for a in node.names if a.name == "combinations"}

    def is_combinations(func):
        if isinstance(func, ast.Attribute):
            return (func.attr == "combinations" and isinstance(func.value, ast.Name)
                    and func.value.id in modules)
        return isinstance(func, ast.Name) and func.id in functions

    found = []

    def visit(node, owner):
        if isinstance(node, ast.Call) and is_combinations(node.func):
            found.append((module, owner))
        if owner == "<module>" and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_itertools_combinations_only_in_the_kernel():
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        calls += combinations_calls(tree, path.stem)
    assert calls == [("constants", "_combinations")]


def test_scan_sees_every_call_form():
    tree = ast.parse(
        "import itertools\n"
        "import itertools as it\n"
        "from itertools import combinations as comb\n"
        "def outer():\n"
        "    def inner():\n"
        "        return itertools.combinations(range(3), 2)\n"
        "    return it.combinations(range(3), 1)\n"
        "class Holder:\n"
        "    def method(self):\n"
        "        return comb(range(3), 2)\n"
        "pairs = list(comb(range(2), 1))\n"
        "other = product(range(2))\n"
    )
    assert combinations_calls(tree, "m") == [
        ("m", "outer"), ("m", "outer"), ("m", "Holder"), ("m", "<module>")]


def outermost_callers(tree, name: str) -> set:
    """Outermost function or class around each call of name, plain or as an
    attribute (module.name)."""
    found = set()

    def visit(node, owner):
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            found.add(owner)
        if owner == "<module>" and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_index_chunks_feed_one_kernel():
    callers, kernels = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        callers |= {(path.stem, owner) for owner in outermost_callers(tree, "_index_chunks")}
        kernels += [(path.stem, node.name, node.args.args[-1].arg) for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("_first_best")]
    assert callers == {("constants", "_first_best"), ("constants", "_leverage_chunks"),
                       ("constants", "block_norm_maxima")}
    # the kernel itself takes the pruning bound
    assert kernels == [("constants", "_first_best", "bound")]


def test_caller_scan_sees_nested_calls():
    tree = ast.parse(
        "def outer():\n"
        "    def inner():\n"
        "        return list(_index_chunks(4, (), 2, 0))\n"
        "    return inner\n"
        "class Holder:\n"
        "    def method(self):\n"
        "        return _index_chunks(4, (), 2, 1)\n"
        "def elsewhere():\n"
        "    return constants._index_chunks(4, (), 1, 0)\n"
        "chunks = _index_chunks(4, (), 1, 0)\n"
    )
    assert outermost_callers(tree, "_index_chunks") == {"outer", "Holder", "elsewhere", "<module>"}
