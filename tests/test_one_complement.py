"""Guard the one complement helper.

core._complements builds the ascending complements of stacked index sets
from a cleared boolean mask, and it is the only code in src that builds a
complement: it is defined only in core and called only by core._complement
(one row, as an ascending intp array) and the enumeration kernel in
constants.  No other function clears a boolean mask, and no comprehension
over range(...) keeps the indices `not in` a set.  A definition or a
pattern counts for the outermost function or class around it, as in
test_one_cone_index.
"""

import ast
from pathlib import Path

import numpy as np

from lasso_audit.core import _complement
from test_one_edge_path import owners

SRC = Path(__file__).resolve().parent.parent / "src" / "lasso_audit"


def is_call(node, name: str) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return name in (getattr(func, "id", None), getattr(func, "attr", None))


def definitions(tree, name: str) -> list:
    """Owners of each function named name ("<module>" for a top-level one)."""
    return owners(tree, lambda n: isinstance(n, ast.FunctionDef) and n.name == name)


def calls(tree, name: str) -> list:
    """Owners of each call of name, bare or as an attribute."""
    return owners(tree, lambda n: is_call(n, name))


def mask_clears(tree) -> list:
    """Owners of each assignment of False into a subscript: x[idx] = False."""
    return owners(tree, lambda n: isinstance(n, ast.Assign)
                  and isinstance(n.value, ast.Constant) and n.value.value is False
                  and any(isinstance(t, ast.Subscript) for t in n.targets))


def range_filters(tree) -> list:
    """Owners of each comprehension over range(...) with a `not in` test."""
    def match(node):
        return (isinstance(node, ast.comprehension) and is_call(node.iter, "range")
                and any(isinstance(op, ast.NotIn) for test in node.ifs
                        for c in ast.walk(test) if isinstance(c, ast.Compare) for op in c.ops))
    return owners(tree, match)


def scan(scanner, *args) -> list:
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [(path.stem, owner) for owner in scanner(tree, *args)]
    return found


def test_one_complement_helper():
    assert scan(definitions, "_complements") == [("core", "<module>")]
    assert scan(definitions, "_complement") == [("core", "<module>")]
    assert scan(calls, "_complements") == [
        ("constants", "_index_chunks"), ("constants", "_leverage_chunks"),
        ("core", "_complement")]
    assert scan(mask_clears) == [("core", "_complements")]
    assert scan(range_filters) == []


def test_complement_is_an_ascending_intp_array():
    comp = _complement(6, (1, 4))
    assert comp.dtype == np.intp
    assert comp.tolist() == [0, 2, 3, 5]
    assert _complement(3, ()).tolist() == [0, 1, 2]
    assert _complement(2, (0, 1)).shape == (0,)


def test_scan_sees_every_form():
    tree = ast.parse(
        "def outer():\n"
        "    def _complements(nsets, p):\n"
        "        keep[rows, nsets] = False\n"
        "    return [j for j in range(p) if j not in inside]\n"
        "class Holder:\n"
        "    def method(self):\n"
        "        return core._complements(n, p)\n"
        "mask = np.ones(3, dtype=bool)\n"
        "mask[0] = False\n"
        "flag = False\n"
        "kept = {j for j in range(4) if j > 0 and j not in drop}\n"
        "other = [j for j in items if j not in inside]\n"
    )
    assert definitions(tree, "_complements") == ["outer"]
    assert calls(tree, "_complements") == ["Holder"]
    assert mask_clears(tree) == ["outer", "<module>"]
    assert range_filters(tree) == ["outer", "<module>"]
