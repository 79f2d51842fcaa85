"""Guard the shape of the cone searches in estimators.

Every cone search reads S and its complement from one _ConeIndex, so
_complement is called only by _cone_index; the RE and regression searches
draw through one sample loop, so _sample_cone_points is called only by
_cone_samples; and the regression search decomposes Sigma_SS itself, so
inverse_11 is never called.  A call counts for the outermost function or
class around it, as in test_one_enumerator.
"""

import ast
from pathlib import Path

ESTIMATORS = Path(__file__).resolve().parent.parent / "src" / "lasso_audit" / "estimators.py"


def callers(tree, name: str) -> list:
    """The outermost function or class (else "<module>") around each call of
    name, called bare or as an attribute."""
    found = []

    def visit(node, owner):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == name:
                found.append(owner)
        if owner == "<module>" and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_one_index_one_sample_loop_no_second_decomposition():
    tree = ast.parse(ESTIMATORS.read_text(encoding="utf-8"), str(ESTIMATORS))
    assert callers(tree, "_complement") == ["_cone_index"]
    assert callers(tree, "_sample_cone_points") == ["_cone_samples"]
    assert callers(tree, "inverse_11") == []


def test_scan_sees_every_call_form():
    tree = ast.parse(
        "def outer():\n"
        "    def inner():\n"
        "        return core.inverse_11(g, n)\n"
        "    return inverse_11(g, n)\n"
        "class Holder:\n"
        "    def method(self):\n"
        "        return inverse_11(g, n)\n"
        "inv = inverse_11(g, n)\n"
        "other = inverse_12(g, n)\n"
    )
    assert callers(tree, "inverse_11") == ["outer", "outer", "Holder", "<module>"]
