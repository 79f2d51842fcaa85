"""Guard the one weak-isometry ratio and the one vanishing-Lambda^2 rule.

In constants, SINGULAR_RTOL is read only by _lambda2_vanishes, the rule that
decides Lambda^2(S, N) is numerically zero.  In estimators it is read only by
the two regression-ratio denominators, and restricted_orthogonality is
never called there: theta(S, N) / Lambda^2(S, N) is formed only by
weak_rip_constant.  A read counts for the outermost function or class around
it, as in test_one_cone_index.
"""

import ast
from pathlib import Path

from test_one_cone_index import callers

SRC = Path(__file__).resolve().parent.parent / "src" / "lasso_audit"


def readers(tree, name: str) -> list:
    """The outermost function or class (else "<module>") around each read of
    name, bare or as an attribute."""
    found = []

    def visit(node, owner):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name:
            found.append(owner)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr == name:
            found.append(owner)
        if owner == "<module>" and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def parse(module: str):
    path = SRC / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_one_floor_and_one_ratio():
    assert readers(parse("constants"), "SINGULAR_RTOL") == ["_lambda2_vanishes"]
    estimators = parse("estimators")
    assert sorted(set(readers(estimators, "SINGULAR_RTOL"))) == [
        "_batch_regression_ratio", "_rr_value_head_only"]
    assert callers(estimators, "restricted_orthogonality") == []


def test_scan_sees_every_read_form():
    tree = ast.parse(
        "from .core import SINGULAR_RTOL\n"
        "def outer():\n"
        "    def inner():\n"
        "        return core.SINGULAR_RTOL\n"
        "    return SINGULAR_RTOL\n"
        "class Holder:\n"
        "    tiny = SINGULAR_RTOL * 2\n"
        "floor = SINGULAR_RTOL\n"
        "SINGULAR_RTOL = 1e-10\n"
    )
    assert readers(tree, "SINGULAR_RTOL") == ["outer", "outer", "Holder", "<module>"]
