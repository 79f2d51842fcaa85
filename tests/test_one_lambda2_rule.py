"""Guard the one weak-isometry ratio and the one vanishing-Lambda^2 rule.

In constants, SINGULAR_RTOL is read only by _lambda2_vanishes, the rule that
decides Lambda^2(S, N) is numerically zero.  In estimators it is read only by
the two regression-ratio denominators, and restricted_orthogonality is
never called there: theta(S, N) / Lambda^2(S, N) is formed only by
weak_rip_constant.  In implications SINGULAR_RTOL is never read: E2 and E3
decide a vanishing Lambda^2 through _lambda2_vanishes, and no Lambda^2 there
is compared with a number.  A read counts for the outermost function or
class around it, as in test_one_cone_index.
"""

import ast
from pathlib import Path

from test_one_cone_index import callers
from test_one_edge_path import owners

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


def number_tests(tree, prefix: str) -> list:
    """The outermost function or class (else "<module>") around each
    comparison of a bare name starting with prefix with a number."""
    def match(node):
        if not isinstance(node, ast.Compare):
            return False
        operands = [node.left] + node.comparators
        return (any(isinstance(o, ast.Name) and o.id.startswith(prefix) for o in operands)
                and any(isinstance(o, ast.Constant) and type(o.value) in (int, float)
                        for o in operands))
    return owners(tree, match)


def parse(module: str):
    path = SRC / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_one_floor_and_one_ratio():
    assert readers(parse("constants"), "SINGULAR_RTOL") == ["_lambda2_vanishes"]
    estimators = parse("estimators")
    assert sorted(set(readers(estimators, "SINGULAR_RTOL"))) == [
        "_batch_regression_ratio", "_rr_value_head_only"]
    assert callers(estimators, "restricted_orthogonality") == []
    implications = parse("implications")
    assert readers(implications, "SINGULAR_RTOL") == []
    assert callers(implications, "_lambda2_vanishes") == ["_edge_e2"] * 2 + ["_edge_e3"] * 2
    assert number_tests(implications, "lam2") == []


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


def test_scan_sees_every_number_test():
    tree = ast.parse(
        "def edge(lam2_s, lam2):\n"
        "    if lam2_s > 0.0 and 0 < lam2 <= limit:\n"
        "        return lam2 == other\n"
        "class Holder:\n"
        "    ok = lam2_2s >= 1e-12\n"
        "flag = not _lambda2_vanishes(gram, lam2) and lam2_s != 'x'\n"
    )
    assert number_tests(tree, "lam2") == ["edge", "edge", "Holder"]
