"""Guard the one evaluation of each inequality form in the implication audit.

E1, E6 and E8 check the transfer form phi^2 >= (1 - L x)^2 Lambda^2, and
implications forms (1.0 - ...) ** 2 * ... only in _transfer.  E2 and E3
compare theta_rr_adaptive's upper endpoints at N=s and N=2s with their
bounds through _regression_bound alone: it is the only caller of
_finite_lhs and the only code that writes the "no finite theta_rr_adaptive
upper bound" skip.  A node counts for the outermost function or class
around it, as in test_one_cone_index.
"""

import ast
from pathlib import Path

from test_one_cone_index import callers
from test_one_edge_path import owners

IMPLICATIONS = Path(__file__).resolve().parent.parent / "src" / "lasso_audit" / "implications.py"
NO_FINITE_UPPER = "no finite theta_rr_adaptive upper bound"


def _is_number(node, value) -> bool:
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == value)


def transfer_forms(tree) -> list:
    """Owners of each product whose left factor is (1 - ...) ** 2."""
    def match(node):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
            return False
        square = node.left
        if not (isinstance(square, ast.BinOp) and isinstance(square.op, ast.Pow)
                and _is_number(square.right, 2)):
            return False
        base = square.left
        return (isinstance(base, ast.BinOp) and isinstance(base.op, ast.Sub)
                and _is_number(base.left, 1))
    return owners(tree, match)


def writers(tree, text: str) -> list:
    """Owners of each string constant, plain or in an f-string, holding text."""
    return owners(tree, lambda n: isinstance(n, ast.Constant) and isinstance(n.value, str)
                  and text in n.value)


def test_one_transfer_form_and_one_regression_bound():
    tree = ast.parse(IMPLICATIONS.read_text(encoding="utf-8"), str(IMPLICATIONS))
    assert transfer_forms(tree) == ["_transfer"]
    assert callers(tree, "_finite_lhs") == ["_regression_bound"]
    assert writers(tree, NO_FINITE_UPPER) == ["_regression_bound"]


def test_scan_sees_every_form():
    tree = ast.parse(
        "def _edge_e1(edge_id, inputs):\n"
        "    rhs = (1.0 - cone.L * ru) ** 2 * lam2\n"
        "    other = (1 - x) ** 2 * y + (2.0 - x) ** 2 * y + (1.0 - x) ** 3 * y\n"
        "    kept = _finite_lhs(checks)\n"
        "    return _skip(edge_id, f'no finite theta_rr_adaptive upper bound ({x})')\n"
        "class Holder:\n"
        "    def method(self):\n"
        "        return self._finite_lhs(c), (1.0 - big_l * x) ** 2 * lam2\n"
        "note = 'no finite theta_rr_adaptive upper bound'\n"
        "other = 'no finite theta_rr upper bound'\n"
    )
    assert transfer_forms(tree) == ["_edge_e1", "_edge_e1", "Holder"]
    assert callers(tree, "_finite_lhs") == ["_edge_e1", "Holder"]
    assert writers(tree, NO_FINITE_UPPER) == ["_edge_e1", "<module>"]
