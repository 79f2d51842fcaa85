"""Guard the one restricted-eigenvalue ratio and the one basis-pursuit LP.

The refinement's one-row path, _restricted_ratio_row, is the batch
evaluator _batch_restricted_ratio on one row, so its arithmetic is written
once: only _restricted_ratio_parts partitions tail magnitudes, and the
one-row path is a single statement that calls the batch.  basis_pursuit_recover
has two exits, the dual certificate and the simplex; a zero Gram reaches the
simplex as an LP with no constraint rows.  A call counts for the outermost
function or class around it, as in test_one_cone_index.
"""

import ast

from test_one_cone_index import ESTIMATORS, callers
from test_one_thread_driver import SRC

LASSO = SRC / "lasso.py"


def function(tree, name: str) -> ast.FunctionDef:
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def body_without_docstring(fn: ast.FunctionDef) -> list:
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return body


def test_one_row_path_is_the_batch_on_one_row():
    tree = ast.parse(ESTIMATORS.read_text(encoding="utf-8"), str(ESTIMATORS))
    assert callers(tree, "partition") == ["_restricted_ratio_parts"]
    assert "_restricted_ratio_row" in callers(tree, "_batch_restricted_ratio")
    row = body_without_docstring(function(tree, "_restricted_ratio_row"))
    assert len(row) == 1 and isinstance(row[0], ast.Return)


def test_basis_pursuit_has_one_lp_path():
    tree = ast.parse(LASSO.read_text(encoding="utf-8"), str(LASSO))
    recover = function(tree, "basis_pursuit_recover")
    assert sum(isinstance(node, ast.Return) for node in ast.walk(recover)) == 2
    assert callers(tree, "simplex_lp") == ["basis_pursuit_recover"]


def test_scan_sees_a_second_partition():
    tree = ast.parse(
        "def _restricted_ratio_parts(at, k):\n"
        "    at.partition(k, axis=1)\n"
        "def _restricted_ratio_row(b, k):\n"
        "    return np.partition(b, k)\n"
    )
    assert callers(tree, "partition") == ["_restricted_ratio_parts", "_restricted_ratio_row"]
