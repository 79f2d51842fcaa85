"""Guard the one KKT residual.

solvers._stationarity_residual is the only stationarity formula in src:
|grad_j + lam sign(beta_j)| on the active coordinates and
max(0, |grad_j| - lam) on the others.  Its only callers are
coordinate_descent_lasso, which stops on it, and lasso.kkt_residual, which
reports it.  The scan looks for either half of the formula: a sum or
difference with a product that has a sign(...) factor, and a maximum(...)
whose first argument subtracts from an abs(...).  A pattern or a call
counts for the outermost function or class around it, as in
test_one_cone_index.
"""

import ast

from test_one_complement import calls, is_call, scan
from test_one_edge_path import owners


def stationarity_formulas(tree) -> list:
    """Owners of each `g + lam * sign(b)` (or with -) and each
    `maximum(abs(g) - lam, ...)`."""
    def signed_step(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                and any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                        and (is_call(side.left, "sign") or is_call(side.right, "sign"))
                        for side in (node.left, node.right)))

    def inactive_excess(node):
        return (is_call(node, "maximum") and bool(node.args)
                and isinstance(node.args[0], ast.BinOp) and isinstance(node.args[0].op, ast.Sub)
                and is_call(node.args[0].left, "abs"))

    return owners(tree, lambda n: signed_step(n) or inactive_excess(n))


def test_one_stationarity_residual():
    assert scan(stationarity_formulas) == [
        ("solvers", "_stationarity_residual"), ("solvers", "_stationarity_residual")]
    assert scan(calls, "_stationarity_residual") == [
        ("lasso", "kkt_residual"), ("solvers", "coordinate_descent_lasso")]


def test_scan_sees_every_form():
    tree = ast.parse(
        "def outer():\n"
        "    def inner():\n"
        "        return np.abs(grad - np.sign(beta) * lam)\n"
        "    return np.maximum(abs(g) - lam, 0.0)\n"
        "class Holder:\n"
        "    def method(self):\n"
        "        return grad + lam * sign(beta)\n"
        "shrunk = np.sign(v) * np.maximum(a - theta, 0.0)\n"
        "plain = grad + lam * beta\n"
    )
    assert stationarity_formulas(tree) == ["outer", "outer", "Holder"]
