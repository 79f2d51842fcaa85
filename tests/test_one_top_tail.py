"""Guard the one top-enlargement rule and the one regression-ratio evaluator.

The top enlargement adds to S the N - s largest tail magnitudes, ties by
ascending index.  core._top_tail is the only code that picks it: top_nset,
the refinement's step and _batch_regression_ratio call it, nothing in src
calls argpartition (whose split breaks ties its own way), and the sorted
tail order it replaced is gone.  evaluate_regression_ratio is its cone check
and then one call of _batch_regression_ratio, so the ratio's arithmetic is
written once.  A call counts for the outermost function or class around it,
as in test_one_cone_index.
"""

import ast

from test_one_cone_index import ESTIMATORS, callers
from test_one_restricted_ratio import body_without_docstring, function
from test_one_thread_driver import SRC

CORE = SRC / "core.py"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def mentions(tree, name: str) -> bool:
    """Whether tree names name anywhere, bare or as an attribute, called or
    not (np.argpartition passed along uncalled counts too)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if isinstance(node, ast.Name) and node.id == name:
            return True
    return False


def test_one_rule_picks_the_top_enlargement():
    core, estimators = parse(CORE), parse(ESTIMATORS)
    assert callers(core, "_top_tail") == ["top_nset"]
    assert callers(estimators, "_top_tail") == ["_refine_ratio", "_batch_regression_ratio"]
    assert not any(isinstance(node, ast.FunctionDef) and node.name == "tail_order"
                   for node in core.body)
    for path in sorted(SRC.glob("*.py")):
        assert not mentions(parse(path), "argpartition"), path.name


def test_one_row_regression_ratio_is_the_batch_on_one_row():
    tree = parse(ESTIMATORS)
    body = body_without_docstring(function(tree, "evaluate_regression_ratio"))
    checks = [i for i, stmt in enumerate(body) if isinstance(stmt, ast.If)]
    assert len(checks) == 1
    check = body[checks[0]]
    assert "cone_membership" in {n.func.id for n in ast.walk(check.test)
                                 if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    rest = body[checks[0] + 1:]
    assert len(rest) == 1 and isinstance(rest[0], ast.Return)
    module = ast.Module(body=rest, type_ignores=[])
    assert callers(module, "_batch_regression_ratio") == ["<module>"]


def test_scan_sees_argpartition_in_every_form():
    for text in ("np.argpartition(a, 2)", "a.argpartition(2)", "f = np.argpartition",
                 "from numpy import argpartition\nargpartition(a, 2)"):
        assert mentions(ast.parse(text), "argpartition"), text
    assert not mentions(ast.parse("np.partition(a, 2)"), "argpartition")
