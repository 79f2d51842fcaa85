"""Guard the two assumptions the cheaper restricted-eigenvalue search rests on.

estimators._row_sums returns a.sum(axis=1) bit for bit by adding columns
left to right from +0.0 wherever numpy does the same, on rows of fewer than 8
entries; a numpy whose summation order differs must fail here, not move a
certified endpoint.

_refine_ratio screens its line-search candidates with a batch score that is
not bit-identical to the one-row ratio, so the screen may only reject:
the value and the point it accepts must come from _restricted_ratio_row and
_project_to_cone alone.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from lasso_audit import estimators

SRC = Path(__file__).resolve().parent.parent / "src" / "lasso_audit" / "estimators.py"


def same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("m", [1, 7, estimators._COLUMN_ROWS, 8192])
def test_row_sums_follow_numpys_summation_order(m):
    rng = np.random.default_rng(m)
    # wide exponents, so that any other order rounds differently
    base = rng.standard_normal((m, 300)) * np.exp2(rng.integers(-40, 41, (m, 300)))
    base[::5] = -0.0
    base[1::5] = np.where(rng.random(300) < 0.5, -0.0, 0.0)
    base[2::7, 1] = np.inf
    base[3::7, 2] = -np.inf
    base[4::7, :3] = (np.inf, -np.inf, 1.0)
    scratch = np.empty(m * 301)
    with np.errstate(invalid="ignore"):
        for n in range(1, 301):
            a = np.ascontiguousarray(base[:, :n])
            want = a.sum(axis=1)
            assert same(estimators._row_sums(a), want), n
            # the layout of _sample_cone_points: a C-contiguous view of the
            # front of a larger buffer
            view = scratch[:m * n].reshape(m, n)
            view[...] = a
            assert same(estimators._row_sums(view), want), n


def assignments(fn):
    """{name: [the callee or expression each assignment to name takes its
    value from]}, with "augmented" and "item assignment" for the in-place
    forms."""
    found = {}

    def source(value):
        if isinstance(value, ast.Call):
            func = value.func
            return func.id if isinstance(func, ast.Name) else ast.unparse(func)
        return ast.unparse(value)

    for node in ast.walk(fn):
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            found.setdefault(node.target.id, []).append("augmented")
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                found.setdefault(target.value.id, []).append("item assignment")
            if isinstance(target, ast.Name):
                found.setdefault(target.id, []).append(source(node.value))
            elif isinstance(target, ast.Tuple):
                values = (node.value.elts if isinstance(node.value, ast.Tuple)
                          else [node.value] * len(target.elts))
                for elt, value in zip(target.elts, values):
                    if isinstance(elt, ast.Name):
                        found.setdefault(elt.id, []).append(source(value))
    return found


def only_from(found, name, callee):
    """Whether every value name is assigned comes from a call to callee,
    directly or through names that do."""
    return name in found and all(src == callee or only_from(found, src, callee)
                                 for src in found[name])


def test_refine_accepts_values_only_from_the_one_row_path():
    tree = ast.parse(SRC.read_text(encoding="utf-8"))
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_refine_ratio")
    found = assignments(fn)
    assert only_from(found, "f", "_restricted_ratio_row")
    # the start, then accepted candidates only
    assert found["beta"][0] == "beta.copy" and len(found["beta"]) == 2
    assert only_from(found, found["beta"][1], "_project_to_cone")


def test_the_guard_sees_a_value_from_the_batch():
    fn = ast.parse(
        "def _refine_ratio(beta):\n"
        "    f = _restricted_ratio_row(beta)\n"
        "    scores = _batch_restricted_ratio(beta)\n"
        "    fc = scores[0]\n"
        "    beta, f = beta, fc\n"
        "    f += 1.0\n"
        "    beta[0] = fc\n"
    ).body[0]
    found = assignments(fn)
    assert found["f"] == ["_restricted_ratio_row", "fc", "augmented"]
    assert found["beta"] == ["beta", "item assignment"]
    assert not only_from(found, "f", "_restricted_ratio_row")
    assert only_from(found, "scores", "_batch_restricted_ratio")
    assert not only_from(found, "fc", "_batch_restricted_ratio")
