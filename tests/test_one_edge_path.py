"""Guard the one evaluation path of the implication audit.

implications._evaluate runs one edge on shared _Inputs and is the only code
in src that catches _SKIP_ERRORS, so check_edge and check_all refuse an
input alike: no _edge_* function has a try, and implications never compares
gram with None, since every edge runs on a Gram matrix.  On three instances
with refused inputs (a singular block, an enumeration over its cap and
alpha's refusal) check_edge, edge by edge, gives check_all's verdicts.  A
handler or comparison counts for the outermost function or class around
it, as in test_one_cone_index.
"""

import ast

import numpy as np
import pytest

from lasso_audit import EDGE_IDS, ConeSpec, GramMatrix, check_all, check_edge
from test_one_thread_driver import package


def _names(node) -> list:
    """The bare and attribute names in an expression, in walk order."""
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]


def owners(tree, match) -> list:
    """The outermost function or class (else "<module>") around each node
    for which match holds."""
    found = []

    def visit(node, owner):
        if match(node):
            found.append(owner)
        if owner == "<module>" and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def catchers(tree, name: str) -> list:
    """Owners of each except clause whose type names name."""
    return owners(tree, lambda n: isinstance(n, ast.ExceptHandler) and n.type is not None
                  and name in _names(n.type))


def tries(tree) -> list:
    """Owners of each try statement."""
    return owners(tree, lambda n: isinstance(n, ast.Try))


def none_tests(tree, name: str) -> list:
    """Owners of each comparison of name, bare or as an attribute, with None."""
    def match(node):
        if not isinstance(node, ast.Compare):
            return False
        operands = [node.left] + node.comparators
        return (any(isinstance(o, ast.Constant) and o.value is None for o in operands)
                and any(name in _names(o) for o in operands))
    return owners(tree, match)


def test_one_place_turns_a_refusal_into_a_skip():
    modules = dict(package())
    for module, tree in modules.items():
        want = ["_evaluate"] if module == "implications" else []
        assert catchers(tree, "_SKIP_ERRORS") == want, module
    implications = modules["implications"]
    assert tries(implications) == ["_evaluate"]
    assert none_tests(implications, "gram") == []


def test_scan_sees_every_form():
    tree = ast.parse(
        "def _evaluate(edge_id, inputs):\n"
        "    try:\n"
        "        return run(edge_id)\n"
        "    except _SKIP_ERRORS as exc:\n"
        "        return exc\n"
        "def _edge_e1(edge_id, inputs):\n"
        "    def inner():\n"
        "        try:\n"
        "            pass\n"
        "        except (ValueError, implications._SKIP_ERRORS):\n"
        "            pass\n"
        "    if inputs.gram is None or None != gram:\n"
        "        return None\n"
        "class Holder:\n"
        "    ok = gram is not None\n"
        "    fine = other is None\n"
        "try:\n"
        "    pass\n"
        "except KeyError:\n"
        "    pass\n"
    )
    assert catchers(tree, "_SKIP_ERRORS") == ["_evaluate", "_edge_e1"]
    assert tries(tree) == ["_evaluate", "_edge_e1", "<module>"]
    assert none_tests(tree, "gram") == ["_edge_e1", "_edge_e1", "Holder"]


def _equicorr(p: int, rho: float) -> GramMatrix:
    sigma = np.full((p, p), rho)
    np.fill_diagonal(sigma, 1.0)
    return GramMatrix(sigma)


REFUSING = {
    # Sigma_SS singular, and delta_s = 1 leaves rip_constant no denominator
    "singular": (lambda: GramMatrix(np.diag([1.0, 0.0, 1.0])), ConeSpec((0, 1), 1.0, 2), {},
                 {"E4": "SingularBlock", "E8": "SingularBlock", "E9": "DenominatorNonPositive"}),
    # theta_{3,6} over the cap, for rip_constant and for E10
    "cap": (lambda: _equicorr(16, 0.1), ConeSpec((0, 5, 9), 1.0, 6), {"cap": 200_000},
            {"E9": "CapExceeded", "E10": "CapExceeded"}),
    # Lambda^2(S, 2s) = 0, and no certified phi^2(S, 2s) lower bound for alpha
    "alpha": (lambda: GramMatrix(np.diag([1.0, 0.0, 1.0, 1.0])), ConeSpec((0,), 1.0, 2), {},
              {"E5": "SingularBlock", "E6": "SingularBlock", "E9": "DenominatorNonPositive",
               "E11": "DenominatorNonPositive"}),
}


def refusals(verdicts) -> dict:
    """The class named by each skip for a refused input, by edge."""
    named = {v.edge_id: v.bound_direction_note.split(":")[1].strip()
             for v in verdicts if v.skipped}
    return {e: c for e, c in named.items()
            if c in ("CapExceeded", "SingularBlock", "DenominatorNonPositive")}


@pytest.mark.parametrize("name", REFUSING)
def test_check_edge_refuses_as_check_all_does(name, fast_config):
    make, cone, caps, refused = REFUSING[name]
    one_by_one = [check_edge(e, make(), cone, config=fast_config, **caps) for e in EDGE_IDS]
    together = check_all(make(), cone, fast_config, **caps)
    assert one_by_one == together
    assert refusals(together) == refused
