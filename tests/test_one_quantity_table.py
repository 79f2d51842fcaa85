"""Guard the one definition of each named quantity.

implications._QUANTITIES maps every quantity an implication edge reads or
analyze reports to its one computation, and a name analyze reports is its
report key.  So cli neither imports nor calls the computations, and in
implications each is called only from the table.  A call counts for the
outermost function or class around it, or for the name a module-level
assignment binds, as in test_one_cone_index.  On the enum Gram each analyze
entry without a witness is the table's value under the same name, and
check_edge fed the report's entries gives check_all's verdict on every edge.
"""

import ast

import pytest

from lasso_audit import DEFAULT_CONFIG, EDGE_IDS, ConeSpec, GramMatrix, check_all, check_edge
from lasso_audit.cli import condition_report
from lasso_audit.constants import DEFAULT_SIGN_CAP
from lasso_audit.errors import AuditError
from lasso_audit.experiments import random_psd_entries
from lasso_audit.implications import _QUANTITIES, _Inputs
from test_one_thread_driver import package

# the condition constants analyze reports and the edges read
COMPUTATIONS = ("uniform_eigenvalue", "restricted_isometry", "restricted_orthogonality",
                "theta_uniform", "rip_constant", "weak_rip_constant", "irrepresentable_uniform",
                "irrepresentable_signed", "coherence", "alpha_constant",
                "compatibility_constant", "restricted_eigenvalue", "restricted_regression",
                "lower_phi_routes")
# the bounds only the edges read; cli's lasso command calls certified_lower_phi
EDGE_COMPUTATIONS = ("certified_lower_phi", "regression_upper", "block_norm_2q",
                     "block_norm_maxima")


def call_owners(tree, name: str) -> list:
    """The outermost function or class around each call of name, bare or as
    an attribute, else the name a module-level assignment binds, else
    "<module>"."""
    found = []

    def visit(node, owner):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == name:
                found.append(owner)
        if owner == "<module>":
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = node.name
            elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                owner = node.targets[0].id
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def imported(tree) -> set:
    """The names a module binds by from-imports."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_quantity_is_computed_in_the_table_alone():
    modules = dict(package())
    cli, implications = modules["cli"], modules["implications"]
    assert imported(cli).isdisjoint(COMPUTATIONS)
    for name in COMPUTATIONS:
        assert call_owners(cli, name) == [], name
    for name in COMPUTATIONS + EDGE_COMPUTATIONS:
        owners = call_owners(implications, name)
        assert owners and set(owners) == {"_QUANTITIES"}, name


def test_scan_sees_every_form():
    tree = ast.parse(
        "from .constants import coherence, rip_constant as rip\n"
        "_QUANTITIES = {\n"
        "    'mutual': lambda q: coherence(q.gram, q.cone, 'mutual'),\n"
        "    'rip': lambda q: constants.coherence(q.gram, q.cone, 'cumulative'),\n"
        "}\n"
        "def _edge_e3(edge_id, inputs):\n"
        "    table = {'mutual': lambda q: coherence(q.gram, q.cone, 'mutual')}\n"
        "class Holder:\n"
        "    value = coherence(g, c, 'mutual')\n"
        "other = [coherence(g, c, 'mutual')]\n"
        "coherence(g, c, 'mutual')\n"
    )
    assert call_owners(tree, "coherence") == [
        "_QUANTITIES", "_QUANTITIES", "_edge_e3", "Holder", "other", "<module>"]
    assert call_owners(tree, "rip_constant") == []
    assert imported(tree) == {"coherence", "rip"}


ENUM_ENTRIES = random_psd_entries(16, 10_000, 0.1)  # the benchmark's enum Gram
ENUM_CONE = ConeSpec((2, 7, 11), 1.0, 6)
CAP = 200_000


def test_analyze_reports_the_table_and_check_edge_reads_the_report():
    config = DEFAULT_CONFIG.reduced()
    gram = GramMatrix(ENUM_ENTRIES)
    report = condition_report(gram, ENUM_CONE, config, CAP)
    assert set(report.witnesses) == {"irr_part2", "irr_part3", "phi_lower_routes"}
    reported = list(report.entries) + list(report.errors)
    plain = [key for key in reported if key not in report.witnesses]
    assert len(reported) == 18 and len(plain) == 15
    assert set(report.errors) == {"theta_uniform", "rip"}  # over the cap, and no denominator
    # a fresh Gram, so no value comes from the report's memo
    inputs = _Inputs(GramMatrix(ENUM_ENTRIES), ENUM_CONE, config, CAP, DEFAULT_SIGN_CAP)
    for key in plain:
        if key in report.entries:
            assert inputs.get(key) == report.entries[key], key
        else:
            with pytest.raises(AuditError) as refused:
                inputs.get(key)
            assert f"{type(refused.value).__name__}: {refused.value}" == report.errors[key]
    assert set(reported) <= set(_QUANTITIES)
    verdicts = check_all(gram, ENUM_CONE, config, CAP)
    fed = [check_edge(edge_id, GramMatrix(ENUM_ENTRIES), ENUM_CONE, report.entries, config, CAP)
           for edge_id in EDGE_IDS]
    assert fed == verdicts
    assert sum(not v.skipped for v in verdicts) >= 6
