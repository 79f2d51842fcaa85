"""One JSON encoder for every report record.

core._jsonable is the only code that turns a result into JSON: every
to_json_dict calls it, except GeneratorSpec's (its parameters may hold a
GramMatrix, whose memo is never written).  The hand-written bodies the
records had before, and the witness encoder constants kept, stay here as
references: on the records they could write, the encoder writes the same
bytes.  Where they wrote a non-finite float the report could not be written
at all (run() dumps with allow_nan=False); the encoder writes null.
"""

import ast
import enum
import json
import math
from pathlib import Path

import numpy as np
import pytest

from lasso_audit.cli import RunConfig
from lasso_audit.constants import ConditionReport
from lasso_audit.core import BoundedValue, Certificate, SubsetN, _jsonable
from lasso_audit.experiments import MonteCarloResult
from lasso_audit.implications import ImplicationVerdict
from lasso_audit.lasso import ApproximationVerdict, LassoSolution, OracleVerdict, SelectionReport

SRC = Path(__file__).resolve().parent.parent / "src" / "lasso_audit"
INF, NAN = math.inf, math.nan


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


# -- the hand-written encoders the records had, as references ---------------

def ref_witness(obj):
    if isinstance(obj, SubsetN):
        return list(obj.members)
    if isinstance(obj, (tuple, list)):
        return [ref_witness(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): ref_witness(v) for k, v in obj.items()}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def ref_bounded_value(bv):
    def num(x):
        return None if math.isinf(x) or math.isnan(x) else float(x)

    return {
        "estimate": num(bv.estimate),
        "lower": num(bv.lower),
        "upper": num(bv.upper),
        "certificate": bv.certificate.value,
        "provenance": bv.provenance,
    }


def ref_condition_report(report):
    return {
        "context": report.context,
        "entries": {k: ref_bounded_value(v) for k, v in sorted(report.entries.items())},
        "witnesses": {k: ref_witness(v) for k, v in sorted(report.witnesses.items())},
        "errors": dict(sorted(report.errors.items())),
    }


def ref_lasso_solution(sol):
    return {
        "beta_star": [float(v) for v in sol.beta_star],
        "tau_star": [float(v) for v in sol.tau_star],
        "active_set": [int(j) for j in sol.active_set],
        "objective": sol.objective,
        "kkt_residual": sol.kkt_residual,
        "lam": sol.lam,
    }


def ref_oracle_verdict(verdict):
    out = {}
    for key in ("lhs", "rhs", "holds", "empirical_phi0", "l1_error", "l1_bound",
                "l1_holds", "l2_error", "l2_bound", "l2_holds", "premise_ok",
                "lambda0", "big_l"):
        val = getattr(verdict, key)
        if isinstance(val, float) and not math.isfinite(val):
            val = None
        out[key] = val
    return out


def ref_selection_report(report):
    out = {}
    for key in report.__dataclass_fields__:
        val = getattr(report, key)
        if isinstance(val, tuple):
            val = [int(v) for v in val]
        if isinstance(val, float) and not math.isfinite(val):
            val = None
        out[key] = val
    return out


def ref_approximation_verdict(verdict):
    return {k: getattr(verdict, k) for k in verdict.__dataclass_fields__}


def ref_implication_verdict(verdict):
    def clean(v):
        if isinstance(v, float) and not math.isfinite(v):
            return None
        return v
    return {
        "edge_id": verdict.edge_id,
        "lhs_value": clean(verdict.lhs_value),
        "rhs_value": clean(verdict.rhs_value),
        "holds": verdict.holds,
        "slack": clean(verdict.slack),
        "bound_direction_note": verdict.bound_direction_note,
    }


def ref_monte_carlo(result):
    return {
        "kind": result.kind,
        "reps": result.reps,
        "t_values": list(result.t_values),
        "thresholds": list(result.thresholds),
        "empirical_tail": list(result.empirical_tail),
        "bound": list(result.bound),
        "pass": list(result.passed),
    }


def ref_run_config(config):
    out = {}
    for key, value in config.__dict__.items():
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


# -- records holding every kind of value the reports carry ------------------

BOUNDED = [
    BoundedValue.exact(np.float64(0.25), "exact"),
    BoundedValue.certified_lower(1.5, "route=lambda_min"),
    BoundedValue.certified_upper(np.float64(2.0)),
    BoundedValue.certified_upper(INF, "no applicable route"),
    BoundedValue.estimate_only(-0.0),
    BoundedValue(0.0, 0.0, INF, Certificate.ESTIMATE, provenance="route=none"),
]

CONDITION = ConditionReport(
    context={"p": 4, "fingerprint": "0123abcd", "S": [0, 2], "L": 1.0, "N": 3},
    entries={f"k{i}": bv for i, bv in reversed(list(enumerate(BOUNDED)))},
    witnesses={
        "irr_part2": SubsetN((0, 2, 3)),
        "irr_part3": {"failing_tau_S": [1.0, -1.0]},
        "irr_none": {"failing_tau_S": None},
        "phi_lower_routes": {"lambda_min": np.float64(0.5), "regression@2": 0.25},
        "nested": ((np.int64(1), 2), (SubsetN((0,)), (np.float64(0.5), True))),
        "int_keys": {3: np.int64(4), 1: [np.int32(7)]},
    },
    errors={"theta": "CapExceeded: over the cap", "alpha": "InvalidParameter: 2s > p"},
)

ORACLE = [
    OracleVerdict(np.float64(0.5), INF, True, NAN, None, -INF, False, np.float64(1e-3),
                  2.0, None, False, np.float64(0.1), 3.0),
    OracleVerdict(None, None, None, None, premise_ok=False, lambda0=0.75, big_l=INF),
]

SELECTION = SelectionReport(
    s_star=(np.int64(0), 3), false_positives=1, s_subset_s_star=True,
    s_star_equals_s=False, part1_premise=None, part1_irr_value=NAN,
    part1_conclusion=True, part1_holds=None, part2_premise_irr=False,
    part2_premise_beta=True, part2_threshold=INF, part2_conclusion=False,
    part2_holds=True, part3_applicable=False, part3_lhs=np.float64(-INF),
    part3_holds=None, sign_proof_threshold=np.float64(0.75),
    sign_statement_threshold=0.5, sign_premise=True, sign_consistent=None,
    metadata={"threshold_forms": "proof vs statement", "gap": 0.25, "sizes": [1, 2]},
)

APPROXIMATION = ApproximationVerdict(
    d_inf=np.float64(0.01), lambda_tilde=0.02, premise_distance=True, premise_phi=False,
    premise_ratio=False, lhs=np.float64(0.003), rhs=0.1, conclusion=True, holds=True)

IMPLICATIONS = [
    ImplicationVerdict("E1", INF, np.float64(0.5), None, NAN, "skipped: no finite margin"),
    ImplicationVerdict("E2", 0.25, np.float64(0.5), True, np.float64(0.25), "note"),
    ImplicationVerdict("E3", None, None, None, None, "skipped: premise fails"),
    ImplicationVerdict("E4", -INF, 1.0, False, -INF, "note"),
]

MONTE_CARLO = MonteCarloResult(
    kind="concentration", reps=200, t_values=(1.0, 2.0),
    thresholds=(np.float64(0.3), 0.4), empirical_tail=(np.float64(0.1), 0.0),
    bound=(2.0 * math.exp(-1.0), 2.0 * math.exp(-2.0)), passed=(True, False))

RUN_CONFIGS = [
    RunConfig("analyze", gram_path="g.csv", s_members=(0, 2), t_list=(1.0, 2.0)),
    RunConfig("montecarlo", n_samples=50, p=4, experiment="noise", jitter=0.5),
]

SOLUTION = LassoSolution(
    beta_star=np.array([0.5, 0.0, -0.0, -1.25]), tau_star=np.array([1.0, 0.3, -0.2, -1.0]),
    active_set=(np.int64(0), np.int64(3)), objective=np.float64(0.7), kkt_residual=1e-13,
    lam=0.5, beta0=np.array([1.0, 0.0, 0.0, -1.0]))


@pytest.mark.parametrize("record,reference", [
    *[(bv, ref_bounded_value) for bv in BOUNDED],
    (CONDITION, ref_condition_report),
    *[(v, ref_oracle_verdict) for v in ORACLE],
    (SELECTION, ref_selection_report),
    (APPROXIMATION, ref_approximation_verdict),
    *[(v, ref_implication_verdict) for v in IMPLICATIONS],
    (MONTE_CARLO, ref_monte_carlo),
    *[(c, ref_run_config) for c in RUN_CONFIGS],
    (SOLUTION, ref_lasso_solution),
], ids=lambda x: None if callable(x) else type(x).__name__)
def test_every_record_writes_the_bytes_of_its_hand_written_encoder(record, reference):
    assert dumps(record.to_json_dict()) == dumps(reference(record))


def test_witnesses_match_the_old_witness_encoder():
    for witness in CONDITION.witnesses.values():
        assert dumps(_jsonable(witness)) == dumps(ref_witness(witness))


def test_non_finite_numbers_are_null_in_every_record():
    """The records whose bodies had no non-finite rule could not be dumped
    with allow_nan=False; now they write null."""
    solution = LassoSolution(np.array([INF, 1.0]), np.array([1.0, NAN]), (0, 1),
                             NAN, INF, 0.5, np.zeros(2))
    with pytest.raises(ValueError):
        dumps(ref_lasso_solution(solution))
    out = json.loads(dumps(solution.to_json_dict()))
    assert out == {"beta_star": [None, 1.0], "tau_star": [1.0, None], "active_set": [0, 1],
                   "objective": None, "kkt_residual": None, "lam": 0.5}
    result = MonteCarloResult("noise", 3, (1.0,), (INF,), (0.0,), (-INF,), (True,))
    assert json.loads(dumps(result.to_json_dict()))["thresholds"] == [None]
    assert _jsonable({"routes": (np.float64(NAN), (INF, 2))}) == {"routes": [None, [None, 2]]}


class Color(enum.Enum):
    RED = "red"


def test_encoder_writes_each_kind_of_value():
    assert _jsonable(Certificate.CERTIFIED_LOWER) == "CertifiedLower"
    assert _jsonable(Color.RED) == "red"
    assert _jsonable(SubsetN((1, 4))) == [1, 4]
    assert _jsonable({1: (2, [3.5])}) == {"1": [2, [3.5]]}
    assert _jsonable(np.array([[1.0, NAN], [-INF, 2.0]])) == [[1.0, None], [None, 2.0]]
    assert _jsonable(np.arange(3)) == [0, 1, 2]
    assert _jsonable(np.array([True, False])) == [True, False]
    for scalar, plain in ((np.int64(3), 3), (np.float32(0.5), 0.5), (np.bool_(True), True),
                          (np.float64(INF), None), (np.float32(NAN), None)):
        value = _jsonable(scalar)
        assert value == plain and type(value) is type(plain)
    assert type(_jsonable(np.float64(1.5))) is float
    assert _jsonable(True) is True and _jsonable(None) is None
    assert list(_jsonable(BOUNDED[1])) == ["estimate", "lower", "upper", "certificate",
                                           "provenance"]


# -- the guard --------------------------------------------------------------

_FINITENESS = {"isfinite", "isinf", "isnan"}


def encoders(tree) -> dict:
    """{class: names called in its to_json_dict} for every class defining one,
    and {"<def>": [...]} listing the functions named _jsonable at any depth."""
    found = {"<def>": []}

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "_jsonable":
                found["<def>"].append(owner)
            if node.name == "to_json_dict":
                found[owner] = sorted({
                    call.func.attr if isinstance(call.func, ast.Attribute) else call.func.id
                    for call in ast.walk(node) if isinstance(call, ast.Call)
                    and isinstance(call.func, (ast.Attribute, ast.Name))})
        if isinstance(node, ast.ClassDef):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_one_encoder_in_src():
    defined, calls = [], {}
    for path in sorted(SRC.glob("*.py")):
        found = encoders(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        defined += [(path.stem, owner) for owner in found.pop("<def>")]
        calls.update({f"{path.stem}.{owner}": names for owner, names in found.items()})
    assert defined == [("core", "<module>")]
    assert "lasso.LassoSolution" in calls and "cli.RunConfig" in calls
    for owner, names in calls.items():
        assert not _FINITENESS & set(names), owner
        if owner != "experiments.GeneratorSpec":
            assert "_jsonable" in names, owner
    assert "_jsonable" not in calls["experiments.GeneratorSpec"]


def test_scan_sees_every_encoder_form():
    tree = ast.parse(
        "def _jsonable(x):\n"
        "    return x\n"
        "class A:\n"
        "    def to_json_dict(self):\n"
        "        return core._jsonable(self)\n"
        "class B:\n"
        "    def to_json_dict(self):\n"
        "        def clean(v):\n"
        "            return None if math.isinf(v) else v\n"
        "        return {'x': clean(self.x)}\n"
        "    def _jsonable(self):\n"
        "        return isnan(self.x)\n"
    )
    assert encoders(tree) == {"<def>": ["<module>", "B"], "A": ["_jsonable"],
                              "B": ["clean", "isinf"]}
