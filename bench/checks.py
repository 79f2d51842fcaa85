"""Output checks: exit code, report schema, implication edges, references.

Each output is compared with the reference output of the same operation,
made at the reference commit.  An output is *wrong* when its exit code
differs from the reference's, when it has no report where the reference
had one, when its report does not validate against
``docs/report.schema.json``, when an evaluated implication edge has
``holds=false``, or when a certified endpoint is looser or a verdict
differs from the reference.  Every report is checked, whatever the exit
code (the CLI writes a valid report with exit 2 when a premise fails or
every edge is skipped).  An output that fails exactly as the reference did
(same exit code, no report) is an *error*: a failed operation that does not
make the run incorrect.  Where the reference failed without a report, a
report with exit 0 that passes every check is accepted: that is a fix.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
import re
from typing import Optional

_WALL_TIME = re.compile(r'^\s*"wall_time_s": .*\n', re.MULTILINE)
VERDICT_KEYS = ("holds", "l1_holds", "l2_holds", "premise_ok", "recovered", "pass")
REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def canonical(text: str) -> str:
    """The report text without its ``wall_time_s`` line."""
    return _WALL_TIME.sub("", text, count=1)


def digest(text: str) -> str:
    return hashlib.sha256(canonical(text).encode("utf-8")).hexdigest()


def _walk(node, path, endpoints, verdicts):
    if isinstance(node, dict):
        if "certificate" in node and "lower" in node and "upper" in node:
            endpoints[path] = [node["certificate"], node["lower"], node["upper"]]
        for key, value in node.items():
            sub = f"{path}.{key}" if path else str(key)
            if key in VERDICT_KEYS:
                if isinstance(value, list):
                    for i, item in enumerate(value):
                        verdicts[f"{sub}.{i}"] = item
                else:
                    verdicts[sub] = value
            _walk(value, sub, endpoints, verdicts)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            _walk(item, f"{path}.{i}" if path else str(i), endpoints, verdicts)


def extract(report) -> dict:
    """Certified endpoints and verdicts of a parsed report, keyed by path."""
    endpoints, verdicts = {}, {}
    _walk(report.get("result", report) if isinstance(report, dict) else report,
          "", endpoints, verdicts)
    return {"endpoints": endpoints, "verdicts": verdicts}


def failed_edges(report) -> list:
    """Edge ids of evaluated implication edges that do not hold."""
    rows = report.get("result", report) if isinstance(report, dict) else report
    if not isinstance(rows, list):
        return []
    return [row.get("edge_id") for row in rows
            if isinstance(row, dict) and "edge_id" in row and row.get("holds") is False]


def _lower(value):
    return -math.inf if value is None else value


def _upper(value):
    return math.inf if value is None else value


def compare(ref: dict, new: dict) -> list:
    """Ways in which ``new`` checks are looser than or differ from ``ref``."""
    problems = []
    for path, (cert, lo, hi) in ref["endpoints"].items():
        got = new["endpoints"].get(path)
        if got is None:
            problems.append(f"{path}: certified value no longer reported")
            continue
        g_cert, g_lo, g_hi = got
        if cert == "Exact" and (g_cert != "Exact" or g_lo != lo):
            problems.append(f"{path}: Exact value changed from {lo!r} to {g_cert} {g_lo!r}")
        elif _lower(g_lo) < _lower(lo):
            problems.append(f"{path}: lower endpoint {g_lo!r} below reference {lo!r}")
        elif _upper(g_hi) > _upper(hi):
            problems.append(f"{path}: upper endpoint {g_hi!r} above reference {hi!r}")
    for path, value in ref["verdicts"].items():
        if value is None:
            continue
        got = new["verdicts"].get(path)
        if got != value:
            problems.append(f"{path}: verdict {got!r}, reference {value!r}")
    return problems


class Checker:
    """Validates reports and compares them with stored references."""

    def __init__(self, root: str, workload: str):
        import jsonschema

        with open(os.path.join(root, "docs", "report.schema.json"), encoding="utf-8") as fh:
            schema = json.load(fh)
        self._envelope = jsonschema.Draft7Validator(schema)
        self._array = jsonschema.Draft7Validator(
            {"$ref": "#/definitions/implicationArray", "definitions": schema["definitions"]})
        self.refs = load_refs(workload)

    def check(self, ref_key: str, label: str, code: int, text: Optional[str], err: str) -> dict:
        """Classify one output as ``ok``, ``error`` (failed as the reference
        did) or ``wrong``."""
        ref = self.refs.get(f"{ref_key}/{label}")
        expected = 0 if ref is None else ref["exit"]
        ref_failed = ref is not None and ref["sha256"] is None
        fixed = ref_failed and code == 0 and text is not None
        problems = []
        if code != expected and not fixed:
            problems.append(f"exit {code}, reference {expected}: {err.strip()[-300:]}")
        if text is None:
            if not ref_failed:
                problems.append("no report, reference has one")
            elif code == 0:
                problems.append("exit 0 without a report")
            changed = not ref_failed or code != expected
        else:
            problems += self._report_problems(ref, text)
            changed = ref is None or ref["sha256"] != digest(text) or code != expected
        if problems:
            return {"status": "wrong", "changed": changed, "detail": "; ".join(problems[:5])}
        if text is None:
            return {"status": "error", "changed": changed,
                    "detail": f"exit {code} as at the reference: {err.strip()[-300:]}"}
        return {"status": "ok", "changed": changed, "detail": ""}

    def _report_problems(self, ref: Optional[dict], text: str) -> list:
        try:
            report = json.loads(text)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        validator = self._envelope if isinstance(report, dict) else self._array
        problems = [f"schema: {e.message[:200]}" for e in validator.iter_errors(report)]
        problems += [f"edge {e} does not hold" for e in failed_edges(report)]
        if ref is not None and ref.get("checks") is not None:
            problems += compare(ref["checks"], extract(report))
        return problems


def reference_entry(code: int, text: Optional[str], err: str) -> dict:
    """What the reference store keeps of one output."""
    if text is None:
        return {"exit": code, "sha256": None, "checks": None, "error": err.strip()[-300:]}
    return {"exit": code, "sha256": digest(text), "checks": extract(json.loads(text))}


def refs_path(workload: str) -> str:
    return os.path.join(REFS_DIR, f"{workload}.json.gz")


def load_refs(workload: str) -> dict:
    with gzip.open(refs_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)["reports"]
