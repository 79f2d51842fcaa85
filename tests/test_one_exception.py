"""Guard the exception taxonomy: one class per failure mode.

errors.py defines exactly seven classes, AuditError and six subclasses of
it, and no other module derives from any of them.  Every raise in src names
one of the seven, re-raises a caught exception (a bare raise or an
uncalled lower-case name), or raises cli._NotFastCsv, the CSV fast path's
sentinel, which load_matrix_csv catches so it never leaves cli.  Each of the
seven is raised somewhere.  A numerically singular block, whatever reads
it, is SingularBlock, and the diag(1, 0, 1) instance below pins that at the
CLI.
"""

import ast
import json

import numpy as np

from lasso_audit.cli import main, save_matrix_csv
from test_one_thread_driver import SRC, package

SEVEN = {"AuditError", "InvalidParameter", "ParseError", "CapExceeded", "MaxItersExceeded",
         "SingularBlock", "DenominatorNonPositive"}

SENTINELS = {"cli": {"_NotFastCsv"}}


def _name(node):
    """The name a raise's expression gives, bare or as an attribute, called
    or not; None for any other expression."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def raised_classes(tree) -> list:
    """The names raised in tree, sorted.  A bare raise and a raise of a
    lower-case name, not called, re-raise a caught exception and are left
    out; any other expression counts as None."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            name = _name(node.exc)
            if isinstance(node.exc, ast.Call) or name is None or name.lstrip("_")[:1].isupper():
                found.append(name)
    return sorted(found, key=lambda n: (n is None, n or ""))


def class_bases(tree) -> dict:
    """Each top-level class of tree mapped to the names of its bases."""
    return {node.name: [_name(b) for b in node.bases]
            for node in tree.body if isinstance(node, ast.ClassDef)}


def caught(tree) -> set:
    """The class names in the except clauses of tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            found.update(_name(t) for t in types)
    return found


def test_errors_defines_the_seven():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    bases = class_bases(tree)
    assert set(bases) == SEVEN
    assert bases.pop("AuditError") == ["Exception"]
    assert all(b == ["AuditError"] for b in bases.values())


def test_every_raise_names_one_of_the_seven():
    raised = set()
    for module, tree in package():
        allowed = SEVEN | SENTINELS.get(module, set())
        names = raised_classes(tree)
        assert set(names) <= allowed, (module, sorted(set(names) - allowed))
        raised.update(names)
        if module != "errors":
            assert not any(set(b) & SEVEN for b in class_bases(tree).values()), module
        for sentinel in SENTINELS.get(module, ()):
            assert sentinel in caught(tree)
            assert class_bases(tree)[sentinel] == ["Exception"]
    assert SEVEN <= raised


def test_scan_sees_every_raise_form():
    tree = ast.parse(
        "def f(error):\n"
        "    try:\n"
        "        raise errors.SingularBlock('x')\n"
        "    except (CapExceeded, errors.ParseError) as exc:\n"
        "        raise exc\n"
        "    except ValueError:\n"
        "        raise\n"
        "    raise error\n"
        "class _Sentinel(Exception):\n"
        "    pass\n"
        "class Local(errors.AuditError):\n"
        "    def g(self):\n"
        "        raise _Sentinel\n"
        "raise make_error()\n"
        "raise ValueError('y')\n"
        "raise errors[0]\n"
    )
    assert raised_classes(tree) == ["SingularBlock", "ValueError", "_Sentinel", "make_error", None]
    assert class_bases(tree) == {"_Sentinel": ["Exception"], "Local": ["AuditError"]}
    assert caught(tree) == {"CapExceeded", "ParseError", "ValueError"}


def test_a_singular_block_has_one_name_at_the_cli(tmp_path, capsys):
    gram = tmp_path / "g.csv"
    save_matrix_csv(str(gram), np.diag([1.0, 0.0, 1.0]))
    out = tmp_path / "r.json"
    cone = ["--gram", str(gram), "--S", "0,1", "--N", "2", "--out", str(out)]

    assert main(["analyze"] + cone) == 0
    errors = json.loads(out.read_text())["result"]["errors"]
    lam2_s = "SingularBlock: Lambda^2(S,s) = 0.0 is numerically zero"
    all_singular = "SingularBlock: all 1 candidate Sigma_11 blocks are singular"
    assert errors["irr_uniform"] == all_singular
    assert errors["mutual"] == errors["cumulative"] == lam2_s
    assert errors["weak_rip"] == "SingularBlock: Lambda^2(S,N) = 0.0 is numerically zero"

    assert main(["implications"] + cone) == 0
    notes = {v["edge_id"]: v["bound_direction_note"] for v in json.loads(out.read_text())["result"]}
    assert notes["E4"] == notes["E8"] == f"skipped: {all_singular}"

    capsys.readouterr()
    assert main(["lasso", "--gram", str(gram), "--S", "0", "--lambda", "0.1"]) == 1
    assert capsys.readouterr().err == (
        "error: SingularBlock: coordinate descent needs strictly positive diagonal\n")
