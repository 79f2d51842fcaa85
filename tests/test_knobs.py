"""Guard against dead configuration knobs.

Every field of SolverConfig and RunConfig must be read as an attribute
somewhere in src/lasso_audit/ outside its own class body.  Reads inside
config_from_args do not count (it only copies argparse values into the
RunConfig), and RunConfig.to_json_dict walks __dict__ without reading any
field by name.  The scan matches attribute names, not types: a field that
shares its name with another attribute that is read passes.

The parser must also map onto RunConfig one to one: every flag's dest is a
field, and every field but the command is set by some command's flag.
"""

import argparse
import ast
import dataclasses
from pathlib import Path

import pytest

from lasso_audit.cli import RunConfig, build_parser
from lasso_audit.solvers import SolverConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "lasso_audit"
CONFIG_CLASSES = {"SolverConfig", "RunConfig"}
COPIERS = {"config_from_args"}


def _attribute_reads(tree):
    """Names of attributes loaded outside the config classes and copiers."""
    reads = set()

    def visit(node):
        if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
            return
        if isinstance(node, ast.FunctionDef) and node.name in COPIERS:
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return reads


def _reads_in_package():
    reads = set()
    for path in sorted(SRC.glob("*.py")):
        reads |= _attribute_reads(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return reads


@pytest.mark.parametrize("config_class", [SolverConfig, RunConfig])
def test_every_config_field_is_read(config_class):
    reads = _reads_in_package()
    unread = [f.name for f in dataclasses.fields(config_class) if f.name not in reads]
    assert unread == [], f"{config_class.__name__} fields nothing reads: {unread}"


def test_scan_skips_class_bodies_and_copiers():
    tree = ast.parse(
        "class RunConfig:\n"
        "    def solver_config(self):\n"
        "        return self.only_in_class\n"
        "def config_from_args(args):\n"
        "    return args.only_copied\n"
        "def use(config):\n"
        "    return config.used\n"
    )
    assert _attribute_reads(tree) == {"used"}


def _parser_dests():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return {a.dest for cmd in action.choices.values() for a in cmd._actions} - {"help"}


def test_every_flag_sets_a_config_field():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert sorted(_parser_dests() - fields) == []


def test_every_config_field_is_settable():
    fields = {f.name for f in dataclasses.fields(RunConfig)} - {"command"}
    assert sorted(fields - _parser_dests()) == []
