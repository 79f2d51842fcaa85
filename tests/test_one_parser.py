"""Guard the one parser tree.

cli.build_parser is the only code that constructs an argparse parser
(ArgumentParser, add_subparsers, add_parser); main takes its parser from
cli._cached_parser, a functools.cache around build_parser, so a process
builds the tree once however many times main runs.  build_parser stays a
fresh build for callers that read its actions.  A name counts for the
outermost function or class around it, as in test_one_cone_index.
"""

import ast

from test_one_cone_index import callers
from test_one_thread_driver import SRC, mentions, package

CLI = SRC / "cli.py"


def test_only_build_parser_constructs_a_parser():
    builders = set()
    for module, tree in package():
        for name in ("ArgumentParser", "add_subparsers", "add_parser"):
            builders.update(f"{module}.{owner}" for owner in callers(tree, name))
    assert builders == {"cli.build_parser"}


def test_main_reaches_the_parser_only_through_the_cache():
    tree = ast.parse(CLI.read_text(encoding="utf-8"), str(CLI))
    assert mentions(tree, "build_parser") == ["_cached_parser"]
    assert mentions(tree, "_cached_parser") == ["main"]
    cached = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_cached_parser")
    assert [ast.unparse(d) for d in cached.decorator_list] == ["functools.cache"]
    assert mentions(tree, "parse_args") == ["main"]


def test_scan_sees_a_parser_built_outside_the_builder():
    tree = ast.parse(
        "import argparse\n"
        "def build_parser():\n"
        "    return argparse.ArgumentParser(prog='x')\n"
        "def main(argv=None):\n"
        "    return build_parser().parse_args(argv)\n"
    )
    assert callers(tree, "ArgumentParser") == ["build_parser"]
    assert mentions(tree, "build_parser") == ["main"]
