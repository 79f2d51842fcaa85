"""Pin the absolute floors left in the package.

A floor such as max(1.0, abs(value)) turns a relative tolerance into an
absolute one below scale 1, so a report computed on c * Sigma stops being c
times the report on Sigma.  This scan lists every call of the builtin max in
src/lasso_audit with a float 1.0 argument, or a list argument that holds
one, by module and enclosing function; integer max(1, ...) counts do not
match.  The list is pinned: a new floor fails here, and removing one shrinks
the pin.
"""

import ast

from test_one_thread_driver import package

PINNED = {
    "core.BoundedValue.__post_init__",
    "estimators.compatibility_constant",
    "estimators._refine_ratio",
    "implications._verdict",
    "implications._edge_e3",
    "lasso._leq",
    "solvers.simplex_lp",
}


def _is_float_one(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1.0


def _terms(node) -> list:
    """The operands of a chain of binary operations such as [1.0] + rest."""
    if isinstance(node, ast.BinOp):
        return _terms(node.left) + _terms(node.right)
    return [node]


def _is_floor(call: ast.Call) -> bool:
    """A call of the bare name max with a float 1.0 argument, or a list
    argument (alone or concatenated) holding one."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "max"):
        return False
    return any(_is_float_one(arg) or any(isinstance(t, ast.List) and any(map(_is_float_one, t.elts))
                                         for t in _terms(arg))
               for arg in call.args)


def floors(module: str, tree) -> set:
    """module.qualname of the function (or class body) around each floor."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and _is_floor(node):
            found.add(".".join((module,) + (scope or ("<module>",))))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_the_floors_are_the_pinned_ones():
    found = set()
    for module, tree in package():
        found |= floors(module, tree)
    assert found == PINNED


def test_scan_tells_a_float_floor_from_an_integer_count():
    tree = ast.parse(
        "def f(x):\n"
        "    return max(1.0, abs(x))\n"
        "class C:\n"
        "    def g(self, a, b):\n"
        "        return max([1.0] + [abs(a)]), max(1, b), max(a, 1e-12), self.max(1.0, a)\n"
        "    def h(self, v):\n"
        "        return min(v, key=lambda c: c / max(abs(c), 1.0))\n"
        "def counts(n):\n"
        "    return max(1, n), max(n, 0), max([1, n])\n"
        "top = max(x, 1.0)\n")
    assert floors("m", tree) == {"m.f", "m.C.g", "m.C.h", "m.<module>"}
