"""No float arithmetic in src/cmpoly: every number it computes is an int or a
Fraction.  The guard fails on a float literal, a true division (`/` or `/=`),
a `float(...)` call, a `math.` attribute, or a name imported from math other
than the integer functions in INTEGER_MATH, unless ALLOWED names the use."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "cmpoly").glob("*.py"))

# (module, enclosing function, construct): why the float is harmless there
ALLOWED = {
    ("graph_core", "line_distance", "math.inf"):
        "the distance between edges in different components, only ever compared",
}
INTEGER_MATH = {"gcd", "lcm"}


def float_constructs(tree):
    """(enclosing function or None, construct) for each float construct."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((func, f"float literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((func, "/"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((func, "float()"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math"):
            found.append((func, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((func, f"math.{alias.name}") for alias in node.names
                         if alias.name not in INTEGER_MATH)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_src_has_no_float_arithmetic():
    found = {(path.stem, func, what) for path in SOURCES
             for func, what in float_constructs(ast.parse(path.read_text()))}
    assert found == set(ALLOWED)


@pytest.mark.parametrize("code,what", [
    ("x = 0.5", "float literal 0.5"), ("y = a / b", "/"), ("a /= 2", "/"),
    ("z = float(a)", "float()"), ("r = math.sqrt(a)", "math.sqrt"),
    ("from math import gcd, sqrt", "math.sqrt"),
])
def test_guard_finds_each_construct(code, what):
    assert float_constructs(ast.parse(f"def f(a, b):\n    {code}\n")) == [("f", what)]
