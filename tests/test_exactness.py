"""No float arithmetic in src/cmpoly: every number it computes is an int or a
Fraction.  The guard fails on a float literal, a true division (`/` or `/=`),
a `float(...)` call, a `math.` attribute, or a name imported from math other
than the integer functions in INTEGER_MATH, unless ALLOWED names the use.
Every number that enters from outside goes through `exact_number`, which
refuses a float."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmpoly.facet_family import separate_family
from cmpoly.graph_core import Graph, generate, parse_graph
from cmpoly.inequality import Inequality
from cmpoly.matchings import brute_force_max_weight_cm
from cmpoly.msi import separate_fractional
from cmpoly.polytope import VRep, hrep
from cmpoly.rational_la import exact_number, rank
from cmpoly.solver import branch_and_cut, build_base_lp

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


# each site where a number enters, as a function of one number x
ENTRY_SITES = {
    "Graph weights": lambda x: Graph(2, ((1, 2),), (x,)).weights,
    "build_base_lp": lambda x: build_base_lp(generate("path:3"), [x, 1]).objective,
    "branch_and_cut": lambda x: branch_and_cut(generate("path:3"), [x, "1/20"]).value,
    "brute_force_max_weight_cm": lambda x: brute_force_max_weight_cm(generate("path:3"),
                                                                      ["1/20", x]),
    # two disjoint edges at (1, x): y_1 + y_3 > 1 gives the MSI x_1 + x_2 <= 1
    "separate_fractional": lambda x: [q.format_line() for q in separate_fractional(
        Graph(4, ((1, 2), (3, 4))), [1, x])],
    # edges 1 and 5 of cycle:8 at (1, x): x_1 + x_5 > 1 gives their family
    # row x_1 + x_5 - x_3 - x_7 <= 1
    "separate_family": lambda x: [q.format_line() for q in separate_family(
        generate("cycle:8"), [1, 0, 0, 0, x, 0, 0, 0])],
}


@pytest.mark.parametrize("site", ENTRY_SITES)
def test_entry_sites_take_exact_numbers_only(site):
    f = ENTRY_SITES[site]
    with pytest.raises(ValueError, match="inexact"):
        f(0.1)
    assert f(Fraction(1, 10)) == f("1/10")


# a float inside a row or a point, which the caller did not pass through
# exact_number
FLOAT_ROW_SITES = {
    "Inequality": lambda: Inequality((0.1, 1), 1),
    "hrep": lambda: hrep(VRep(2, ((0, 0), (0.5, 0), (0, 1)))),
    "VRep": lambda: VRep(2, [(0, 0), (0.1, 0), (0, 1)]),
    "rank": lambda: rank([[0.5, 1]]),
}


@pytest.mark.parametrize("site", FLOAT_ROW_SITES)
def test_float_rows_refused(site):
    with pytest.raises(ValueError, match="inexact"):
        FLOAT_ROW_SITES[site]()


@pytest.mark.parametrize("x", ["1/0", "0.1.2", "x", "", "nan"])
def test_bad_number_strings_raise_value_error(x):
    with pytest.raises(ValueError):
        exact_number(x)


def test_bad_weight_is_a_value_error():
    # a ZeroDivisionError would escape the CLI's error handler
    with pytest.raises(ValueError, match="zero denominator"):
        Graph(2, ((1, 2),), ("1/0",))


def test_exact_numbers_pass_through():
    assert [exact_number(x) for x in (3, Fraction(1, 10), "1/10", "0.1", "-7/14")] == [
        3, Fraction(1, 10), Fraction(1, 10), Fraction(1, 10), Fraction(-1, 2)]


@pytest.mark.parametrize("x,want", [(3, Fraction(3)), (-7, Fraction(-7)), (10 ** 40, Fraction(10 ** 40)),
                                    ("1/10", Fraction(1, 10)), ("-7/14", Fraction(-1, 2)),
                                    ("2.5", Fraction(5, 2)), (" 4 ", Fraction(4))])
def test_int_and_str_become_fractions(x, want):
    got = exact_number(x)
    assert type(got) is Fraction and got == want


def test_a_fraction_is_returned_as_it_is():
    # a Fraction is immutable, so the weight a Graph holds can be shared
    x = Fraction(10 ** 30 + 1, 3)
    assert exact_number(x) is x
    assert Graph(2, ((1, 2),), (x,)).weights[0] is x


@pytest.mark.parametrize("x,message", [(0.5, "inexact"), (float("inf"), "inexact"),
                                       ("1/0", "zero denominator"), ("3/0", "zero denominator"),
                                       ("x", "Invalid literal"), ("1/2/3", "Invalid literal"),
                                       ("", "Invalid literal")])
def test_refusals_after_the_fraction_fast_path(x, message):
    with pytest.raises(ValueError, match=message):
        exact_number(x)


def fraction_or_error(read, x):
    """read(x), or the text of the ValueError it raises."""
    try:
        return read(x)
    except ValueError as e:
        return f"ValueError: {e}"


def read_by_fraction(x):
    """`exact_number` of a string as it was before its `a/b` path: Fraction
    reads it, and a zero denominator is a ValueError."""
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


# ASCII `a/b`, with a leading zero, either sign, a zero denominator, two
# slashes, an underscore, an Arabic-Indic and a fullwidth digit, a space,
# a decimal, an exponent, the empty string, and tokens past int()'s
# digit limit
@pytest.mark.parametrize("x", ["3/2", "03/2", "-3/2", "+3/2", "3/0", "0/0", "1/2/3", "1_0/3",
                               "\u0663/2", "\uff13/2", " 3/2", "1.5", "1e3", "",
                               "1" * 5000 + "/3", "3/" + "1" * 5000,
                               "-" + "1" * 4400 + "/" + "1" * 5000],
                         ids=lambda x: repr(x) if len(x) < 12 else f"{len(x)}-chars")
def test_a_over_b_reads_as_fraction_does(x):
    assert fraction_or_error(exact_number, x) == fraction_or_error(read_by_fraction, x)


@given(st.from_regex(r"-?[0-9]{1,30}/[0-9]{1,30}", fullmatch=True))
def test_ascii_a_over_b_reads_as_fraction_does(x):
    got = fraction_or_error(exact_number, x)
    assert got == fraction_or_error(read_by_fraction, x)
    assert type(got) is Fraction or got.startswith("ValueError: zero denominator")


def test_graph_file_keeps_underscores_and_non_ascii_digits():
    """int() reads `1_0` in a header, and Fraction a fullwidth weight."""
    assert parse_graph("p 1_0 1\ne 1 2\n").n == 10
    assert parse_graph("p 2 1\ne 1 2 w \uff12/3\n").weights == (Fraction(2, 3),)
