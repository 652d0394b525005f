from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmpoly.graph_core import generate
from cmpoly.polytope import vrep
from cmpoly.rational_la import (affine_dimension, eliminate, integer_row,
                                inverse_columns, rank)


small_matrix = st.lists(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
             min_size=1, max_size=5),
    min_size=1, max_size=5).filter(lambda rows: len({len(r) for r in rows}) == 1)


class TestRank:
    def test_identity(self):
        assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_all_ones(self):
        assert rank([[1, 1], [1, 1]]) == 1

    def test_unit_vectors(self):
        m = 6
        rows = [[int(i == j) for j in range(m)] for i in range(m)]
        assert rank(rows) == m

    def test_rational_entries(self):
        assert rank([[Fraction(1, 2), Fraction(1, 3)],
                     [Fraction(3, 2), Fraction(1, 1)]]) == 1

    def test_zero(self):
        assert rank([[0, 0], [0, 0]]) == 0

    @settings(max_examples=60, deadline=None)
    @given(small_matrix)
    def test_matches_sympy(self, rows):
        assert rank(rows) == sympy.Matrix(rows).rank()

    @settings(max_examples=40, deadline=None)
    @given(small_matrix)
    def test_rank_of_transpose(self, rows):
        t = [list(col) for col in zip(*rows)]
        assert rank(rows) == rank(t)


class TestAffineDimension:
    def test_single_point(self):
        assert affine_dimension([[0, 0, 0]]) == 0

    def test_zero_plus_units(self):
        m = 5
        pts = [[0] * m] + [[int(i == j) for j in range(m)] for i in range(m)]
        assert affine_dimension(pts) == m

    def test_collinear(self):
        assert affine_dimension([[0, 0], [1, 1], [2, 2]]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            affine_dimension([])

    def test_translation_invariant(self):
        pts = [[0, 0], [1, 2], [3, 1]]
        shifted = [[x + 7, y - 3] for x, y in pts]
        assert affine_dimension(pts) == affine_dimension(shifted)

    def test_base_point_invariant(self):
        pts = [[1, 1, 0], [0, 2, 1], [2, 0, 1], [1, 1, 2]]
        for i in range(len(pts)):
            rotated = pts[i:] + pts[:i]
            assert affine_dimension(rotated) == affine_dimension(pts)


def _old_canonical(row):
    """The lcm/gcd scaling that Inequality.canonical used to inline."""
    scale = 1
    for c in row:
        d = c.denominator
        scale = scale // gcd(scale, d) * d
    ints = [int(c * scale) for c in row]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _integer_matrix(rows):
    return [integer_row(r) for r in rows]


nonsingular = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(st.integers(min_value=-4, max_value=4),
                                min_size=n, max_size=n),
                       min_size=n, max_size=n)
).filter(lambda rows: sympy.Matrix(rows).det() != 0)


class TestEliminate:
    def test_identity(self):
        indices, echelon = eliminate([[1, 0], [0, 1]])
        assert indices == [0, 1] and echelon == [(0, [1, 0]), (1, [0, 1])]

    def test_zero(self):
        assert eliminate([[0, 0], [0, 0]]) == ([], [])

    def test_dependent_rows(self):
        indices, echelon = eliminate([[1, 2], [2, 4], [0, 3]])
        assert indices == [0, 2] and [c for c, _ in echelon] == [0, 1]

    def test_stops_at_full_column_rank(self):
        indices, _ = eliminate([[1, 0], [0, 1], [1, 1]])
        assert indices == [0, 1]

    @settings(max_examples=40, deadline=None)
    @given(small_matrix)
    def test_matches_sympy(self, rows):
        indices, _ = eliminate(_integer_matrix(rows))
        prefix = [sympy.Matrix(rows[:i + 1]).rank() for i in range(len(rows))]
        grew = [i for i in range(len(rows)) if prefix[i] > (prefix[i - 1] if i else 0)]
        assert indices == grew

    @settings(max_examples=40, deadline=None)
    @given(small_matrix)
    def test_results_are_int(self, rows):
        _, echelon = eliminate(_integer_matrix(rows))
        assert all(type(c) is int and all(type(x) is int for x in e)
                   for c, e in echelon)

    @settings(max_examples=40, deadline=None)
    @given(small_matrix)
    def test_echelon_rows_zero_on_earlier_pivot_columns(self, rows):
        _, echelon = eliminate(_integer_matrix(rows))
        for k, (c, e) in enumerate(echelon):
            assert e[c] != 0 and not any(e[:c])
            assert all(e[c2] == 0 for c2, _ in echelon[:k])

    @settings(max_examples=40, deadline=None)
    @given(small_matrix)
    @example([[Fraction(1), Fraction(0)], [Fraction(1), Fraction(2)]])   # reduces to (0, 2)
    def test_echelon_rows_primitive(self, rows):
        """integer_row gives primitive rows, and the row rule keeps them so."""
        _, echelon = eliminate(_integer_matrix(rows))
        assert all(gcd(*e) == 1 for _, e in echelon)

    @settings(max_examples=40, deadline=None)
    @given(small_matrix)
    def test_echelon_rows_in_span_of_input(self, rows):
        _, echelon = eliminate(_integer_matrix(rows))
        r = sympy.Matrix(rows).rank()
        assert all(sympy.Matrix([*rows, e]).rank() == r for _, e in echelon)

    @settings(max_examples=40, deadline=None)
    @given(nonsingular)
    def test_inverse_columns_match_sympy(self, B):
        inv = sympy.Matrix(B).inv()
        cols = inverse_columns(B)
        assert len(cols) == len(B)
        for j, col in enumerate(cols):
            assert all(type(x) is int for x in col)
            assert gcd(*col) == 1
            ref = [Fraction(str(x)) for x in inv.col(j)]
            k = next(i for i, x in enumerate(ref) if x != 0)
            ratio = col[k] / ref[k]
            assert ratio > 0
            assert [ratio * x for x in ref] == col

    @pytest.mark.parametrize("name", ["j26", "petersen", "cube:3", "cycle:10"])
    def test_inverse_columns_hrep_bases(self, name):
        """On the basis hrep starts from, B times column j is a positive
        multiple of e_j."""
        cons = [integer_row((1, *p)) for p in vrep(generate(name)).points]
        basis_idx, _ = eliminate(cons)
        B = [cons[i] for i in basis_idx]
        for j, col in enumerate(inverse_columns(B)):
            image = [sum(a * y for a, y in zip(row, col)) for row in B]
            assert image[j] > 0 and not any(image[:j] + image[j + 1:])

    @pytest.mark.parametrize("B", [[[1, 1], [1, 1]], [[0, 0], [0, 1]], [[0]]])
    def test_inverse_columns_singular_rejected(self, B):
        with pytest.raises(ValueError, match="nonsingular"):
            inverse_columns(B)

    @pytest.mark.parametrize("B", [[[1, 2], [3, 4], [5, 6]], [[1, 2]], [[1, 0], [0]]])
    def test_inverse_columns_not_square_rejected(self, B):
        with pytest.raises(ValueError, match="square"):
            inverse_columns(B)

    def test_inverse_columns_empty(self):
        assert inverse_columns([]) == []


fracs = st.fractions(min_value=-5, max_value=5, max_denominator=12)


class TestIntegerRow:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.lists(fracs, max_size=6),
        st.lists(st.integers(-60, 60), max_size=6),
        st.lists(st.one_of(st.integers(-60, 60), st.booleans(), fracs), max_size=6),
        st.lists(st.booleans(), max_size=6)))
    def test_matches_old_canonical(self, row):
        """Fraction, int, mixed and bool rows (int rows take the gcd-only
        path): the lcm/gcd reference, all ints, and never the caller's list."""
        before = list(row)
        got = integer_row(row)
        assert got == _old_canonical(row)
        assert all(type(x) is int for x in got)
        assert got is not row and row == before
        assert all(type(x) is type(y) for x, y in zip(row, before))

    def test_keeps_sign(self):
        assert integer_row([Fraction(-2, 3), Fraction(4, 9), 0]) == [-3, 2, 0]

    def test_zero_row(self):
        assert integer_row([0, Fraction(0)]) == [0, 0]


def test_exactness_two_routes():
    a, b = Fraction(1, 3), Fraction(2, 7)
    assert a + b == Fraction(1 * 7 + 2 * 3, 21)
