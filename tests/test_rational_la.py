import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmpoly.graph_core import generate
from cmpoly.polytope import vrep
from cmpoly.rational_la import (affine_dimension, eliminate, integer_row,
                                inverse_columns, parity_rank, products, rank)


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


def _parity_masks(rows):
    """Each integer row mod 2 as an int mask, bit i for entry i."""
    return [sum(1 << i for i, x in enumerate(row) if x % 2) for row in rows]


int_matrix = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(st.lists(st.integers(min_value=-6, max_value=6),
                                min_size=n, max_size=n),
                       min_size=1, max_size=7))


class TestParityRank:
    def test_small(self):
        assert parity_rank([], 3) == 0
        assert parity_rank([0b11, 0b11, 0b01], 2) == 2
        assert parity_rank([0b110, 0b011, 0b101], 3) == 2   # the rows sum to 0 mod 2

    def test_matches_sympy_gf2(self):
        """Seeded 0/1 matrices of every shape up to 8 x 8: the rank over
        GF(2) that sympy's DomainMatrix gives."""
        rng = random.Random(41)
        F2 = sympy.GF(2)
        short = 0
        for _ in range(300):
            n, m = rng.randint(1, 8), rng.randint(1, 8)
            rows = [[int(rng.random() < 0.4) for _ in range(m)] for _ in range(n)]
            want = DomainMatrix([[F2(x) for x in row] for row in rows], (n, m), F2).rank()
            assert parity_rank(_parity_masks(rows), m) == want
            assert parity_rank(_parity_masks(rows), n + m) == want
            short += want < min(n, m)
        assert short >= 50

    @settings(max_examples=80, deadline=None)
    @given(int_matrix)
    @example([[2, 0], [0, 2]])   # rank 2, rank 0 mod 2
    @example([[1, 1], [1, -1]])   # rank 2, rank 1 mod 2
    def test_at_most_rank(self, rows):
        """A lower bound on the rank over Q, and the rank itself when it
        reaches the row or the column count."""
        r = parity_rank(_parity_masks(rows), len(rows[0]))
        assert r <= rank(rows)
        if r in (len(rows), len(rows[0])):
            assert r == rank(rows)

    def test_cap_stops_early(self):
        """At rank `cap` it returns without reading another row."""
        read = []

        def rows(masks):
            for v in masks:
                read.append(v)
                yield v

        unit = [1 << i for i in range(6)]
        assert parity_rank(rows(unit), 3) == 3 and read == unit[:3]
        read.clear()
        assert parity_rank(rows([1, 1, 2, 2, 4]), 2) == 2 and read == [1, 1, 2]
        read.clear()
        assert parity_rank(rows(unit), 0) == 0 and read == []
        assert parity_rank(unit, 6) == parity_rank(unit, 10) == 6


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
        path): the lcm/gcd reference, all ints, the caller's list itself
        exactly when it is ints with gcd 1 or 0, and that list unchanged."""
        before = list(row)
        got = integer_row(row)
        assert got == _old_canonical(row)
        assert all(type(x) is int for x in got)
        primitive_ints = all(type(x) is int for x in row) and gcd(*row) <= 1
        assert (got is row) == primitive_ints and row == before
        assert all(type(x) is type(y) for x, y in zip(row, before))

    def test_keeps_sign(self):
        assert integer_row([Fraction(-2, 3), Fraction(4, 9), 0]) == [-3, 2, 0]

    def test_zero_row(self):
        assert integer_row([0, Fraction(0)]) == [0, 0]


class TestProducts:
    def test_match_the_plain_sum(self):
        """Int and Fraction entries, mixed, in the row and in the points; an
        all-zero row, and no points at all."""
        rng = random.Random(29)
        entries = (0, 0, 1, -1, 2, 3, -5, Fraction(1, 2), Fraction(-2, 3))
        for _ in range(300):
            n = rng.randint(1, 7)
            a = [rng.choice(entries) for _ in range(n)]
            rows = [[rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 4)))
                     for _ in range(n)] for _ in range(rng.randint(0, 6))]
            assert products(a, rows) == [sum(x * y for x, y in zip(a, r)) for r in rows], (a, rows)

    def test_int_row_by_fraction_points(self):
        """int.__mul__ does not take a Fraction; the kernel multiplies anyway."""
        assert products([2, 0, -1], [[Fraction(1, 2), 5, Fraction(1, 3)]]) == [Fraction(2, 3)]
        assert products([3, 3], [[Fraction(1, 3), Fraction(1, 2)]]) == [Fraction(5, 2)]

    def test_zero_row(self):
        assert products([0, 0, 0], [[1, 2, 3], [Fraction(1, 2), 0, 4]]) == [0, 0]
        assert products([0, 0], []) == [] and products([], [(), ()]) == [0, 0]


def test_exactness_two_routes():
    a, b = Fraction(1, 3), Fraction(2, 7)
    assert a + b == Fraction(1 * 7 + 2 * 3, 21)
