"""Exact linear algebra over the rationals, computed in integers.

A number from outside enters through `exact_number`, and a rational row
through `integer_row`, its primitive integer multiple; `products` multiplies
a row by a list of points.  `eliminate` is the first-fit elimination over
integer rows, with one row rule: against a pivot p = e[c], a row with entry
f != 0 in column c becomes the primitive multiple of p*row - f*e, and a row
with a zero there stays as it is (the rule `solver.Dictionary.pivot` applies
inline).  Rank, affine dimension, basis selection and basis inverses are
read off its output.  `parity_rank` eliminates the same rows mod 2, as
bitmasks; it only bounds the rank from below, and proves it when the bound
reaches the row or column count.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import add, itemgetter, mul


def exact_number(x):
    """x as a Fraction: an int, a Fraction or a string such as "1/10".  A
    float is refused, since 0.1 is not 1/10; so are a malformed string and a
    zero denominator, all with ValueError.  A Fraction is returned as it
    is, since it is immutable."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise ValueError(f"inexact number {x!r}: give an int, a Fraction or a string like '1/10'")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def integer_row(values):
    """Primitive integer multiple of a rational row, sign kept, as a new list.

    A row of ints (`type(x) is int`; a bool takes the general path) is only
    divided by the gcd of its entries.  Any other row is first scaled by the
    lcm of the denominators; a float in it is refused by `exact_number`.  An
    all-zero row stays zero.
    """
    if (kinds := {*map(type, values)}) - {int}:
        if any(issubclass(t, float) for t in kinds):
            exact_number(next(x for x in values if isinstance(x, float)))
        scale = lcm(*[x.denominator for x in values])
        values = [x.numerator * (scale // x.denominator) for x in values]
    g = gcd(*values)
    return [x // g for x in values] if g > 1 else list(values)


def products(a, rows):
    """The products a.r for each r in rows, as a list; zeros when a is zero.
    Entries may be ints and Fractions, mixed.

    The nonzero entries of a are grouped by value: a group with value x on
    the indices J adds x * sum(r[j] for j in J), and one itemgetter over J
    with map(sum, ...) runs that sum for every row in builtins."""
    groups = {}
    for j, x in enumerate(a):
        if x:
            groups.setdefault(x, []).append(j)
    out = None
    for x, js in groups.items():
        get = itemgetter(*js)   # a value for one index, a tuple for several
        part = map(get, rows) if len(js) == 1 else map(sum, map(get, rows))
        if x != 1:
            part = map(partial(mul, x), part)
        out = list(part) if out is None else list(map(add, out, part))
    return [0] * len(rows) if out is None else out


def eliminate(rows):
    """First-fit elimination of integer rows.

    Returns (indices, echelon): the indices of the rows that are independent
    of the rows before them, and for each such row its pivot column (its
    first nonzero entry) and the reduced row.  Each row is reduced against
    the echelon rows before it in turn: with p = e[c] and f = row[c] != 0 it
    becomes p*row - f*e divided by its gcd; with f = 0 it stays as it is.  So
    reduced row k is zero on the pivot columns of rows 0..k-1, lies in the
    span of the input rows, and is primitive when its input row is.  Stops
    once the chosen rows span all columns.
    """
    ncols = len(rows[0]) if rows else 0
    indices, echelon = [], []
    for i, v in enumerate(rows):
        for c, e in echelon:
            if f := v[c]:
                p = e[c]
                v = [p * x - f * y for x, y in zip(v, e)]
                if (g := gcd(*v)) > 1:
                    v = [x // g for x in v]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            continue
        indices.append(i)
        echelon.append((lead, v))
        if len(indices) == ncols:
            break
    return indices, echelon


def parity_rank(masks, cap):
    """Rank over GF(2) of rows given as int masks (bit i for entry i), or
    `cap` once it reaches that: no row after the one that reaches it is read.

    XOR elimination keyed by the highest set bit.  Of integer rows reduced
    mod 2 this is a lower bound on their rank over the rationals: a
    rational dependency scaled to coprime integers has an odd coefficient,
    so it reduces to a dependency mod 2.  It is the rank when it equals the
    number of rows or of columns."""
    if cap <= 0:
        return 0
    pivots = {}
    for v in masks:
        while v:
            h = v.bit_length()
            if (p := pivots.get(h)) is None:
                pivots[h] = v
                if len(pivots) == cap:
                    return cap
                break
            v ^= p
    return len(pivots)


def rank(rows):
    """Exact rank over the rationals."""
    return len(eliminate([integer_row(r) for r in rows])[0])


def affine_dimension(points):
    """Dimension of the affine hull of a nonempty point set."""
    if not points:
        raise ValueError("affine dimension of an empty point set")
    return rank([(1, *p) for p in points]) - 1


def inverse_columns(B):
    """Primitive integer columns that are positive multiples of the columns
    of the inverse of the nonsingular square integer matrix B; ValueError if
    B is not square or is singular.

    Eliminates [B | I]; B is singular when a pivot lands in the I part.
    Eliminating the echelon rows again in reverse order clears each pivot
    column above its row, since the pivot columns are a permutation of
    0..n-1.  Row k is then u [B | I] with u B = p e_c (p its pivot, c its
    pivot column), so row c of the inverse is u / p and, with L the lcm of
    the pivots, L times column j has entry e[n+j] * (L // p) in row c.
    """
    n = len(B)
    if any(len(row) != n for row in B):
        raise ValueError("inverse_columns needs a square matrix")
    _, echelon = eliminate([list(row) + [int(i == j) for j in range(n)]
                            for i, row in enumerate(B)])
    if any(c >= n for c, _ in echelon):
        raise ValueError("inverse_columns needs a nonsingular matrix")
    echelon = sorted(eliminate([e for _, e in reversed(echelon)])[1])   # by pivot column
    L = lcm(*(e[c] for c, e in echelon))
    return [integer_row([e[n + j] * (L // e[c]) for c, e in echelon]) for j in range(n)]
