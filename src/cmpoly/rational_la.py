"""Exact linear algebra over the rationals, computed in integers.

Rational rows enter through `integer_row`, their primitive integer multiple.
`bareiss_step` is the one fraction-free (Bareiss) row update.  `eliminate`,
the first-fit elimination over integer rows, applies it; rank, affine
dimension, basis selection and basis inverses are read off its output.
"""

from __future__ import annotations

from math import gcd, lcm


def integer_row(values):
    """Primitive integer multiple of a rational row, sign kept, as a new list.

    A row of ints (`type(x) is int`; a bool takes the general path) is only
    divided by the gcd of its entries.  Any other row is first scaled by the
    lcm of the denominators.  An all-zero row stays zero.
    """
    if {*map(type, values)} - {int}:
        scale = lcm(*[x.denominator for x in values])
        values = [x.numerator * (scale // x.denominator) for x in values]
    g = gcd(*values)
    return [x // g for x in values] if g > 1 else list(values)


def bareiss_step(row, pivot_row, col, prev):
    """`row` with its entry in column `col` eliminated against `pivot_row`.

    With p = pivot_row[col] and f = row[col], returns (p*row - f*pivot_row)
    divided by `prev`.  When both rows come from one fraction-free
    elimination and prev is its pivot before p, each entry of the result is
    a minor of the input (Sylvester's identity; Bareiss 1968), so every
    division is exact.
    """
    p, f = pivot_row[col], row[col]
    if f:
        return [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
    return [p * x // prev for x in row]


def eliminate(rows):
    """First-fit fraction-free elimination of integer rows.

    Returns (indices, echelon): the indices of the rows that are independent
    of the rows before them, and for each such row the pivot column and the
    reduced row.  Reduced row k is zero on the pivot columns of rows 0..k-1,
    and by Sylvester's identity (Bareiss 1968) each of its entries is a
    (k+1)-minor of the chosen rows, so every division is exact.  Stops once
    the chosen rows span all columns.
    """
    ncols = len(rows[0]) if rows else 0
    indices, echelon = [], []
    for i, row in enumerate(rows):
        v = row
        prev = 1
        for c, e in echelon:
            v = bareiss_step(v, e, c, prev)
            prev = e[c]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            continue
        indices.append(i)
        echelon.append((lead, v))
        if len(indices) == ncols:
            break
    return indices, echelon


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
    of the inverse of the nonsingular square integer matrix B.

    Eliminates [B | I] and back-substitutes for B y = e_j.  The last pivot
    d is +-det B, so d * y is integral (Cramer) and every division is exact.
    """
    n = len(B)
    _, echelon = eliminate([list(row) + [int(i == j) for j in range(n)]
                            for i, row in enumerate(B)])
    d = echelon[-1][1][echelon[-1][0]]
    cols = []
    for j in range(n):
        y = [0] * n
        for k in reversed(range(n)):
            c, e = echelon[k]
            s = d * e[n + j] - sum(e[c2] * y[c2] for c2, _ in echelon[k + 1:])
            y[c] = s // e[c]
        cols.append(integer_row(y if d > 0 else [-x for x in y]))
    return cols
