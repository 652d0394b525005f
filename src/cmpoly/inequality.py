"""Inequality rows (sense <=), stored as primitive integer rows.

A row given with rational coefficients is kept as its primitive integer
multiple (`rational_la.integer_row` over coeffs and rhs): ints whose gcd is
1, or all zero.  A positive scale changes neither validity nor tightness, so
rows that differ only by one compare equal, and the printed row is the
stored one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .rational_la import integer_row


@dataclass(frozen=True)
class Inequality:
    """A row `coeffs . x <= rhs` with a classification tag and provenance note."""

    coeffs: tuple
    rhs: int
    tag: str = ""
    provenance: str = ""

    def __post_init__(self):
        *ints, r = integer_row([*self.coeffs, self.rhs])
        object.__setattr__(self, "coeffs", tuple(ints))
        object.__setattr__(self, "rhs", r)

    @property
    def m(self):
        return len(self.coeffs)

    def evaluate(self, x):
        return sum(c * v for c, v in zip(self.coeffs, x))

    def canonical(self):
        """Integer form (coeff tuple, rhs) with overall gcd 1: the stored row."""
        return self.coeffs, self.rhs

    def format_line(self):
        """`<c1> ... <cm> <= <rhs>` in canonical form, plus provenance comment."""
        ints, r = self.canonical()
        line = " ".join(str(v) for v in ints) + f" <= {r}"
        comment = []
        if self.tag:
            comment.append(f"tag={self.tag}")
        if self.provenance:
            comment.append(self.provenance)
        if comment:
            line += "  # " + " ".join(comment)
        return line


def parse_inequality_line(line):
    """Parse one `<c1> ... <cm> <= <rhs>` row; comments after # are kept as tag."""
    body, _, comment = line.partition("#")
    body = body.strip()
    mt = re.match(r"^(.*)<=\s*(-?\d+(?:/\d+)?)\s*$", body)
    if not mt:
        raise ValueError(f"bad inequality line: {line!r}")
    values = []
    for t in [*mt.group(1).split(), mt.group(2)]:
        try:
            values.append(Fraction(t))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad inequality entry {t!r} in line {line!r}") from None
    *coeffs, rhs = values
    tag = ""
    tm = re.search(r"tag=(\S+)", comment)
    if tm:
        tag = tm.group(1)
    return Inequality(coeffs, rhs, tag=tag, provenance=comment.strip())


def parse_hrep_file(text):
    """H-description file: `h <m> <count>` header then inequality rows."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or not lines[0].startswith("h "):
        raise ValueError("missing 'h <m> <count>' header")
    _, m_s, k_s = lines[0].split()
    m, k = int(m_s), int(k_s)
    rows = [parse_inequality_line(ln) for ln in lines[1:]]
    if len(rows) != k:
        raise ValueError(f"header declares {k} rows, found {len(rows)}")
    for q in rows:
        if q.m != m:
            raise ValueError(f"row has {q.m} coefficients, expected {m}")
    return rows


def format_hrep_file(rows, m):
    lines = [f"h {m} {len(rows)}"]
    lines.extend(q.format_line() for q in rows)
    return "\n".join(lines) + "\n"
