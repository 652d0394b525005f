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
from functools import cached_property

from .rational_la import exact_number, integer_row, products

_INT = r"[-+]?[0-9]+"   # an ASCII integer token
_INT_TOKEN = re.compile(_INT).fullmatch
_INT_TOKENS = re.compile(rf"{_INT}(?: {_INT})*").fullmatch   # tokens joined by " "


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

    @cached_property
    def sign_masks(self):
        """(plus, minus, other): int masks of the coefficients equal to 1,
        equal to -1 and the other nonzero ones.  Coefficient j is bit j + 1,
        the bit of edge id j + 1 in `graph_core`'s edge masks."""
        plus = minus = other = 0
        for j, c in enumerate(self.coeffs, start=1):
            if c == 1:
                plus |= 1 << j
            elif c == -1:
                minus |= 1 << j
            elif c:
                other |= 1 << j
        return plus, minus, other

    def with_tag(self, tag):
        """This row with its tag set to `tag`.  The stored row is primitive
        already, so it is copied as it stands; `dataclasses.replace` would
        run `__post_init__` and reduce it again."""
        q = object.__new__(type(self))
        q.__dict__.update(self.__dict__, tag=tag)
        return q

    def evaluate(self, x):
        """coeffs . x, by `rational_la.products`."""
        return products(self.coeffs, [x])[0]

    def canonical(self):
        """Integer form (coeff tuple, rhs) with overall gcd 1: the stored row."""
        return self.coeffs, self.rhs

    def format_row(self):
        """`<c1> ... <cm> <= <rhs>` in canonical form, with no comment."""
        return " ".join([*map(str, self.coeffs), "<=", str(self.rhs)])

    def format_line(self):
        """`format_row` plus the provenance comment."""
        line = self.format_row()
        comment = []
        if self.tag:
            comment.append(f"tag={self.tag}")
        if self.provenance:
            comment.append(self.provenance)
        if comment:
            line += "  # " + " ".join(comment)
        return line


def parse_entry(t, line):
    """A row token: int() if it is an ASCII integer, else exact_number."""
    try:
        return int(t) if _INT_TOKEN(t) else exact_number(t)
    except ValueError:
        raise ValueError(f"bad inequality entry {t!r} in line {line!r}") from None


def _read_tokens(tokens, line):
    """The tokens of a row, each read as `parse_entry` reads it.  When every
    token is an ASCII integer, one fullmatch over the joined tokens says so
    and they are read by `map(int, ...)`; a line with any other token, or an
    integer past int()'s digit limit, is read token by token."""
    if _INT_TOKENS(" ".join(tokens)):
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
    return [parse_entry(t, line) for t in tokens]


def parse_inequality_line(line):
    """Parse one `<c1> ... <cm> <= <rhs>` row of `parse_entry` tokens; # comment is the tag."""
    body, _, comment = line.partition("#")
    lhs, sense, rhs = body.rpartition("<=")
    if not sense or len(rhs.split()) != 1:
        raise ValueError(f"bad inequality line: {line!r}")
    *coeffs, rhs = _read_tokens([*lhs.split(), rhs.strip()], line)
    tag = ""
    tm = re.search(r"tag=(\S+)", comment)
    if tm:
        tag = tm.group(1)
    return Inequality(coeffs, rhs, tag=tag, provenance=comment.strip())


def parse_hrep_file(text):
    """H-description file: `h <m> <count>` header then inequality rows."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    header = lines[0] if lines else ""
    head = re.fullmatch(r"h\s+([0-9]+)\s+([0-9]+)\s*", header)
    if not head:
        raise ValueError(f"header {header!r} is not 'h <m> <count>' with m, count >= 0")
    m, k = int(head[1]), int(head[2])
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
