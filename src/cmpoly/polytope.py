"""V/H pipeline: dimension, exact facet enumeration by double description,
facet verification and classification, and interop export."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .facet_family import is_disconnected_pair, lambda_set
from .graph_core import GraphError, mask_bits, union_over
from .inequality import Inequality
from .matchings import DEFAULT_ENUM_LIMIT, enumerate_connected_matchings
from .rational_la import affine_dimension, eliminate, integer_row, inverse_columns


@dataclass(frozen=True)
class VRep:
    m: int
    points: tuple

    def __post_init__(self):
        pts = tuple(map(tuple, self.points))
        if len(set(pts)) != len(pts):
            raise ValueError("V-description points must be distinct")
        for p in pts:
            if len(p) != self.m:
                raise ValueError("point dimension mismatch")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class HRep:
    facets: tuple


@dataclass(frozen=True)
class FacetClass:
    """Exclusive facet label: nonnegativity(e) | degree(v) | blossom(H) |
    family(pair, lambda) | other."""

    kind: str
    data: tuple = ()

    @property
    def key(self):
        """Histogram key: the kind, with blossom rows split by handle size."""
        if self.kind == "blossom":
            return f"blossom[{len(self.data[0])}]"
        return self.kind


def vrep(g, limit=DEFAULT_ENUM_LIMIT):
    """V-description of the connected matching polytope of g."""
    return VRep(g.m, tuple(enumerate_connected_matchings(g, limit)))


def polytope_dimension(V):
    return affine_dimension(V.points)


def hrep(V):
    """Minimal facet description of a full-dimensional polytope given by its
    vertices, via the double description method on the polar of the
    homogenization cone.

    Rays of the polar cone {y : y.(1,p) >= 0 for all points p} are exactly the
    facet normals; the run starts from a simplicial subcone and inserts the
    remaining point constraints in input order.  The input order follows the
    lexicographic matching enumeration, which keeps intermediate ray counts
    small; aggressive reorderings (for example most-violated-first) were
    observed to inflate intermediates by two orders of magnitude on dense
    inputs.  Adjacency of rays is decided by the tight-set containment test.
    """
    m = V.m
    dim = m + 1
    cons = [integer_row((1, *p)) for p in V.points]
    basis_idx, _ = eliminate(cons)
    if len(basis_idx) != dim:
        raise GraphError("hrep requires a full-dimensional V-description")
    if m == 0:
        # A single point has no facets; the lone ray is the trivial row 0 <= 1.
        return HRep(())

    rays = inverse_columns([cons[i] for i in basis_idx])
    done = dim   # constraints processed; bit k of a tight mask is the k-th one
    tight = [(1 << dim) - 1 - (1 << i) for i in range(dim)]

    chosen = set(basis_idx)
    rest = [i for i in range(len(cons)) if i not in chosen]

    for ci in rest:
        a = cons[ci]
        bit = 1 << done
        done += 1
        s = [sum(x * y for x, y in zip(a, r)) for r in rays]
        if all(v >= 0 for v in s):
            tight = [t | (bit if v == 0 else 0) for t, v in zip(tight, s)]
            continue
        keep_r, keep_t = [], []
        pos, neg = [], []
        for k, v in enumerate(s):
            if v >= 0:
                keep_r.append(rays[k])
                keep_t.append(tight[k] | (bit if v == 0 else 0))
            if v > 0:
                pos.append(k)
            elif v < 0:
                neg.append(k)
        for kp in pos:
            for kn in neg:
                common = tight[kp] & tight[kn]
                if common.bit_count() < m - 1:
                    continue
                if any(k != kp and k != kn and common & tight[k] == common
                       for k in range(len(rays))):
                    continue
                # a positive combination of the two parents: tight exactly
                # where both are, and on the new constraint
                keep_r.append(integer_row([s[kp] * rays[kn][j] - s[kn] * rays[kp][j]
                                           for j in range(dim)]))
                keep_t.append(common | bit)
        rays, tight = keep_r, keep_t

    facets = [Inequality([-v for v in y[1:]], y[0]) for y in rays]
    facets.sort(key=lambda q: (q.coeffs, q.rhs))
    return HRep(tuple(facets))


def verify_valid(q, V):
    """Points of V violating q (empty list means q is valid)."""
    return [p for p in V.points if q.evaluate(p) > q.rhs]


def face_dimension(q, V):
    """Affine dimension of the tight vertex set; -1 for an empty face."""
    if verify_valid(q, V):
        raise GraphError("inequality is not valid on the V-description")
    tight = [p for p in V.points if q.evaluate(p) == q.rhs]
    if not tight:
        return -1
    return affine_dimension(tight)


def is_facet(q, V):
    return face_dimension(q, V) == polytope_dimension(V) - 1


def classify(q, g):
    """Exclusive classification of a canonical facet row against its graph.

    Precedence: nonnegativity, degree, blossom, family, other.
    """
    ints, rhs = q.canonical()
    support = [i + 1 for i, c in enumerate(ints) if c != 0]
    sup = sum(1 << e for e in support)   # edge-id mask

    if rhs == 0 and len(support) == 1 and ints[support[0] - 1] == -1:
        return FacetClass("nonnegativity", (support[0],))

    if rhs == 1 and sup and all(c in (0, 1) for c in ints):
        for v in range(1, g.n + 1):
            if g.incident_masks[v] == sup:
                return FacetClass("degree", (v,))

    if all(c in (0, 1) for c in ints):
        H = g.cover_mask(support)
        size = H.bit_count()
        if size >= 3 and size % 2 == 1 and rhs == (size - 1) // 2:
            outside = union_over(g.incident_masks, g.all_vertices & ~H)
            if sup == union_over(g.incident_masks, H) & ~outside:
                return FacetClass("blossom", (tuple(mask_bits(H)),))

    if rhs == 1 and all(c in (-1, 0, 1) for c in ints):
        plus = [i + 1 for i, c in enumerate(ints) if c == 1]
        minus = tuple(sorted(i + 1 for i, c in enumerate(ints) if c == -1))
        if len(plus) == 2 and is_disconnected_pair(g, plus[0], plus[1]):
            if minus == lambda_set(g, plus[0], plus[1]):
                return FacetClass("family", (tuple(plus), minus))

    return FacetClass("other")


def class_histogram(H, g):
    """Count facets by class key."""
    return Counter(classify(q, g).key for q in H.facets)


def export_vrep_interop(V):
    """POINTS-section text with a homogenizing leading 1 per row."""
    if not V.points:
        raise ValueError("empty V-description")
    lines = ["POINTS"]
    for p in V.points:
        row = "1"
        if p:
            row += " " + " ".join(str(x) for x in p)
        lines.append(row)
    return "\n".join(lines) + "\n"
