"""V/H pipeline: dimension, exact facet enumeration by double description,
facet verification and classification, and interop export."""

from __future__ import annotations

from dataclasses import dataclass

from .facet_family import family_pair
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
    inputs.  Each step computes the products y.(1,p) from the nonzero entries
    of (1,p) only.

    Adjacency is read from a per-constraint ray index (Fukuda & Prodon,
    *Double description method revisited*, 1996, as cddlib keeps it).  Each
    ray keeps a fixed slot for its whole life; the int mask `alive` marks
    the slots in use, and a removed ray only clears its bit there.  A step
    walks the rays in slot order, the set bits of `alive`.  Bit b of
    a ray's tight mask is the b-th processed constraint, and `tight_on[b]`
    masks the slots of the rays tight on it.  A positive and a negative ray
    whose tight masks meet in `common` (at least m - 1 constraints) are
    adjacent when no third ray, a witness, is tight on all of `common`: when
    `alive` and `tight_on[b]` over the bits b of `common` intersect in the
    two rays alone.  The intersection runs from the newest constraint down
    (high bit first) and stops as soon as only the two are left.  A pair
    first tries the last witness found against either of its rays in the
    step, since neighbouring pairs tend to share one; a hit proves the pair
    non-adjacent with one mask test.

    The index changes only when a step's pair loop ends, so the witnesses
    are exactly the rays present when the step began: then a new ray takes
    the next slot and sets its bit in `alive` and in `tight_on[b]` for each
    bit b of its tight mask.  Adjacency is a property of the cone before
    the step, and those rays are its extreme rays; a new ray lies inside a
    two-dimensional face of that cone, so it is not one of them.
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

    rays = inverse_columns([cons[i] for i in basis_idx])   # by slot; None once removed
    tight = [(1 << dim) - 1 - (1 << i) for i in range(dim)]
    alive = (1 << dim) - 1
    tight_on = [alive ^ (1 << b) for b in range(dim)]

    need = m - 1   # adjacent rays share at least m - 1 tight constraints
    chosen = set(basis_idx)
    rest = [i for i in range(len(cons)) if i not in chosen]

    for ci in rest:
        nz = [(j, x) for j, x in enumerate(cons[ci]) if x]
        bit = 1 << len(tight_on)
        pos, neg = [], []
        zero = 0
        for k in mask_bits(alive):
            r = rays[k]
            v = sum(r[j] * x for j, x in nz)
            if v > 0:
                pos.append((k, v))
            elif v == 0:
                zero |= 1 << k
                tight[k] |= bit
            else:
                neg.append((k, v, tight[k]))
        tight_on.append(zero)
        if not neg:
            continue
        new = []
        witness = {}   # slot -> the last witness found against it in this step
        for kp, vp in pos:
            tp = tight[kp]
            close = [q for q in neg if (tp & q[2]).bit_count() >= need]
            if not close:
                continue
            rp, bp = rays[kp], 1 << kp
            for kn, vn, tn in close:
                common = tp & tn
                w = witness.get(kp)
                if w is not None and w != kn and tight[w] & common == common:
                    continue
                w = witness.get(kn)
                if w is not None and w != kp and tight[w] & common == common:
                    witness[kp] = w
                    continue
                pair = bp | 1 << kn
                left, cand = common, alive
                while left and cand != pair:
                    b = left.bit_length() - 1
                    cand &= tight_on[b]
                    left ^= 1 << b
                if cand != pair:
                    others = cand ^ pair
                    witness[kp] = witness[kn] = (others & -others).bit_length() - 1
                    continue
                # a positive combination of the two parents: tight exactly
                # where both are, and on the new constraint
                rn = rays[kn]
                new.append((integer_row([vp * y - vn * x for x, y in zip(rp, rn)]),
                            common | bit))
        for k, _, _ in neg:
            rays[k] = tight[k] = None
            alive ^= 1 << k
        for ray, t in new:
            slot = 1 << len(rays)
            rays.append(ray)
            tight.append(t)
            alive |= slot
            for b in mask_bits(t):
                tight_on[b] |= slot

    facets = [Inequality([-v for v in rays[k][1:]], rays[k][0]) for k in mask_bits(alive)]
    facets.sort(key=lambda q: (q.coeffs, q.rhs))
    return HRep(tuple(facets))


def _check_width(q, m):
    """Reject a row whose coefficient count is not the edge count m: a
    product over zip would silently drop the entries past the shorter side."""
    if q.m != m:
        raise GraphError(f"row has {q.m} coefficients, the graph has {m} edges")


def verify_valid(q, V):
    """Points of V violating q (empty list means q is valid)."""
    _check_width(q, V.m)
    return [p for p in V.points if q.evaluate(p) > q.rhs]


def face_dimension(q, V):
    """Affine dimension of the tight vertex set; -1 for an empty face.

    One pass evaluates each point once, raises on a violated one and keeps
    the tight ones.  Column j with q_j != 0 is dropped: on q.p = rhs it is an
    affine combination of the constant column and the others, so the rank of
    the rows (1, *p) is kept and `eliminate` ends a facet at rank m."""
    _check_width(q, V.m)
    tight = []
    for p in V.points:
        v = q.evaluate(p)
        if v > q.rhs:
            raise GraphError("inequality is not valid on the V-description")
        if v == q.rhs:
            tight.append(p)
    if not tight:
        return -1
    j = next((j for j, c in enumerate(q.coeffs) if c), None)
    if j is not None:
        tight = [p[:j] + p[j + 1:] for p in tight]
    return affine_dimension(tight)


def classify(q, g):
    """Exclusive classification of a canonical facet row against its graph.

    Precedence: nonnegativity, degree, blossom, family, other.
    """
    _check_width(q, g.m)
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

    fam = family_pair(g, q)
    return FacetClass("family", fam) if fam else FacetClass("other")


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
