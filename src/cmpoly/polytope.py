"""V/H pipeline: dimension, exact facet enumeration by double description,
facet verification and classification, and interop export."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress
from math import gcd, lcm
from operator import itemgetter

from .facet_family import family_pair
from .graph_core import GraphError, components, mask_bits, union_over
from .inequality import Inequality
from .matchings import DEFAULT_ENUM_LIMIT, enumerate_connected_matchings
from .rational_la import (affine_dimension, eliminate, exact_number, integer_row,
                          inverse_columns, parity_rank, products)


@dataclass(frozen=True)
class VRep:
    """The points of a polytope in R^m, distinct, as tuples, their
    homogenized integer rows, `rows`, and those rows mod 2, `parities`."""

    m: int
    points: tuple

    def __post_init__(self):
        pts = tuple(map(tuple, self.points))
        if any(issubclass(t, float) for t in {*map(type, chain.from_iterable(pts))}):
            exact_number(next(x for x in chain.from_iterable(pts) if isinstance(x, float)))
        if len(set(pts)) != len(pts):
            raise ValueError("V-description points must be distinct")
        for p in pts:
            if len(p) != self.m:
                raise ValueError("point dimension mismatch")
        object.__setattr__(self, "points", pts)

    @cached_property
    def rows(self):
        """Each point's row (1, *p) as a primitive integer tuple, built on
        first use and kept: `hrep`, `parities` and the `face_dimension`
        calls that parity cannot settle read them, so a point is scaled to
        integers once.  A point of ints gives (1, *p) as it stands, which
        its entry 1 makes primitive and `integer_row` returns uncopied."""
        return tuple(tuple(integer_row((1, *p))) for p in self.points)

    @cached_property
    def parities(self):
        """Each row of `rows` mod 2 as an int mask, bit i for entry i, built
        on first use and kept for `face_dimension`.  When every entry is 0
        or 1, a row is (1, *p) and its mask is the point's support with bit
        0 set, as `supports` puts coordinate j at bit j + 1."""
        if {*chain.from_iterable(self.points)} <= {0, 1}:
            return tuple(s | 1 for s in self.supports)
        return tuple(sum(1 << i for i, x in enumerate(row) if x & 1) for row in self.rows)

    @cached_property
    def supports(self):
        """Each point's support as an int mask, bit j + 1 for coordinate j
        (the bit of edge id j + 1 in `graph_core`'s edge masks), built on
        first use for `hrep`."""
        bits = [1 << j for j in range(1, self.m + 1)]
        return tuple(sum(compress(bits, p)) for p in self.points)


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
    points, as rows sorted by (coeffs, rhs).

    When 0 is one of the points and V's coordinate blocks
    (`_coordinate_blocks`; for 𝔠(G) the parts of `graph_core.edge_parts`)
    cover all m coordinates, conv(V) = conv(∪ P_i), P_i the hull of the
    points in block i, and its polar is the product of the P_i's polars:
    its vertices are products of the blocks' vertices, and its rays are one
    block's ray padded with zeros.  Any other V is one block of all m
    coordinates.  Each block runs one double description
    (`_double_description`) on its rows of `V.rows`, cut to the constant
    and its coordinates; a ray y is the row -y[1:].x <= y[0], padded with
    zeros.  The facets are the rows with rhs <= 0 and the products of one
    rhs > 0 row per block (`_product_rows`), made primitive by
    `Inequality`; one block keeps its rows as they are.  The first flat
    block raises.
    """
    full = (1 << V.m + 1) - 2
    blocks = _coordinate_blocks(V) if 0 in V.supports else []
    if sum(blocks) != full or len(blocks) < 2:
        blocks = [full]
    facets, tops = [], []
    for block in blocks:
        cols = mask_bits(block)   # coordinate j is entry j of a row
        rows = V.rows if block == full else list(map(
            itemgetter(0, *cols), compress(V.rows, [not s & ~block for s in V.supports])))
        top = []
        for ray in _double_description(rows):
            row = [0] * V.m
            for j, y in zip(cols, ray[1:]):
                row[j - 1] = -y
            if ray[0] > 0:
                top.append((ray[0], row))
            else:
                facets.append(Inequality(row, ray[0]))
        tops.append(top)
    facets += [Inequality(row, b) for b, row in reduce(_product_rows, tops)]
    facets.sort(key=lambda q: (q.coeffs, q.rhs))
    return HRep(tuple(facets))


def _product_rows(left, right):
    """Each row L1 of left with each row L2 of right, as the row
    (L / L1) r1 + (L / L2) r2 <= L, L = lcm(L1, L2): folded over the blocks
    from the first, it gives sum_i (L / b_i) a_i <= L, L = lcm(b_i)."""
    return [(L, [L // L1 * x + L // L2 * y for x, y in zip(r1, r2)])
            for L1, r1 in left for L2, r2 in right for L in (lcm(L1, L2),)]


def _coordinate_blocks(V):
    """The blocks of V's live coordinates, as masks in the bits of
    `VRep.supports`, ordered by their least coordinate: the components of
    "nonzero together in some point" under the co-support table, whose
    entry b is the union of the supports that hold bit b.  A coordinate
    that is 0 in every point is in no block."""
    table = [0] * (V.m + 1)
    live = 0
    for s in V.supports:
        live |= s
        for b in mask_bits(s):
            table[b] |= s
    return components(table, live)


def _double_description(rows):
    """The extreme rays, as primitive int rows, of the polar of the
    homogenization cone of a full-dimensional point set given by its integer
    rows, each (1, *p) up to a positive scale.  A flat point set raises.

    Rays of the polar cone {y : y.(1,p) >= 0 for all points p} are exactly the
    facet normals; the run starts from a simplicial subcone and inserts the
    remaining point constraints in input order.  The input order follows the
    lexicographic matching enumeration, which keeps intermediate ray counts
    small; aggressive reorderings (for example most-violated-first) were
    observed to inflate intermediates by two orders of magnitude on dense
    inputs.  Each step computes the products y.(1,p) over the live rays in
    builtins (`products`): the nonzero entries of (1,p) are grouped by
    value, and each group is one `operator.itemgetter`, summed over all the
    rays at once by `map(sum, ...)`.  A 0/1 point gives a single group.

    Adjacency is read from a per-constraint ray index (Fukuda & Prodon,
    *Double description method revisited*, 1996, as cddlib keeps it).  Each
    ray keeps a fixed slot for its whole life; the int mask `alive` marks
    the slots in use, and a removed ray only clears its bit there.  A step
    walks the rays in slot order, the list `slots` of the set bits of
    `alive`, which is rebuilt only in a step that removes rays.  Bit b of
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
    two-dimensional face of that cone, so it is not one of them.  New slots
    are the highest, so appending them keeps `slots` ascending.

    Every ray is a primitive int row: the start rays come from
    `inverse_columns`, and a new ray vp*rn - vn*rp of two int rays is
    divided by the gcd of its entries, one `math.gcd` call.
    """
    basis_idx, _ = eliminate(rows)
    if not rows or len(basis_idx) != len(rows[0]):
        raise GraphError("hrep requires a full-dimensional V-description")
    dim = len(basis_idx)
    m = dim - 1
    if m == 0:
        # A single point has no facets; the lone ray is the trivial row 0 <= 1.
        return []

    rays = inverse_columns([rows[i] for i in basis_idx])   # by slot; None once removed
    tight = [(1 << dim) - 1 - (1 << i) for i in range(dim)]
    alive = (1 << dim) - 1
    tight_on = [alive ^ (1 << b) for b in range(dim)]
    slots = list(range(dim))   # the set bits of alive, ascending

    need = m - 1   # adjacent rays share at least m - 1 tight constraints
    chosen = set(basis_idx)
    rest = [i for i in range(len(rows)) if i not in chosen]

    for ci in rest:
        bit = 1 << len(tight_on)
        pos, neg = [], []
        zero = 0
        for k, v in zip(slots, products(rows[ci], [rays[k] for k in slots])):
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
                ray = [vp * y - vn * x for x, y in zip(rp, rays[kn])]
                d = gcd(*ray)
                new.append(([x // d for x in ray] if d > 1 else ray, common | bit))
        for k, _, _ in neg:
            rays[k] = tight[k] = None
            alive ^= 1 << k
        slots = [k for k in slots if rays[k] is not None]
        for ray, t in new:
            slots.append(len(rays))
            slot = 1 << len(rays)
            rays.append(ray)
            tight.append(t)
            alive |= slot
            for b in mask_bits(t):
                tight_on[b] |= slot

    return [rays[k] for k in slots]


def _check_width(q, m):
    """Reject a row whose coefficient count is not the edge count m: a
    product over zip would silently drop the entries past the shorter side."""
    if q.m != m:
        raise GraphError(f"row has {q.m} coefficients, the graph has {m} edges")


def verify_valid(q, V):
    """Points of V violating q (empty list means q is valid)."""
    _check_width(q, V.m)
    return [p for p, v in zip(V.points, products(q.coeffs, V.points)) if v > q.rhs]


def face_dimension(q, V):
    """Affine dimension of the tight vertex set; -1 for an empty face.

    One `products` call evaluates each point once; a violated one raises.
    On q.p = rhs the column of the first nonzero coefficient is an affine
    combination of the constant column and the others, so the tight rows
    have rank at most m.  The rank mod 2 of their `V.parities` bounds the
    rank from below and is the rank when it reaches that cap or the row
    count.  Otherwise `eliminate` runs on the tight rows of `V.rows` with
    that column dropped, so it stops at rank m."""
    _check_width(q, V.m)
    values = products(q.coeffs, V.points)
    rhs = q.rhs
    if max(values, default=rhs) > rhs:
        raise GraphError("inequality is not valid on the V-description")
    masks = [b for b, v in zip(V.parities, values) if v == rhs]
    if not masks:
        return -1
    j = next((j for j, c in enumerate(q.coeffs, start=1) if c), None)
    cap = V.m + 1 if j is None else V.m
    r = parity_rank(masks, cap)
    if r == cap or r == len(masks):
        return r - 1
    tight = [row for row, v in zip(V.rows, values) if v == rhs]
    if j is not None:
        tight = [row[:j] + row[j + 1:] for row in tight]
    return len(eliminate(tight)[0]) - 1


def classify(q, g):
    """Exclusive classification of a canonical facet row against its graph.

    Precedence: nonnegativity, degree, blossom, family, other.  The row is
    read once, into the edge-id masks of its +1, -1 and other coefficients
    (`Inequality.sign_masks`), and each class is a few tests on them.
    """
    _check_width(q, g.m)
    _, rhs = q.canonical()
    plus, minus, other = q.sign_masks

    if rhs == 0 and not plus | other and minus.bit_count() == 1:
        return FacetClass("nonnegativity", (minus.bit_length() - 1,))

    if not minus | other:   # a 0/1 row, with support plus
        # entry 0 of incident_masks is 0, so a nonzero plus is found at a vertex
        if rhs == 1 and plus and plus in g.incident_masks:
            return FacetClass("degree", (g.incident_masks.index(plus),))
        H = union_over(g.endpoint_masks, plus)
        size = H.bit_count()
        if size >= 3 and size % 2 == 1 and rhs == (size - 1) // 2:
            outside = union_over(g.incident_masks, g.all_vertices & ~H)
            if plus == union_over(g.incident_masks, H) & ~outside:
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
