import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import networkx as nx
import pytest
import sympy

from cmpoly import polytope
from cmpoly.facet_family import family_inequality, is_disconnected_pair, lambda_set
from cmpoly.graph_core import Graph, GraphError, edge_parts, generate, mask_bits
from cmpoly.inequality import Inequality
from cmpoly.matchings import enumerate_connected_matchings
from cmpoly.polytope import (FacetClass, HRep, VRep, _coordinate_blocks, _double_description,
                             classify, export_vrep_interop, face_dimension, hrep,
                             polytope_dimension, verify_valid, vrep)
from cmpoly.rational_la import (affine_dimension, eliminate, integer_row, inverse_columns,
                                parity_rank, products, rank)

from conftest import (assert_primitive_int_row, class_histogram, random_connected_graph,
                      set_bfs_components, to_networkx)


def oracle_hull_facets(points):
    """Brute-force facet enumeration: supporting hyperplanes through affinely
    independent point subsets, kept when all points are on one side."""
    m = len(points[0])
    pts = [tuple(Fraction(x) for x in p) for p in points]
    found = set()
    for sub in combinations(pts, m):
        if affine_dimension(sub) != m - 1:
            continue
        # solve for (a, a0) with a.p = a0 on the subset, via nullspace of
        # homogenized differences
        base = sub[0]
        rows = [[x - y for x, y in zip(p, base)] for p in sub[1:]]
        normal = _nullspace_vector(rows, m)
        if normal is None:
            continue
        a0 = sum(a * x for a, x in zip(normal, base))
        vals = [sum(a * x for a, x in zip(normal, p)) for p in pts]
        if all(v <= a0 for v in vals):
            q = Inequality(normal, a0)
        elif all(v >= a0 for v in vals):
            q = Inequality([-x for x in normal], -a0)
        else:
            continue
        if affine_dimension([p for p in pts if q.evaluate(p) == q.rhs]) == m - 1:
            found.add(q.canonical())
    return found


def _nullspace_vector(rows, m):
    basis = sympy.Matrix(len(rows), m, [x for r in rows for x in r]).nullspace()
    if len(basis) != 1:
        return None
    return [Fraction(str(x)) for x in basis[0]]


def reference_hrep(V):
    """The double description body before the per-constraint ray index,
    kept verbatim as the differential reference: the same insertion order
    and canonicalization, with adjacency decided by scanning every ray of
    the step for one tight on all of `common`."""
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


def facet_rows(H):
    return [(q.coeffs, q.rhs) for q in H.facets]


def random_int_vrep(rng):
    """Up to d + 12 distinct points of [-3, 3]^d with d <= 5, so that rows
    carry zeros and coefficients other than 0 and 1."""
    d = rng.randint(1, 5)
    pts = {tuple(rng.randint(-3, 3) for _ in range(d))
           for _ in range(rng.randint(d + 1, d + 12))}
    return VRep(d, tuple(sorted(pts)))


def random_rational_vrep(rng):
    """Up to d + 10 distinct points with d <= 5 and coordinates k/q for k in
    [-6, 6] and q in 1..4, so that a point row (1, p), scaled to integers,
    leads with the lcm of its denominators and carries several values."""
    d = rng.randint(1, 5)
    pts = {tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d))
           for _ in range(rng.randint(d + 1, d + 10))}
    return VRep(d, tuple(sorted(pts)))


def distinct_small_graphs(count, m_cap=6):
    """The first `count` distinct random connected graphs with 4-5 vertices
    and at most m_cap edges, in seed order."""
    graphs = {}
    seed = 0
    while len(graphs) < count:
        g = random_connected_graph(seed, n_lo=4, n_hi=5, m_cap=m_cap)
        graphs.setdefault((g.n, g.edges), g)
        seed += 1
    return list(graphs.values())


# Four points on the plane z = x + y in R^3: a square of dimension 2.
PLANE_SQUARE = VRep(3, ((0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)))

DIFF_NAMED = (["j26", "cube:3", "petersen"] + ["cycle:%d" % k for k in range(7, 13)]
              + ["path:%d" % k for k in range(7, 14)] + ["complete:5", "complete:6"])


class TestDimension:
    def test_path3(self):
        assert polytope_dimension(vrep(generate("path:3"))) == 2

    def test_complete3(self):
        assert polytope_dimension(vrep(generate("complete:3"))) == 3

    def test_j26(self):
        assert polytope_dimension(vrep(generate("j26"))) == 14


class TestHrep:
    def test_complete3(self):
        H = hrep(vrep(generate("complete:3")))
        got = {q.canonical() for q in H.facets}
        assert got == {((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0),
                       ((1, 1, 1), 1)}

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_hypercube(self, d):
        V = VRep(d, tuple(product([0, 1], repeat=d)))
        H = hrep(V)
        assert len(H.facets) == 2 * d

    def test_matches_brute_force(self):
        for name in ["path:3", "path:4", "cycle:4", "complete:3", "complete:4"]:
            g = generate(name)
            V = vrep(g)
            got = {q.canonical() for q in hrep(V).facets}
            assert got == oracle_hull_facets(V.points)

    @pytest.mark.parametrize("g", distinct_small_graphs(10), ids=lambda g: str(g.edges))
    def test_matches_brute_force_on_random_graphs(self, g):
        V = vrep(g)
        assert {q.canonical() for q in hrep(V).facets} == oracle_hull_facets(V.points)

    @pytest.mark.parametrize("name", ["j26", "cube:3", "cycle:7"])
    def test_points_inside_the_hull_change_no_facet(self, name):
        # the midpoint of two vertices and the centroid, once after the
        # vertices and once before them, so the centroid enters the start basis
        V = vrep(generate(name))
        mid = tuple(Fraction(a + b, 2) for a, b in zip(V.points[1], V.points[2]))
        centroid = tuple(Fraction(sum(col), len(V.points)) for col in zip(*V.points))
        want = facet_rows(hrep(V))
        for points in ((*V.points, mid, centroid), (centroid, mid, *V.points)):
            assert facet_rows(hrep(VRep(V.m, points))) == want

    def test_facets_are_primitive_int(self):
        for name in ["j26", "cycle:7", "cube:3"]:
            V = vrep(generate(name))
            assert all(type(x) is int for p in V.points for x in p)
            for q in hrep(V).facets:
                assert_primitive_int_row(q)

    def test_point_has_no_facets(self):
        assert hrep(VRep(0, ((),))) == HRep(())
        assert hrep(vrep(Graph(3, ()))) == HRep(())

    def test_rejects_flat_input(self):
        for V in (VRep(2, ((0, 0), (1, 1))), PLANE_SQUARE):
            with pytest.raises(GraphError):
                hrep(V)

    def test_deterministic_order(self):
        g = generate("cycle:5")
        a = [q.canonical() for q in hrep(vrep(g)).facets]
        b = [q.canonical() for q in hrep(vrep(g)).facets]
        assert a == b == sorted(a)

    def test_round_trip_and_minimality(self):
        for name in ["path:4", "cycle:5", "cycle:6", "complete:4"]:
            g = generate(name)
            V = vrep(g)
            H = hrep(V)
            m = g.m
            dim = polytope_dimension(V)
            interior = [sum(p[j] for p in V.points) / Fraction(len(V.points))
                        for j in range(m)]
            for q in H.facets:
                assert not verify_valid(q, V)
                tight = [p for p in V.points if q.evaluate(p) == q.rhs]
                assert affine_dimension(tight) == dim - 1
                # a point just beyond this facet violates only this row
                bary = [sum(p[j] for p in tight) / Fraction(len(tight))
                        for j in range(m)]
                eps = Fraction(1, 1000)
                beyond = [b + eps * (b - c) for b, c in zip(bary, interior)]
                violated = [r for r in H.facets
                            if r.evaluate(beyond) > r.rhs]
                assert violated == [q]


class TestHrepAgainstScan:
    """hrep against `reference_hrep`, the scan-based adjacency test: equal
    facet lists, in order."""

    @pytest.mark.parametrize("name", DIFF_NAMED)
    def test_named(self, name):
        V = vrep(generate(name))
        assert facet_rows(hrep(V)) == facet_rows(reference_hrep(V))

    def test_random_suite(self, random_suite):
        for g in random_suite:
            V = vrep(g)
            assert facet_rows(hrep(V)) == facet_rows(reference_hrep(V)), g.edges

    def test_integer_vreps(self):
        rng = random.Random(11)
        full = flat = 0
        for _ in range(300):
            V = random_int_vrep(rng)
            if affine_dimension(V.points) < V.m:
                for f in (hrep, reference_hrep):
                    with pytest.raises(GraphError):
                        f(V)
                flat += 1
                continue
            assert facet_rows(hrep(V)) == facet_rows(reference_hrep(V)), V
            full += 1
        assert full >= 250 and flat >= 1

    def test_rational_vreps(self):
        """Point rows that lead with an entry other than 1 and hold several
        values, each value a group of `rational_la.products`."""
        rng = random.Random(23)
        full = led = several = 0
        for _ in range(150):
            V = random_rational_vrep(rng)
            if affine_dimension(V.points) < V.m:
                continue
            assert facet_rows(hrep(V)) == facet_rows(reference_hrep(V)), V
            full += 1
            rows = [integer_row((1, *p)) for p in V.points]
            led += any(row[0] != 1 for row in rows)
            several += any(len(set(row) - {0}) >= 3 for row in rows)
        assert full >= 140 and led >= 140 and several >= 100


def disjoint_union(g, h):
    """g and h side by side: h's vertices shifted past g's, its edges after g's."""
    return Graph(g.n + h.n, g.edges + tuple((u + g.n, v + g.n) for u, v in h.edges))


def random_block_vrep(rng):
    """0 and, on each of 2-3 blocks of 1-3 coordinates, a few distinct
    nonzero points of [-3, 3] supported inside the block: a V whose blocks
    are those given, unless a point misses part of its block."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
    m = sum(sizes)
    pts = {(0,) * m}
    start = 0
    for k in sizes:
        for _ in range(rng.randint(k + 1, k + 5)):
            vals = [rng.randint(-3, 3) for _ in range(k)]
            if any(vals):
                pts.add((0,) * start + tuple(vals) + (0,) * (m - start - k))
        start += k
    return VRep(m, tuple(sorted(pts)))


def single_hrep(V):
    """hrep by one double description over all m coordinates: the rays of
    `_double_description(V.rows)` as rows -y[1:].x <= y[0], sorted."""
    facets = [Inequality([-y for y in ray[1:]], ray[0]) for ray in _double_description(V.rows)]
    return HRep(tuple(sorted(facets, key=lambda q: (q.coeffs, q.rhs))))


def dd_calls(monkeypatch):
    """The rows of each `_double_description` call, through a spy."""
    calls = []

    def spy(rows):
        calls.append(rows)
        return _double_description(rows)

    monkeypatch.setattr(polytope, "_double_description", spy)
    return calls


def block_rows(V, block):
    """The rows (1, *p) of V's points p inside the block's coordinates, cut
    to the constant and those coordinates: one block's points, projected."""
    cols = [b - 1 for b in mask_bits(block)]
    return [(1, *(p[j] for j in cols)) for p in V.points
            if not any(x for j, x in enumerate(p) if j not in cols)]


BY_PARTS_NAMED = (["path:%d" % k for k in range(3, 14)] + ["cycle:%d" % k for k in range(4, 13, 2)]
                  + ["j26", "cycle:7", "cube:3"])
STAR = Graph(6, tuple((1, v) for v in range(2, 7)))
# the edge {1, 2} with four leaves at 1 and three at 2: every edge meets
# {1, 2}, so {1, 2} is a part of one edge, and the other seven edges are
# one part, as in perfbench's hull instance seeded-m8-2
DOUBLE_STAR = Graph(9, ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 7), (2, 8), (2, 9)))
SPLIT = {"path:7": generate("path:7"), "cycle:8": generate("cycle:8"), "star": STAR,
         "double-star": DOUBLE_STAR,
         "complete:5+cycle:7": disjoint_union(generate("complete:5"), generate("cycle:7"))}


class TestHrepByParts:
    """hrep by coordinate blocks against one double description over all
    coordinates (`single_hrep`): equal facet lists, in order."""

    @pytest.mark.parametrize("name", BY_PARTS_NAMED)
    def test_named(self, name):
        g = generate(name)
        V = vrep(g)
        assert _coordinate_blocks(V) == edge_parts(g)
        assert hrep(V).facets == single_hrep(V).facets

    def test_star(self):
        # no two edges of a star are disjoint, so each edge is a part; the
        # facets are x >= 0 and the one product row x(E) <= 1
        V = vrep(STAR)
        assert [mask_bits(b) for b in _coordinate_blocks(V)] == [[e] for e in range(1, 6)]
        H = hrep(V)
        assert H.facets == single_hrep(V).facets
        assert [q.format_row() for q in H.facets][-1] == "1 1 1 1 1 <= 1"

    def test_one_edge_block(self):
        V = vrep(DOUBLE_STAR)
        assert [mask_bits(b) for b in _coordinate_blocks(V)] == [[1], list(range(2, 9))]
        H = hrep(V)
        assert H.facets == single_hrep(V).facets
        # x_1 <= 1 times each rhs-1 row of the other part, e.g. the degree
        # row of vertex 1, x(delta(1)) <= 1
        assert Inequality([1] * 5 + [0] * 3, 1) in H.facets

    def test_random_graphs_that_split(self):
        split = 0
        for seed in range(300):
            g = random_connected_graph(seed)
            parts = edge_parts(g)
            if len(parts) < 2:
                continue
            V = vrep(g)
            assert _coordinate_blocks(V) == parts, g.edges
            assert hrep(V).facets == single_hrep(V).facets, g.edges
            split += 1
        assert split == 104

    def test_products_take_the_lcm(self):
        # complete:5 has the blossom row x(E) <= 2 and cycle:7 the blossom
        # row x(E) <= 3, so their product row has rhs 6
        V = vrep(SPLIT["complete:5+cycle:7"])
        assert [mask_bits(b) for b in _coordinate_blocks(V)] == [list(range(1, 11)),
                                                                 list(range(11, 18))]
        H = hrep(V)
        assert H.facets == single_hrep(V).facets
        assert Inequality([3] * 10 + [2] * 7, 6) in H.facets

    def test_random_block_vreps(self):
        rng = random.Random(5)
        split = 0
        for _ in range(200):
            V = random_block_vrep(rng)
            if affine_dimension(V.points) < V.m:
                for f in (hrep, single_hrep):
                    with pytest.raises(GraphError, match="full-dimensional"):
                        f(V)
                continue
            assert hrep(V).facets == single_hrep(V).facets, V
            split += len(_coordinate_blocks(V)) > 1
        assert split >= 100

    @pytest.mark.parametrize("name", SPLIT)
    def test_one_double_description_per_block(self, name, monkeypatch):
        V = vrep(SPLIT[name])
        blocks = _coordinate_blocks(V)
        want = single_hrep(V)
        calls = dd_calls(monkeypatch)
        assert hrep(V) == want
        assert [list(rows) for rows in calls] == [block_rows(V, b) for b in blocks]
        assert len(calls) == len(blocks) > 1

    @pytest.mark.parametrize("V", [
        vrep(generate("j26")),                                    # one block
        VRep(6, vrep(generate("path:7")).points[1:]),             # no 0 point
        VRep(0, ((),)),                                           # m = 0
    ], ids=["one-block", "no-zero", "m0"])
    def test_single_double_description(self, V, monkeypatch):
        # one block of all m coordinates passes V.rows itself
        want = single_hrep(V)
        calls = dd_calls(monkeypatch)
        assert hrep(V) == want
        assert len(calls) == 1 and calls[0] is V.rows

    @pytest.mark.parametrize("V,flat", [
        # path:7 with a seventh coordinate that is 0 in every point: one
        # block of all seven coordinates
        (VRep(7, tuple(p + (0,) for p in vrep(generate("path:7")).points)), None),
        # blocks {1, 2} and {3}; the first is a segment in the plane
        (VRep(3, ((0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 0, 1))), 0),
        # blocks {1} and {2, 3}; the second is a segment in the plane
        (VRep(3, ((0, 0, 0), (1, 0, 0), (0, 1, 1), (0, 2, 2))), 1),
    ], ids=["dead-coordinate", "flat-block", "flat-last-block"])
    def test_flat_input_raises_as_one_double_description(self, V, flat, monkeypatch):
        # the flat block raises from its own call, and no call follows
        with pytest.raises(GraphError) as want:
            single_hrep(V)
        calls = dd_calls(monkeypatch)
        with pytest.raises(GraphError) as got:
            hrep(V)
        assert str(got.value) == str(want.value) == "hrep requires a full-dimensional V-description"
        if flat is None:
            assert len(calls) == 1 and calls[0] is V.rows
        else:
            blocks = _coordinate_blocks(V)[:flat + 1]
            assert [list(rows) for rows in calls] == [block_rows(V, b) for b in blocks]

    @pytest.mark.parametrize("m", range(6, 16))
    def test_path_facet_count(self, m):
        # a path's parts are its odd and its even edges; each part of k edges
        # has 2^(k-1) alternating rhs-1 rows, so 2^(m-2) products, and m
        # nonnegativity rows
        assert len(hrep(vrep(generate(f"path:{m + 1}"))).facets) == 2 ** (m - 2) + m

    @pytest.mark.parametrize("k", range(4, 8))
    def test_even_cycle_facet_count(self, k):
        # fitted to the measured counts, not proved (ROADMAP.md item 18)
        s = 2 ** k - (k - 1) ** 2 - 1
        assert len(hrep(vrep(generate(f"cycle:{2 * k}"))).facets) == s * s + 2 * k


class TestVerifyValid:
    def test_nonnegativity(self):
        g = generate("cycle:6")
        V = vrep(g)
        q = Inequality([-1, 0, 0, 0, 0, 0], 0)
        assert verify_valid(q, V) == []

    def test_family_row(self):
        g = generate("cycle:6")
        assert verify_valid(family_inequality(g, 1, 4), vrep(g)) == []

    def test_all_violate(self):
        g = generate("cycle:6")
        q = Inequality([-1, 0, 0, -1, 0, 0], -2)
        assert len(verify_valid(q, vrep(g))) == len(vrep(g).points)

    @pytest.mark.parametrize("coeffs,rhs", [((1, 1), 1), ((1,) * 8 + (5, 5), 4)],
                             ids=["width-2", "width-10"])
    def test_wrong_width_rejected(self, coeffs, rhs):
        V = vrep(generate("cycle:8"))
        q = Inequality(coeffs, rhs)
        for check in (verify_valid, face_dimension):
            with pytest.raises(GraphError, match=f"row has {len(coeffs)} coefficients"):
                check(q, V)


class TestFaceDimension:
    def test_k3_facet(self):
        V = vrep(generate("complete:3"))
        q = Inequality([1, 1, 1], 1)
        assert face_dimension(q, V) == 2 == polytope_dimension(V) - 1

    def test_not_a_facet(self):
        V = vrep(generate("path:4"))
        q = Inequality([1, 0, 0], 1)
        assert face_dimension(q, V) == 1 < polytope_dimension(V) - 1

    def test_whole_polytope_face(self):
        V = vrep(generate("path:4"))
        q = Inequality([0, 0, 0], 0)
        assert face_dimension(q, V) == polytope_dimension(V)

    def test_empty_face(self):
        V = vrep(generate("path:3"))
        q = Inequality([1, 1], 3)
        assert face_dimension(q, V) == -1

    def test_invalid_rejected(self):
        V = vrep(generate("path:3"))
        with pytest.raises(GraphError):
            face_dimension(Inequality([1, 1], 0), V)

    @pytest.mark.parametrize("coeffs,rhs,dim", [
        ((1, 0, 0), 1, 1),     # x <= 1: an edge of the square
        ((0, -1, 1), 1, 1),    # z - y <= 1 is x <= 1 on the plane
        ((-1, -1, 1), 0, 2),   # z - x - y <= 0 holds with equality everywhere
        ((1, 1, 0), 2, 0),     # x + y <= 2: the vertex (1, 1, 2)
        ((0, 0, 1), 3, -1),    # z <= 3: no point is tight
    ])
    def test_flat_vrep(self, coeffs, rhs, dim):
        q = Inequality(coeffs, rhs)
        assert polytope_dimension(PLANE_SQUARE) == 2
        assert face_dimension(q, PLANE_SQUARE) == dim

    def test_c6_family_row_is_facet(self):
        g = generate("cycle:6")
        V = vrep(g)
        assert face_dimension(family_inequality(g, 1, 4), V) == polytope_dimension(V) - 1

    def test_p6_family_row_is_not(self):
        g = generate("path:6")
        V = vrep(g)
        assert face_dimension(family_inequality(g, 1, 5), V) < polytope_dimension(V) - 1


def reference_face_dimension(q, V):
    """face_dimension's former body: a validity pass, then a pass for the
    tight points, then the affine dimension over all m columns.  Rows are
    evaluated by a zip over every coefficient, not by `rational_la.products`."""
    if q.m != V.m:
        raise GraphError(f"row has {q.m} coefficients, the graph has {V.m} edges")
    values = [sum(c * x for c, x in zip(q.coeffs, p)) for p in V.points]
    if any(v > q.rhs for v in values):
        raise GraphError("inequality is not valid on the V-description")
    tight = [p for p, v in zip(V.points, values) if v == q.rhs]
    return affine_dimension(tight) if tight else -1


def face_rows(V, rng, draws=6):
    """Seeded rows over V: coefficients in [-2, 2], rhs the maximum over V,
    one less (invalid unless constant) and one more; and the all-zero row."""
    rows = [Inequality([0] * V.m, 0)]
    for _ in range(draws):
        coeffs = [rng.randint(-2, 2) for _ in range(V.m)]
        top = max(sum(c * x for c, x in zip(coeffs, p)) for p in V.points)
        rows += [Inequality(coeffs, top + d) for d in (0, -1, 1)]
    return rows


def face_dimension_or_error(q, V, f):
    try:
        return f(q, V)
    except GraphError:
        return "GraphError"


# A face whose tight rows (1, 2, 0) and (1, 0, 2) agree mod 2: parity gives
# rank 1 of 2, so face_dimension must eliminate over the integers.
PARITY_SHORT = VRep(2, ((0, 0), (2, 0), (0, 2)))
PARITY_SHORT_ROW = Inequality([1, 1], 2)

# face_dimension's three ways to its rank
BRANCHES = {"parity full rank", "parity row count", "eliminate"}


@pytest.fixture
def branches(monkeypatch):
    """Count the way face_dimension reaches each rank: the parity rank
    reaches its cap (m, or m + 1 for the zero row), or the tight row count,
    or neither and `eliminate` runs."""
    seen = Counter()
    parity, elim = polytope.parity_rank, polytope.eliminate

    def spied_parity(masks, cap):
        r = parity(masks, cap)
        seen["parity full rank" if r == cap else
             "parity row count" if r == len(masks) else "eliminate"] += 1
        return r

    def spied_eliminate(rows):
        seen["eliminate calls"] += 1
        return elim(rows)

    monkeypatch.setattr(polytope, "parity_rank", spied_parity)
    monkeypatch.setattr(polytope, "eliminate", spied_eliminate)
    return seen


class TestFaceDimensionAgainstReference:
    """face_dimension (one pass, one column fewer, parity first) against
    `reference_face_dimension`: the same dimension, or GraphError from both.
    Each corpus reaches a rank in all three ways, and `eliminate` runs
    exactly when parity cannot decide."""

    def assert_agree(self, V, rng, extra=()):
        for q in [*face_rows(V, rng), *extra]:
            assert face_dimension_or_error(q, V, face_dimension) == \
                face_dimension_or_error(q, V, reference_face_dimension), (V.points, q)

    @staticmethod
    def assert_every_branch(seen):
        assert BRANCHES <= set(seen), seen
        assert seen["eliminate calls"] == seen["eliminate"]

    def test_random_suite(self, random_suite, branches):
        rng = random.Random(13)
        for g in random_suite:
            self.assert_agree(vrep(g), rng)
        self.assert_every_branch(branches)

    @pytest.mark.parametrize("name", ["j26", "cube:3"])
    def test_named(self, name, branches):
        """Seeded rows, and every facet, where the rank stops early."""
        V = vrep(generate(name))
        facets = hrep(V).facets
        branches.clear()
        self.assert_agree(V, random.Random(name), facets)
        self.assert_every_branch(branches)

    def test_not_zero_one(self, branches):
        rng = random.Random(17)
        self.assert_agree(PLANE_SQUARE, rng)
        for _ in range(60):
            self.assert_agree(random_int_vrep(rng), rng)
        self.assert_every_branch(branches)

    def test_rational(self, branches):
        """Fraction coordinates, so that `V.rows` comes from `integer_row`'s
        lcm path and a row leads with an entry other than 1."""
        rng = random.Random(19)
        led = 0
        for _ in range(60):
            V = random_rational_vrep(rng)
            self.assert_agree(V, rng)
            led += any(row[0] != 1 for row in V.rows)
        assert led >= 55
        self.assert_every_branch(branches)

    def test_parity_falls_short(self, branches):
        """The hand-built face: rank 1 mod 2, so only the integer
        elimination finds the edge between (2, 0) and (0, 2)."""
        V = PARITY_SHORT
        assert V.rows == ((1, 0, 0), (1, 2, 0), (1, 0, 2)) and V.parities == (1, 1, 1)
        assert face_dimension(PARITY_SHORT_ROW, V) == \
            reference_face_dimension(PARITY_SHORT_ROW, V) == 1
        assert branches == {"eliminate": 1, "eliminate calls": 1}
        self.assert_agree(V, random.Random(23), [Inequality([1, 0], 2)])

    def test_zero_dimensional(self):
        """The one point of R^0: the empty row is tight on it (dimension 0),
        slack with rhs 1 (-1) and violated with rhs -1."""
        V = VRep(0, ((),))
        assert V.rows == ((1,),)
        self.assert_agree(V, random.Random(0))
        assert [face_dimension_or_error(Inequality([], b), V, face_dimension)
                for b in (0, 1, -1)] == [0, -1, "GraphError"]

    def test_rows_are_read_not_changed(self):
        """`V.rows` is built once, holds the primitive integer row (1, *p)
        of each point as a tuple, `V.parities` holds each of those rows mod
        2 as a mask, and none of them nor `V.points` changes under `hrep`
        and several `face_dimension` calls on the same V."""
        rng = random.Random(29)
        V = random_rational_vrep(rng)
        while affine_dimension(V.points) < V.m:
            V = random_rational_vrep(rng)
        points = V.points
        rows = V.rows
        parities = V.parities
        assert rows == tuple(tuple(integer_row((1, *p))) for p in points)
        assert all(type(row) is tuple for row in rows)
        assert parities == tuple(int("".join(str(x % 2) for x in reversed(row)), 2)
                                 for row in rows)
        facets = hrep(V).facets
        for q in [*facets, *face_rows(V, rng)]:
            face_dimension_or_error(q, V, face_dimension)
        assert all(face_dimension(q, V) == V.m - 1 for q in facets)
        assert V.rows is rows and V.points is points and V.parities is parities
        with pytest.raises(AttributeError):
            V.rows = ()
        with pytest.raises(AttributeError):
            V.parities = ()

    def test_one_pass_and_one_column_fewer(self, monkeypatch):
        """Each point is evaluated once, by one call of the product kernel,
        verify_valid is not called, and a row with a nonzero coefficient
        caps the rank at m, not m + 1: `parity_rank` stops at m and, on the
        face where parity falls short, `eliminate` gets rows of m entries,
        one column fewer than `V.rows`.  Parity settles the cycle:6 family
        facet and the all-zero row with no `eliminate` call."""
        V = vrep(generate("cycle:6"))
        calls, caps, widths = [], [], []
        monkeypatch.setattr(polytope, "products",
                            lambda a, rows: calls.append(list(rows)) or products(a, rows))
        monkeypatch.setattr(polytope, "verify_valid", None)
        monkeypatch.setattr(polytope, "parity_rank",
                            lambda masks, cap: caps.append(cap) or parity_rank(masks, cap))
        monkeypatch.setattr(polytope, "eliminate",
                            lambda rows: widths.append(len(rows[0])) or eliminate(rows))
        assert face_dimension(family_inequality(generate("cycle:6"), 1, 4), V) == 5
        assert calls == [list(V.points)] and caps == [6] and widths == []
        calls.clear()
        assert face_dimension(Inequality([0] * 6, 0), V) == 6
        assert calls == [list(V.points)] and caps == [6, 7] and widths == []
        calls.clear()
        assert face_dimension(PARITY_SHORT_ROW, PARITY_SHORT) == 1
        assert calls == [list(PARITY_SHORT.points)] and caps == [6, 7, 2] and widths == [2]

    def test_wrong_width_raises_before_reading_a_point(self):
        class Unread:
            def __iter__(self):
                raise AssertionError("a point was read")

        with pytest.raises(GraphError, match="row has 2 coefficients"):
            face_dimension(Inequality([1, 1], 1), SimpleNamespace(m=3, points=Unread()))


class TestClassify:
    def test_nonnegativity(self):
        g = generate("path:4")
        q = Inequality([0, 0, -1], 0)
        assert classify(q, g) == FacetClass("nonnegativity", (3,))

    def test_degree(self):
        g = generate("path:4")
        q = Inequality([1, 1, 0], 1)   # delta(2)
        assert classify(q, g) == FacetClass("degree", (2,))

    def test_isolated_vertex_is_not_a_degree_row(self):
        g = Graph(3, ((1, 2),))
        assert classify(Inequality([0], 1), g) == FacetClass("other")
        assert classify(Inequality([1], 1), g) == FacetClass("degree", (1,))

    def test_blossom_triangle(self):
        g = generate("complete:3")
        q = Inequality([1, 1, 1], 1)
        assert classify(q, g) == FacetClass("blossom", ((1, 2, 3),))

    def test_family(self):
        g = generate("path:6")
        fc = classify(family_inequality(g, 1, 5), g)
        assert fc == FacetClass("family", (((1, 5), (3,))))

    def test_other(self):
        g = generate("path:4")
        q = Inequality([2, 0, 1], 3)
        assert classify(q, g).kind == "other"

    @pytest.mark.parametrize("coeffs,rhs", [((0,) * 8 + (-1,), 0), ((1, 1), 1)],
                             ids=["width-9", "width-2"])
    def test_wrong_width_rejected(self, coeffs, rhs):
        with pytest.raises(GraphError, match=f"row has {len(coeffs)} coefficients"):
            classify(Inequality(coeffs, rhs), generate("cycle:8"))

    def test_partition_is_exclusive_and_total(self):
        for seed in range(10):
            g = random_connected_graph(seed)
            H = hrep(vrep(g))
            hist = class_histogram(H, g)
            assert sum(hist.values()) == len(H.facets)

    def test_matches_set_based_reference(self, random_suite):
        graphs = [generate(name) for name in CLASSIFY_NAMED] + random_suite[:40]
        kinds = set()
        for g in graphs:
            for q in hrep(vrep(g)).facets:
                got = classify(q, g)
                assert got == reference_classify(q, g), q.format_line()
                kinds.add(got.kind)
        assert kinds == {"nonnegativity", "degree", "blossom", "family", "other"}

    def test_matches_reference_off_facets(self):
        """Rows that need not be facets, as `cmpoly classify --ineq` reads
        them: random rows with entries in -2..2 and rhs in 0..3, and each
        class row of the graph next to its near misses."""
        rng = random.Random(31)
        kinds = set()
        for name in CLASSIFY_NAMED:
            g = generate(name)
            rows = [Inequality([rng.randint(-2, 2) for _ in range(g.m)], rng.randint(0, 3))
                    for _ in range(30)]
            for q in [*rows, *class_rows_and_near_misses(g, rng)]:
                got = classify(q, g)
                assert got == reference_classify(q, g), (name, q.format_line())
                kinds.add(got.kind)
        assert kinds == {"nonnegativity", "degree", "blossom", "family", "other"}


def reference_classify(q, g):
    """The set-based classification: degree rows against incident-edge sets,
    blossoms against the edges induced by the covered vertex set, family
    rows against set-based pair and lambda tests."""
    ints, rhs = q.canonical()
    support = [i + 1 for i, c in enumerate(ints) if c != 0]
    if rhs == 0 and len(support) == 1 and ints[support[0] - 1] == -1:
        return FacetClass("nonnegativity", (support[0],))
    if rhs == 1 and all(c in (0, 1) for c in ints):
        for v in range(1, g.n + 1):
            inc = {i for i, e in enumerate(g.edges, start=1) if v in e}
            if inc and set(support) == inc:
                return FacetClass("degree", (v,))
    if all(c in (0, 1) for c in ints):
        H = tuple(sorted({v for e in support for v in g.edges[e - 1]}))
        if len(H) >= 3 and len(H) % 2 == 1 and rhs == (len(H) - 1) // 2:
            induced = {i for i, (u, v) in enumerate(g.edges, start=1) if u in H and v in H}
            if set(support) == induced:
                return FacetClass("blossom", (H,))
    if rhs == 1 and all(c in (-1, 0, 1) for c in ints):
        plus = [i + 1 for i, c in enumerate(ints) if c == 1]
        minus = tuple(sorted(i + 1 for i, c in enumerate(ints) if c == -1))
        if len(plus) == 2:
            a, b = set(g.edges[plus[0] - 1]), set(g.edges[plus[1] - 1])
            if not a & b and len(set_bfs_components(g, a | b)) > 1:
                L = nx.line_graph(to_networkx(g))
                dist = nx.single_source_shortest_path_length
                d1, d2 = (dist(L, g.edges[e - 1]) for e in plus)
                lam = tuple(f for f, uv in enumerate(g.edges, start=1)
                            if d1.get(uv) == 2 and d2.get(uv) == 2)
                if minus == lam:
                    return FacetClass("family", (tuple(plus), minus))
    return FacetClass("other")


CLASSIFY_NAMED = (["path:%d" % k for k in range(2, 8)] + ["cycle:%d" % k for k in range(3, 8)]
                  + ["cube:3", "petersen", "j26"])


def class_rows_and_near_misses(g, rng):
    """Rows of each class of g, each with rows one change away: -x_e <= 0
    with rhs 1; a degree row plus one edge; a blossom row over the induced
    edges of a random odd vertex set, with its rhs one off either way; a
    family row with a 2 on a pair edge or on an edge off the row, and one
    missing a lambda edge."""
    def row(ones=(), minus=(), twos=(), rhs=1):
        coeffs = [0] * g.m
        for edges, c in ((ones, 1), (minus, -1), (twos, 2)):
            for e in edges:
                coeffs[e - 1] = c
        return Inequality(coeffs, rhs)

    edges = range(1, g.m + 1)
    rows = [row(minus=(e,), rhs=r) for e in edges for r in (0, 1)]
    for v in range(1, g.n + 1):
        inc = g.incident_edges(v)
        rest = [e for e in edges if e not in inc]
        rows += [row(inc)] + ([row([*inc, rng.choice(rest)])] if rest else [])
    for _ in range(8 if g.n >= 3 else 0):
        H = rng.sample(range(1, g.n + 1), rng.choice([k for k in (3, 5, 7) if k <= g.n]))
        induced = [e for e, (u, v) in enumerate(g.edges, start=1) if u in H and v in H]
        rows += [row(induced, rhs=(len(H) - 1) // 2 + d) for d in (-1, 0, 1)]
    for e1, e2 in combinations(edges, 2):
        if is_disconnected_pair(g, e1, e2):
            lam = lambda_set(g, e1, e2)
            off = [e for e in edges if e not in (e1, e2, *lam)]
            rows += [row((e1, e2), lam), row((e1,), lam, twos=(e2,))]
            rows += [row((e1, e2), lam, twos=(rng.choice(off),))] if off else []
            rows += [row((e1, e2), lam[:i] + lam[i + 1:]) for i in range(len(lam))]
    return rows


class TestExport:
    def test_path3(self):
        text = export_vrep_interop(vrep(generate("path:3")))
        assert text == "POINTS\n1 0 0\n1 1 0\n1 0 1\n"

    def test_row_count(self):
        g = generate("j26")
        V = vrep(g)
        text = export_vrep_interop(V)
        assert len(text.splitlines()) == len(V.points) + 1

    def test_zero_dimensional(self):
        V = VRep(0, ((),))
        assert export_vrep_interop(V) == "POINTS\n1\n"
        with pytest.raises(ValueError, match="empty V-description"):
            export_vrep_interop(VRep(2, ()))


def test_vrep_rejects_duplicates():
    with pytest.raises(ValueError):
        VRep(2, ((0, 0), (0, 0)))
    with pytest.raises(ValueError, match="point dimension mismatch"):
        VRep(2, ((0, 0), (1,)))
