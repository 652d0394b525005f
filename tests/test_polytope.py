import random
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import networkx as nx
import pytest
import sympy

from cmpoly import polytope
from cmpoly.facet_family import family_inequality
from cmpoly.graph_core import Graph, GraphError, generate
from cmpoly.inequality import Inequality
from cmpoly.matchings import enumerate_connected_matchings
from cmpoly.polytope import (FacetClass, HRep, VRep, classify, export_vrep_interop,
                             face_dimension, hrep, polytope_dimension, verify_valid, vrep)
from cmpoly.rational_la import (affine_dimension, eliminate, integer_row, inverse_columns,
                                rank)

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
    evaluated by a zip over every coefficient, not by `Inequality.evaluate`."""
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


class TestFaceDimensionAgainstReference:
    """face_dimension (one pass, one column fewer) against
    `reference_face_dimension`: the same dimension, or GraphError from both."""

    def assert_agree(self, V, rng, extra=()):
        for q in [*face_rows(V, rng), *extra]:
            assert face_dimension_or_error(q, V, face_dimension) == \
                face_dimension_or_error(q, V, reference_face_dimension), (V.points, q)

    def test_random_suite(self, random_suite):
        rng = random.Random(13)
        for g in random_suite:
            self.assert_agree(vrep(g), rng)

    @pytest.mark.parametrize("name", ["j26", "cube:3"])
    def test_named(self, name):
        """Seeded rows, and every facet, where the rank stops early."""
        V = vrep(generate(name))
        self.assert_agree(V, random.Random(name), hrep(V).facets)

    def test_not_zero_one(self):
        rng = random.Random(17)
        self.assert_agree(PLANE_SQUARE, rng)
        for _ in range(60):
            self.assert_agree(random_int_vrep(rng), rng)

    def test_one_pass_and_one_column_fewer(self, monkeypatch):
        """Each point is evaluated once, verify_valid is not called, and a
        row with a nonzero coefficient leaves m - 1 columns to the rank."""
        V = vrep(generate("cycle:6"))
        calls, widths = [], []
        evaluate = Inequality.evaluate
        monkeypatch.setattr(Inequality, "evaluate",
                            lambda q, x: calls.append(x) or evaluate(q, x))
        monkeypatch.setattr(polytope, "verify_valid", None)
        monkeypatch.setattr(polytope, "affine_dimension",
                            lambda pts: widths.append(len(pts[0])) or affine_dimension(pts))
        assert face_dimension(family_inequality(generate("cycle:6"), 1, 4), V) == 5
        assert sorted(calls) == sorted(V.points) and widths == [5]
        calls.clear()
        assert face_dimension(Inequality([0] * 6, 0), V) == 6
        assert len(calls) == len(V.points) and widths == [5, 6]

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
