"""Acceptance gate: one reported pass/fail line per criterion.

Run with `pytest -v tests/test_acceptance.py`; each criterion prints its
verdict on the terminal even under output capture.
"""

import time
from fractions import Fraction
from itertools import product

import pytest

from cmpoly.facet_family import generate_family
from cmpoly.graph_core import generate
from cmpoly.matchings import brute_force_max_weight_cm
from cmpoly.msi import minimal_separators_brute, project_msi
from cmpoly.polytope import (VRep, classify, face_dimension, hrep, polytope_dimension,
                             verify_valid, vrep)
from cmpoly.rational_la import affine_dimension
from cmpoly.solver import branch_and_cut

from conftest import class_histogram, random_connected_graph, root_gap_report


NAMED_CORPUS = (["path:%d" % k for k in range(2, 8)]
                + ["cycle:%d" % k for k in range(3, 8)]
                + ["cube:3", "petersen", "j26"])

_cache = {}


def corpus():
    if "corpus" not in _cache:
        graphs = [(name, generate(name)) for name in NAMED_CORPUS]
        graphs += [("random-%d" % s, random_connected_graph(s))
                   for s in range(100)]
        _cache["corpus"] = graphs
    return _cache["corpus"]


def corpus_vrep(name, g):
    key = ("vrep", name)
    if key not in _cache:
        _cache[key] = vrep(g)
    return _cache[key]


def j26_hull():
    if "j26_hull" not in _cache:
        g = generate("j26")
        t0 = time.monotonic()
        H = hrep(corpus_vrep("j26", g))
        _cache["j26_hull"] = (g, H, time.monotonic() - t0)
    return _cache["j26_hull"]


def report(capsys, num, name, ok, extra=""):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print("[criterion %d] %s: %s%s"
              % (num, name, verdict, " (%s)" % extra if extra else ""))
    assert ok, "criterion %d (%s) failed" % (num, name)


def random_weights(seed, m):
    import random
    rng = random.Random(seed)
    return [max(min(Fraction(rng.randint(-20, 20), rng.randint(1, 4)),
                    Fraction(5)), Fraction(-5)) for _ in range(m)]


def test_criterion_1_j26_census(capsys):
    g, H, secs = j26_hull()
    hist = class_histogram(H, g)
    blossom7 = hist.get("blossom[7]", 0)
    rhs7_ok = all(
        classify(q, g).kind != "blossom"
        or len(classify(q, g).data[0]) != 7
        or q.canonical()[1] == 3
        for q in H.facets)
    ok = (hist.get("nonnegativity", 0) == 14 and blossom7 == 8 and rhs7_ok
          and hist.get("family", 0) == 5 and secs < 300)
    triangles = hist.get("blossom[3]", 0)
    report(capsys, 1, "J26 facet census", ok,
           "triangle blossoms reported, not asserted: %d; %.1fs" % (triangles, secs))


def _eq2_candidates():
    g, H, _ = j26_hull()
    out = []
    for q in H.facets:
        fc = classify(q, g)
        if fc.kind != "family":
            continue
        ints, rhs = q.canonical()
        if sorted(c for c in ints if c) == [-1, -1, 1, 1] and rhs == 1 \
                and len(fc.data[1]) == 2:
            out.append(q)
    return g, out


def test_criterion_2_eq2_pattern(capsys):
    _, cands = _eq2_candidates()
    report(capsys, 2, "Eq.(2) lifting pattern among J26 family facets",
           len(cands) >= 1, "%d matching facets" % len(cands))


def _rho1_dominates(p, q):
    pi, pr = p.canonical()
    qi, qr = q.canonical()
    return all(a >= b for a, b in zip(pi, qi)) and pr <= qr


def test_criterion_3_dominance(capsys):
    g, cands = _eq2_candidates()
    best = 0
    for facet in cands:
        pairs = set()
        for a in range(1, g.n + 1):
            for b in range(a + 1, g.n + 1):
                if g.edge_id(a, b) is not None:
                    continue
                for s in minimal_separators_brute(g, a, b, max_size=4):
                    if len(s.C) == 4 and _rho1_dominates(facet,
                                                         project_msi(g, s)):
                        pairs.add((a, b))
        best = max(best, len(pairs))
    report(capsys, 3, "projected MSIs dominated with rho=1", best >= 4,
           "%d vertex pairs" % best)


def test_criterion_4_full_dimensionality(capsys):
    bad = [name for name, g in corpus()
           if polytope_dimension(corpus_vrep(name, g)) != g.m]
    report(capsys, 4, "full-dimensionality over corpus", not bad,
           "%d graphs" % len(corpus()) if not bad else "failed: %s" % bad)


def test_criterion_5_family_validity(capsys):
    bad = []
    rows = 0
    for name, g in corpus():
        V = corpus_vrep(name, g)
        for q, _ in generate_family(g):
            rows += 1
            if verify_valid(q, V):
                bad.append((name, q.provenance))
    report(capsys, 5, "family validity over corpus", not bad,
           "%d rows checked" % rows if not bad else "violations: %s" % bad)


def test_criterion_6_certified_facets(capsys):
    bad = []
    certified = 0
    for name, g in corpus():
        V = corpus_vrep(name, g)
        for q, cert in generate_family(g):
            if not cert.facet_certified:
                continue
            certified += 1
            if face_dimension(q, V) != g.m - 1:
                bad.append((name, q.provenance))
    report(capsys, 6, "certified rows have facet dimension", not bad,
           "%d certified rows" % certified if not bad
           else "non-facets: %s" % bad)


def test_criterion_7_hull_round_trip(capsys):
    bad = []
    for name, g in corpus():
        V = corpus_vrep(name, g)
        H = j26_hull()[1] if name == "j26" else hrep(V)
        for q in H.facets:
            if verify_valid(q, V):
                bad.append((name, "invalid row"))
                break
            tight = [p for p in V.points if q.evaluate(p) == q.rhs]
            if affine_dimension(tight) != g.m - 1:
                bad.append((name, "not tight on dim m-1"))
                break
    for d in range(1, 5):
        cube = VRep(d, tuple(product([0, 1], repeat=d)))
        if len(hrep(cube).facets) != 2 * d:
            bad.append(("hypercube-%d" % d, "facet count"))
    report(capsys, 7, "V/H round trip over corpus", not bad,
           "" if not bad else str(bad))


def test_criterion_8_solver_exactness(capsys):
    t0 = time.monotonic()
    mismatches = 0
    for seed in range(100):
        g = random_connected_graph(seed, n_hi=10, m_cap=14)
        w = random_weights(seed + 500, g.m)
        res = branch_and_cut(g, w)
        val, _ = brute_force_max_weight_cm(g, w)
        if res.status != "optimal" or res.value != val:
            mismatches += 1
    secs = time.monotonic() - t0
    report(capsys, 8, "solver equals oracle on 100 instances",
           mismatches == 0 and secs < 600,
           "%d mismatches, %.1fs" % (mismatches, secs))


def test_criterion_9_root_tightening(capsys):
    v0, v1 = root_gap_report(generate("cycle:6"),
                             [Fraction(c) for c in (1, 0, 0, 1, 0, 0)])
    report(capsys, 9, "family cuts tighten root LP", (v0, v1) == (2, 1),
           "without=%s with=%s" % (v0, v1))
