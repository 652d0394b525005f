"""The benchmark's own tests.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

They check that the generators are deterministic per seed, that exact
counts repeat across two traced runs, that tracing restores every patched
binding, that run.py reports exactly the metrics BENCHMARK.json names, and
that a held-out seed gives a workload of the same size as the default seed.
"""

import json
import os
import statistics
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run    # noqa: E402  (needs the benchmark directory on sys.path)
import spans  # noqa: E402

# A held-out seed's pass may take at most this factor longer or shorter than
# the default seed's pass.  A pass is timed in units of the gauge, which
# cancels most of a shared machine's slowdowns; the factor leaves room for
# the rest.
SIZE_FACTOR = 1.25
HELD_OUT_SEEDS = (1, 2, 3)
EXACT_COUNTS = ("polytope.hrep.facets_out", "solver.nodes", "solver.lp_pivots",
                "solver.cuts_msi", "solver.cuts_lazy", "solver.family_rows",
                "rational_la.affine_dimension.calls")
# A few cheap instances per workload for the traced tests.
SMALL = {"hull": 4, "certify": 3, "solve": 2, "solve-cuts": 3}


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _files(insts):
    out = []
    for inst in insts:
        paths = [inst.graph_path] + ([inst.rows_path] if inst.rows else [])
        out.append(tuple(run._read(p) for p in paths))
    return out


def _small(workload, seed, tmp_path, count=None):
    env, insts = run.setup(workload, seed, str(tmp_path / f"{workload}-{seed}"))
    cheap = sorted(insts, key=lambda i: (i.graph.m, i.name))
    return env, cheap[:count or SMALL[workload]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generators_deterministic_per_seed(workload, tmp_path):
    _, a = run.setup(workload, 7, str(tmp_path / "a"))
    _, b = run.setup(workload, 7, str(tmp_path / "b"))
    _, c = run.setup(workload, 8, str(tmp_path / "c"))
    assert _files(a) == _files(b)
    assert [i.name for i in a] == [i.name for i in c]
    assert _files(a) != _files(c)


def _traced_counts(workload, tmp_path, tag):
    env, insts = _small(workload, 0, tmp_path / tag)
    tracer = spans.Tracer()
    log = run.measure(env, workload, insts, 0, tracer, min_passes=2)
    assert not log["failures"]
    return run.per_layer(log, tracer), tracer


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_exact_counts_repeat_and_bindings_restored(workload, tmp_path):
    first, tracer = _traced_counts(workload, tmp_path, "one")
    second, _ = _traced_counts(workload, tmp_path, "two")
    for name in EXACT_COUNTS:
        assert first[name] == second[name], name
    assert len(tracer.bindings) > len(spans.SPANNED)
    for owner, attr, original in tracer.bindings:
        assert getattr(owner, attr) is original, f"{owner}.{attr}"


def test_tracer_wraps_every_binding():
    run._import_program()
    import cmpoly.polytope as polytope
    import cmpoly.rational_la as rational_la
    import cmpoly.solver as solver
    from cmpoly.inequality import Inequality
    before = (polytope.affine_dimension, solver.separate_fractional,
              Inequality.__dict__["canonical"])
    with spans.Tracer():
        assert polytope.affine_dimension is rational_la.affine_dimension
        assert polytope.affine_dimension is not before[0]
        assert solver.separate_fractional is not before[1]
        assert Inequality.__dict__["canonical"] is not before[2]
    assert (polytope.affine_dimension, solver.separate_fractional,
            Inequality.__dict__["canonical"]) == before


@pytest.mark.parametrize("workload", ("hull", "solve-cuts"))
def test_reports_exactly_the_named_metrics(workload, tmp_path):
    spec = _spec()
    env, insts = _small(workload, 0, tmp_path, count=12)   # 12 samples give a tail
    tracer = spans.Tracer()
    log = run.measure(env, workload, insts, 0, tracer, min_passes=2)
    assert set(run.per_layer(log, tracer)) == {m["name"] for m in spec["per_layer"]}
    log = run.measure(env, workload, insts, 0, min_passes=1)
    metrics, _ = run.end_to_end(log, [(0.1, run.GAUGE_REFERENCE_S)])
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}


def test_tail_has_ten_samples_beyond():
    value, pct, n = run.tail(list(range(40)))
    assert (value, n) == (29, 40) and pct == 75.0
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_held_out_seeds_same_size(workload, tmp_path):
    def batch(seed):
        env, insts = run.setup(workload, seed, str(tmp_path / str(seed)))
        _, times, gauges, results = run.run_pass(env, workload, insts)
        assert all(err is None for _, err in results)
        return sum(t / g for t, g in zip(times, gauges))

    default = statistics.median([batch(run.DEFAULT_SEED) for _ in range(2)])
    for seed in HELD_OUT_SEEDS:
        ratio = batch(seed) / default
        assert 1 / SIZE_FACTOR <= ratio <= SIZE_FACTOR, (seed, ratio)
