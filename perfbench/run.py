"""cmpoly benchmark: four seeded workloads through the public entry points.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hull --seed 0 --seconds 25 --trace 0

One process, one closed-loop client: each instance starts when the previous
one has finished, with no threads.  A pass runs every instance of the
workload once, and after each instance a fixed piece of pure-Python work,
the gauge.  A run makes passes for `--seconds` (at least MIN_PASSES).
Times are reported at a reference speed: each instance's time is scaled by
the gauges around it (see end_to_end), which cancels the slowdowns of a
shared machine, and an instance's time is the median over the passes.  The
samples behind instance_p50_s and instance_tail_s are these per-instance
times, so their count and the rank of the tail are the same in every run.
Every output is checked after its pass, outside the timed region.
`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics.  The last line of
standard output is the JSON result; metric names and units come from
BENCHMARK.json.  Run metadata and the spans of a traced run are written
under .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 9
MIN_PASSES = 3
TAIL_BEYOND = 10
GAUGE_WINDOW = 4   # gauges on each side of an instance that give its speed
# The gauge's time on an undisturbed 2-core x86-64 machine with CPython
# 3.11.7: times are reported at this speed.
GAUGE_REFERENCE_S = 0.0035
WORKLOADS = ("hull", "certify", "solve", "solve-cuts")


class SetupError(RuntimeError):
    """The checkout lacks the program or the benchmark definition."""


def _import_program():
    """Import cmpoly from the checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cmpoly", "__init__.py")):
        raise SetupError(f"no cmpoly package under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules
                 if n in ("cmpoly", "instances") or n.startswith("cmpoly.")]:
        del sys.modules[name]
    env = argparse.Namespace(
        cli=importlib.import_module("cmpoly.cli"),
        graph_core=importlib.import_module("cmpoly.graph_core"),
        inequality=importlib.import_module("cmpoly.inequality"),
        matchings=importlib.import_module("cmpoly.matchings"),
        polytope=importlib.import_module("cmpoly.polytope"),
        instances=importlib.import_module("instances"),
    )
    if not os.path.abspath(env.cli.__file__).startswith(src + os.sep):
        raise SetupError(f"cmpoly imported from {env.cli.__file__}, not {src}")
    return env


def setup(workload, seed, workdir):
    """Import the program, generate the workload's inputs and write them.

    Returns (env, instances) with the instances' file paths set."""
    env = _import_program()
    insts = env.instances.WORKLOAD_INSTANCES[workload](seed)
    os.makedirs(workdir, exist_ok=True)
    for i, inst in enumerate(insts):
        stem = os.path.join(workdir, f"{i:02d}-{inst.name.replace(':', '_')}")
        inst.graph_path, inst.rows_path, inst.out_path = stem + ".g", stem + ".ineq", stem + ".out"
        with open(inst.graph_path, "w") as fh:
            fh.write(env.instances.format_graph_file(inst))
        if inst.rows:
            with open(inst.rows_path, "w") as fh:
                fh.write(env.instances.format_rows_file(inst))
    return env, insts


# ---------------------------------------------------------------- workloads

def run_hull(env, inst):
    return env.cli.run(["hrep", "-g", inst.graph_path, "--no-meta",
                        "-o", inst.out_path] + inst.limit_args)


def run_certify(env, inst):
    """`cmpoly verify` on the candidate rows, then facet dimension of every
    row it reports VALID."""
    rc = env.cli.run(["verify", "-g", inst.graph_path, "--ineq", inst.rows_path,
                      "--no-meta", "-o", inst.out_path] + inst.limit_args)
    with open(inst.out_path) as fh:
        verdicts = [line.startswith("VALID ") for line in fh.read().splitlines()]
    with open(inst.graph_path) as fh:
        g = env.graph_core.parse_graph(fh.read())
    with open(inst.rows_path) as fh:
        rows = env.inequality.parse_hrep_file(fh.read())
    V = env.polytope.vrep(g)
    dims = [env.polytope.face_dimension(q, V) if ok else None
            for q, ok in zip(rows, verdicts)]
    with open(inst.out_path, "a") as fh:
        fh.write("dims " + " ".join("-" if d is None else str(d) for d in dims) + "\n")
    return rc


def run_solve(env, inst):
    return env.cli.run(["solve", "-g", inst.graph_path, "--no-meta",
                        "-o", inst.out_path] + inst.limit_args)


def run_solve_cuts(env, inst):
    return env.cli.run(["solve", "-g", inst.graph_path, "--no-meta",
                        "--no-family-cuts", "-o", inst.out_path] + inst.limit_args)


RUNNERS = {"hull": run_hull, "certify": run_certify,
           "solve": run_solve, "solve-cuts": run_solve_cuts}


# ------------------------------------------------------- correctness checks

class CheckFailed(Exception):
    """An output failed a correctness check."""


def _require(ok, msg):
    if not ok:
        raise CheckFailed(msg)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _read(path):
    with open(path) as fh:
        return fh.read()


def input_key(inst):
    """Digest of everything the program reads for this instance."""
    parts = [_read(inst.graph_path)]
    if inst.rows:
        parts.append(_read(inst.rows_path))
    return _sha("\0".join(parts))


def _row_value(coeffs, M):
    return sum(coeffs[e - 1] for e in M)


def _is_connected_matching(g, M):
    """Independent check: M is a matching and its covered vertices induce a
    connected subgraph of g."""
    covered = [v for e in M for v in g.edges[e - 1]]
    if len(covered) != len(set(covered)):
        return False
    cover = set(covered)
    if len(cover) <= 2:
        return True
    nbrs = {v: set() for v in cover}
    for u, v in g.edges:
        if u in cover and v in cover:
            nbrs[u].add(v)
            nbrs[v].add(u)
    start = next(iter(cover))
    seen, stack = {start}, [start]
    while stack:
        for u in nbrs[stack.pop()] - seen:
            seen.add(u)
            stack.append(u)
    return seen == cover


def _parse_int_rows(lines, m):
    rows = []
    for line in lines:
        body = line.split("#", 1)[0]
        lhs, rhs = body.split("<=")
        coeffs = [int(t) for t in lhs.split()]
        if len(coeffs) != m:
            raise CheckFailed(f"row has {len(coeffs)} coefficients, expected {m}")
        rows.append((coeffs, int(rhs)))
    return rows


def check_hull(env, inst, rc, out, ref):
    g = inst.graph
    lines = out.splitlines()
    _require(rc == 0, f"exit code {rc}")
    head = lines[0].split()
    _require(head[0] == "h" and int(head[1]) == g.m, f"bad header {lines[0]!r}")
    k = int(head[2])
    _require(len(lines) == k + 2, "row count does not match header")
    rows = _parse_int_rows(lines[1:k + 1], g.m)
    _require(len(set(map(repr, rows))) == k, "duplicate facet rows")
    hist = dict(item.split("=") for item in
                lines[-1].removeprefix("# class histogram:").split())
    _require(sum(map(int, hist.values())) == k, "histogram does not sum to row count")
    _require(int(hist.get("nonnegativity", 0)) == g.m, "a nonnegativity facet is missing")
    for coeffs, rhs in rows:
        values = [_row_value(coeffs, M) for M in ref["cms"]]
        _require(max(values) <= rhs, f"invalid facet {coeffs} <= {rhs}")
        _require(values.count(rhs) >= g.m,
                 f"row {coeffs} <= {rhs} is not tight on m points")


# Row kinds that are valid on every graph: the trivial rows, blossom rows of
# matchings, and projected MSIs.  Family rows are valid exactly when the
# validity hypothesis holds; with lambda dropped they may be invalid.
ALWAYS_VALID = ("nonnegativity", "degree", "blossom", "msi")


def check_certify(env, inst, rc, out, ref):
    g = inst.graph
    lines = out.splitlines()
    _require(len(lines) == len(inst.rows) + 1, "one verdict per row expected")
    dims = lines[-1].split()[1:]
    invalid = 0
    for (coeffs, rhs, kind), line, dim in zip(inst.rows, lines, dims):
        valid = max(_row_value(coeffs, M) for M in ref["cms"]) <= rhs
        _require(line.startswith("VALID " if valid else "INVALID "),
                 f"wrong verdict for {kind} row: {line!r}")
        _require((dim == "-") == (not valid), "facet dimension on an invalid row")
        if kind in ALWAYS_VALID:
            _require(valid, f"{kind} row reported invalid")
        if valid:
            _require(-1 <= int(dim) <= g.m - 1, f"face dimension {dim} out of range")
        if kind == "nonnegativity":
            _require(int(dim) == g.m - 1, "nonnegativity row is not a facet")
        invalid += not valid
    _require(rc == (1 if invalid else 0), f"exit code {rc} with {invalid} invalid rows")


def check_solve(env, inst, rc, out, ref):
    g, w = inst.graph, inst.weights
    lines = out.splitlines()
    _require(rc == 0, f"exit code {rc}")
    _require("status optimal" in lines, "status is not optimal")
    opt = next(line for line in lines if line.startswith("opt ")).split()
    _require(opt[2] == "matching", f"bad opt line {opt!r}")
    value = Fraction(opt[1])
    _require(value == ref["value"], f"value {value} != brute force {ref['value']}")
    M = tuple(int(e) for e in opt[3].strip("{}").split(",") if e)
    _require(_is_connected_matching(g, M), f"{M} is not a connected matching")
    _require(sum((w[e - 1] for e in M), Fraction(0)) == value, "matching weight != value")


CHECKS = {"hull": check_hull, "certify": check_certify,
          "solve": check_solve, "solve-cuts": check_solve}


def reference(env, workload, inst):
    """Untimed oracle data for the checks."""
    if workload in ("solve", "solve-cuts"):
        value, _ = env.matchings.brute_force_max_weight_cm(inst.graph, inst.weights)
        return {"value": value}
    return {"cms": env.matchings.enumerate_cm_sets(inst.graph)}


def load_digests():
    with open(DIGESTS) as fh:
        return json.load(fh)


# ------------------------------------------------------------------ passes

def gauge():
    """Seconds taken by a fixed piece of pure-Python work (integers,
    fractions, a set) that calls nothing in cmpoly.  Timed between
    instances, it tells how fast the shared machine runs at the moment."""
    t = time.perf_counter()
    acc, seen, x = Fraction(0), set(), 1
    for i in range(1, 600):
        acc += Fraction(i % 13 - 6, i)
    for _ in range(10000):
        x = (x * 1103515245 + 12345) % 2147483648
        seen.add(x & 1023)
    return time.perf_counter() - t


def run_pass(env, workload, insts, tracer=None, label=""):
    """One pass; returns (pass seconds, per-instance seconds, gauge seconds
    after each instance, results)."""
    runner = RUNNERS[workload]
    times, gauges, results = [], [], []
    gc.collect()
    t0 = time.perf_counter()
    for inst in insts:
        if tracer is not None:
            tracer.instance = f"{label}{inst.name}"
        t = time.perf_counter()
        try:
            rc, err = runner(env, inst), None
        except Exception as exc:   # counted as a failed instance
            rc, err = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t)
        results.append((rc, err))
        gauges.append(gauge())
    return time.perf_counter() - t0, times, gauges, results


def check_pass(env, workload, insts, results, refs, digests, first_outputs):
    """Check every output of a pass; returns the list of failure messages."""
    failures = []
    known = digests.get(workload, {})
    for i, (inst, (rc, err)) in enumerate(zip(insts, results)):
        if err is not None:
            failures.append(f"{inst.name}: {err}")
            continue
        out = _read(inst.out_path)
        digest = _sha(out)
        try:
            if first_outputs[i] is None:
                CHECKS[workload](env, inst, rc, out, refs[i])
                first_outputs[i] = digest
            _require(digest == first_outputs[i], "output differs from the first pass")
            expected = known.get(input_key(inst))
            _require(expected in (None, digest), "output differs from the recorded digest")
        except (CheckFailed, ValueError, IndexError, KeyError, StopIteration) as exc:
            failures.append(f"{inst.name}: {exc}")
    return failures


def measure(env, workload, insts, seconds, tracer=None, min_passes=MIN_PASSES):
    """Run and check passes for `seconds`: at least `min_passes`, and a
    further pass only while the median pass would end within `seconds`.
    With a tracer, untraced and traced passes alternate, untraced first."""
    refs = [reference(env, workload, inst) for inst in insts]
    digests = load_digests()
    first = [None] * len(insts)
    log = {"batch": [], "unscaled": [], "instance": [], "gauge": [],
           "traced_batch": [], "traced_unscaled": [], "failures": [], "attempted": 0}
    start, lengths = time.perf_counter(), []
    while len(lengths) < min_passes or (
            time.perf_counter() - start + statistics.median(lengths) <= seconds):
        traced = tracer is not None and len(lengths) % 2 == 1
        with tracer if traced else contextlib.nullcontext():
            length, times, gauges, results = run_pass(
                env, workload, insts, tracer if traced else None, f"{len(lengths)}:")
        lengths.append(length)
        scaled = sum(t * GAUGE_REFERENCE_S / _local(gauges, i) for i, t in enumerate(times))
        if traced:
            log["traced_batch"].append(scaled)
            log["traced_unscaled"].append(sum(times))
        else:
            log["batch"].append(scaled)
            log["unscaled"].append(sum(times))
            log["instance"].append(times)
            log["gauge"].append(gauges)
        log["attempted"] += len(insts)
        log["failures"] += check_pass(env, workload, insts, results, refs, digests, first)
    log["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return log


# ----------------------------------------------------------------- metrics

def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, sample count)."""
    s = sorted(samples)
    if len(s) <= TAIL_BEYOND:
        raise ValueError(f"{len(s)} samples leave no tail with {TAIL_BEYOND} beyond it")
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def _local(gauges, i):
    """The machine's speed around instance i, as the median gauge near it."""
    return statistics.median(gauges[max(0, i - GAUGE_WINDOW):i + GAUGE_WINDOW])


def end_to_end(log, setups):
    """End-to-end metrics from the untraced passes and the set-ups.

    The gauge runs after every instance.  An instance's time over the median
    of the gauges around it, times GAUGE_REFERENCE_S, is its time at the
    reference speed: this cancels the slowdowns of a shared machine, which
    last from milliseconds to minutes and slow the gauge alike.  An
    instance's time is the median of its scaled pass times, and batch_s is
    their sum.  Set-up times are scaled by the gauges around them."""
    scaled = [[t * GAUGE_REFERENCE_S / _local(gauges, i) for i, t in enumerate(times)]
              for times, gauges in zip(log["instance"], log["gauge"])]
    samples = [statistics.median(ts) for ts in zip(*scaled)]
    tail_value, tail_pct, count = tail(samples)
    setup_s = [t * GAUGE_REFERENCE_S / g for t, g in setups]
    spread_per_instance = [(max(ts) - min(ts)) / statistics.median(ts)
                           for ts in zip(*scaled)]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "batch_s": sum(samples),
        "instance_p50_s": statistics.median(samples),
        "instance_tail_s": tail_value,
        "peak_rss_mb": log["peak_rss_mb"],
        "ok_frac": 1 - len(log["failures"]) / log["attempted"],
    }
    info = {
        "passes": len(log["batch"]),
        "instances_per_pass": len(log["instance"][0]),
        "instance_samples": count,
        "instance_tail_percentile": tail_pct,
        "setup_repeats": len(setups),
        "setup_s_unscaled": statistics.median(t for t, _ in setups),
        "gauge_fastest_s": min(g for gauges in log["gauge"] for g in gauges),
        "pass_slowdown": [statistics.median(g) / GAUGE_REFERENCE_S for g in log["gauge"]],
        "pass_s_scaled": log["batch"],
        "pass_s_unscaled": log["unscaled"],
        "per_call_spread_median": statistics.median(spread_per_instance),
        "failed_frac": len(log["failures"]) / log["attempted"],
    }
    return metrics, info


def per_layer(log, tracer):
    passes = len(log["traced_batch"])
    totals = tracer.totals()
    counts = tracer.counts
    metrics = {}

    def per_pass(total):
        """Counts repeat exactly on every pass, so they stay whole numbers."""
        if isinstance(total, int) and total % passes == 0:
            return total // passes
        return total / passes

    def span(name, *stats):
        calls, incl, own = totals.get(name, (0, 0.0, 0.0))
        for stat in stats:
            value = {"calls": calls, "s": incl, "self_s": own}[stat]
            metrics[f"{name}.{stat}"] = per_pass(value)

    span("cli.run", "s", "self_s")
    span("graph_core.parse_graph", "s")
    span("matchings.enumerate_cm_sets", "calls", "s")
    span("matchings.exists_cm_superset", "calls", "s")
    span("rational_la.affine_dimension", "calls", "s", "self_s")
    span("rational_la.rank", "calls", "s")
    span("inequality.canonical", "calls", "s")
    span("inequality.parse_hrep_file", "s")
    span("inequality.format_hrep_file", "s")
    span("facet_family.generate_family", "calls", "s", "self_s")
    span("facet_family.lambda_set", "calls", "s")
    span("facet_family.check_validity_hypothesis", "calls", "s")
    span("polytope.hrep", "calls", "s", "self_s")
    span("polytope.classify", "calls", "s")
    span("polytope.verify_valid", "calls", "s")
    span("polytope.face_dimension", "calls", "s", "self_s")
    span("polytope.vrep", "s")
    span("msi.separate_fractional", "calls", "s")
    span("msi.lazy_cut_for_disconnected", "calls", "s")
    span("solver.branch_and_cut", "s", "self_s")
    span("solver.build_base_lp", "s")
    span("solver.solve_lp_exact", "calls", "s")
    for name in ("graph_core.is_connected_induced.calls", "graph_core.line_distance.calls",
                 "inequality.evaluate.calls", "matchings.enumerate_cm_sets.out",
                 "polytope.hrep.points_in", "polytope.hrep.facets_out",
                 "facet_family.generate_family.rows", "polytope.verify_valid.invalid",
                 "msi.separate_fractional.cuts_out", "solver.solve_lp_exact.infeasible",
                 "solver.nodes", "solver.lp_pivots", "solver.cuts_msi",
                 "solver.cuts_lazy", "solver.family_rows"):
        metrics[name] = per_pass(counts[name])

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["facet_family.valid_ratio"] = ratio(
        metrics["facet_family.generate_family.rows"],
        metrics["facet_family.check_validity_hypothesis.calls"])
    metrics["msi.separate_fractional.productive_ratio"] = ratio(
        per_pass(counts["msi.separate_fractional.productive"]),
        metrics["msi.separate_fractional.calls"])
    metrics["solver.pivots_per_lp"] = ratio(
        metrics["solver.lp_pivots"], metrics["solver.solve_lp_exact.calls"])
    metrics["solver.cut_new_ratio"] = ratio(
        metrics["solver.cuts_msi"], metrics["msi.separate_fractional.cuts_out"])
    metrics["trace.batch_s"] = statistics.median(log["traced_batch"])
    metrics["trace.overhead_ratio"] = metrics["trace.batch_s"] / statistics.median(log["batch"])
    return metrics


def self_time_shares(log, tracer):
    """Each span name's self time as a share of the traced instances' time;
    the rest is the benchmark's own code between calls."""
    wall = sum(log["traced_unscaled"])
    shares = [(own / wall, name) for name, (_, _, own) in tracer.totals().items()]
    return [[name, round(share, 4)] for share, name in sorted(shares, reverse=True)]


# -------------------------------------------------------------------- main

def metadata(args):
    """Run conditions; the commit is read from .git when the checkout has one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    commit = "unknown"
    if os.path.isfile(head):
        commit = _read(head).strip()
        ref = os.path.join(ROOT, ".git", commit.removeprefix("ref: "))
        if commit.startswith("ref: ") and os.path.isfile(ref):
            commit = _read(ref).strip()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "commit": commit}


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SetupError(f"cannot read {path}: {exc}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec()
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    setups = []   # (seconds, median gauge seconds around it)
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        before = [gauge() for _ in range(2)]
        t = time.perf_counter()
        env, insts = setup(args.workload, args.seed, workdir)
        t = time.perf_counter() - t
        setups.append((t, statistics.median(before + [gauge() for _ in range(2)])))

    meta = metadata(args)
    if args.trace == 0:
        log = measure(env, args.workload, insts, args.seconds)
        metrics, info = end_to_end(log, setups)
        wanted = spec["end_to_end"]
    else:
        tracer = importlib.import_module("spans").Tracer()
        log = measure(env, args.workload, insts, args.seconds, tracer)
        metrics = per_layer(log, tracer)
        info = {"traced_passes": len(log["traced_batch"]),
                "untraced_batch_s": log["batch"], "spans": len(tracer.spans),
                "self_time_shares": self_time_shares(log, tracer)}
        tracer.write_spans(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.tsv"))
        wanted = spec["per_layer"]
    meta.update(info)
    meta["failures"] = log["failures"][:20]


    result = {"correct": not log["failures"], "attempted": log["attempted"],
              "failed": len(log["failures"]), "metrics": {}}
    for m in wanted:
        result["metrics"][m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']}")
    if args.trace == 0:
        print(f"{'failed_frac':<48} {info['failed_frac']:>14.6g} ratio")
    meta["result"] = result
    meta["per_pass"] = {"instances": [i.name for i in insts],
                        "seconds": log["instance"], "gauge_s": log["gauge"]}
    with open(os.path.join(WORK, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(meta, fh, indent=1)
    for msg in log["failures"][:20]:
        print("FAILED", msg)
    print("meta", json.dumps({k: v for k, v in meta.items()
                              if k not in ("result", "per_pass")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
