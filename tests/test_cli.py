import os
import subprocess
import sys
from itertools import combinations

import pytest

import cmpoly
from cmpoly.cli import run
from cmpoly.graph_core import GraphError, format_graph, generate, parse_graph
from cmpoly.inequality import parse_inequality_line
from cmpoly.matchings import enumerate_cm_sets, is_connected_matching

# Inputs at the edge of the domain: each graph subcommand must answer them
# correctly or refuse them with exit 1.
DEGENERATE = {
    "no-vertices": "p 0 0\n",
    "no-edges": "p 3 0\n",
    "edge-and-isolated": "p 3 1\ne 1 2\n",
    "two-k2": "p 4 2\ne 1 2\ne 3 4\n",
    # two components and the isolated vertex 6
    "disconnected-isolated": "p 6 3\ne 1 2\ne 2 3\ne 4 5\n",
    "huge-weights":
        "p 5 4\n"
        "e 1 2 w 123456789012345678901234567891/987654321098765432109876543211\n"
        "e 2 3 w 314159265358979323846264338327/271828182845904523536028747135\n"
        "e 3 4 w 161803398874989484820458683436/141421356237309504880168872420\n"
        "e 4 5 w -577215664901532860606512090082/299792458000000000000000000001\n",
    # every pair of edges shares a vertex or is joined by one, so the family
    # is empty; no two vertices are non-adjacent, so msi prints no row either
    "complete-4": format_graph(generate("complete:4")),
}


@pytest.fixture
def j26_file(tmp_path):
    path = tmp_path / "j26.g"
    path.write_text(format_graph(generate("j26")))
    return str(path)


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.g"
    path.write_text(format_graph(generate("cycle:6")))
    return str(path)


@pytest.fixture(params=list(DEGENERATE))
def degenerate_file(request, tmp_path):
    path = tmp_path / "g.g"
    path.write_text(DEGENERATE[request.param])
    return str(path)


def invoke(argv, capsys):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def answer_or_refusal(argv, capsys):
    """The output of a run that exits 0, or None for a clean refusal: exit 1
    with an `error:` line and nothing on stdout."""
    code, out, err = invoke(argv, capsys)
    if code == 1:
        assert out == "" and err.startswith("error:")
        return None
    assert code == 0 and err == ""
    return out


class TestGen:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "g.g"
        code, _, _ = invoke(["gen", "--name", "cycle:5", "-o", str(out)], capsys)
        assert code == 0
        assert parse_graph(out.read_text()).m == 5

    def test_unknown_generator_is_domain_error(self, capsys):
        code, _, err = invoke(["gen", "--name", "nope"], capsys)
        assert code == 1 and "error:" in err


class TestEnumerate:
    def test_c6(self, c6_file, capsys):
        code, out, _ = invoke(["enumerate", "-g", c6_file], capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("m 6 k ")

    def test_negative_count_limit_exits_one(self, c6_file, capsys):
        code, out, err = invoke(["enumerate", "-g", c6_file, "--count-limit", "-3"], capsys)
        assert code == 1
        assert out == "" and "count limit must be >= 0, got -3" in err
        # the empty matching always exists, so a zero limit is exceeded, not refused
        code, out, err = invoke(["enumerate", "-g", c6_file, "--count-limit", "0"], capsys)
        assert code == 1
        assert out == "" and "more than 0 connected matchings" in err


class TestHrep:
    def test_histogram(self, c6_file, capsys):
        code, out, _ = invoke(["hrep", "-g", c6_file], capsys)
        assert code == 0
        assert "# class histogram:" in out
        assert "nonnegativity=6" in out

    def test_j26_histogram(self, j26_file, capsys):
        code, out, _ = invoke(["hrep", "-g", j26_file], capsys)
        assert code == 0
        assert "nonnegativity=14" in out and "family=5" in out \
            and "blossom[7]=8" in out

    def test_tsv(self, c6_file, capsys):
        code, out, _ = invoke(["hrep", "-g", c6_file, "--tsv"], capsys)
        assert code == 0
        assert "class\tnonnegativity\t6" in out

    @pytest.mark.parametrize("text", ["p 1 0\n", "p 3 0\n"])
    def test_no_edges_no_facets(self, text, tmp_path, capsys):
        path = tmp_path / "empty.g"
        path.write_text(text)
        code, out, _ = invoke(["hrep", "-g", str(path), "--no-meta"], capsys)
        assert code == 0
        assert out.splitlines() == ["h 0 0", "# class histogram: "]


class TestFamily:
    def test_certify(self, c6_file, capsys):
        code, out, _ = invoke(["family", "-g", c6_file, "--certify"], capsys)
        assert code == 0
        assert "# facet_certified rows: 0" in out
        assert out.count("facet_certified=no") == 3


class TestClassifyCmd:
    def test_classify_hrep_output(self, c6_file, tmp_path, capsys):
        ineq = tmp_path / "c6.ineq"
        code, out, _ = invoke(["hrep", "-g", c6_file, "-o", str(ineq)], capsys)
        assert code == 0
        code, out, _ = invoke(["classify", "-g", c6_file, "--ineq", str(ineq)],
                              capsys)
        assert code == 0
        assert "nonnegativity" in out

    def test_isolated_vertex_row_is_other(self, tmp_path, capsys):
        graph = tmp_path / "g.g"
        graph.write_text("p 3 1\ne 1 2\n")
        ineq = tmp_path / "g.ineq"
        ineq.write_text("h 1 1\n0 <= 1\n")
        code, out, _ = invoke(["classify", "-g", str(graph), "--ineq", str(ineq)],
                              capsys)
        assert code == 0
        assert out == "0 <= 1  ->  other\n"


class TestMsiCmd:
    def test_negative_max_separator_exits_one(self, tmp_path, capsys):
        # complete:4 has no non-adjacent pair, so no separator search sees the cap
        for name in ["cycle:6", "complete:4"]:
            graph = tmp_path / "g.g"
            graph.write_text(format_graph(generate(name)))
            code, out, err = invoke(["msi", "-g", str(graph), "--max-separator", "-1"],
                                    capsys)
            assert code == 1
            assert out == "" and "cap must be >= 0" in err, name

    def test_c6_rows(self, c6_file, capsys):
        code, out, _ = invoke(["msi", "-g", c6_file, "--max-separator", "2"],
                              capsys)
        assert code == 0
        assert "msi a=" in out

    def test_dominance_marks(self, j26_file, capsys):
        code, out, _ = invoke(["msi", "-g", j26_file, "--max-separator", "4",
                               "--dominance"], capsys)
        assert code == 0
        assert "dominated_by[" in out


class TestSolve:
    def test_oracle_check(self, c6_file, capsys):
        code, out, _ = invoke(["solve", "-g", c6_file, "--oracle-check",
                               "--no-meta"], capsys)
        assert code == 0
        assert out.strip().endswith("MATCH")

    def test_degenerate_input_matches_oracle(self, degenerate_file, capsys):
        code, out, _ = invoke(["solve", "-g", degenerate_file, "--oracle-check",
                               "--no-meta"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "MATCH"

    def test_oracle_check_honours_count_limit(self, c6_file, capsys):
        count = len(enumerate_cm_sets(generate("cycle:6")))
        argv = ["solve", "-g", c6_file, "--oracle-check", "--no-meta", "--count-limit"]
        code, out, err = invoke(argv + [str(count - 1)], capsys)
        assert code == 1
        assert out == "" and "raise the limit" in err
        code, out, _ = invoke(argv + [str(count)], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "MATCH"

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_node_limit_below_one_exits_one(self, c6_file, capsys, limit):
        code, out, err = invoke(["solve", "-g", c6_file, "--no-meta",
                                 "--node-limit", limit], capsys)
        assert code == 1
        assert out == "" and "node limit" in err

    def test_node_limit_hit_exits_one(self, tmp_path, capsys):
        # the root LP of cycle:7 is fractional (7/2) and the limit stops the
        # search before any integral node: the bound is printed, and the
        # result is neither optimal nor the oracle's
        path = tmp_path / "c7.g"
        path.write_text(format_graph(generate("cycle:7")))
        code, out, _ = invoke(["solve", "-g", str(path), "--no-family-cuts", "--no-msi",
                               "--node-limit", "1", "--oracle-check", "--no-meta"], capsys)
        assert code == 1
        lines = out.splitlines()
        assert lines[1:4] == ["opt 0 matching {}", "status node-limit", "upper_bound 7/2"]
        assert lines[-1] == "MISMATCH"

    def test_reproducible_with_no_meta(self, j26_file, capsys):
        runs = []
        for _ in range(2):
            code, out, _ = invoke(["solve", "-g", j26_file, "--no-meta"], capsys)
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]

    def test_meta_line_present_by_default(self, c6_file, capsys):
        code, out, _ = invoke(["solve", "-g", c6_file], capsys)
        assert code == 0
        assert "wall_time" in out


class TestVerify:
    def test_valid_file_exit_zero(self, c6_file, tmp_path, capsys):
        ineq = tmp_path / "c6.ineq"
        invoke(["hrep", "-g", c6_file, "-o", str(ineq)], capsys)
        code, out, _ = invoke(["verify", "-g", c6_file, "--ineq", str(ineq)],
                              capsys)
        assert code == 0
        assert "INVALID" not in out

    def test_invalid_row_exit_one(self, c6_file, tmp_path, capsys):
        ineq = tmp_path / "bad.ineq"
        ineq.write_text("h 6 1\n-1 0 0 -1 0 0 <= -2\n")
        code, out, _ = invoke(["verify", "-g", c6_file, "--ineq", str(ineq)],
                              capsys)
        assert code == 1
        assert "INVALID" in out


class TestExport:
    def test_points_header(self, c6_file, capsys):
        code, out, _ = invoke(["export", "-g", c6_file], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "POINTS"
        assert lines[1] == "1 0 0 0 0 0 0"


class TestIneqInput:
    """verify and classify refuse a row they cannot read against the graph."""

    @pytest.mark.parametrize("command", ["verify", "classify"])
    @pytest.mark.parametrize("rows,message", [
        ("h 9 1\n0 0 0 0 0 0 0 0 -1 <= 0\n", "row has 9 coefficients"),
        ("h 2 1\n1 1 <= 1\n", "row has 2 coefficients"),
        ("h 10 1\n1 1 1 1 1 1 1 1 5 5 <= 4\n", "row has 10 coefficients"),
        ("h 8 1\n1/0 0 0 0 0 0 0 0 <= 1\n", "bad inequality entry '1/0'"),
        ("h 8 1\n1 0 0 0 0 0 0 0 <= 1/0\n", "bad inequality entry '1/0'"),
        ("h 2\n", "header 'h 2' is not 'h <m> <count>'"),
        ("h 2 x\n", "header 'h 2 x' is not 'h <m> <count>'"),
        ("h 2 1 extra\n1 1 <= 1\n", "header 'h 2 1 extra' is not 'h <m> <count>'"),
        ("h -1 0\n", "header 'h -1 0' is not 'h <m> <count>'"),
        ("h 8 -1\n", "header 'h 8 -1' is not 'h <m> <count>'"),
    ], ids=["width-9", "width-2", "width-10", "zero-denominator", "zero-denominator-rhs",
            "header-short", "header-not-int", "header-long", "header-negative-width",
            "header-negative-count"])
    def test_exits_one_with_error(self, command, rows, message, tmp_path, capsys):
        graph, ineq = tmp_path / "c8.g", tmp_path / "rows.ineq"
        graph.write_text(format_graph(generate("cycle:8")))
        ineq.write_text(rows)
        code, out, err = invoke([command, "-g", str(graph), "--ineq", str(ineq)], capsys)
        assert code == 1
        assert out == "" and err.startswith("error:") and message in err


def connected_matching_vectors(g):
    """Incidence vectors of the connected matchings, by trying every edge subset."""
    edges = range(1, g.m + 1)
    return {tuple(int(e in M) for e in edges)
            for k in range(g.m + 1) for M in combinations(edges, k)
            if is_connected_matching(g, M)}


class TestDegenerateInput:
    """Each graph subcommand on DEGENERATE: a checked answer or exit 1.
    TestSolve::test_degenerate_input_matches_oracle covers solve."""

    @pytest.mark.parametrize("command", ["enumerate", "export"])
    def test_points_are_the_connected_matchings(self, command, degenerate_file, capsys):
        out = answer_or_refusal([command, "-g", degenerate_file], capsys)
        if out is None:
            return
        with open(degenerate_file) as fh:
            vecs = connected_matching_vectors(parse_graph(fh.read()))
        head, *lines = out.splitlines()
        points = [tuple(map(int, ln.split())) for ln in lines]
        if command == "export":
            assert head == "POINTS" and {p[0] for p in points} == {1}
            points = [p[1:] for p in points]
        else:
            assert head.endswith(f" k {len(vecs)}")
        assert len(points) == len(vecs) and set(points) == vecs

    @pytest.mark.parametrize("command", ["family", "msi"])
    def test_rows_are_valid(self, command, degenerate_file, capsys):
        out = answer_or_refusal([command, "-g", degenerate_file], capsys)
        if out is None:
            return
        with open(degenerate_file) as fh:
            vecs = connected_matching_vectors(parse_graph(fh.read()))
        lines = out.splitlines()
        assert "" not in lines
        for line in lines:
            q = parse_inequality_line(line)
            assert any(q.coeffs), line
            assert all(q.evaluate(x) <= q.rhs for x in vecs), line

    def test_hrep_rows_verify_and_classify(self, degenerate_file, tmp_path, capsys):
        # the rows of the graph's hrep, then an `h m 0` file with no row
        ineq = str(tmp_path / "g.ineq")
        out = answer_or_refusal(["hrep", "-g", degenerate_file, "-o", ineq], capsys)
        if out is None:
            return
        with open(ineq) as fh:
            k = int(fh.readline().split()[2])
        empty = tmp_path / "empty.ineq"
        with open(degenerate_file) as fh:
            empty.write_text(f"h {parse_graph(fh.read()).m} 0\n")
        for path, rows in ((ineq, k), (str(empty), 0)):
            argv = ["-g", degenerate_file, "--ineq", path]
            verdicts = answer_or_refusal(["verify", *argv], capsys)
            classes = answer_or_refusal(["classify", *argv], capsys)
            assert verdicts is not None and classes is not None
            verdicts, classes = verdicts.splitlines(), classes.splitlines()
            assert len(verdicts) == rows and all(v.startswith("VALID ") for v in verdicts)
            assert len(classes) == rows


class TestFlags:
    """Each graph subcommand accepts only the flags it reads."""

    @pytest.mark.parametrize("argv,code", [
        (["verify", "--ineq", "rows.ineq", "--tsv"], 2), (["export", "--tsv"], 2),
        (["msi", "--count-limit", "5"], 2), (["family", "--count-limit", "5"], 2),
        (["hrep", "--tsv"], 0), (["solve", "--oracle-check", "--count-limit", "100"], 0),
    ], ids=["verify-tsv", "export-tsv", "msi-count-limit", "family-count-limit",
            "hrep-tsv", "solve-count-limit"])
    def test_flag_accepted_only_where_read(self, argv, code, c6_file, capsys):
        try:
            got = run(argv + ["-g", c6_file, "--no-meta"])
        except SystemExit as exc:
            got = exc.code
        assert got == code

    @pytest.mark.parametrize("command", ["enumerate", "hrep", "family", "classify", "msi",
                                         "solve", "verify", "export"])
    def test_no_meta_drops_only_meta_lines(self, command, c6_file, tmp_path, capsys):
        ineq = str(tmp_path / "c6.ineq")
        assert run(["hrep", "-g", c6_file, "-o", ineq]) == 0
        argv = [command, "-g", c6_file] + (["--ineq", ineq] if command in
                                           ("classify", "verify") else [])
        code, plain, _ = invoke(argv + ["--no-meta"], capsys)
        assert code == 0
        code, meta, _ = invoke(argv, capsys)
        assert code == 0
        assert [ln for ln in meta.splitlines() if not ln.startswith("wall_time ")] \
            == plain.splitlines()


class TestRunner:
    """The one runner in front of every graph subcommand: -o gets exactly the
    bytes stdout would get, the graph is read first, and a command that fails
    writes nothing."""

    @pytest.fixture
    def files(self, tmp_path):
        paths = {name: str(tmp_path / name) for name in ("c7.g", "rows", "short_rows", "out")}
        texts = {"c7.g": format_graph(generate("cycle:7")),
                 # the second row is invalid: x_1 >= 1 fails at the empty matching
                 "rows": "h 7 2\n1 0 0 0 0 0 0 <= 1\n-1 0 0 0 0 0 0 <= -1\n",
                 "short_rows": "h 2 1\n1 1 <= 1\n"}
        for name, text in texts.items():
            with open(paths[name], "w") as fh:
                fh.write(text)
        return paths

    @pytest.mark.parametrize("argv,code", [
        (["enumerate"], 0), (["hrep"], 0), (["hrep", "--tsv"], 0),
        (["family", "--certify"], 0), (["family", "--tsv"], 0),
        (["classify", "--ineq", "{rows}"], 0), (["msi", "--dominance"], 0),
        (["solve", "--no-meta", "--oracle-check"], 0),
        (["solve", "--no-meta", "--no-family-cuts", "--no-msi", "--node-limit", "1"], 1),
        (["verify", "--ineq", "{rows}"], 1), (["export"], 0),
    ], ids=["enumerate", "hrep", "hrep-tsv", "family-certify", "family-tsv", "classify", "msi",
            "solve", "solve-node-limit", "verify-invalid-row", "export"])
    def test_output_file_gets_the_stdout_bytes(self, argv, code, files, capsys):
        argv = [a.format(**files) for a in argv] + ["-g", files["c7.g"]]
        got, out, err = invoke(argv, capsys)
        assert (got, err) == (code, "") and out
        assert invoke(argv + ["-o", files["out"]], capsys) == (code, "", "")
        with open(files["out"], "rb") as fh:
            assert fh.read() == out.encode()

    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_bad_graph_is_reported_before_a_missing_ineq(self, command, tmp_path, capsys):
        text = "p 2 1\ne 1 3\n"
        with pytest.raises(GraphError) as exc:
            parse_graph(text)
        graph = tmp_path / "bad.g"
        graph.write_text(text)
        code, out, err = invoke([command, "-g", str(graph),
                                 "--ineq", str(tmp_path / "missing.ineq")], capsys)
        assert (code, out, err) == (1, "", f"error: {exc.value}\n")

    @pytest.mark.parametrize("argv", [
        *([command, "--limit", "6"] for command in ("enumerate", "hrep", "family", "msi",
                                                  "solve", "export")),
        ["classify", "--ineq", "{rows}", "--limit", "6"],
        ["verify", "--ineq", "{rows}", "--limit", "6"],
        ["enumerate", "--count-limit", "1"], ["hrep", "--count-limit", "1"],
        ["export", "--count-limit", "1"], ["verify", "--ineq", "{rows}", "--count-limit", "1"],
        ["solve", "--oracle-check", "--count-limit", "1"], ["solve", "--node-limit", "0"],
        ["msi", "--max-separator", "-1"], ["classify", "--ineq", "{short_rows}"],
    ], ids=lambda argv: "-".join(a.strip("-{}") for a in argv))
    def test_failing_command_writes_no_file(self, argv, files, capsys):
        argv = [a.format(**files) for a in argv] + ["-g", files["c7.g"], "-o", files["out"]]
        code, out, err = invoke(argv, capsys)
        assert code == 1 and out == "" and err.startswith("error:")
        assert not os.path.exists(files["out"])


def run_cli_process(*argv):
    """`python -m cmpoly.cli argv` in a child that imports this cmpoly."""
    src = os.path.dirname(os.path.dirname(cmpoly.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "cmpoly.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class TestUsage:
    def test_unknown_command_exits_two(self):
        proc = run_cli_process("frobnicate")
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_missing_graph_flag_exits_two(self):
        proc = run_cli_process("hrep")
        assert proc.returncode == 2

    def test_limit_guard(self, capsys, tmp_path):
        big = generate("complete:8")
        path = tmp_path / "k8.g"
        path.write_text(format_graph(big))
        code, _, err = invoke(["hrep", "-g", str(path)], capsys)
        assert code == 1 and "limit" in err
