import os
import subprocess
import sys

import pytest

import cmpoly
from cmpoly.cli import run
from cmpoly.graph_core import format_graph, generate, parse_graph
from cmpoly.matchings import enumerate_cm_sets


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


def invoke(argv, capsys):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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

    @pytest.mark.parametrize("text", [
        "p 3 0\n",
        # two components and the isolated vertex 6
        "p 6 3\ne 1 2\ne 2 3\ne 4 5\n",
        "p 5 4\n"
        "e 1 2 w 123456789012345678901234567891/987654321098765432109876543211\n"
        "e 2 3 w 314159265358979323846264338327/271828182845904523536028747135\n"
        "e 3 4 w 161803398874989484820458683436/141421356237309504880168872420\n"
        "e 4 5 w -577215664901532860606512090082/299792458000000000000000000001\n",
    ], ids=["no-edges", "disconnected-isolated", "huge-weights"])
    def test_degenerate_input_matches_oracle(self, text, tmp_path, capsys):
        path = tmp_path / "g.g"
        path.write_text(text)
        code, out, _ = invoke(["solve", "-g", str(path), "--oracle-check",
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
