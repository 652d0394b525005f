"""Byte-for-byte golden outputs of the CLI with `--no-meta`.

The files in tests/golden/ were generated from the repository root with:

    cd tests/golden
    for n in j26 cycle:7 path:7 cube:3 cycle:10; do
        f=$(echo $n | tr -d :)
        cmpoly gen --name $n -o $f.g
        cmpoly hrep -g $f.g --no-meta -o hrep_$f.txt
    done
    cmpoly classify -g j26.g --ineq hrep_j26.txt --no-meta -o classify_j26.txt
    cmpoly verify -g j26.g --ineq hrep_j26.txt --no-meta -o verify_j26.txt
    cmpoly solve -g cycle8w.g --no-meta -o solve_cycle8w.txt
    cmpoly solve -g cycle8w.g --no-meta --no-family-cuts -o solve_cycle8w_nofam.txt
    cmpoly solve -g cycle20w1.g --no-meta --no-family-cuts -o solve_cycle20w1_nofam.txt
    cmpoly solve -g cycle20w1.g --no-meta -o solve_cycle20w1.txt
    for f in j26 cube3 mixed8; do
        cmpoly family -g $f.g --certify --no-meta -o family_$f.txt
    done
    cmpoly family -g mixed8.g --no-meta -o family_mixed8_plain.txt
    cmpoly family -g mixed8.g --tsv --no-meta -o family_mixed8.tsv
    cmpoly family -g j26.g --tsv --certify --no-meta -o family_j26.tsv
    cmpoly gen --name cycle:24 -o cycle24.g
    cmpoly family -g cycle24.g --certify --limit 24 --no-meta -o family_cycle24.txt
    cmpoly enumerate -g cycle24.g --limit 24 --no-meta -o enumerate_cycle24.txt
    cmpoly msi -g j26.g --dominance --no-meta -o msi_j26.txt
    cmpoly msi -g cycle7.g --max-separator 2 --no-meta -o msi_cycle7.txt

hrep_cycle10.txt (235 facets) is the largest hull here, so its double
description keeps the most rays per step.  cycle8w.g is a hand-written
weighted 8-cycle whose best matching {1,5} is disconnected, so the solver
has to connect it.  cycle20w1.g is cycle:20 with the weights of perfbench's
`spread_weights(random.Random("x-cycle:20-1"), g)` written out; without
family rows its solve visits 21 nodes and adds 611 MSI and 9 lazy cuts, so the
last LPs have 640 rows; with family rows it solves at the root in 34 pivots.
family_cycle24.txt holds the 120 valid pairs of cycle:24, whose validity
searches are the deepest here, and enumerate_cycle24.txt its 267 connected
matchings, out of 103,682 matchings.  mixed8.g is a hand-written 8-vertex graph
whose family has a facet-certified row, rows that are not, and a row with
an empty lambda set.  A change to any of these outputs is a change to what
cmpoly proves; regenerate them only on purpose.
"""

from pathlib import Path

import pytest

from cmpoly.cli import run

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (["hrep", "-g", "j26.g"], "hrep_j26.txt"),
    (["hrep", "-g", "cycle7.g"], "hrep_cycle7.txt"),
    (["hrep", "-g", "path7.g"], "hrep_path7.txt"),
    (["hrep", "-g", "cube3.g"], "hrep_cube3.txt"),
    (["hrep", "-g", "cycle10.g"], "hrep_cycle10.txt"),
    (["classify", "-g", "j26.g", "--ineq", "hrep_j26.txt"], "classify_j26.txt"),
    (["verify", "-g", "j26.g", "--ineq", "hrep_j26.txt"], "verify_j26.txt"),
    (["solve", "-g", "cycle8w.g"], "solve_cycle8w.txt"),
    (["solve", "-g", "cycle8w.g", "--no-family-cuts"], "solve_cycle8w_nofam.txt"),
    (["solve", "-g", "cycle20w1.g", "--no-family-cuts"], "solve_cycle20w1_nofam.txt"),
    (["solve", "-g", "cycle20w1.g"], "solve_cycle20w1.txt"),
    (["family", "-g", "j26.g", "--certify"], "family_j26.txt"),
    (["family", "-g", "cube3.g", "--certify"], "family_cube3.txt"),
    (["family", "-g", "mixed8.g", "--certify"], "family_mixed8.txt"),
    (["family", "-g", "mixed8.g"], "family_mixed8_plain.txt"),
    (["family", "-g", "mixed8.g", "--tsv"], "family_mixed8.tsv"),
    (["family", "-g", "j26.g", "--tsv", "--certify"], "family_j26.tsv"),
    (["family", "-g", "cycle24.g", "--certify", "--limit", "24"], "family_cycle24.txt"),
    (["enumerate", "-g", "cycle24.g", "--limit", "24"], "enumerate_cycle24.txt"),
    (["msi", "-g", "j26.g", "--dominance"], "msi_j26.txt"),
    (["msi", "-g", "cycle7.g", "--max-separator", "2"], "msi_cycle7.txt"),
]


@pytest.mark.parametrize("argv,golden", CASES, ids=[c[1] for c in CASES])
def test_golden(argv, golden, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = run(argv + ["--no-meta"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()
