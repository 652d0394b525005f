"""Byte-for-byte golden outputs of the CLI.

tests/golden/RUNS lists every golden run once, as `<file> <arguments>`, with
the reason for each and the recipe that regenerates them.  Each line runs
here in-process through `cli.run`, from tests/golden.
"""

from pathlib import Path

import pytest

from cmpoly.cli import run

GOLDEN = Path(__file__).parent / "golden"


def _runs():
    """The `(file, argv)` pairs of RUNS, split as the shell loop splits them."""
    for line in (GOLDEN / "RUNS").read_text().splitlines():
        words = line.split()
        if words and not words[0].startswith("#"):
            yield words[0], words[1:]


RUNS = list(_runs())


@pytest.mark.parametrize("golden,argv", RUNS, ids=[file for file, _ in RUNS])
def test_golden(golden, argv, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_every_golden_has_one_run():
    files = [file for file, _ in RUNS]
    outputs = sorted(p.name for p in GOLDEN.iterdir() if p.suffix in (".txt", ".tsv"))
    assert sorted(f for f in files if f.endswith((".txt", ".tsv"))) == outputs
    assert [f for f in files if not (GOLDEN / f).is_file()] == []
