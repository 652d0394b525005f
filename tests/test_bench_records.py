"""Every performance record at the root of the repository, BENCH_<topic>.json,
parses as JSON and names the machine its numbers were measured on: the
Python version, the core count and the platform, which ROADMAP.md asks of
every performance record.
"""

import json
from pathlib import Path

import pytest

RECORDS = sorted((Path(__file__).resolve().parent.parent).glob("BENCH_*.json"))


def test_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_its_machine(path):
    machine = json.loads(path.read_text())["machine"]
    assert isinstance(machine["python"], str) and machine["python"]
    assert type(machine["nproc"]) is int and machine["nproc"] >= 1
    assert isinstance(machine["platform"], str) and machine["platform"]
