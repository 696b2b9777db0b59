"""Byte-exact CLI outputs against the recorded golden files.

The cases and their exit codes live in tests/golden/cases.json; the
stdout of each case in tests/golden/<case>.out (re-record with
tests/golden/record.py).  ``selftest`` is not covered: its lines carry
wall times.
"""

import json
from pathlib import Path

import pytest

from mrlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("MRLAB_SEED", raising=False)
    case = CASES[name]
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
