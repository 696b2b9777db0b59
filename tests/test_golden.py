"""Byte-exact CLI and demo outputs against the recorded golden files.

The cases and their exit codes live in tests/golden/cases.json; the
stdout of each case in tests/golden/<case>.out, and the stdout of each
demo in tests/golden/demos/<demo>.out (re-record both with
tests/golden/record.py).  ``selftest`` is not covered: its lines carry
wall times.
"""

import json
import runpy
from pathlib import Path

import pytest

from mrlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
DEMOS = GOLDEN.parents[1] / "demos"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("MRLAB_SEED", raising=False)
    case = CASES[name]
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("demo", sorted(path.stem for path in DEMOS.glob("*.py")))
def test_demo_output_matches_golden(demo, capsys):
    runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / "demos" / f"{demo}.out").read_bytes()
