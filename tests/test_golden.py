"""Byte-exact CLI and demo outputs against the recorded golden files.

The cases and their exit codes live in tests/golden/cases.json; the
stdout of each case in tests/golden/<case>.out, and the stdout of each
demo in tests/golden/demos/<demo>.out (re-record both with
tests/golden/record.py).  Each case also replays from the config record
its output echoes.  ``selftest`` is not covered:
its lines carry wall times.
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_replays_from_its_own_config(name, tmp_path, capsys, monkeypatch):
    # the # config header of a CSV table, or meta.config of a JSON report, fed
    # back through --config gives the same bytes
    monkeypatch.delenv("MRLAB_SEED", raising=False)
    case = CASES[name]
    golden = (GOLDEN / f"{name}.out").read_bytes()
    text = golden.decode("utf-8")
    if text.startswith("{"):
        config = json.loads(text)["meta"]["config"]
    else:
        header = next(line for line in text.splitlines() if line.startswith("# config "))
        config = json.loads(header[len("# config "):])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main([config["command"], "--config", str(path)])
    assert code == case["exit"]
    assert capsys.readouterr().out.encode("utf-8") == golden


@pytest.mark.parametrize("demo", sorted(path.stem for path in DEMOS.glob("*.py")))
def test_demo_output_matches_golden(demo, capsys):
    runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / "demos" / f"{demo}.out").read_bytes()
