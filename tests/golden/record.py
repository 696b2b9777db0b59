"""Record the golden CLI outputs that tests/test_golden.py compares against.

    PYTHONPATH=src python3 tests/golden/record.py

Each case in cases.json is run in-process with MRLAB_SEED unset; stdout
goes to <case>.out and the exit code back into cases.json.  Re-record
only when an output change is intended, and say why in the change
description.
"""

import contextlib
import io
import json
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASES = HERE / "cases.json"


def load_cases():
    return json.loads(CASES.read_text())


def run_case(argv):
    """(exit code, stdout) of one in-process CLI call."""
    from mrlab.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def main():
    os.environ.pop("MRLAB_SEED", None)
    cases = load_cases()
    for name, case in cases.items():
        case["exit"], out = run_case(case["argv"])
        (HERE / f"{name}.out").write_bytes(out.encode("utf-8"))
    lines = [f"  {json.dumps(name)}: {json.dumps(case)}" for name, case in cases.items()]
    CASES.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
