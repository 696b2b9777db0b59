"""Reachability audit: the functions under src/mrlab that no program path calls.

    PYTHONPATH=src python tests/reachability.py

The program paths are every golden CLI case (tests/golden/cases.json),
``mrlab selftest`` and every demo, each run in-process under
``sys.setprofile``.  A function that none of them calls must be on KEEP,
with the reason it stays.  The script exits 1 when an unreached function
is missing from KEEP, or when a KEEP entry names a function that no
longer exists or that a path now reaches.  pytest does not collect this
file: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mrlab"

# module.qualified name -> why it stays although no program path calls it
KEEP = {
    "cli.__getattr__":
        "mrlab.cli.<public name> as the package resolves it; perfbench/tests reads "
        "mrlab.cli.positivity_check, and tests/test_cold_start.py reaches it",
    "cli._Parser.error":
        "usage errors exit 1 with a flag suggestion; tests/test_cli.py reaches it",
    "cli._config_value":
        "reads --config entries; tests/test_cli.py reaches it",
    "cli._dtoa_digits":
        "Python's digits for a CSV float whose rounding the float64 arithmetic cannot "
        "decide (2^-25, 3 2^-24); no golden or demo writes one, and the edge table of "
        "tests/test_emit_oracle.py reaches it",
    "blockspace._scaled_block_norms":
        "rescales the blocks whose squares under- or overflow; since the sampled ascent "
        "norms little beyond its kept steps no golden meets such a block, and "
        "tests/test_blockspace.py, tests/test_block_norms_oracle.py and the "
        "extreme-scale ascent oracle reach it",
    "errors.SequenceOverflowError.__init__":
        "the overflow error a too-long sequence raises; tests reach it",
    "multiplier.TwistedMultiplier.adjoint_apply_symbols":
        "operator API: the adjoint the probe's ascents write in place; the ascent oracles "
        "in tests/test_batched_scans.py apply it",
    "multiplier.TwistedMultiplier.apply":
        "operator API: A v, in the property tests",
    "multiplier.TwistedMultiplier.resolvent":
        "operator API: the resolvent identity, in the property tests",
    "multiplier.TwistedMultiplier.semigroup":
        "operator API: T(s)T(t) = T(s+t), in the property tests",
    "multiplier.TwistedMultiplier.imaginary_power":
        "operator API: the imaginary-power group law, in the property tests",
    "multiplier.TwistedMultiplier.spectrum":
        "operator API: the eigenvalues of a truncation, in the property tests",
    "multiplier.opnorm_lower":
        "lower norm bound of the multiplier with symbol values g; BENCHMARK.json and "
        "perfbench name it, and the tests bound A^{it} and BV multipliers with it",
    "twistbasis._SupScreen.__init__":
        "the p = inf screen of the sampled ascent, which no golden runs; CI's "
        "`uncond-constant --n 3 --mode sampled --p inf` and the ascent oracles in "
        "tests/test_sign_average_oracle.py reach it",
    "twistbasis._SupScreen.contenders":
        "the p = inf screen of the sampled ascent (see _SupScreen.__init__)",
    "twistbasis._SupScreen.rest":
        "the p = inf screen of the sampled ascent (see _SupScreen.__init__)",
    "twistbasis._SupScreen.update":
        "the p = inf screen of the sampled ascent (see _SupScreen.__init__)",
    "twistbasis.twisted_synthesis":
        "operator API: the coordinate vector of twisted coefficients, a plain array in "
        "their dtype; the round-trip property tests and the coupling oracles reach it",
}


def defined_functions() -> dict:
    """{(file, first line of the code object): "module.qualname"} of every def."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                # a decorated function's code starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = f"{Path(path).stem}.{name}"
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), os.path.realpath(path), "")
    return found


def run_paths(called: set) -> None:
    """Run every program path with each Python call's code object added to ``called``."""
    from mrlab.cli import main

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    cases = json.loads((ROOT / "tests" / "golden" / "cases.json").read_text())
    paths = [(f"golden {name}", case["exit"], main, case["argv"])
             for name, case in cases.items()]
    paths.append(("selftest", 0, main, ["selftest"]))
    paths += [(f"demo {demo.name}", None, runpy.run_path, str(demo))
              for demo in sorted((ROOT / "demos").glob("*.py"))]
    os.environ.pop("MRLAB_SEED", None)
    for label, want, fn, arg in paths:
        sys.setprofile(record)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                got = fn(list(arg)) if fn is main else fn(arg, run_name="__main__")
        finally:
            sys.setprofile(None)
        if want is not None and got != want:
            raise SystemExit(f"{label} exited {got}, expected {want}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import mrlab

    if Path(mrlab.__file__).resolve().parent != SRC:
        raise SystemExit(f"imported mrlab from {mrlab.__file__}, not from {SRC}")
    defined = defined_functions()
    called = set()
    run_paths(called)
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in called}
    unreached = sorted(name for key, name in defined.items() if key not in reached)
    print(f"{len(defined)} functions in src/mrlab, {len(unreached)} reached by no path")
    errors = []
    for name in unreached:
        print(f"  {name}: {KEEP.get(name, 'NOT ON THE KEEP LIST')}")
        if name not in KEEP:
            errors.append(f"{name} is reached by no path and is not on the keep list")
    names = set(defined.values())
    for name in sorted(set(KEEP) - set(unreached)):
        errors.append(f"keep-list entry {name} "
                      + ("is reached by a path" if name in names else "names no function"))
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
