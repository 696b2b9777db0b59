"""Which mrlab modules a fresh process loads.

Importing the package, or mrlab.cli to parse a command line, loads no layer
module; a subcommand loads the layers it runs and what they import.  Each
case runs in a fresh interpreter, as every ``mrlab`` call does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BASE = {"mrlab", "mrlab.cli", "mrlab.errors"}
# each layer and the layers it imports
MULTIPLIER = {"multiplier", "blockspace", "sequences", "twistbasis"}
CERTIFY = {"certify", "blockspace", "sequences", "twistbasis"}
LOADS = {
    ("--version",): set(),
    ("--help",): set(),
    ("gen-gamma", "--n", "5"): {"sequences", "blockspace"},
    ("pi-table", "--n", "10"): {"twistbasis", "blockspace"},
    ("uncond-constant", "--n", "6"): {"twistbasis", "blockspace"},
    ("semigroup-check", "--n", "20"): MULTIPLIER,
    ("bv-bound", "--n", "50"): MULTIPLIER,
    ("bip-check", "--pairs", "20"): MULTIPLIER,
    ("sector-probe", "--n", "10", "--radii", "1"): MULTIPLIER,
    ("rad-norm", "--k", "3", "--blocks", "2", "--samples", "10"): MULTIPLIER | {"rademacher"},
    ("rbound-blowup", "--blocks", "10,20"): MULTIPLIER | {"rademacher"},
    ("diag-norm",): CERTIFY,
    ("interval-certify", "--left", "1.5", "--right", "3"): CERTIFY,
    ("dissipativity",): CERTIFY,
    ("selftest", "--only", "1"): MULTIPLIER | CERTIFY | {"rademacher", "acceptance"},
}
# every public name of the package, by its layer
EXPORTS = {
    "blockspace": ["BlockLayout", "bv_norm", "mixed_norm"],
    "certify": ["DiagonalNorm", "DissipativityWitness", "IntervalSpec", "MRPlan",
                "diagonal_norm", "dissipativity_norm_onset", "dissipativity_norm_sq",
                "dissipativity_witness", "mr_predicate", "plan_interval"],
    "errors": ["InvariantViolation", "LabError", "ParameterError", "SequenceOverflowError",
               "SingularityError", "StructuralError"],
    "multiplier": ["PositivityReport", "SectorialityReport", "TwistedMultiplier",
                   "bip_pair_ratios", "bv_semigroup_bound", "opnorm_lower", "positivity_check",
                   "sectoriality_probe"],
    "rademacher": ["RadSum", "associated_operator", "blowup_series", "blowup_witness",
                   "rad_norm"],
    "sequences": ["MultiplierSeq", "RatioSeq", "constant_ratios", "family_ratios", "family_seq",
                  "geometric_ratios", "holder_conjugate", "alpha_for_right_endpoint",
                  "block_qsup_partials", "ratio_family", "seq_from_ratios", "twisted_lacunary"],
    "twistbasis": ["EVEN_TWIST", "ODD_TWIST", "PLAIN", "TwistPermutation", "build_permutation",
                   "twisted_analysis", "twisted_synthesis", "unconditional_constant"],
}
MAIN = """\
import sys
from mrlab.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "mrlab"), file=sys.stderr)
"""


def fresh(code, *argv):
    """Run code in a fresh interpreter that imports mrlab from src; its stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MRLAB_SEED", None)
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stderr


@pytest.mark.parametrize("argv", list(LOADS), ids=" ".join)
def test_a_call_loads_only_the_layers_it_runs(argv):
    code, *modules = fresh(MAIN, *argv).split()
    assert code == "0"
    assert set(modules) == BASE | {f"mrlab.{layer}" for layer in LOADS[argv]}


def test_every_public_name_loads_its_layer_on_first_use():
    names = [name for layer in EXPORTS.values() for name in layer]
    code = f"""\
import importlib, sys
import mrlab
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "mrlab")
assert loaded == ["mrlab"], loaded
assert sorted(mrlab.__all__) == sorted(["__version__", *{names!r}])
# a layer read off the package loads that layer and what it imports
assert mrlab.sequences.__name__ == "mrlab.sequences"
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "mrlab")
assert loaded == ["mrlab", "mrlab.blockspace", "mrlab.errors", "mrlab.sequences"], loaded
assert mrlab.acceptance is importlib.import_module("mrlab.acceptance")
for layer, names in {EXPORTS!r}.items():
    module = importlib.import_module("mrlab." + layer)
    for name in names:
        assert getattr(mrlab, name) is getattr(module, name), name
from mrlab import BlockLayout, twisted_lacunary
import mrlab.cli
assert mrlab.cli.positivity_check is mrlab.multiplier.positivity_check
for owner in (mrlab, mrlab.cli):
    assert not hasattr(owner, "no_such_name")
    try:
        owner.scan_times   # a layer's name the package does not export
    except AttributeError as exc:
        print(exc, file=sys.stderr)
"""
    assert fresh(code).splitlines() == [
        "module 'mrlab' has no attribute 'scan_times'",
        "module 'mrlab.cli' has no attribute 'scan_times'"]
