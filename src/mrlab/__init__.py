"""mrlab: numerical experiments with Schauder multipliers on mixed-norm
sequence spaces, their semigroups, Rademacher averages, and the regularity
thresholds they realize.

Each layer module, and each public name, loads its layer on first use
(PEP 562), so that importing the package, or ``mrlab.cli`` to parse a
command line, loads none."""

import sys

__version__ = "0.1.0"

# the module of each public name; mrlab.cli resolves the same names
_LAYER_OF = {name: module for module, names in {
    "blockspace": ("BlockLayout", "bv_norm", "mixed_norm"),
    "certify": ("DiagonalNorm", "DissipativityWitness", "IntervalSpec", "MRPlan",
                "diagonal_norm", "dissipativity_norm_onset", "dissipativity_norm_sq",
                "dissipativity_witness", "mr_predicate", "plan_interval"),
    "errors": ("InvariantViolation", "LabError", "ParameterError", "SequenceOverflowError",
               "SingularityError", "StructuralError"),
    "multiplier": ("PositivityReport", "SectorialityReport", "TwistedMultiplier",
                   "bip_pair_ratios", "bv_semigroup_bound", "opnorm_lower", "positivity_check",
                   "sectoriality_probe"),
    "rademacher": ("RadSum", "associated_operator", "blowup_series", "blowup_witness",
                   "rad_norm"),
    "sequences": ("MultiplierSeq", "RatioSeq", "constant_ratios", "family_ratios", "family_seq",
                  "geometric_ratios", "holder_conjugate", "alpha_for_right_endpoint",
                  "block_qsup_partials", "ratio_family", "seq_from_ratios",
                  "twisted_lacunary"),
    "twistbasis": ("EVEN_TWIST", "ODD_TWIST", "PLAIN", "TwistPermutation", "build_permutation",
                   "twisted_analysis", "twisted_synthesis", "unconditional_constant"),
}.items() for name in names}
__all__ = ["__version__", *_LAYER_OF]
# the modules read as attributes of the package, mrlab.certify say
_MODULES = {"acceptance", *_LAYER_OF.values()}


def _module(name):
    """The module mrlab.<name>, loaded on first use by the path of an import
    statement, which -X importtime reports (importlib.import_module's is not)."""
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def _public(namespace, name):
    """The public name ``name`` from its layer, for the module ``__getattr__``
    of the package and of ``mrlab.cli``, whose name is ``namespace``."""
    if name not in _LAYER_OF:
        raise AttributeError(f"module {namespace!r} has no attribute {name!r}")
    return getattr(_module(_LAYER_OF[name]), name)


def __getattr__(name):
    return _module(name) if name in _MODULES else _public(__name__, name)
