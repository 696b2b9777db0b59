"""mrlab: numerical experiments with Schauder multipliers on mixed-norm
sequence spaces, their semigroups, Rademacher averages, and the regularity
thresholds they realize."""

__version__ = "0.1.0"

from .blockspace import (
    BlockLayout,
    MixedVector,
    SpreadMap,
    block_qsup_norm,
    bv_norm,
    compress,
    mixed_norm,
    spread,
)
from .certify import (
    DiagonalNorm,
    DissipativityWitness,
    IntervalSpec,
    MRPlan,
    MRVerdict,
    diagonal_norm,
    dissipativity_norm_onset,
    dissipativity_norm_sq,
    dissipativity_witness,
    mr_predicate,
    plan_interval,
)
from .errors import (
    InvariantViolation,
    LabError,
    ParameterError,
    SequenceOverflowError,
    SingularityError,
    StructuralError,
)
from .multiplier import (
    PositivityReport,
    SectorialityReport,
    TwistedMultiplier,
    bip_pair_ratios,
    bv_semigroup_bound,
    opnorm_lower,
    positivity_check,
    sectoriality_probe,
)
from .rademacher import (
    Log2Negatives,
    RadSum,
    RBoundReport,
    associated_operator,
    blowup_series,
    blowup_witness,
    rad_norm,
    rbound_lower,
)
from .sequences import (
    MultiplierSeq,
    RatioSeq,
    constant_ratios,
    custom_ratios,
    custom_seq,
    family_ratios,
    family_seq,
    geometric_ratios,
    holder_conjugate,
    alpha_for_right_endpoint,
    block_qsup_partials,
    ratio_family,
    resolvent_gap_max,
    seq_from_ratios,
    twisted_lacunary,
)
from .twistbasis import (
    EVEN_TWIST,
    ODD_TWIST,
    PLAIN,
    TwistPermutation,
    build_permutation,
    twisted_analysis,
    twisted_synthesis,
    unconditional_constant,
)
