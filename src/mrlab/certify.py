"""Norm characterization, per-exponent regularity verdicts, and the
interval planner.

For p > 2 and 1/2 = 1/p + 1/q, the diagonal map a -> (a_m c_m) from ell_p
into the mixed-norm space has operator norm sup_k |c restricted to
block k|_q, attained by the Holder-equality profile a ~ c^{q/p} on the
best block.  Boundedness of those block values over all k is exactly the
regularity criterion for the multiplier built from the ratio sequence c,
which gives the two threshold families

    power      c ~ k^{-alpha}          regular iff p <= 2/(1 - 2 alpha)
    powerlog   c ~ k^{-alpha} log k    regular iff p <  2/(1 - 2 alpha)

and from these the planner realizes any prescribed interval around 2 as a
predicted regularity set: the right end through a family on the space
itself, the left end through the conjugate exponent (the dual semigroup
is never materialized; closedness of the left end mirrors through
conjugation), and the two factors intersect.  Threshold comparisons
evaluate (p - 2)/(2 p) - alpha with alpha produced by the same float
expression, so a grid point sitting exactly on a threshold decides
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blockspace import BlockLayout, MixedVector, triangular_bounds, triangular_indices_1mod4
from .errors import InvariantViolation, ParameterError
from .sequences import (
    GEOMETRIC,
    POWER,
    POWERLOG,
    CONSTANT,
    RatioSeq,
    alpha_for_right_endpoint,
    block_q_norms,
    block_qsup_partials,
    block_target_sums,
    family_ratios,
    holder_conjugate,
    seq_from_ratios,
)
from .twistbasis import first_even_in_shifted_block

__all__ = [
    "DiagonalNorm",
    "diagonal_norm",
    "MRVerdict",
    "mr_predicate",
    "IntervalSpec",
    "MRPlan",
    "plan_interval",
    "DissipativityWitness",
    "dissipativity_witness",
    "dissipativity_norm_sq",
    "dissipativity_norm_onset",
    "holder_gap",
]

TREND_TOL = 1e-6
_STAND_IN = 1.0 / 16.0   # the constant family's value where it stands in at 2;
                         # the plan leaves alpha None on constant and geometric sides


def holder_gap(p, alpha: float):
    """(p - 2)/(2 p) - alpha, elementwise; the sign decides block-norm boundedness."""
    return (p - 2.0) / (2.0 * p) - alpha


# -- diagonal norm -----------------------------------------------------------


@dataclass(frozen=True)
class DiagonalNorm:
    value: float
    block: int
    extremizer: MixedVector = field(repr=False)
    p: float
    q: float


def diagonal_norm(ratios: RatioSeq, p: float, n_blocks: int) -> DiagonalNorm:
    """Exact norm of a -> (a_m c_m) from ell_p into the mixed space.

    The value is the largest block ell_q norm of c; the returned
    extremizer is the unit ell_p profile on the winning block that attains
    it through Holder equality.
    """
    p = float(p)
    if p <= 2.0:
        raise ParameterError("the diagonal characterization needs p > 2")
    q = holder_conjugate(p)
    per_block = block_q_norms(ratios, q, n_blocks)
    best = int(np.argmax(per_block)) + 1
    layout = BlockLayout.triangular(n_blocks)
    lo, hi = layout.bounds(best)
    cvals = np.abs(np.asarray(ratios.value_at(np.arange(lo, hi + 1)), dtype=np.float64))
    profile = np.power(cvals / cvals.max(), q / p)
    profile /= np.power(np.power(profile, p).sum(), 1.0 / p)
    arr = np.zeros(layout.dim, dtype=np.complex128)
    arr[lo - 1: hi] = profile
    return DiagonalNorm(value=float(per_block[best - 1]), block=best,
                        extremizer=MixedVector(arr, layout), p=p, q=q)


# -- regularity predicate ----------------------------------------------------


@dataclass(frozen=True)
class MRVerdict:
    regular: bool
    p: float
    kind: str                       # "small-p", "threshold" or "trend"
    gap: float | None = None        # threshold exponent gap, families only
    trend_increase: float | None = None


def _validate_hypotheses(ratios: RatioSeq):
    vals = ratios.block_values if ratios.is_block_constant else ratios.dense_values
    if float(np.max(np.abs(vals))) >= 0.125:
        raise ParameterError("hypothesis violated: ratio values must stay below 1/8")
    if ratios.is_block_constant:
        return
    tail = np.asarray(vals, dtype=np.float64)
    half = tail[tail.size // 2:]
    if np.any(np.diff(half) > 0.0):
        raise ParameterError("hypothesis violated: ratio sequence is not "
                             "eventually decreasing over the stored range")


def _family_regular(kind: str, alpha, p):
    """The family's verdict above 2, elementwise in p."""
    if kind == POWER:
        return holder_gap(p, alpha) <= 0.0
    if kind == POWERLOG:
        return holder_gap(p, alpha) < 0.0
    if kind in (CONSTANT, GEOMETRIC):
        return np.full(np.shape(p), kind == GEOMETRIC)
    raise ParameterError(f"no analytic threshold for family {kind!r}")


def mr_predicate(ratios: RatioSeq, p: float) -> MRVerdict:
    """Regularity verdict for the multiplier generated by the ratio sequence.

    Exponents p <= 2 are always regular.  Above 2 the named families are
    decided analytically from the growth order of their block ell_q norms;
    custom sequences fall back to a trend test: bounded means the partial
    sups grow by less than 1e-6 over the last decade of stored blocks.
    """
    p = float(p)
    if not p > 1.0:
        raise ParameterError("exponents start above 1")
    _validate_hypotheses(ratios)
    if p <= 2.0:
        return MRVerdict(regular=True, p=p, kind="small-p")
    if ratios.family in (POWER, POWERLOG, CONSTANT, GEOMETRIC):
        gap = holder_gap(p, ratios.alpha) if ratios.alpha is not None else None
        return MRVerdict(regular=bool(_family_regular(ratios.family, ratios.alpha, p)),
                         p=p, kind="threshold", gap=gap)
    sups = block_qsup_partials(ratios, holder_conjugate(p))
    decade = max(1, sups.size // 10)
    increase = float(sups[-1] - sups[-decade])
    return MRVerdict(regular=bool(increase < TREND_TOL), p=p, kind="trend",
                     trend_increase=increase)


# -- interval planning -------------------------------------------------------


@dataclass(frozen=True)
class IntervalSpec:
    """Subinterval of (1, inf) that contains 2."""

    left: float
    right: float
    left_closed: bool
    right_closed: bool

    def __post_init__(self):
        if not (1.0 <= self.left < math.inf):
            raise ParameterError("left endpoint must lie in [1, inf)")
        if not (1.0 < self.right):
            raise ParameterError("right endpoint must exceed 1")
        if self.left == 1.0 and self.left_closed:
            raise ParameterError("1 is not an admissible exponent; open the left end")
        if self.right == math.inf and self.right_closed:
            raise ParameterError("inf cannot be a closed endpoint")
        if self.left > self.right:
            raise ParameterError("empty interval")
        if self.left == self.right and not (self.left == 2.0 and self.left_closed
                                            and self.right_closed):
            raise ParameterError("degenerate intervals must be [2, 2]")
        if not self.contains(2.0):
            raise ParameterError("the interval must contain 2")

    def contains(self, p):
        """Membership of p, elementwise."""
        left_ok = (p > self.left) | (self.left_closed & (p == self.left))
        right_ok = (p < self.right) | (self.right_closed & (p == self.right))
        return left_ok & right_ok

    def describe(self) -> str:
        lb = "[" if self.left_closed else "("
        rb = "]" if self.right_closed else ")"
        right = "inf" if self.right == math.inf else f"{self.right:g}"
        return f"{lb}{self.left:g}, {right}{rb}"


_DEFAULT_GRID = np.arange(21, 161, dtype=np.int64) / 20.0  # 1.05 .. 8.00


@dataclass(frozen=True)
class MRPlan:
    """Two ratio families whose combined verdicts trace out the interval."""

    interval: IntervalSpec
    right_kind: str
    right_alpha: float | None
    left_kind: str
    left_alpha: float | None
    left_dual_endpoint: float | None
    external_reference: bool
    notes: tuple
    grid: np.ndarray = field(repr=False)
    grid_predicted: np.ndarray = field(init=False, repr=False)   # predicted(p) on the grid
    grid_member: np.ndarray = field(init=False, repr=False)      # p in the interval

    def __post_init__(self):
        object.__setattr__(self, "grid_predicted", self.predicted(self.grid))
        object.__setattr__(self, "grid_member", self.interval.contains(self.grid))

    # the factors and their intersection hold elementwise in p
    def right_factor(self, p):
        return (p <= 2.0) | _family_regular(self.right_kind, self.right_alpha, p)

    def left_factor(self, p):
        return (p >= 2.0) | _family_regular(self.left_kind, self.left_alpha, p / (p - 1.0))

    def predicted(self, p):
        return self.right_factor(p) & self.left_factor(p)

    def right_ratios(self, n_blocks: int) -> RatioSeq:
        return family_ratios(self.right_kind, self.right_alpha or _STAND_IN, n_blocks)

    def left_ratios(self, n_blocks: int) -> RatioSeq:
        return family_ratios(self.left_kind, self.left_alpha or _STAND_IN, n_blocks)


def plan_interval(interval: IntervalSpec, grid=None) -> MRPlan:
    """Choose the two families whose regularity sets intersect to the interval.

    The construction is checked against interval membership on the grid at
    build time; a mismatch raises.
    """
    notes = ["left end handled by exponent conjugation; closedness mirrors "
             "through the conjugate (interpretation, not computed duality)"]
    external = False

    p0 = interval.right
    if p0 == math.inf:
        right_kind, right_alpha = GEOMETRIC, None
    elif p0 == 2.0:
        right_kind, right_alpha = CONSTANT, None
        external = True
        notes.append("right endpoint 2: constant family stands in for the "
                     "externally referenced construction")
    else:
        right_kind = POWER if interval.right_closed else POWERLOG
        right_alpha = alpha_for_right_endpoint(p0)

    l = interval.left
    if l == 1.0:
        left_kind, left_alpha, dual = GEOMETRIC, None, None
    elif l == 2.0:
        left_kind, left_alpha, dual = CONSTANT, None, 2.0
        external = True
        notes.append("left endpoint 2: constant family on the conjugate side")
    else:
        dual = l / (l - 1.0)
        left_kind = POWER if interval.left_closed else POWERLOG
        left_alpha = alpha_for_right_endpoint(dual)

    grid = _DEFAULT_GRID if grid is None else np.asarray(grid, dtype=np.float64)
    plan = MRPlan(interval=interval, right_kind=right_kind, right_alpha=right_alpha,
                  left_kind=left_kind, left_alpha=left_alpha,
                  left_dual_endpoint=dual, external_reference=external,
                  notes=tuple(notes), grid=grid)
    if not np.array_equal(plan.grid_predicted, plan.grid_member):
        bad = grid[plan.grid_predicted != plan.grid_member]
        raise InvariantViolation(
            f"planned set disagrees with {interval.describe()} at p = {bad[:5]}"
        )
    return plan


# -- dissipativity on the sup-block space -------------------------------------


@dataclass(frozen=True)
class DissipativityWitness:
    pairing: float
    closed_form: float
    x_norm_sq: float
    block: int
    n_terms: int


def dissipativity_witness(ratios: RatioSeq, k: int) -> DissipativityWitness:
    """Evaluate the pairing <Bx, x*> for the block-k witness vector.

    The witness puts (gamma_{m+1} - gamma_m)/(2 gamma_m) at the
    coordinates m = 1 mod 4 of block k and -1 at the even coordinates
    coupled to their successors; x* reads off the block-k part.  For
    blocks 7 and beyond the coupled coordinates leave the block and the
    pairing collapses to sum (gamma_{m+1} - gamma_m)^2 / (4 gamma_m) > 0;
    for smaller blocks the overlap terms are evaluated honestly.
    """
    lo, hi = triangular_bounds(k)
    elig = triangular_indices_1mod4(k)
    if not elig.size:
        raise ParameterError(f"block {k} has no coordinates congruent 1 mod 4")
    seq = seq_from_ratios(ratios, length=hi + 2)
    vals = seq.values_upto(hi + 2)

    partner = first_even_in_shifted_block((elig - 1) // 4)
    inside = ((lo <= partner) & (partner <= hi)).tolist()
    pairing = 0.0
    closed = 0.0
    x_norm_sq = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for m, overlap in zip(elig, inside):
            g_m, g_next = vals[m - 1], vals[m]
            x_m = (g_next - g_m) / (2.0 * g_m)
            pairing += -g_m * x_m * x_m + (g_next - g_m) * x_m
            closed += 0.25 * (g_next - g_m) ** 2 / g_m
            x_norm_sq += x_m * x_m
            if overlap:
                # small blocks only: the coupled coordinate stays inside and
                # contributes to both the pairing and the block norm
                pairing -= g_next
                x_norm_sq += 1.0
    if not (math.isfinite(pairing) and math.isfinite(closed)):
        raise ParameterError(f"the block-{k} pairing overflows float64; "
                             f"choose a smaller block")
    return DissipativityWitness(pairing=float(pairing), closed_form=float(closed),
                                x_norm_sq=float(x_norm_sq), block=k,
                                n_terms=len(elig))


def _dissipativity_masses(ratios: RatioSeq, k_max: int) -> np.ndarray:
    """Witness masses of blocks 1..k_max.  Target 4k - 7 is coupled to b_{k-2},
    the first even of block k; it lies in block k only for k = 3..6, which
    adds the one overlap entry there."""
    if k_max < 1:
        raise ParameterError("block numbers are 1-based")
    x_sq = block_target_sums(ratios, lambda c: (2.0 * c / (1.0 - 2.0 * c)) ** 2, k_max)
    return x_sq + np.isin(np.arange(1, k_max + 1), range(3, 7))


def dissipativity_norm_sq(ratios: RatioSeq, k: int) -> float:
    """Block-k witness mass sum |x_m|^2 from ratio data alone.

    x_m = (gamma_{m+1} - gamma_m)/(2 gamma_m) = 2 c_{m+1} / (1 - 2 c_{m+1}),
    so this runs far beyond the overflow horizon of the values themselves.
    Small-block overlap contributions (the -1 entries) are included.
    """
    return float(_dissipativity_masses(ratios, k)[-1])


def dissipativity_norm_onset(ratios: RatioSeq, k_max: int = 500):
    """Smallest k0 with witness mass above 1 for every k in [k0, k_max].

    Returns None when the mass still sits below 1 at the horizon.  (Blocks
    3 to 6 can spike above 1 through the overlap entries; the suffix scan
    ignores those blips.)
    """
    # entry k flags block k at or below 1; block 0 stands in when none is
    low = np.flatnonzero(np.append(True, _dissipativity_masses(ratios, k_max) <= 1.0))
    return None if low[-1] == k_max else int(low[-1]) + 1
