"""Rademacher averages, the resolvent-family operator on them, and the
R-bound blow-up experiments.

A finite Rademacher sum sum_k r_k x_k is stored as a stack of term
vectors.  Its L_2 norm is the root mean square of |sum_k eps_k x_k| over
sign patterns: enumerated or sampled, or read off one plain sum when the
supports are pairwise disjoint (flipping signs of disjointly supported
vectors never changes the norm of the sum).  For up to EXACT_TERM_LIMIT
terms the half ``sign_patterns(k)`` of the patterns is normed once, in
fixed row blocks, and both modes read their squares from that table.  The
sampler draws a row block at a time; past the limit, or with fewer draws
than patterns, it norms the draws themselves.  It pins the first sign, so
each draw accounts for its negative.

The blow-up experiments drive the family {q R(q, A) : q < 0} with input
sums supported on the reserved even coordinates (one per block, so the
input norm is an exact ell_p norm), concentrate the profile on one target
block with the Holder-extremal weights, and track the coupled-coordinate
output mass block by block.  Those block values have closed forms
(``sequences.block_target_sums``), which is what makes truncations of
10^6 blocks affordable; materialized small truncations cross-check them
in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blockspace import (
    EXACT_TERM_LIMIT,
    BlockLayout,
    SignDraws,
    block_rows,
    combination_norms,
    mixed_norm,
    sign_patterns,
    triangular_end,
    triangular_indices_1mod4,
)
from .errors import InvariantViolation, ParameterError, StructuralError
from .multiplier import TwistedMultiplier, scaled_resolvent_values
from .sequences import (
    MultiplierSeq,
    block_target_counts,
    block_target_sums,
    holder_conjugate,
    ratio_family,
)
from .twistbasis import first_even_in_shifted_block

__all__ = [
    "RadSum",
    "SampledNorm",
    "rad_norm",
    "associated_operator",
    "pair_resolvent_coeffs",
    "BlowupSeries",
    "blowup_series",
    "blowup_witness",
]


@dataclass(frozen=True)
class RadSum:
    """Finite Rademacher sum: row k of ``terms`` multiplies the k-th sign.

    Real terms are kept as float64 and complex ones as complex128, so the
    sign averages run in the terms' own dtype.  ``pattern_squares`` is
    formed on first use and kept, so the exact and sampled norms of one sum
    share it; terms already in that dtype are not copied, so change them
    only through a new sum.
    """

    terms: np.ndarray
    layout: BlockLayout
    p: float

    def __post_init__(self):
        t = np.atleast_2d(self.terms)
        t = t.astype(np.complex128 if np.iscomplexobj(t) else np.float64, copy=False)
        if t.shape[0] == 0:
            raise ParameterError("a Rademacher sum needs at least one term")
        if t.shape[1] != self.layout.dim:
            raise StructuralError("term length does not match the layout")
        object.__setattr__(self, "terms", t)

    @property
    def n_terms(self) -> int:
        return int(self.terms.shape[0])

    def supports_disjoint(self) -> bool:
        return bool(((np.abs(self.terms) > 0.0).sum(axis=0) <= 1).all())

    @cached_property
    def pattern_squares(self) -> np.ndarray:
        """Squared mixed norms of the sums over ``sign_patterns(k)``, row r
        for row r.  Raises ParameterError past EXACT_TERM_LIMIT terms."""
        return combination_norms(sign_patterns(self.n_terms), lambda w: w @ self.terms,
                                 self.p, self.layout) ** 2

    def sampled_violation(self, sampled, exact, samples, sigmas):
        """The InvariantViolation if ``sampled`` strays more than ``sigmas`` standard
        errors from ``exact``, else None.  The error is the pattern table's, not the
        sample's: a few draws may all land on one pattern and read 0."""
        se = float(np.std(self.pattern_squares)) / math.sqrt(samples)
        bound = sigmas * max(se / (2.0 * exact) if exact > 0.0 else se, 1e-15)
        if abs(sampled - exact) <= bound:
            return None
        return InvariantViolation(
            f"sampled norm strays more than {sigmas:g} standard errors from the exact norm: "
            f"sampled {sampled:.17g}, exact {exact:.17g}, {sigmas:g} standard errors {bound:.17g}")


@dataclass(frozen=True)
class SampledNorm:
    value: float
    stderr: float
    samples: int


def rad_norm(s: RadSum, mode: str = "exact", seed: int = 0, samples: int = 100_000):
    """L_2([0,1]; X) norm of the Rademacher sum.

    exact     sqrt(mean over all 2^k sign patterns of |sum eps_k x_k|^2)
    disjoint  |sum x_k| for pairwise disjoint supports
    sampled   Monte Carlo estimate, returned as SampledNorm(value, stderr)

    Up to EXACT_TERM_LIMIT terms the exact mode reads its squares from
    ``s.pattern_squares``, its mean still over all 2^k squares in pattern
    order (pattern c sets sign i to +1 where bit i of c is set).  The
    sampled mode reads its signs a row block at a time from the raw stream
    of one generator through ``SignDraws``: the draws of a single
    ``integers(0, 2)`` call, bit for bit, with draw 1 for sign +1.  It holds
    one row block plus a square of 8 bytes a sample, whose spread it takes
    in place.  Each draw reads its pattern's square from the table, by the
    pattern number ``SignDraws.patterns`` packs from its draws, when the
    table is already built or there are at least 2^(k-1) draws; otherwise,
    and past the limit, the draws are normed a row block at a time, with
    the same bits.
    """
    if mode == "disjoint":
        if not s.supports_disjoint():
            raise StructuralError("terms overlap; disjoint mode needs disjoint supports")
        return float(mixed_norm(s.terms.sum(axis=0), s.p, s.layout))
    k = s.n_terms
    if mode == "exact":
        table = s.pattern_squares
        # pattern 2r is the negative of row r, pattern 2r + 1 is row 2^(k-1) - 1 - r
        sq = np.column_stack((table, table[::-1])).ravel()
        return math.sqrt(float(np.mean(sq)))
    if mode != "sampled":
        raise ParameterError("mode must be 'exact', 'disjoint' or 'sampled'")
    if samples < 2:
        raise ParameterError("sampled mode needs at least 2 samples for a standard error")
    # a table of 2^(k-1) squares pays off once there are as many draws, or once
    # the exact mode has built it
    table = k <= EXACT_TERM_LIMIT and ("pattern_squares" in vars(s) or samples >= 2 ** (k - 1))
    if table:
        squares = s.pattern_squares[::-1]
    rows = block_rows(k if table else s.layout.dim)
    draws = SignDraws(np.random.default_rng(seed))
    sq = np.empty(samples)
    for i in range(0, samples, rows):
        m = min(rows, samples - i)
        if table:
            # first sign pinned to +1: row r of the reversed table, r the draws past it
            sq[i:i + m] = squares[draws.patterns(m, k)]
        else:
            signs = draws.signs(m, k)
            signs[:, 0] = 1.0
            sq[i:i + m] = combination_norms(signs, lambda w: w @ s.terms, s.p, s.layout) ** 2
    mean = np.mean(sq, keepdims=True)
    value = math.sqrt(float(mean[0]))
    sq -= mean      # np.std(sq, ddof=1), step for step, in place of the squares
    sq *= sq
    se_mean = math.sqrt(float(sq.sum()) / (samples - 1)) / math.sqrt(samples)
    stderr = se_mean / (2.0 * value) if value > 0.0 else se_mean
    return SampledNorm(value=value, stderr=stderr, samples=samples)


# -- the q R(q, A) family ----------------------------------------------------


def associated_operator(op: TwistedMultiplier, log2_q, s: RadSum) -> RadSum:
    """Map sum r_k x_k to sum r_k q_k R(q_k, A) x_k, q_k = -2^log2_q[k].

    One symbol row per term, applied to the stacked terms at once.
    """
    if s.layout.dim != op.layout.dim:
        raise ParameterError("sum layout does not match the operator")
    lq = np.asarray(log2_q, dtype=np.float64).ravel()
    if lq.size != s.n_terms:
        raise ParameterError("need one q per term")
    g = scaled_resolvent_values(op.seq.log2[: op.structure.needed], lq[:, None])
    return RadSum(op._multiply(g, s.terms), s.layout, s.p)


def pair_resolvent_coeffs(seq: MultiplierSeq, log2_q, even_indices):
    """Coefficients produced by q R(q, A) on a reserved even coordinate.

    For a term supported at the coordinate coupled to the even position m,
    the output keeps the coordinate with weight q/(q - gamma_m) and leaks
    onto the odd neighbour with weight q [(q - gamma_m)^{-1} -
    (q - gamma_{m-1})^{-1}]; both are returned (kept, leaked).
    """
    m = np.asarray(even_indices, dtype=np.int64)
    if np.any(m % 2):
        raise ParameterError("pair coefficients are indexed by even positions")
    lq = np.asarray(log2_q, dtype=np.float64)
    kept = scaled_resolvent_values(seq.log2_at(m), lq)
    return kept, kept - scaled_resolvent_values(seq.log2_at(m - 1), lq)


# -- blow-up experiments -------------------------------------------------------

CONSTRUCTIONS = ("lacunary", "power", "powerlog")


@dataclass(frozen=True)
class BlowupSeries:
    p: float
    alpha: float | None
    ks: np.ndarray
    lower: np.ndarray          # running max of the leaked block values
    slope: float               # log-log fit over the reported points


def _blowup_args(construction, p, blocks, alpha):
    """Checks shared by both blow-up entry points; returns p, q and the blocks."""
    if construction not in CONSTRUCTIONS:
        raise ParameterError(f"construction must be one of {CONSTRUCTIONS}")
    if construction != "lacunary" and alpha is None:
        raise ParameterError("power families need alpha")
    p = float(p)
    if p <= 2.0:
        raise ParameterError("the blow-up experiments live at p > 2")
    ks = sorted(set(int(k) for k in blocks))   # compared as Python integers, however large
    if ks[0] < 7:
        raise ParameterError("target blocks start at 7")
    return p, holder_conjugate(p), np.asarray(ks, dtype=np.int64)


def blowup_series(construction: str, p, alpha=None,
                  block_counts=(100, 1000, 10000)) -> BlowupSeries:
    """Leaked-mass lower bounds L_k over nested block truncations.

    Divergence of L_k is the finite-truncation reading of the failure of
    uniform R-boundedness; bounded L_k with vanishing increments is the
    reading of the positive case.  Blocks below 7 are skipped: there the
    reserved even coordinate of a pair can land inside the target block.
    """
    p, q, ks = _blowup_args(construction, p, block_counts, alpha)
    kmax = int(ks.max())
    if construction == "lacunary":
        # q_m = -gamma_{4m+2} leaks exactly 1/6 on every pair
        leak = np.power(block_target_counts(kmax)[0], 1.0 / q) / 6.0
    else:
        ratios = ratio_family(construction, alpha, kmax + 1)
        leak = np.power(block_target_sums(ratios, lambda c: np.abs(c) ** q, kmax), 1.0 / q)
    leak[:6] = 0.0
    lower = np.maximum.accumulate(leak)[ks - 1]
    logs = np.log(lower[lower > 0.0])
    logk = np.log(ks[lower > 0.0].astype(float))
    slope = float(np.polyfit(logk, logs, 1)[0]) if logs.size >= 2 else float("nan")
    return BlowupSeries(p=p, alpha=alpha, ks=ks, lower=lower, slope=slope)


def blowup_witness(construction: str, k: int, p, alpha=None, bound: float = 0.125):
    """Materialize the extremal witness for target block k.

    Returns (rsum, log2_q, op, expected): q_k = -2^log2_q[k] drives term
    k, and expected is the closed-form norm of the mapped sum (the leaked
    block value combined with the kept halves).  Small k only; the layout
    must hold the reserved coordinates.
    """
    p, q, _ = _blowup_args(construction, p, [k], alpha)
    targets = triangular_indices_1mod4(k)
    ms = (targets - 1) // 4
    reserved = first_even_in_shifted_block(ms)
    op = TwistedMultiplier.covering(max(int(reserved.max()), triangular_end(k)),
                                    construction, alpha, bound)
    layout, seq = op.layout, op.seq
    if construction == "lacunary":
        leak = np.full(targets.size, 1.0 / 6.0)
        profile = np.full(targets.size, targets.size ** (-1.0 / p))
    else:
        ratios = ratio_family(construction, alpha, k + 2, bound=bound)
        leak = np.asarray(ratios.value_at(targets + 1), dtype=np.float64)
        profile = np.power(leak, q / p)
        profile /= np.power(np.power(profile, p).sum(), 1.0 / p)
    terms = np.zeros((targets.size, layout.dim))
    terms[np.arange(targets.size), reserved - 1] = profile
    rsum = RadSum(terms, layout, p)
    leak_norm = float(np.power(np.power(np.abs(profile * leak), 2).sum(), 0.5))
    expected = (leak_norm ** p + (0.5 ** p) * np.power(np.abs(profile), p).sum()) ** (1.0 / p)
    return rsum, seq.log2_at(4 * ms + 2), op, expected

