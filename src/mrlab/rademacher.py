"""Rademacher averages, the resolvent-family operator on them, and the
R-bound blow-up experiments.

A finite Rademacher sum sum_k r_k x_k is stored as a stack of term
vectors.  Its L_2 norm is the root mean square of |sum_k eps_k x_k| over
sign patterns: enumerated for up to EXACT_TERM_LIMIT terms, sampled
beyond, both streamed in fixed row blocks; or read off one plain sum when
the supports are pairwise disjoint (flipping signs of disjointly supported
vectors never changes the norm of the sum).  Mirrored sign patterns give
the same norm, so the sampler pins the first sign and each draw accounts
for its mirror image.

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

import numpy as np

from .blockspace import (
    BlockLayout,
    combination_norms,
    mixed_norm,
    sign_patterns,
    triangular_end,
    triangular_indices_1mod4,
)
from .errors import ParameterError, StructuralError
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
    sign averages run in the terms' own dtype.
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


@dataclass(frozen=True)
class SampledNorm:
    value: float
    stderr: float
    samples: int


def rad_norm(s: RadSum, mode: str = "exact", seed: int = 0, samples: int = 100_000):
    """L_2([0,1]; X) norm of the Rademacher sum.

    exact     sqrt(mean over all sign patterns of |sum eps_k x_k|^2)
    disjoint  |sum x_k| for pairwise disjoint supports
    sampled   Monte Carlo estimate, returned as SampledNorm(value, stderr)
    """
    if mode == "disjoint":
        if not s.supports_disjoint():
            raise StructuralError("terms overlap; disjoint mode needs disjoint supports")
        return float(mixed_norm(s.terms.sum(axis=0), s.p, s.layout))
    if mode == "exact":
        signs = sign_patterns(s.n_terms)
    elif mode == "sampled":
        if samples < 2:
            raise ParameterError("sampled mode needs at least 2 samples for a standard error")
        signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=(samples, s.n_terms))
        signs[:, 0] = 1.0
    else:
        raise ParameterError("mode must be 'exact', 'disjoint' or 'sampled'")
    sq = combination_norms(signs, s.terms, s.p, s.layout) ** 2
    value = math.sqrt(float(np.mean(sq)))
    if mode == "exact":
        return value
    se_mean = float(np.std(sq, ddof=1) / math.sqrt(samples))
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
    ks = np.asarray(sorted(set(int(k) for k in blocks)), dtype=np.int64)
    if np.any(ks < 7):
        raise ParameterError("target blocks start at 7")
    return p, holder_conjugate(p), ks


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

