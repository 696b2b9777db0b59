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
from dataclasses import dataclass, field

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
from .multiplier import TwistedMultiplier
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
    "Log2Negatives",
    "associated_operator",
    "pair_resolvent_coeffs",
    "RBoundReport",
    "rbound_lower",
    "evaluate_rbound_witness",
    "BlowupSeries",
    "blowup_series",
    "blowup_witness",
]


@dataclass(frozen=True)
class RadSum:
    """Finite Rademacher sum: row k of ``terms`` multiplies the k-th sign."""

    terms: np.ndarray
    layout: BlockLayout
    p: float

    def __post_init__(self):
        t = np.atleast_2d(np.asarray(self.terms, dtype=np.complex128))
        if t.shape[0] == 0:
            raise ParameterError("a Rademacher sum needs at least one term")
        if t.shape[1] != self.layout.dim:
            raise StructuralError("term length does not match the layout")
        object.__setattr__(self, "terms", t)

    @classmethod
    def from_vectors(cls, vectors, p) -> "RadSum":
        vecs = list(vectors)
        if not vecs:
            raise ParameterError("a Rademacher sum needs at least one term")
        return cls(np.stack([v.coeffs for v in vecs]), vecs[0].layout, p)

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


@dataclass(frozen=True)
class Log2Negatives:
    """Negative reals q_k = -2^(log2_magnitudes[k]), exponent form."""

    log2_magnitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "log2_magnitudes",
                           np.asarray(self.log2_magnitudes, dtype=np.float64))

    def __len__(self):
        return int(self.log2_magnitudes.size)

    def log2_abs(self, k):
        return float(self.log2_magnitudes[k])


def _as_log2_negatives(qs, n_terms):
    if not isinstance(qs, Log2Negatives):
        arr = np.asarray(qs, dtype=np.float64).ravel()
        if np.any(arr >= 0.0):
            raise ParameterError("the resolvent family takes negative parameters")
        qs = Log2Negatives(np.log2(-arr))
    if len(qs) != n_terms:
        raise ParameterError("need one q per term")
    return qs


def scaled_resolvent_symbols(op: TwistedMultiplier, log2_q: float):
    """Diagonal and coupling entries of q R(q, A) for q = -2^log2_q.

    Written in ratio form 1 / (1 + gamma/|q|), so arbitrarily large
    exponents on either side stay finite.
    """
    with np.errstate(over="ignore"):
        r = np.exp2(op.seq.log2[: op.structure.needed] - log2_q)
    return op.symbols(1.0 / (1.0 + r))


def associated_operator(op: TwistedMultiplier, qs, s: RadSum) -> RadSum:
    """Map sum r_k x_k to sum r_k q_k R(q_k, A) x_k, term by term."""
    if s.layout.dim != op.layout.dim:
        raise ParameterError("sum layout does not match the operator")
    qlog = _as_log2_negatives(qs, s.n_terms)
    out = np.empty_like(s.terms)
    for k in range(s.n_terms):
        diag, off = scaled_resolvent_symbols(op, qlog.log2_abs(k))
        out[k] = op.apply_symbols(diag, off, s.terms[k])
    return RadSum(out, s.layout, s.p)


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
    with np.errstate(over="ignore"):
        r_hi = np.exp2(seq.log2_at(m) - lq)
        r_lo = np.exp2(seq.log2_at(m - 1) - lq)
    kept = 1.0 / (1.0 + r_hi)
    leaked = kept - 1.0 / (1.0 + r_lo)
    return kept, leaked


# -- R-bound lower estimation -------------------------------------------------


@dataclass(frozen=True)
class RBoundReport:
    lower_bound: float
    op_indices: tuple
    witness: RadSum = field(repr=False)
    method: str
    p: float
    seed: int = 0


def _family_ratio(ops, idx, s: RadSum, seed):
    mapped = np.stack([np.asarray(ops[i](s.terms[k]), dtype=np.complex128)
                       for k, i in enumerate(idx)])
    out = RadSum(mapped, s.layout, s.p)
    if s.n_terms <= 12:
        denom = rad_norm(s, "exact")
        numer = rad_norm(out, "exact")
    elif s.supports_disjoint() and out.supports_disjoint():
        denom = rad_norm(s, "disjoint")
        numer = rad_norm(out, "disjoint")
    else:
        denom = rad_norm(s, "sampled", seed=seed, samples=4096).value
        numer = rad_norm(out, "sampled", seed=seed, samples=4096).value
    return (numer / denom if denom > 0.0 else 0.0), denom


def rbound_lower(ops, layout: BlockLayout, p, trials: int = 20, seed: int = 0,
                 max_terms: int = 8, candidates=None) -> RBoundReport:
    """Certified lower bound for the R-bound of a finite operator family.

    Random subsets with random term vectors, improved by coordinate
    perturbations, plus any caller-provided candidate sums (each paired
    with explicit operator indices).  The reported witness re-evaluates to
    the bound.
    """
    if not ops:
        raise ParameterError("the operator family is empty")
    rng = np.random.default_rng(seed)
    best = None

    def consider(idx, s, tag):
        nonlocal best
        ratio, denom = _family_ratio(ops, idx, s, seed)
        if denom == 0.0:
            return 0.0
        if best is None or ratio > best[0]:
            best = (ratio, tuple(idx), s, tag)
        return ratio

    if candidates:
        for idx, s in candidates:
            consider(list(idx), s, "candidate")

    for trial in range(trials):
        k = int(rng.integers(1, min(max_terms, 12) + 1))
        idx = list(rng.integers(0, len(ops), size=k))
        terms = rng.standard_normal((k, layout.dim)) + 1j * rng.standard_normal((k, layout.dim))
        s = RadSum(terms, layout, p)
        base = consider(idx, s, "sampled")
        # a few coordinate bumps on the best term stack found in this trial
        for _ in range(4):
            t2 = s.terms.copy()
            kk = int(rng.integers(0, k))
            jj = int(rng.integers(0, layout.dim))
            t2[kk, jj] *= rng.choice([-1.0, 0.5, 2.0])
            s2 = RadSum(t2, layout, p)
            if consider(idx, s2, "ascent") > base:
                s = s2
    ratio, idx, s, tag = best
    return RBoundReport(lower_bound=float(ratio), op_indices=idx, witness=s,
                        method=tag, p=p, seed=seed)


def evaluate_rbound_witness(ops, report: RBoundReport) -> float:
    ratio, _ = _family_ratio(ops, list(report.op_indices), report.witness,
                             seed=report.seed)
    return float(ratio)


# -- blow-up experiments -------------------------------------------------------

CONSTRUCTIONS = ("lacunary", "power", "powerlog")


@dataclass(frozen=True)
class BlowupSeries:
    construction: str
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


def blowup_series(construction: str, p, alpha=None, block_counts=(100, 1000, 10000),
                  bound: float = 0.125) -> BlowupSeries:
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
        ratios = ratio_family(construction, alpha, kmax + 1, bound=bound)
        leak = np.power(block_target_sums(ratios, lambda c: np.abs(c) ** q, kmax), 1.0 / q)
    leak[:6] = 0.0
    lower = np.maximum.accumulate(leak)[ks - 1]
    logs = np.log(lower[lower > 0.0])
    logk = np.log(ks[lower > 0.0].astype(float))
    slope = float(np.polyfit(logk, logs, 1)[0]) if logs.size >= 2 else float("nan")
    return BlowupSeries(construction=construction, p=p, alpha=alpha, ks=ks,
                        lower=lower, slope=slope)


def blowup_witness(construction: str, k: int, p, alpha=None, bound: float = 0.125):
    """Materialize the extremal witness for target block k.

    Returns (rsum, qs, op, expected) where expected is the closed-form
    norm of the mapped sum (the leaked block value combined with the kept
    halves).  Small k only; the layout must hold the reserved coordinates.
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
    terms = np.zeros((targets.size, layout.dim), dtype=np.complex128)
    terms[np.arange(targets.size), reserved - 1] = profile
    rsum = RadSum(terms, layout, p)
    qs = Log2Negatives(seq.log2_at(4 * ms + 2))
    leak_norm = float(np.power(np.power(np.abs(profile * leak), 2).sum(), 0.5))
    expected = (leak_norm ** p + (0.5 ** p) * np.power(np.abs(profile), p).sum()) ** (1.0 / p)
    return rsum, qs, op, expected

