"""Multiplier sequences and the ratio recurrence that generates them.

A ratio sequence (c_m) with values in (0, 1/2) determines a unique strictly
increasing multiplier sequence through

    (gamma_m - gamma_{m-1}) / (2 (gamma_m + gamma_{m-1})) = c_m,  gamma_1 = 1,

equivalently gamma_m = gamma_{m-1} (1 + 2 c_m) / (1 - 2 c_m).  The values
grow geometrically and overflow float64 quickly, so a sequence stores
base-2 logarithms as the primary representation together with the exact
per-step offsets t_m = rho_m - 1 = 4 c_m / (1 - 2 c_m); everything that
only needs ratios works on those.  The twisted lacunary sequence
2^{m+1} (m odd), 2^{m-1} (m even) keeps integer exponents, so adjacent
ratios are exact powers of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blockspace import triangular_block_index, triangular_end
from .errors import ParameterError, SequenceOverflowError

__all__ = [
    "RatioSeq",
    "MultiplierSeq",
    "ratio_family",
    "constant_ratios",
    "family_ratios",
    "family_seq",
    "finite_length",
    "seq_from_ratios",
    "step_offsets",
    "twisted_lacunary",
    "block_q_norms",
    "block_target_counts",
    "block_target_sums",
    "block_qsup_partials",
    "threshold_exponent",
    "alpha_for_right_endpoint",
    "holder_conjugate",
]

_LOG2_MAX = math.log2(np.finfo(np.float64).max)  # ~1024
_LN2 = math.log(2.0)

LACUNARY = "lacunary"
POWER = "power"
POWERLOG = "powerlog"
CONSTANT = "constant"
GEOMETRIC = "geometric"
_FAMILIES = (POWER, POWERLOG, CONSTANT, GEOMETRIC)


@dataclass(frozen=True)
class RatioSeq:
    """A named ratio family: one value per triangular block.

    ``bound`` is the open upper constraint: every value lies strictly in
    (0, bound).  Indexing is 1-based; the recurrence consumes values from
    index 2 on.
    """

    family: str
    bound: float
    n_blocks: int
    block_values: np.ndarray = field(repr=False)
    alpha: float | None = None
    scale: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ParameterError(f"unknown ratio family {self.family!r}")
        vals = np.asarray(self.block_values, dtype=np.float64)
        if vals.size == 0:
            raise ParameterError("ratio sequence has no values")
        outside = ~((vals > 0.0) & (vals < self.bound))   # NaN fails it too
        if np.any(outside):
            bad = int(np.flatnonzero(outside)[0]) + 1
            raise ParameterError(f"ratio value at position {bad} is outside (0, {self.bound})")

    @property
    def max_index(self) -> int:
        return triangular_end(self.n_blocks)

    def value_at(self, m):
        """c_m for 1-based indices m (scalar or array)."""
        m = np.asarray(m, dtype=np.int64)
        if np.any(m < 1) or np.any(m > self.max_index):
            raise ParameterError(f"index out of range 1..{self.max_index}")
        out = self.block_values[triangular_block_index(m) - 1]
        return out if out.ndim else float(out)

    def values_upto(self, n: int) -> np.ndarray:
        """c_1 .. c_n: block k's value k times over the blocks holding n."""
        if n > self.max_index:
            raise ParameterError(f"index out of range 1..{self.max_index}")
        k = triangular_block_index(n)
        return np.repeat(self.block_values[:k], np.arange(1, k + 1))[:max(n, 0)]


def _raw_block_values(kind, alpha, ks):
    if kind == POWER:
        return np.power(ks, -alpha)
    if kind == POWERLOG:
        # log k vanishes at k = 1; log(k+1) keeps the value positive and
        # leaves the growth order untouched
        return np.power(ks, -alpha) * np.log(ks + 1.0)
    raise ParameterError(f"family {kind!r} has no power-type raw values")


def _global_raw_max(kind, alpha):
    if kind == POWER:
        return 1.0
    # k^-alpha log(k+1) rises then falls; its real maximizer x = e^s solves
    # h(s) = x / ((x+1) log(x+1)) = alpha with h decreasing from h(0) > 1/2,
    # and the integer maximizer sits next to x
    def h(s):
        return 1.0 / ((1.0 + math.exp(-s)) * math.log1p(math.exp(s)))

    lo, hi = 0.0, 700.0
    if h(hi) > alpha:
        raise ParameterError(f"alpha {alpha} is too small: the {kind} family "
                             f"peaks beyond float range")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if h(mid) > alpha else (lo, mid)
    k = math.floor(math.exp(lo))
    ks = np.arange(max(1, k - 2), k + 4, dtype=np.float64)
    return float(_raw_block_values(kind, alpha, ks).max())


def ratio_family(kind: str, alpha: float, n_blocks: int, bound: float = 0.125) -> RatioSeq:
    """Power or power-log ratio family, scaled into (0, bound).

    The scale puts the global maximum (over all blocks, not just the
    truncated ones) at bound/2, so truncations of different lengths agree
    on shared blocks.
    """
    if not 0.0 < alpha < 0.5:
        raise ParameterError("alpha must lie in (0, 1/2)")
    if kind not in (POWER, POWERLOG):
        raise ParameterError("kind must be 'power' or 'powerlog'")
    if bound not in (0.125, 0.5):
        raise ParameterError("bound must be 1/8 or 1/2")
    ks = np.arange(1, n_blocks + 1, dtype=np.float64)
    raw = _raw_block_values(kind, alpha, ks)
    scale = (bound / 2.0) / _global_raw_max(kind, alpha)
    return RatioSeq(family=kind, bound=bound, n_blocks=n_blocks,
                    block_values=scale * raw, alpha=alpha, scale=scale)


def constant_ratios(value: float, n_blocks: int, bound: float = 0.125) -> RatioSeq:
    return RatioSeq(family=CONSTANT, bound=bound, n_blocks=n_blocks,
                    block_values=np.full(n_blocks, float(value)), scale=float(value))


def geometric_ratios(n_blocks: int, bound: float = 0.125) -> RatioSeq:
    """Super-fast decay 2^{-k} per block; inside every block-q-sup space.

    The values round to 0.0 past block 1070 (1072 at bound 1/2; 2^{-k}
    itself is 0.0 from k = 1075), so more blocks than that are refused."""
    scale = bound / 2.0
    limit = _geometric_limit(bound)
    if n_blocks > limit:
        raise ParameterError(f"the geometric family stays positive on {limit} blocks; "
                             f"{n_blocks} were asked for")
    vals = scale * np.exp2(-np.arange(1, n_blocks + 1, dtype=np.float64))
    return RatioSeq(family=GEOMETRIC, bound=bound, n_blocks=n_blocks,
                    block_values=vals, scale=scale)


def _geometric_limit(bound: float) -> int:
    """The number of blocks on which the geometric family stays above 0.0."""
    return int(np.count_nonzero(bound / 2.0 * np.exp2(-np.arange(1.0, 1076.0))))


def family_ratios(family: str, param, n_blocks: int, bound: float = 0.125) -> RatioSeq:
    """The named ratio family on n_blocks blocks; ``param`` is alpha for the
    power families and the value for the constant one (geometric reads none)."""
    if family == CONSTANT:
        return constant_ratios(param, n_blocks, bound)
    if family == GEOMETRIC:
        return geometric_ratios(n_blocks, bound)
    return ratio_family(family, param, n_blocks, bound)


@dataclass(frozen=True)
class MultiplierSeq:
    """Positive multiplier sequence stored as (log2 values, step offsets)."""

    origin: str
    log2: np.ndarray = field(repr=False)
    step_offsets: np.ndarray | None = field(default=None, repr=False)  # t_m at [m-2]

    @property
    def length(self) -> int:
        return int(self.log2.size)

    def values_upto(self, n: int, allow_inf: bool = False) -> np.ndarray:
        if n > self.length:
            raise ParameterError(f"sequence has length {self.length}, asked for {n}")
        head = self.log2[:n]
        if not allow_inf:
            over = np.flatnonzero(head >= _LOG2_MAX)
            if over.size:
                raise SequenceOverflowError(int(over[0]) + 1)
        with np.errstate(over="ignore"):
            return np.exp2(head)

    def log2_at(self, m):
        m = np.asarray(m, dtype=np.int64)
        if np.any(m < 1) or np.any(m > self.length):
            raise ParameterError(f"index out of range 1..{self.length}")
        out = self.log2[m - 1]
        return out if out.ndim else float(out)

    def recovered_ratios(self) -> np.ndarray:
        """The ratio sequence read back off the stored steps, index 2..length.

        For recurrence sequences this inverts t = 4c/(1-2c) exactly:
        c = t / (2 (2 + t)).  Otherwise it falls back to exponent
        differences, which lose accuracy once log2 values are large.
        """
        if self.origin == "recurrence":
            t = self.step_offsets
            return t / (2.0 * (2.0 + t))
        rho = np.exp2(np.diff(self.log2))
        return 0.5 * (rho - 1.0) / (rho + 1.0)


def step_offsets(c):
    """t = 4 c / (1 - 2 c), so that gamma_m = gamma_{m-1} (1 + t) for c = c_m."""
    return 4.0 * c / (1.0 - 2.0 * c)


def seq_from_ratios(ratios, length: int | None = None) -> MultiplierSeq:
    """Solve the ratio recurrence; gamma_1 = 1 and gamma is strictly increasing."""
    if isinstance(ratios, RatioSeq):
        n = ratios.max_index if length is None else length
        c = ratios.values_upto(n)[1:]
    else:
        arr = np.asarray(ratios, dtype=np.float64)
        n = arr.size + 1 if length is None else length
        c = arr[: n - 1]
    if np.any(~np.isfinite(c)) or np.any(c <= 0.0) or np.any(c >= 0.5):
        bad = int(np.flatnonzero(~np.isfinite(c) | (c <= 0.0) | (c >= 0.5))[0]) + 2
        raise ParameterError(f"ratio at index {bad} is outside (0, 1/2)")
    t = step_offsets(c)
    log2 = np.concatenate(([0.0], np.cumsum(np.log1p(t)) / _LN2))
    return MultiplierSeq(origin="recurrence", log2=log2, step_offsets=t)


def finite_length(ratios: RatioSeq, length: int) -> int:
    """The longest prefix, at most ``length`` long, of the sequence
    ``seq_from_ratios`` solves whose values stay within float64.

    Its log2 grows by k log2(1 + t_k) over block k.  Summed a block at a
    time, that growth stays within 2^-10 of the solver's, so nothing is
    solved where it ends below _LOG2_MAX - 1, and otherwise only the prefix
    up to where it passes _LOG2_MAX + 1, whose exact values decide.  A
    length past the ratios' last index is refused as values_upto refuses it."""
    if length > ratios.max_index:
        raise ParameterError(f"index out of range 1..{ratios.max_index}")
    k = np.arange(2, triangular_block_index(length) + 1)
    growth = np.cumsum(k * np.log1p(step_offsets(ratios.block_values[k - 1])) / _LN2)
    if not growth.size or growth[-1] < _LOG2_MAX - 1.0:
        return length
    end = triangular_end(int(np.searchsorted(growth, _LOG2_MAX + 1.0)) + 2)
    over = np.flatnonzero(seq_from_ratios(ratios, min(length, end)).log2 >= _LOG2_MAX)
    return int(over[0]) if over.size else length


def twisted_lacunary(n: int) -> MultiplierSeq:
    """2^{m+1} at odd m, 2^{m-1} at even m; adjacent pairs decrease."""
    if n < 2:
        raise ParameterError("need at least two terms")
    m = np.arange(1, n + 1, dtype=np.float64)
    log2 = np.where(np.arange(1, n + 1) % 2 == 1, m + 1.0, m - 1.0)
    return MultiplierSeq(origin="twisted-lacunary", log2=log2)


def family_seq(family: str, param, length: int, bound: float = 0.125):
    """The family's multiplier sequence of the given length and the ratio
    sequence it solves (None for lacunary, which is not ratio-built).

    A ratio family takes one block past the fewest blocks holding the
    length, so c_{length + 1} is stored as well.
    """
    if family == LACUNARY:
        return twisted_lacunary(length), None
    if family == GEOMETRIC:   # the limit in lengths, not in the blocks taken for one
        limit = triangular_end(_geometric_limit(bound) - 1)
        if length > limit:
            raise ParameterError(f"the geometric family stays positive up to length {limit}; "
                                 f"length {length} was asked for")
    ratios = family_ratios(family, param, triangular_block_index(length) + 1, bound)
    return seq_from_ratios(ratios, length=length), ratios


def block_qsup_partials(ratios: RatioSeq, q: float) -> np.ndarray:
    """Running sup over k of the block ell_q norms of the ratio sequence."""
    return np.maximum.accumulate(block_q_norms(ratios, q))


def block_q_norms(ratios: RatioSeq, q: float, n_blocks: int | None = None) -> np.ndarray:
    """The ell_q norm of the ratio sequence on each triangular block 1..n_blocks."""
    q = float(q)
    if not (2.0 < q < math.inf):
        raise ParameterError("q must be finite and > 2")
    n_blocks = ratios.n_blocks if n_blocks is None else n_blocks
    if n_blocks > ratios.n_blocks:
        raise ParameterError("ratio sequence is shorter than requested")
    ks = np.arange(1, n_blocks + 1, dtype=np.float64)
    return np.power(ks, 1.0 / q) * ratios.block_values[:n_blocks]


def block_target_counts(n_blocks: int):
    """(n_k, e_k), k = 1..n_blocks: n_k targets m = 1 mod 4 in block k; e_k = 1
    when the last one closes the block (hi_k = 1 mod 4), its m + 1 in block k + 1."""
    k = np.arange(1, n_blocks + 1, dtype=np.int64)
    hi = triangular_end(k)
    return (hi + 3) // 4 - (triangular_end(k - 1) + 3) // 4, (hi % 4 == 1).astype(np.int64)


def block_target_sums(ratios: RatioSeq, f, n_blocks: int) -> np.ndarray:
    """Sum of f(c_{m+1}) over the targets m = 1 mod 4 of each block 1..n_blocks
    (f elementwise): (n_k - e_k) f(c_k) + e_k f(c_{k+1})."""
    if ratios.max_index < triangular_end(n_blocks) + 1:
        raise ParameterError("ratio sequence does not cover the block")
    n, e = block_target_counts(n_blocks)
    fc = f(ratios.block_values[: n_blocks + 1])
    return (n - e) * fc[:-1] + e * fc[1:]


def threshold_exponent(p):
    """(p - 2)/(2 p), elementwise: the alpha whose power family has its
    threshold at p.  Halving last keeps 2 p from overflowing, and halving is
    exact, so the value is (p - 2)/(2 p) wherever 2 p is finite."""
    return (p - 2.0) / p / 2.0


def alpha_for_right_endpoint(p0: float) -> float:
    """Exponent alpha with boundedness threshold exactly at p0 (> 2)."""
    p0 = float(p0)
    if not p0 > 2.0:
        raise ParameterError("the right endpoint must exceed 2")
    return threshold_exponent(p0)


def holder_conjugate(p: float) -> float:
    """q with 1/2 = 1/p + 1/q for finite p > 2."""
    p = float(p)
    if not 2.0 < p < math.inf:
        raise ParameterError("the splitting 1/2 = 1/p + 1/q needs a finite p > 2")
    return 2.0 * p / (p - 2.0)
