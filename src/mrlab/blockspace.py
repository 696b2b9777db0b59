"""Finite models of the mixed-norm sequence spaces.

The working space is an ell_p sum of Euclidean blocks.  The canonical
("triangular") layout uses consecutive blocks of sizes 1, 2, 3, ..., so a
truncation to n blocks has dimension n(n+1)/2.  Singleton-block layouts
recover plain ell_p and are used wherever a diagonal comparison model is
needed.  Scalars are complex throughout; every norm reads the modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, StructuralError

__all__ = [
    "BlockLayout",
    "MixedVector",
    "SpreadMap",
    "triangular_end",
    "triangular_block_index",
    "triangular_bounds",
    "triangular_indices_1mod4",
    "sign_patterns",
    "block_norms",
    "mixed_norm",
    "combination_norms",
    "block_lq_norms",
    "block_qsup_norm",
    "bv_norm",
    "sequence_variation",
    "spread",
    "compress",
]


def triangular_end(k):
    """Last 1-based index of triangular block k, k(k+1)/2; k may be an array."""
    return k * (k + 1) // 2


def triangular_block_index(m):
    """Block number of 1-based index m under block sizes 1, 2, 3, ...: also the
    fewest blocks holding m indices, which is one block for m < 1."""
    m = np.maximum(np.asarray(m, dtype=np.int64), 1)
    k = ((np.sqrt(8.0 * m + 1.0) - 1.0) / 2.0).astype(np.int64)
    # float sqrt may be off by one near block boundaries
    k = np.where(triangular_end(k) >= m, k, k + 1)
    k = np.where(triangular_end(k - 1) >= m, k - 1, k)
    return k if k.ndim else int(k)


def triangular_bounds(k):
    """First and last 1-based index of triangular block k."""
    k = int(k)
    if k < 1:
        raise ParameterError("block numbers are 1-based")
    return triangular_end(k - 1) + 1, triangular_end(k)


def triangular_indices_1mod4(k) -> np.ndarray:
    """The 1-based indices congruent to 1 mod 4 inside triangular block k."""
    lo, hi = triangular_bounds(k)
    return np.arange(lo + ((1 - lo) % 4), hi + 1, 4, dtype=np.int64)


EXACT_TERM_LIMIT = 14      # largest k whose 2^k sign patterns are enumerated
_PATTERN_CELLS = 1 << 16   # complex cells of one row block in combination_norms


def sign_patterns(k: int) -> np.ndarray:
    """All 2^k sign vectors as rows of +-1.0; bit i of the row number sets sign i."""
    if k > EXACT_TERM_LIMIT:
        raise ParameterError(f"sign enumeration takes at most {EXACT_TERM_LIMIT} terms, not {k}")
    rows = np.arange(2 ** k, dtype=np.uint64)
    return ((rows[:, None] >> np.arange(k, dtype=np.uint64)) & 1) * 2.0 - 1.0


@dataclass(frozen=True)
class BlockLayout:
    """Partition of [1, dim] into consecutive coordinate blocks.

    Parameters
    ----------
    sizes : ndarray
        Block lengths in order.  ``triangular(n)`` builds the canonical
        1, 2, ..., n layout; ``singletons(n)`` the plain ell_p model.
    """

    sizes: np.ndarray
    starts: np.ndarray = field(repr=False)  # 0-based offsets, for reduceat
    dim: int
    n_blocks: int

    @classmethod
    def from_sizes(cls, sizes) -> "BlockLayout":
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.ndim != 1 or sizes.size == 0 or np.any(sizes < 1):
            raise ParameterError("block sizes must be a nonempty list of positive integers")
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        return cls(sizes=sizes, starts=starts, dim=int(sizes.sum()), n_blocks=int(sizes.size))

    @classmethod
    def triangular(cls, n_blocks: int) -> "BlockLayout":
        if n_blocks < 1:
            raise ParameterError("need at least one block")
        return cls.from_sizes(np.arange(1, n_blocks + 1))

    @classmethod
    def singletons(cls, n: int) -> "BlockLayout":
        return cls.from_sizes(np.ones(n, dtype=np.int64))

    @classmethod
    def triangular_covering(cls, min_dim: int) -> "BlockLayout":
        """Smallest triangular layout with dim >= min_dim."""
        return cls.triangular(triangular_block_index(min_dim))

    def block_of(self, idx):
        """Block number (1-based) containing the 1-based coordinate index."""
        idx = np.asarray(idx, dtype=np.int64)
        if np.any(idx < 1) or np.any(idx > self.dim):
            raise StructuralError(f"index out of range 1..{self.dim}")
        ends = self.starts + self.sizes  # exclusive, 0-based
        k = np.searchsorted(ends, idx - 1, side="right") + 1
        return k if k.ndim else int(k)

    def bounds(self, k: int):
        """(first, last) 1-based indices of block k."""
        if not 1 <= k <= self.n_blocks:
            raise ParameterError(f"block {k} not in 1..{self.n_blocks}")
        return int(self.starts[k - 1]) + 1, int(self.starts[k - 1] + self.sizes[k - 1])


def _check_p(p):
    if p == math.inf:
        return math.inf
    p = float(p)
    if not p > 1.0:
        raise ParameterError("exponent must satisfy p > 1 (or p = inf)")
    return p


def block_norms(arr, layout: BlockLayout):
    """Euclidean norm of each block; supports batches along the last axis."""
    arr = np.asarray(arr)
    if arr.shape[-1] != layout.dim:
        raise StructuralError(f"vector length {arr.shape[-1]} != layout dim {layout.dim}")
    if np.iscomplexobj(arr):
        sq = arr.real * arr.real + arr.imag * arr.imag
    else:
        sq = arr * arr
    return np.sqrt(np.add.reduceat(sq, layout.starts, axis=-1))


def _lp_of_blocks(bn, p):
    if p == math.inf:
        return bn.max(axis=-1)
    peak = bn.max(axis=-1, keepdims=True)
    scaled = bn / np.where(peak == 0.0, 1.0, peak)
    return peak[..., 0] * np.power(np.power(scaled, p).sum(axis=-1), 1.0 / p)


def _coeffs_and_layout(v, layout):
    """A MixedVector's coefficients and layout, or a raw array and the given layout."""
    if isinstance(v, MixedVector):
        return v.coeffs, v.layout
    if layout is None:
        raise StructuralError("raw arrays need an explicit layout")
    return np.asarray(v), layout


def mixed_norm(v, p, layout: BlockLayout | None = None):
    """ell_p norm of the block Euclidean norms; p = inf takes the block sup."""
    p = _check_p(p)
    arr, layout = _coeffs_and_layout(v, layout)
    out = _lp_of_blocks(block_norms(arr, layout), p)
    return float(out) if np.ndim(out) == 0 else out


def combination_norms(weights, vectors, p, layout: BlockLayout) -> np.ndarray:
    """Mixed norm of each row of ``weights @ vectors``, formed a row block at a
    time so that memory stays bounded however many rows there are."""
    rows = max(1, _PATTERN_CELLS // layout.dim)
    out = np.empty(weights.shape[0])
    for i in range(0, weights.shape[0], rows):
        out[i:i + rows] = mixed_norm(weights[i:i + rows].astype(np.complex128) @ vectors,
                                     p, layout)
    return out


def block_lq_norms(c, q, layout: BlockLayout | None = None):
    """The inner ell_q norm of each block, (sum_{m in B_k} |c_m|^q)^(1/q), on
    the last axis; scaled by the peak |c_m| so that tiny values do not underflow."""
    q = float(q)
    if not (1.0 < q < math.inf):
        raise ParameterError("q must be finite and > 1")
    arr, layout = _coeffs_and_layout(c, layout)
    if arr.shape[-1] == 0:
        raise ParameterError("empty vector")
    if arr.shape[-1] != layout.dim:
        raise StructuralError(f"vector length {arr.shape[-1]} != layout dim {layout.dim}")
    mags = np.abs(arr)
    peak = mags.max(axis=-1, keepdims=True)
    scaled = mags / np.where(peak == 0.0, 1.0, peak)
    return peak * np.power(np.add.reduceat(np.power(scaled, q), layout.starts, axis=-1),
                           1.0 / q)


def block_qsup_norm(c, q, layout: BlockLayout | None = None):
    """sup over blocks of the inner ell_q norm: max_k (sum_{m in B_k} |c_m|^q)^(1/q)."""
    out = block_lq_norms(c, q, layout).max(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def bv_norm(s):
    """Bounded-variation norm |s_1| + sum |s_{m+1} - s_m|."""
    s = np.asarray(s)
    if s.size == 0:
        raise ParameterError("bv_norm of an empty sequence")
    return float(np.abs(s[0]) + np.abs(np.diff(s)).sum())


def sequence_variation(s):
    """Total variation sum |s_{m+1} - s_m| without the leading term; supports
    batches along the last axis."""
    s = np.asarray(s)
    if s.size == 0:
        raise ParameterError("variation of an empty sequence")
    out = np.abs(np.diff(s, axis=-1)).sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class MixedVector:
    """Coefficients in the unit-vector basis of a truncated mixed-norm space."""

    coeffs: np.ndarray
    layout: BlockLayout

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128).reshape(-1)
        if arr.size != self.layout.dim:
            raise StructuralError(
                f"coefficient length {arr.size} does not match layout dim {self.layout.dim}"
            )
        if not np.all(np.isfinite(arr.real) & np.isfinite(arr.imag)):
            raise StructuralError("coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def unit(cls, layout: BlockLayout, idx: int) -> "MixedVector":
        arr = np.zeros(layout.dim, dtype=np.complex128)
        arr[idx - 1] = 1.0
        return cls(arr, layout)

    @classmethod
    def from_entries(cls, layout: BlockLayout, entries: dict) -> "MixedVector":
        arr = np.zeros(layout.dim, dtype=np.complex128)
        for idx, val in entries.items():
            arr[idx - 1] = val
        return cls(arr, layout)

    def norm(self, p) -> float:
        return mixed_norm(self, p)

    def __add__(self, other: "MixedVector") -> "MixedVector":
        if self.layout is not other.layout and self.layout != other.layout:
            raise StructuralError("layout mismatch")
        return MixedVector(self.coeffs + other.coeffs, self.layout)

    def __sub__(self, other: "MixedVector") -> "MixedVector":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "MixedVector":
        return MixedVector(scalar * self.coeffs, self.layout)


@dataclass(frozen=True)
class SpreadMap:
    """Strictly increasing target positions together with their largest gap."""

    positions: np.ndarray
    gap: int

    @classmethod
    def from_positions(cls, positions) -> "SpreadMap":
        pos = np.asarray(positions, dtype=np.int64)
        if pos.ndim != 1 or pos.size == 0:
            raise ParameterError("need at least one position")
        if pos[0] < 1 or np.any(np.diff(pos) <= 0):
            raise ParameterError("positions must be strictly increasing and >= 1")
        gap = int(np.diff(pos).max()) if pos.size > 1 else 0
        return cls(positions=pos, gap=gap)

    @classmethod
    def identity(cls, n: int) -> "SpreadMap":
        return cls.from_positions(np.arange(1, n + 1))


def spread(v: MixedVector, smap: SpreadMap, target: BlockLayout) -> MixedVector:
    """Insert zeros: entry k of v moves to coordinate positions[k] of target."""
    if smap.positions.size != v.layout.dim:
        raise StructuralError("spread map length does not match source dimension")
    if smap.positions[-1] > target.dim:
        raise StructuralError(
            f"position {int(smap.positions[-1])} exceeds target dim {target.dim}"
        )
    out = np.zeros(target.dim, dtype=np.complex128)
    out[smap.positions - 1] = v.coeffs
    return MixedVector(out, target)


def compress(w: MixedVector, smap: SpreadMap, source: BlockLayout) -> MixedVector:
    """Section of ``spread``: pull the entries at the mapped positions back."""
    if smap.positions.size != source.dim:
        raise StructuralError("spread map length does not match source dimension")
    if smap.positions[-1] > w.layout.dim:
        raise StructuralError("positions exceed the spread vector's dimension")
    return MixedVector(w.coeffs[smap.positions - 1], source)
