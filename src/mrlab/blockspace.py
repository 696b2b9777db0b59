"""Finite models of the mixed-norm sequence spaces.

The working space is an ell_p sum of Euclidean blocks.  The canonical
("triangular") layout uses consecutive blocks of sizes 1, 2, 3, ..., so a
truncation to n blocks has dimension n(n+1)/2.  Entries are real or
complex; every norm reads their modulus.

One dtype rule holds for every array the package forms from its inputs:
a product takes ``np.result_type`` of its inputs, and integers are
promoted to float64.  Data are plain arrays, so complex numbers appear
only where a complex lambda, symbol or start enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, StructuralError

__all__ = [
    "BlockLayout",
    "triangular_end",
    "triangular_block_index",
    "triangular_bounds",
    "triangular_indices_1mod4",
    "sign_patterns",
    "SignDraws",
    "block_norms",
    "mixed_norm",
    "block_rows",
    "combination_norms",
    "bv_norm",
]


def triangular_end(k):
    """Last 1-based index of triangular block k, k(k+1)/2; k may be an array."""
    return k * (k + 1) // 2


def triangular_block_index(m):
    """Block number of 1-based index m under block sizes 1, 2, 3, ...: also the
    fewest blocks holding m indices, which is one block for m < 1.  A single
    integer is read exactly, however large; an array as int64."""
    if isinstance(m, (int, np.integer)):
        m = max(int(m), 1)
        k = (math.isqrt(8 * m + 1) - 1) // 2   # the last block ending at or before m
        return k if triangular_end(k) == m else k + 1
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


EXACT_TERM_LIMIT = 14      # largest k whose sign patterns are enumerated (see sign_patterns)
_PATTERN_CELLS = 1 << 16   # cells of one row block (see block_rows), in the product's dtype
_NORMAL_MIN = np.finfo(np.float64).tiny   # smallest sum of squares kept unscaled


def sign_patterns(k: int) -> np.ndarray:
    """The 2^(k-1) sign vectors of length k with a first sign of +1, rows of
    +-1.0: row r flips sign i + 1 to -1 where bit i of r is set (row 0 is all
    plus).  Each other pattern is the negative of one of these, and a product
    row and its negative have the same mixed norm bit for bit."""
    if not 1 <= k <= EXACT_TERM_LIMIT:
        raise ParameterError(f"sign enumeration takes 1 to {EXACT_TERM_LIMIT} terms, not {k}")
    out = np.ones((2 ** (k - 1), k))
    for i in range(k - 1):
        out.reshape(-1, 2, 2 ** i, k)[:, 1, :, i + 1] = -1.0
    return out


class SignDraws:
    """The draws of ``Generator.integers(0, 2)``, and so of ``choice([-1.0,
    1.0])`` with draw 1 for +1, from a PCG64 generator, read bit for bit from
    its raw stream, which NumPy keeps stable.

    With a range of 2, Lemire's bounded 32-bit draw is the top bit of a 32-bit
    half word and never rejects, and PCG64 hands out a word's low half before
    its high half: draw j is bit 31 of half word j.  The generator must hold
    no half word of its own (``state["has_uint32"]`` clear, as in a fresh
    one), and it is the sampler's from then on: the unused half of an odd
    count's last word is kept for the next call.
    """

    def __init__(self, rng: np.random.Generator):
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64) or bit_generator.state["has_uint32"]:
            raise ParameterError("sign draws need a PCG64 generator holding no half word")
        self._raw = bit_generator.random_raw
        self._held = None   # the draw of a half word read but not yet used

    def _next(self, count: int) -> np.ndarray:
        """The next ``count`` draws, True for 1."""
        held = self._held is not None
        words = (count - held + 1) // 2
        bits = np.empty(held + 2 * words, dtype=bool)
        if held:
            bits[0] = self._held
        # the sign bit of each little-endian 32-bit half, low half first
        np.less(self._raw(words).astype("<u8", copy=False).view("<i4"), 0, out=bits[held:])
        self._held = bits[count] if bits.size > count else None
        return bits[:count]

    def signs(self, rows: int, k: int) -> np.ndarray:
        """The next rows x k draws as a new array of signs, +1.0 for a draw of 1."""
        out = self._next(rows * k).reshape(rows, k) * 2.0
        out -= 1.0
        return out

    def patterns(self, rows: int, k: int) -> np.ndarray:
        """The next ``rows`` rows of k <= 17 draws, each as the number
        sum_{i>=1} b_i 2^(i-1) of its draws b_1 .. b_{k-1} past the first:
        those draws are laid out 16 to a row and packed two bytes a row."""
        wide = np.zeros((rows, 16), dtype=bool)
        wide[:, :k - 1] = self._next(rows * k).reshape(rows, k)[:, 1:]
        return np.packbits(wide, bitorder="little").view("<u2")


@dataclass(frozen=True)
class BlockLayout:
    """Partition of [1, dim] into consecutive coordinate blocks.

    Parameters
    ----------
    sizes : ndarray
        Block lengths in order.  ``triangular(n)`` builds the canonical
        1, 2, ..., n layout.
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
    def triangular_covering(cls, min_dim: int) -> "BlockLayout":
        """Smallest triangular layout with dim >= min_dim."""
        return cls.triangular(triangular_block_index(min_dim))


def _check_p(p):
    if p == math.inf:
        return math.inf
    p = float(p)
    if not p > 1.0:
        raise ParameterError("exponent must satisfy p > 1 (or p = inf)")
    return p


@np.errstate(over="ignore")   # squares past the float range are summed again below
def block_norms(arr, layout: BlockLayout):
    """Euclidean norm of each block; supports batches along the last axis.

    A block whose sum of squares overflowed, or fell below the normal float
    range in a vector too small to hold a block 2^53 times its norm, is
    summed again scaled by its largest modulus; every other block keeps the
    plain sum.
    """
    arr = np.asarray(arr)
    if arr.shape[-1] != layout.dim:
        raise StructuralError(f"vector length {arr.shape[-1]} != layout dim {layout.dim}")
    # np.square is x * x bit for bit, and faster on strided views
    if np.iscomplexobj(arr):
        sq = np.square(arr.real)
        sq += np.square(arr.imag)
    else:
        sq = np.square(arr)
    sums = np.add.reduceat(sq, layout.starts, axis=-1)
    out = np.sqrt(sums)
    if sums.size and not (sums.min() >= _NORMAL_MIN and sums.max() < math.inf):
        # a vector whose squares add up to ``shadow`` holds a block 2^53 times
        # the norm of any block whose sum underflowed; those blocks stay as they are
        shadow = _NORMAL_MIN * 2.0 ** 106 * layout.n_blocks
        total = sums.sum(axis=-1)
        if not (total.min() >= shadow and total.max() < math.inf):
            redo = ((sums < _NORMAL_MIN) & (total < shadow)[..., None]) | (sums == math.inf)
            out[redo] = _scaled_block_norms(arr, layout, redo)
    return out


def _scaled_block_norms(arr, layout, redo):
    """Norms of the blocks ``redo`` marks, each block divided by its largest
    modulus before it is squared."""
    rows = redo.reshape(-1, layout.n_blocks)
    pick = rows.any(axis=1)
    mod = np.abs(arr.reshape(-1, layout.dim)[pick])
    peak = np.maximum.reduceat(mod, layout.starts, axis=-1)
    # blocks left out of ``redo`` may read NaN here; they are dropped
    with np.errstate(invalid="ignore"):
        scaled = mod / np.repeat(np.where(peak > 0.0, peak, 1.0), layout.sizes, axis=-1)
        norms = peak * np.sqrt(np.add.reduceat(scaled * scaled, layout.starts, axis=-1))
    norms[peak == math.inf] = math.inf
    return norms[rows[pick]]


def _lp_of_blocks(bn, p):
    # each row's peak as column maxima of a transposed copy: numpy reduces a
    # short last axis one row at a time, and a max is exact in any order
    peak = np.ascontiguousarray(bn.T).max(axis=0).T
    if p == math.inf:
        return peak
    scaled = bn / np.where(peak == 0.0, 1.0, peak)[..., None]
    return peak * np.power(np.power(scaled, p).sum(axis=-1), 1.0 / p)


def mixed_norm(v, p, layout: BlockLayout):
    """ell_p norm of the block Euclidean norms; p = inf takes the block sup."""
    p = _check_p(p)
    out = _lp_of_blocks(block_norms(v, layout), p)
    return float(out) if np.ndim(out) == 0 else out


def block_rows(width: int) -> int:
    """Rows of one row block of ``width`` cells a row: _PATTERN_CELLS cells, and
    at least one row."""
    return max(1, _PATTERN_CELLS // width)


def combination_norms(weights, product, p, layout: BlockLayout) -> np.ndarray:
    """Mixed norm of each row of ``product(weights)``, the vectors the rows of
    weights combine, formed a row block at a time so that memory stays bounded
    however many rows there are; ``product`` maps a row block of weights to
    its rows of dim coordinates."""
    rows = block_rows(layout.dim)
    out = np.empty(weights.shape[0])
    for i in range(0, weights.shape[0], rows):
        out[i:i + rows] = mixed_norm(product(weights[i:i + rows]), p, layout)
    return out


def bv_norm(s):
    """Bounded-variation norm |s_1| + sum |s_{m+1} - s_m|: a float, or one per
    row of a stack s, whose sequences run along its last axis.

    The steps s_{m+1} - s_m are formed _PATTERN_CELLS // 16 columns (64 KiB
    of complex steps a row) at a time into one array of their moduli, which
    each row then sums whole: no full-size complex difference is formed."""
    s = np.asarray(s)
    if s.size == 0:
        raise ParameterError("bv_norm of an empty sequence")
    dtype = np.abs(np.diff(s[..., :1], axis=-1)).dtype   # the steps' moduli, as np.diff forms them
    steps = np.empty((*s.shape[:-1], s.shape[-1] - 1), dtype=dtype)
    width = _PATTERN_CELLS // 16
    for i in range(0, steps.shape[-1], width):
        np.abs(np.diff(s[..., i:i + width + 1], axis=-1), out=steps[..., i:i + width])
    out = np.abs(s[..., 0]) + steps.sum(axis=-1)
    return float(out) if s.ndim == 1 else out
