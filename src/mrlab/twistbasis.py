"""The even-integer permutation and the twisted Schauder basis.

The permutation pi fixes the odd integers.  Indices 4k+2 are sent to the
reserved values b_k, where b_k is the first even number in triangular
block k+2 (block 1 is the singleton {1} and contains no even number, so
the b-list starts with block 2: b_0 = 2, b_1 = 4, b_2 = 8, ...).  Indices
4k take the smallest even number that is neither reserved nor already
used.  On top of pi sit three basis variants over the unit vectors e_m,
all read off one coupling rule.  The head map H is pi for the twisted
variants and the identity for plain; the partner map couples each even
j to j - 1 (even-twist), each odd j to j + 1 (odd-twist), or nothing
(plain); and f_j = e_{H(j)} + [j coupled] e_{H(partner of j)}:

    plain       f_m = e_m
    even-twist  f_m = e_m (m odd),            e_{m-1} + e_{pi(m)} (m even)
    odd-twist   f_m = e_m + e_{pi(m+1)} (m odd),   e_{pi(m)}      (m even)

``Coupling`` holds the rule as arrays; analysis, synthesis, the covers,
the basis matrix and the multiplier structure all read it.  Coefficient
analysis (vector -> twisted coefficients) is total; synthesis back into
a fixed layout fails with a structural error when a coordinate outside
the layout receives a nonzero total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .blockspace import (_NORMAL_MIN, BlockLayout, _lp_of_blocks, block_norms,
                         combination_norms, sign_patterns, triangular_block_index,
                         triangular_end)
from .errors import ParameterError, StructuralError

__all__ = [
    "PLAIN",
    "EVEN_TWIST",
    "ODD_TWIST",
    "VARIANTS",
    "SAMPLED_SIGNS",
    "TwistPermutation",
    "Coupling",
    "build_permutation",
    "layout_coupling",
    "first_even_in_shifted_block",
    "twisted_analysis",
    "twisted_synthesis",
    "synthesis_cover",
    "twisted_basis_matrix",
    "basis_layout",
    "unconditional_constant",
]

PLAIN = "plain"
EVEN_TWIST = "even-twist"
ODD_TWIST = "odd-twist"
VARIANTS = (PLAIN, EVEN_TWIST, ODD_TWIST)
SAMPLED_SIGNS = 2000   # sign rows unconditional_constant draws in sampled mode


def first_even_in_shifted_block(k):
    """b_k: the first even number of triangular block k + 2 (k >= 0); k may be an array."""
    return 2 * (triangular_end(k + 1) // 2 + 1)   # the first even past block k + 1


def _reserved_upto(bound: int) -> np.ndarray:
    """Every b_k <= bound, in order (b_k lies in block k + 2)."""
    b = first_even_in_shifted_block(np.arange(triangular_block_index(bound) - 1))
    return b[b <= bound]


@dataclass(frozen=True)
class TwistPermutation:
    """Lookup tables for pi, its inverse on the evens, and the b-list.

    ``table[m]`` holds pi(m) for 1 <= m <= size (index 0 unused).  The
    inverse covers every even number <= ``even_cover``.
    """

    size: int
    table: np.ndarray = field(repr=False)
    b_list: np.ndarray
    even_cover: int
    inv_even: np.ndarray = field(repr=False)  # slot j//2 holds pi^{-1}(j), 0 if unknown

    def pi(self, m):
        m = np.asarray(m, dtype=np.int64)
        if np.any(m < 1) or np.any(m > self.size):
            raise ParameterError(f"index outside permutation table 1..{self.size}")
        out = self.table[m]
        return out if out.ndim else int(out)

    def pi_inv(self, j):
        j = np.asarray(j, dtype=np.int64)
        if np.any(j < 2) or np.any(j % 2) or np.any(j > self.even_cover):
            raise ParameterError(f"inverse known only for even numbers 2..{self.even_cover}")
        out = self.inv_even[j // 2]
        if np.any(out == 0):
            raise ParameterError("inverse table has a gap; rebuild with a larger cover")
        return out if out.ndim else int(out)

    @classmethod
    def covering(cls, n: int) -> "TwistPermutation":
        """The table that serves the indices 1..n in every variant, as
        coordinates (``layout_coupling``) or as coefficients (synthesis):
        pi^{-1} on the evens up to n + 1, the odd-twist partner of n, which
        also puts n + 1 in the table."""
        return _build(size=0, even_cover=n + 1)


def _build(size: int, even_cover: int) -> TwistPermutation:
    if size < 0 or (size == 0 and even_cover < 2):
        raise ParameterError("need size >= 2 or an even cover >= 2")
    if even_cover:
        # reserved values <= cover have preimage 4k+2; each filler j is the
        # i-th non-reserved even and is hit at index 4i
        n_b = _reserved_upto(even_cover).size
        size = max(size, 4 * (even_cover // 2 - n_b), 4 * (n_b - 1) + 2, even_cover, 2)

    b_list = first_even_in_shifted_block(np.arange(size // 4 + 2))
    # filler i is 2 (i + reserved evens below it); all lie below 2 size + 4,
    # where fewer evens are reserved than its block number (b_k in block k + 2)
    top = 2 * (size // 4 + triangular_block_index(2 * size + 4))
    fillers = np.delete(np.arange(2, top + 1, 2), _reserved_upto(top) // 2 - 1)
    table = np.arange(size + 1, dtype=np.int64)   # the odds are fixed
    table[2::4] = b_list[: table[2::4].size]
    table[4::4] = fillers[: table[4::4].size]

    evens = np.arange(2, size + 1, 2)
    images = table[evens]
    cover = int(even_cover) if even_cover else size
    inv = np.zeros(cover // 2 + 1, dtype=np.int64)
    mask = images <= cover
    inv[images[mask] // 2] = evens[mask]
    return TwistPermutation(size=size, table=table, b_list=b_list,
                            even_cover=cover, inv_even=inv)


def build_permutation(n: int) -> TwistPermutation:
    """Table of pi(m) for m <= n."""
    if n < 2:
        raise ParameterError("permutation tables start at size 2")
    return _build(n, even_cover=0)


# -- the coupling rule -------------------------------------------------------

# the partner map: variant -> (parity of the coupled indices, step to the
# partner); no index has parity -1, so plain couples none
_PARTNER = {PLAIN: (-1, 0), EVEN_TWIST: (0, -1), ODD_TWIST: (1, 1)}


@dataclass(frozen=True)
class Coupling:
    """Row i of ``index``/``head`` holds a coefficient index j and H(j); ``a``
    and ``head_a`` are the coupled rows in order, ``b`` their partners."""

    perm: TwistPermutation = field(repr=False)
    variant: str
    index: np.ndarray
    head: np.ndarray
    a: np.ndarray
    head_a: np.ndarray
    b: np.ndarray

    @cached_property
    def head_b(self) -> np.ndarray:
        """H(b); looked up on first use, as the lengths need only b."""
        return _heads(self.perm, self.variant, self.b)


def _heads(perm: TwistPermutation, variant: str, j: np.ndarray, inverse=False):
    """H(j), or H^{-1}(j) with inverse; pi fixes the odds."""
    out = j.copy()
    if variant != PLAIN:
        even = j % 2 == 0
        out[even] = (perm.pi_inv if inverse else perm.pi)(j[even])
    return out


def _coupling(perm, variant, j, inverse=False) -> Coupling:
    """Rows for the coefficient indices j or, with inverse, for the
    coefficients whose heads are the coordinates j."""
    if variant not in VARIANTS:
        raise ParameterError(f"unknown basis variant {variant!r}; expected one of {VARIANTS}")
    mapped = _heads(perm, variant, j, inverse)
    index, head = (mapped, j) if inverse else (j, mapped)
    parity, step = _PARTNER[variant]
    coupled = index % 2 == parity
    return Coupling(perm, variant, index, head, index[coupled], head[coupled],
                    index[coupled] + step)


def layout_coupling(perm: TwistPermutation, variant: str, dim: int) -> Coupling:
    """The coupling read from the coordinates: row x - 1 holds H^{-1}(x), x = 1..dim."""
    return _coupling(perm, variant, np.arange(1, dim + 1), inverse=True)


def _longest(t: Coupling, dim: int) -> int:
    """The largest coefficient index an expansion on coordinates 1..dim reaches."""
    return int(max(dim, t.index.max(initial=0), t.b.max(initial=0)))


def synthesis_cover(n_coeffs: int, perm: TwistPermutation, variant: str) -> int:
    """Smallest dimension that can hold a synthesis of n_coeffs coefficients;
    a partner beyond the permutation table raises, as in synthesis."""
    t = _coupling(perm, variant, np.arange(1, n_coeffs + 1))
    return int(max(n_coeffs, t.head.max(initial=0), t.head_b.max(initial=0)))


def twisted_analysis(v: np.ndarray, perm: TwistPermutation, variant: str) -> np.ndarray:
    """Coefficients of the coordinate vector v in the twisted basis
    (1-based order, entry m at [m-1]).

    c_j = v_{H(j)}, coordinates past v.size reading as zero, then
    c_b = v_{H(b)} - c_a for each coupled pair.
    """
    v = np.asarray(v)
    t = layout_coupling(perm, variant, v.size)
    coeffs = np.zeros(_longest(t, v.size), dtype=np.result_type(v, 0.0))
    coeffs[t.index - 1] = v
    coeffs[t.b - 1] -= coeffs[t.a - 1]
    return coeffs


def _synthesize(c: np.ndarray, t: Coupling, dim: int) -> np.ndarray:
    """sum_j c_j f_j on the coordinates 1..dim for each row of c (a trailing
    coefficient coupled forward adds the partner n + 1); raises when a
    coordinate beyond dim receives a nonzero total."""
    n = c.shape[1]
    coords = np.concatenate([t.head, t.head_b[t.b > n]])
    dtype = np.result_type(c, 0.0)
    totals = np.zeros((c.shape[0], coords.size), dtype=dtype)
    totals[:, :n] = c
    totals[:, t.b - 1] += c[:, t.a - 1]
    bad = np.flatnonzero((coords > dim) & np.any(totals != 0.0, axis=0))
    if bad.size:
        # name the first coefficient's own coordinate before a shared one
        own = np.ones(coords.size, dtype=bool)
        own[t.b - 1] = False
        j = int(bad[np.argmax(own[bad])])
        raise StructuralError(f"coefficient {j + 1} needs coordinate {int(coords[j])} "
                              f"outside layout dim {dim}")
    out = np.zeros((c.shape[0], dim), dtype=dtype)
    keep = coords <= dim
    out[:, coords[keep] - 1] = totals[:, keep]
    return out


def twisted_synthesis(coeffs, perm: TwistPermutation, variant: str,
                      layout: BlockLayout) -> np.ndarray:
    """Rebuild the coordinate vector sum_m c_m f_m inside the given layout."""
    c = np.asarray(coeffs).reshape(1, -1)
    t = _coupling(perm, variant, np.arange(1, c.shape[1] + 1))
    return _synthesize(c, t, layout.dim)[0]


def twisted_basis_matrix(n: int, perm: TwistPermutation, variant: str,
                         layout: BlockLayout) -> np.ndarray:
    """(n, dim) matrix whose row m-1 is f_m in coordinates; small n only."""
    t = _coupling(perm, variant, np.arange(1, n + 1))
    return _synthesize(np.eye(n), t, layout.dim)


def _witness_family(n, rng, n_random=6):
    """Deterministic coefficient vectors, nested across n by truncation."""
    idx = np.arange(1, n + 1) % 4   # alternating signs on (4k+1, 4k+2) pairs
    pair = np.select([idx == 1, idx == 2], [-1.0, 1.0])
    fam = [np.ones(n), 1.0 / np.sqrt(np.arange(1, n + 1))] + ([pair] if np.any(pair) else [])
    return fam + list(rng.standard_normal((n_random, n)))


def basis_layout(n: int, variant: str = EVEN_TWIST):
    """The permutation and the triangular layout that hold the first n
    basis vectors of the variant."""
    perm = TwistPermutation.covering(n)
    return perm, BlockLayout.triangular_covering(synthesis_cover(n, perm, variant))


def _sign_classes(signs, basis) -> np.ndarray:
    """The first row, in order, of each class of sign rows whose products
    (signs * a) @ basis have the same moduli for every witness a.

    The basis is 0/1 and feeds each coordinate from at most two
    coefficients, so a product coordinate reads |a_i| in every row, or
    |s_i a_i + s_j a_j|, which depends on the row only through s_i s_j:
    negating both terms negates their rounded sum.  Rows that agree on that
    bit at every shared coordinate thus have the same mixed norm bit for bit,
    for every witness and every ascent step.  Row 0 stays first; with no
    shared coordinate (plain) all rows are one class.
    """
    shared = basis[:, basis.sum(axis=0) == 2].T
    i, j = np.nonzero(shared)[1].reshape(-1, 2).T   # the two coefficients of each
    bits = np.packbits(signs[:, i] == signs[:, j], axis=1)
    # at least one 64-bit word a row: np.lexsort refuses an empty key
    words = np.zeros((signs.shape[0], max(1, -(-bits.shape[1] // 8))), dtype=np.uint64)
    words.view(np.uint8)[:, :bits.shape[1]] = bits
    order = np.lexsort(words.T)   # stable: each class lists its rows in order
    words = words[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(words[1:] != words[:-1], axis=1)
    return np.sort(order[first])


def _ratio(norms) -> float:
    """The largest norm over row 0's, the all-plus pattern; 0 (never kept)
    when row 0 is 0."""
    return float(np.max(norms) / norms[0]) if norms[0] != 0.0 else 0.0


def unconditional_constant(n: int, p, mode: str = "exact", seed: int = 0,
                           variant: str = EVEN_TWIST, n_signs: int = SAMPLED_SIGNS,
                           ascent_sweeps: int = 2) -> float:
    """Lower estimate of the unconditional constant of the twisted basis.

    Exact mode enumerates ``sign_patterns(n)`` against a fixed witness
    family; sampled mode draws seeded random signs and improves the witness
    by coordinate ascent.  Both keep one sign row of each class of
    ``_sign_classes`` and read each ratio's denominator from row 0 of the
    sign products, the all-plus pattern.  The plain variant returns 1 exactly.
    """
    if n < 2:
        raise ParameterError("need n >= 2")
    if mode == "exact":
        signs = sign_patterns(n)
    elif mode == "sampled":
        if n_signs < 2:
            raise ParameterError("sampled mode needs at least 2 sign rows")
        signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=(n_signs, n))
        # row 1 flips one member per coupled pair: turns the small
        # difference vectors of the pair witness into the large sums
        signs[:2] = 1.0
        signs[1, np.arange(n) % 4 == 0] = -1.0
    else:
        raise ParameterError("mode must be 'exact' or 'sampled'")
    perm, layout = basis_layout(n, variant)
    basis = twisted_basis_matrix(n, perm, variant, layout)
    signs = signs[_sign_classes(signs, basis)]
    scaled = np.empty_like(signs)   # reused: a fresh one is page-faulted for each witness
    witnesses = _witness_family(n, np.random.default_rng(seed + 1))
    ratios = [_ratio(combination_norms(np.multiply(signs, a, out=scaled), basis, p, layout))
              for a in witnesses]
    del scaled   # not held through the ascent, whose products set the peak
    best = max(ratios)
    if mode == "sampled":
        a = witnesses[ratios.index(best)].astype(float).copy()   # the first best
        best = _ascend(a, best, signs, basis, p, layout, ascent_sweeps)
    return best


# The sampled ascent norms exactly only the sign rows whose estimated norm
# c S^(1/p) is within this factor of the largest estimate, where c is the
# row's peak block norm and S = sum (b / c)^p lies in [1, n_blocks]: S cannot
# overflow, and a term that underflows is negligible against it.  A moved
# block's norm b is estimated from sums of squares in another order, within
# about m ulps for a block of m coordinates.  Each b / c is then off by
# about m ulps and its p-th power by about p m ulps, so S is off by about
# (p m + n_blocks) ulps, which its 1/p-th power divides by p: the estimate is
# within about (m + n_blocks + 8) ulps of the norm for every p in (1, inf].
# The row with the largest norm thus estimates within twice that of the
# largest estimate, far inside 2^-30.
_SCREEN_MARGIN = 1.0 - 2.0 ** -30


def _block_norm_estimates(seg_t, touched: BlockLayout):
    """Each row's norm of each block of ``touched``, from its columns seg_t
    (coordinates x rows) summed down the columns: within a few ulps of
    ``block_norms``, or NaN where the squares of a nonzero block fall below
    the normal float range."""
    out = np.empty((touched.n_blocks, seg_t.shape[1]))
    for k, (s, z) in enumerate(zip(touched.starts, touched.sizes)):
        blk = seg_t[s:s + z]
        out[k] = np.einsum("ij,ij->j", blk, blk)   # inf past the float range, without a warning
        low = out[k] < _NORMAL_MIN
        if low.any():
            out[k, low & (np.abs(blk).max(axis=0) > 0.0)] = math.nan
    return np.sqrt(out)


def _contenders(c_rest, mass, touched, p):
    """Rows whose norm may be the largest of the trial: row 0, every row whose
    estimate is within _SCREEN_MARGIN of the largest finite one, and every row
    whose estimate is NaN or inf.  ``c_rest`` and ``mass`` are each row's peak
    and sum (b / c_rest)^p over the blocks the step leaves alone, ``touched``
    the estimated norms of the blocks it moves, a block a row."""
    with np.errstate(all="ignore"):   # non-finite estimates are kept whatever they read
        c = c_rest
        for b in touched:
            c = np.maximum(c, b)
        if p == math.inf:
            est = c
        else:
            safe = np.where(c > 0.0, c, 1.0)
            s = mass * (c_rest / safe) ** p
            for b in touched:
                s += (b / safe) ** p
            est = c * s ** (1.0 / p)
    finite = np.isfinite(est)
    keep = ~finite | (est >= np.max(est, where=finite, initial=0.0) * _SCREEN_MARGIN)
    keep[0] = True
    return np.flatnonzero(keep)


def _ascend(a, best, signs, basis, p, layout: BlockLayout, sweeps: int) -> float:
    """Coordinate ascent on the witness a, whose ratio is best, over the real
    0/1 basis on a triangular layout: each step rescales one coefficient and
    keeps the change when the ratio rises.

    The sign products (signs * a) @ basis, held coordinates x rows, and their
    block norms are kept across steps.  Rescaling a_i moves only the
    coordinates of f_i (at most two), each fed by at most two coefficients,
    so a step recomputes those coordinates and the blocks holding them.  Each
    is a sum of at most two exact products, so the values equal the full
    product's bit for bit.

    The ratio reads two rows: row 0 and the largest.  A cheap estimate of
    each row's norm (see _SCREEN_MARGIN) picks the rows that can hold the
    largest, and only those, with row 0, go through ``block_norms`` and
    ``_lp_of_blocks``.  Both norm each row on its own, so the largest of those
    exact norms is the whole table's bit for bit, and the kept steps, the
    products and the result are those of norming every row; the moved blocks
    of every row are normed exactly only when a step is kept.
    """
    p = float(p)
    prod = (signs * a) @ basis
    bn_t = np.ascontiguousarray(block_norms(prod, layout).T)   # blocks x rows
    prod_t = np.ascontiguousarray(prod.T)                       # coordinates x rows
    del prod
    plans = []
    for i in range(a.size):
        cols = np.flatnonzero(basis[i])                     # the coordinates of f_i
        feed = np.flatnonzero(basis[:, cols].any(axis=1))   # the coefficients feeding them
        ks = np.unique(triangular_block_index(cols + 1)) - 1   # the blocks holding them
        span = np.concatenate([np.arange(s, s + z) for s, z in
                               zip(layout.starts[ks], layout.sizes[ks])])
        rest = np.delete(np.arange(layout.n_blocks), ks)   # the blocks left alone
        plans.append((span, np.searchsorted(span, cols), ks, rest,
                      BlockLayout.from_sizes(layout.sizes[ks]), feed, basis[np.ix_(feed, cols)].T))
    work = np.empty_like(bn_t)   # reused: a fresh one is page-faulted for each coefficient
    for _ in range(sweeps):
        for i, (span, at, ks, rest, touched, feed, feed_basis) in enumerate(plans):
            feed_signs = signs.T[feed]   # per coefficient: n copies would hold up to 3 sign tables
            others = np.take(bn_t, rest, axis=0, out=work[:rest.size])
            c_rest = others.max(axis=0, initial=0.0)
            mass = None
            if p != math.inf:
                with np.errstate(invalid="ignore"):   # a row holding inf or NaN is normed exactly
                    others /= np.where(c_rest > 0.0, c_rest, 1.0)
                    mass = np.power(others, p, out=others).sum(axis=0)
            keep, val, kept = best, a[i], None
            for step in (0.5, 2.0, -1.0):
                a[i] = val * step if val != 0 else step
                seg_t = prod_t[span]
                seg_t[at] = feed_basis @ (feed_signs * a[feed, None])
                rows = _contenders(c_rest, mass, _block_norm_estimates(seg_t, touched), p)
                trial = bn_t[:, rows].T.copy()
                trial[:, ks] = block_norms(seg_t[:, rows].T.copy(), touched)
                r = _ratio(_lp_of_blocks(trial, p))
                if r > keep:
                    keep, val, kept = r, a[i], seg_t
            a[i] = val
            if kept is not None:
                prod_t[span] = kept
                bn_t[ks] = block_norms(kept.T.copy(), touched).T
            best = max(best, keep)
    return best
