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

``Coupling`` holds the rule as arrays; analysis, synthesis (also of the
unconditional constant's sign products), the covers and the multiplier
structure all read it.  Coefficient analysis (vector -> twisted
coefficients) is total; synthesis back into a fixed layout fails with a
structural error when a coordinate outside the layout receives a nonzero
total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .blockspace import (_NORMAL_MIN, BlockLayout, SignDraws, _check_p, _lp_of_blocks,
                         block_norms, block_rows, combination_norms, sign_patterns,
                         triangular_block_index, triangular_end)
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

    @cached_property
    def cover(self) -> int:
        """Smallest dimension that can hold a synthesis over the coefficients
        ``index``; a partner beyond the permutation table raises, as in synthesis."""
        return int(max(self.index.size, self.head.max(initial=0), self.head_b.max(initial=0)))


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
    """sum_j c_j f_j on the coordinates 1..dim for each row of c: c_j at H(j),
    plus c_a at H(b) for each coupled pair (b = n + 1 for a trailing a); raises
    when a coordinate beyond dim, the only ones checked, gets a nonzero total."""
    out = np.zeros((c.shape[0], max(dim, t.cover)), dtype=np.result_type(c, 0.0))
    out[:, t.head - 1] = c
    out[:, t.head_b - 1] += c[:, t.a - 1]
    if t.cover > dim:
        # position j - 1 holds H(j); a trailing partner H(n + 1) comes last
        coords = np.concatenate([t.head, t.head_b[t.b > c.shape[1]]])
        far = np.flatnonzero(coords > dim)
        bad = far[out[:, coords[far] - 1].any(axis=0)]
        if bad.size:
            # name the first coefficient's own coordinate before a shared one
            j = int(min(np.setdiff1d(bad, t.b - 1), default=bad[0]))
            raise StructuralError(f"coefficient {j + 1} needs coordinate {int(coords[j])} "
                                  f"outside layout dim {dim}")
    return np.ascontiguousarray(out[:, :dim])


def twisted_synthesis(coeffs, perm: TwistPermutation, variant: str,
                      layout: BlockLayout) -> np.ndarray:
    """Rebuild the coordinate vector sum_m c_m f_m inside the given layout."""
    c = np.asarray(coeffs).reshape(1, -1)
    t = _coupling(perm, variant, np.arange(1, c.shape[1] + 1))
    return _synthesize(c, t, layout.dim)[0]


def _witness_family(n, rng):
    """Deterministic coefficient vectors, nested across n by truncation."""
    idx = np.arange(1, n + 1) % 4   # alternating signs on (4k+1, 4k+2) pairs
    pair = np.select([idx == 1, idx == 2], [-1.0, 1.0])
    fam = [np.ones(n), 1.0 / np.sqrt(np.arange(1, n + 1))] + ([pair] if np.any(pair) else [])
    return fam + list(rng.standard_normal((6, n)))


def basis_layout(n: int, variant: str = EVEN_TWIST):
    """The coupling of the first n basis vectors of the variant, over the
    permutation that serves them, and the triangular layout that holds them."""
    t = _coupling(TwistPermutation.covering(n), variant, np.arange(1, n + 1))
    return t, BlockLayout.triangular_covering(t.cover)


def _sign_classes(signs, t: Coupling) -> np.ndarray:
    """The first row, in order, of each class of sign rows whose products
    _synthesize(signs * a, t, dim) have the same moduli for every witness a.

    A product coordinate reads |a_i| in every row, or |s_i a_i + s_j a_j| at
    H(j) for a coupled pair (i, j) = (t.a, t.b) with j <= n, which depends on
    the row only through s_i s_j: negating both terms negates their rounded sum.  Rows
    that agree on that bit for every such pair thus have the same mixed norm
    bit for bit, for every witness and every ascent step.  Row 0 stays first;
    with no such pair (plain) all rows are one class.
    """
    shared = t.b <= signs.shape[1]
    bits = np.packbits(signs[:, t.a[shared] - 1] == signs[:, t.b[shared] - 1], axis=1)
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
    family; sampled mode draws n_signs x n seeded random signs, the signs of
    one ``choice([-1.0, 1.0])`` call read from the generator's raw stream by
    ``SignDraws``, and improves the witness by coordinate ascent.  Both keep
    one sign row of each class of ``_sign_classes`` and read each ratio's
    denominator from row 0 of the sign products, the all-plus pattern.  The
    plain variant returns 1 exactly.
    """
    if n < 2:
        raise ParameterError("need n >= 2")
    if mode == "exact":
        signs = sign_patterns(n)
    elif mode == "sampled":
        if n_signs < 2:
            raise ParameterError("sampled mode needs at least 2 sign rows")
        signs = SignDraws(np.random.default_rng(seed)).signs(n_signs, n)
        # row 1 flips one member per coupled pair: turns the small
        # difference vectors of the pair witness into the large sums
        signs[:2] = 1.0
        signs[1, np.arange(n) % 4 == 0] = -1.0
    else:
        raise ParameterError("mode must be 'exact' or 'sampled'")
    t, layout = basis_layout(n, variant)
    signs = signs[_sign_classes(signs, t)]
    witnesses = _witness_family(n, np.random.default_rng(seed + 1))
    p = _check_p(p)
    ratios = _ratings(witnesses, signs, t, p, layout)
    best = max(ratios)
    if mode == "sampled":
        a = witnesses[ratios.index(best)].astype(float).copy()   # the first best
        del witnesses   # not held through the ascent, whose products set the peak
        best = _ascend(a, best, signs, t, p, layout, ascent_sweeps)
    return best


def _ratings(witnesses, signs, t: Coupling, p, layout: BlockLayout) -> list:
    """Each witness a's ratio, ``_ratio(combination_norms(signs * a, products,
    p, layout))`` for the products _synthesize(., t, layout.dim), bit for bit.

    Each row's block sums of squares come from the coordinates the coupling
    writes (``_WrittenSquares``).  From those the ascent's screen rule, with
    every block moved and nothing left alone (``_screen_keep``), picks the
    rows that can hold the largest norm; only those and row 0 are synthesized
    at full dim and go through ``combination_norms``, which norms each row on
    its own, so the largest of their norms is the whole table's bit for bit.
    Where there are few sign rows several witnesses are rated in one row
    block of at most _PATTERN_CELLS product cells at full dim.
    """
    squares = _WrittenSquares(signs, t, layout)
    screened = p == math.inf or _power_bounds(p, layout)[0] is not None
    products = partial(_synthesize, t=t, dim=layout.dim)
    per = max(1, block_rows(layout.dim) // signs.shape[0])   # witnesses a row block
    ratios = []
    for i in range(0, len(witnesses), per):
        a = np.array(witnesses[i:i + per], dtype=float)   # witnesses x coefficients
        if screened:
            keep = _screen_keep(*squares(a), p, layout)
        else:   # past _POWER_SCREEN_ERR every row is normed
            keep = np.ones((a.shape[0], signs.shape[0]), dtype=bool)
        which, rows = np.nonzero(keep)   # by witness, each its rows in order, row 0 first
        norms = combination_norms(signs[rows] * a[which], products, p, layout)
        ratios += [_ratio(x) for x in np.split(norms, np.flatnonzero(np.diff(which)) + 1)]
    return ratios


class _WrittenSquares:
    """Each row's block sums of squares of the sign products
    _synthesize(signs * a, t, dim) of witnesses a, over the coordinates the
    coupling writes; every other coordinate is 0 in every row.

    A coordinate that one coefficient writes reads +-a_j in every row: a
    head other than a shared partner's, or a trailing partner's head, which
    reads the coupled a_j.  The head of a shared partner b of a coupled a
    reads +-(a_b + a_a) in the rows where the signs of a and b agree and
    +-(a_b - a_a) where they differ, as in _sign_classes, so each square is
    the one of the full product.  The sums add the same squares as
    block_norms in another order."""

    def __init__(self, signs, t: Coupling, layout: BlockLayout):
        n = signs.shape[1]
        shared = t.b <= n
        lone = np.ones(n, dtype=bool)
        lone[t.b[shared] - 1] = False
        self.lone = np.concatenate([np.flatnonzero(lone), t.a[~shared] - 1])
        self.lone_block = triangular_block_index(
            np.concatenate([t.head[lone], t.head_b[~shared]])) - 1
        order = np.argsort(t.head_b[shared])   # the shared partners' heads ascending
        self.pair_a, self.pair_b = t.a[shared][order] - 1, t.b[shared][order] - 1
        self.agree = np.ascontiguousarray((signs[:, self.pair_a] == signs[:, self.pair_b]).T)
        block = triangular_block_index(t.head_b[shared][order]) - 1
        first = np.flatnonzero(np.diff(block, prepend=-1))
        # each block of shared heads: its number and its pairs [start, end)
        self.runs = list(zip(block[first].tolist(), first.tolist(),
                             [*first[1:].tolist(), block.size]))
        fixed = np.zeros(layout.n_blocks, dtype=bool)
        fixed[self.lone_block] = True
        fixed[block] = False
        self.fixed = np.flatnonzero(fixed)   # the blocks that read the same in every row
        self.n_blocks = layout.n_blocks

    @np.errstate(over="ignore")   # inf past the float range, which every row then reads
    def __call__(self, a):
        """The sums of the witnesses a (witnesses x coefficients), blocks x
        witnesses x rows: one array for the blocks holding a shared head and
        one, a row wide, for the blocks that read the same in every row; and
        for each witness whether a nonzero coordinate may fall under 2^-511,
        whose square is below the normal range."""
        x, y = a[:, self.pair_b], a[:, self.pair_a]
        values = np.abs(np.concatenate([a[:, self.lone], x + y, x - y], axis=1))
        tiny = ((values > 0.0) & (values < 2.0 ** -511)).any(axis=1)
        lone = np.zeros((self.n_blocks, a.shape[0]))
        np.add.at(lone, self.lone_block, np.square(a[:, self.lone]).T)
        picked = np.where(self.agree[:, None, :], np.square(x + y).T[:, :, None],
                          np.square(x - y).T[:, :, None])   # pairs x witnesses x rows
        varying = np.empty((len(self.runs), *picked.shape[1:]))
        for j, (k, start, end) in enumerate(self.runs):
            np.add(picked[start:end].sum(axis=0), lone[k, :, None], out=varying[j])
        return (varying, lone[self.fixed, :, None]), tiny


def _screen_keep(sums, tiny, p, layout: BlockLayout):
    """The rows a rating norms exactly, witnesses x rows, from block sums of
    squares, blocks x witnesses x rows (or x 1 for blocks that read the same
    in every row): the ascent's screen of a trial that moves every block and
    leaves none alone, so nothing is subtracted and the tolerance is 2 eta.
    Every row of a witness is kept where a nonzero block's sum may fall
    below the normal range (``tiny``) or where g^2, its largest sum, leaves
    the normal range."""
    if p == math.inf:
        est = np.sqrt(np.maximum(*(x.max(axis=0, initial=0.0) for x in sums)))
        est[tiny] = math.nan
        return _contenders(est, _SCREEN_MARGIN)
    margin, _, eta = _power_bounds(p, layout)
    g = np.sqrt(np.maximum(*(x.max(axis=(0, 2), initial=0.0) for x in sums)))
    scale = np.array([math.nan if low else _inverse_square(x) for x, low in zip(g, tiny)])
    return _contenders(sum(_power_sum(x, scale[:, None], p) for x in sums), margin, 2.0 * eta)


# At p = inf the sampled ascent norms exactly only the sign rows whose
# estimated norm, the largest of its block norms, is within this factor of the
# largest estimate.  A moved block's norm is estimated from its sum of squares
# in another order, within about m + 4 ulps of its norm for a block of m
# coordinates, so the row with the largest norm estimates within twice that of
# the largest estimate, far inside 2^-30.
_SCREEN_MARGIN = 1.0 - 2.0 ** -30

# For finite p the ascent screens in p-th-power space.  With g the table's
# largest block norm, P = (b / g)^p for each block norm b of the table and T a
# row's sum of P, a trial's screen value of a row is
#     E = (T - P[moved]) + sum over the moved blocks of (s / g^2)^(p/2),
# s the moved blocks' sums of squares, against X = (N / g)^p for the row's
# norm N in real arithmetic.  With u = 2^-53, m the largest block size, n_b
# the number of blocks and err = (p + 1)(m + n_b + 16) u:
# - ordering: block_norms sums a block's squares, rescaled or not, and takes
#   a root, within (m + 4) u of the block's norm; s sums the same squares in
#   another order, within (m + 1) u, or reads NaN where a nonzero block's sum
#   falls below the normal range;
# - np.power: the quotient by g, or the product by 1 / g^2, adds up to 3 u;
#   the power multiplies the error by p, or p / 2, and adds its own u, so
#   each term is within (p + 1)(m + 6) u of (b / g)^p, plus
#   2^(1 - 1073 min(1, p / 2)) where its argument falls below the normal
#   range (a power q <= 1 is off by at most the q-th power of that error);
# - the subtraction: T adds n_b terms and T - P[moved] may cancel, which costs
#   up to c T with c = (n_b + 8) u and T the row's own sum before the step;
#   adding the moved terms costs 2 u E.
#   So |E - X| <= err X + c T + eta, with eta = (n_b + 4) 2^(1 - 1073 min(1, p / 2));
# - the exact norm: _lp_of_blocks rounds the block norms, their quotients by
#   the peak, the powers, the sum, the root and the product, so its value n is
#   within (m + n_b + 9) u of N, and n^p within err of N^p.
# The row whose exact norm is the largest thus has X at least (1 - 2 err)
# times that of the row with the largest E, top, so its E is at least
# top (1 - 4 err) - tol with tol = 2 (c max T + eta): the rows with
# E >= top margin_p - tol, margin_p = 1 - 32 err, hold it.  The ratio
# r = n / n_0 of that row over row 0 has
# r^p <= (1 + 5 err) (top + tol) / (E_0 - c T_0 - eta).  The screen's bound
# divides top by margin_p and multiplies E_0 by it, which covers those 5 err
# and its own rounding, so a trial with ((top / margin_p + tol) / (E_0 margin_p - c T_0 - eta))^(1/p)
# <= keep cannot be kept and is not normed.  The bounds are linear in err and
# hold while err <= 2^-20; past that every row is normed exactly.  A non-finite
# E (a sum of squares or a table entry past the float range, g zero, or g^2
# or its inverse outside the normal range) marks its row a contender and the
# trial is never skipped; nor is it when E_0 margin_p <= c T_0 + eta, which a
# zero E_0 always is.  The witness ratings (_screen_keep) are the trial that
# moves every block: T = 0, so c drops out, tol = 2 eta, and g^2 is the
# largest sum of squares in place of the table's largest norm squared.
_POWER_SCREEN_ERR = 2.0 ** -20


def _power_bounds(p, layout: BlockLayout):
    """margin_p, None where err passes _POWER_SCREEN_ERR, c and eta of the
    p-th-power screen over the blocks of layout (see _POWER_SCREEN_ERR)."""
    unit = 2.0 ** -53
    err = (p + 1.0) * (int(layout.sizes.max()) + layout.n_blocks + 16) * unit
    return (1.0 - 32.0 * err if err <= _POWER_SCREEN_ERR else None,
            (layout.n_blocks + 8) * unit,
            (layout.n_blocks + 4) * 2.0 ** (1.0 - 1073.0 * min(1.0, p / 2.0)))


def _inverse_square(g) -> float:
    """1 / g^2, which scales the sums of squares; NaN, which every row then
    reads, where g^2 or its inverse leaves the normal range."""
    return 1.0 / (g * g) if 2.0 ** -500 <= g <= 2.0 ** 500 else math.nan


def _power_sum(sq, scale, p, rest=0.0):
    """Each row's screen value: rest plus the sum over the blocks (the first
    axis) of (s scale)^(p/2) for its sums of squares s."""
    with np.errstate(all="ignore"):   # non-finite values are kept whatever they read
        return rest + np.power(sq * scale, p / 2.0).sum(axis=0)


def _block_squares(seg_t, touched: BlockLayout):
    """Each row's sum of squares of each block of ``touched``, from its
    columns seg_t (coordinates x rows) summed down the columns: inf past the
    float range, and NaN where the squares of a nonzero block fall below the
    normal float range."""
    out = np.empty((touched.n_blocks, seg_t.shape[1]))
    for k, (s, z) in enumerate(zip(touched.starts, touched.sizes)):
        blk = seg_t[s:s + z]
        out[k] = np.einsum("ij,ij->j", blk, blk)   # inf past the float range, without a warning
        low = out[k] < _NORMAL_MIN
        if low.any():
            out[k, low & (np.abs(blk).max(axis=0) > 0.0)] = math.nan
    return out


def _moved_squares(sq_rest, moved, fold: bool):
    """Each row's sums of squares of the blocks a step moves: ``sq_rest``,
    those of the coordinates it leaves alone (``_block_squares``), plus the
    squares of the moved coordinates ``moved`` (coordinates x rows), one a
    block or, with fold, both in the one block.  As in ``_block_squares``:
    inf past the float range, and NaN where the squares of a nonzero block
    fall below the normal float range; sq_rest is 0 there, or NaN already, so
    the block is nonzero where a moved coordinate is."""
    # inf past the float range, without a warning
    sq = sq_rest + np.einsum("ij,ij->j" if fold else "ij,ij->ij", moved, moved)
    low = sq < _NORMAL_MIN
    if low.any():
        nonzero = moved != 0.0
        sq[low & (nonzero.any(axis=0) if fold else nonzero)] = math.nan
    return sq


def _contenders(est, margin, tol=0.0):
    """Which rows (the last axis) of the screen values ``est`` may hold the
    largest: row 0, every row whose value is at least ``margin`` times the
    largest finite one less ``tol``, and every row whose value is NaN or inf."""
    finite = np.isfinite(est)
    top = np.max(est, axis=-1, where=finite, initial=0.0, keepdims=True)
    keep = ~finite | (est >= top * margin - tol)
    keep[..., 0] = True
    return keep


class _SupScreen:
    """The screen at p = inf: a row's estimate is its largest block norm, over
    the table's blocks left alone and the roots of the moved blocks' sums of
    squares (see _SCREEN_MARGIN)."""

    def __init__(self, bn_t):
        self.bn_t = bn_t   # blocks x rows, as the ascent updates it

    def update(self, ks):
        """Nothing to redo when a kept step moves the blocks ks: the screen
        reads the table as it stands."""

    def rest(self, ks):
        """Each row's largest norm over the blocks other than ks."""
        return np.delete(self.bn_t, ks, axis=0).max(axis=0, initial=0.0)

    def contenders(self, rest, sq, keep):
        """The rows to norm exactly; never None, as this screen skips no trial."""
        return np.flatnonzero(_contenders(np.maximum(rest, np.sqrt(sq.max(axis=0))),
                                          _SCREEN_MARGIN))


class _PowerScreen:
    """The screen at finite p, in p-th-power space (see _POWER_SCREEN_ERR):
    the table P = (b / g)^p of the block norms b, blocks x rows, g the largest,
    and each row's sum T, updated on each kept step."""

    def __init__(self, bn_t, p, layout: BlockLayout):
        self.p = p
        self.margin, self.c, self.eta = _power_bounds(p, layout)
        self.bn_t, self.g = bn_t, math.nan   # blocks x rows, as the ascent updates it
        self.update(None)

    def update(self, ks):
        """Form the table again after a kept step moved the blocks ks of the
        block norms: their rows alone while g stays, else the whole table."""
        g = float(self.bn_t.max())
        with np.errstate(all="ignore"):   # a non-finite or zero g reads non-finite entries
            if g == self.g:
                self.P[ks] = np.power(self.bn_t[ks] / g, self.p)
            else:
                self.g, self.scale = g, _inverse_square(g)
                self.P = np.power(self.bn_t / g, self.p)
        self.T = self.P.sum(axis=0)
        top_t = np.max(self.T, where=np.isfinite(self.T), initial=0.0)
        self.tol = 2.0 * (self.c * float(top_t) + self.eta)

    def rest(self, ks):
        """Each row's sum of P over the blocks other than ks."""
        return self.T - self.P[ks].sum(axis=0)

    def contenders(self, rest, sq, keep):
        """The rows to norm exactly, or None when the trial's ratio cannot
        exceed keep."""
        if self.margin is None:
            return np.arange(rest.size)
        e = _power_sum(sq, self.scale, self.p, rest)
        top = float(e.max())   # NaN or inf when any value is
        if math.isfinite(top):
            den = float(e[0]) * self.margin - (self.c * float(self.T[0]) + self.eta)
            if den > 0.0 and ((top / self.margin + self.tol) / den) ** (1.0 / self.p) <= keep:
                return None
        return np.flatnonzero(_contenders(e, self.margin, self.tol))


def _plans(t: Coupling, layout: BlockLayout) -> list:
    """Each coefficient i's visit of the ascent over the triangular layout:
    (cols, span, at, ks, touched, other), the coordinates of f_i (at most
    two, ascending), the coordinates of the blocks ks holding them (one or
    two) laid end to end, the places of cols in span, the layout of those
    blocks, and for each of cols the other coefficient feeding it, or i
    where none does (a_i is zero while its visit forms the others' part).
    One BlockLayout serves each distinct pair of sizes."""
    n = t.index.size
    shared = t.b <= n
    coef = np.concatenate([np.arange(n), t.a - 1])
    coords = np.concatenate([t.head, t.head_b]) - 1
    others = np.concatenate([np.arange(n), np.where(shared, t.b, t.a) - 1])
    others[t.b[shared] - 1] = t.a[shared] - 1
    order = np.lexsort((coords, coef))   # by coefficient, its coordinates in block order
    coef, coords, others = coef[order], coords[order], others[order]
    ends = np.cumsum(np.bincount(coef, minlength=n))
    firsts = np.concatenate(([0], ends[:-1]))
    k = triangular_block_index(coords + 1) - 1   # the block of each coordinate
    ks = np.stack([k[firsts], k[ends - 1]], axis=1)
    two = ks[:, 1] != ks[:, 0]
    sizes = layout.sizes[ks] * np.stack([np.ones(n, dtype=np.int64), two], axis=1)
    # a coordinate's place: past its block's start, and past the first block
    # when it lies in the second
    second = k != ks[coef, 0]
    at = coords - layout.starts[k] + np.where(second, sizes[coef, 0], 0)
    length = sizes.sum(axis=1)
    span_ends = np.cumsum(length)
    owner = np.repeat(np.arange(n), length)
    step = np.arange(span_ends[-1]) - np.repeat(span_ends - length, length)
    first = sizes[owner, 0]
    past = step >= first   # in the second block
    span = layout.starts[ks[owner, past.astype(np.intp)]] + step - past * first
    pairs = list(zip(sizes[:, 0].tolist(), sizes[:, 1].tolist()))
    touched = {}
    for z0, z1 in set(pairs):
        m = 1 + (z1 > 0)
        touched[z0, z1] = BlockLayout(sizes=np.array((z0, z1)[:m]), starts=np.array((0, z0)[:m]),
                                      dim=z0 + z1, n_blocks=m)
    return [(coords[f:e], span[u - z0 - z1:u], at[f:e], ks[i, :1 + (z1 > 0)],
             touched[z0, z1], others[f:e])
            for i, (f, e, u, (z0, z1)) in enumerate(zip(firsts.tolist(), ends.tolist(),
                                                        span_ends.tolist(), pairs))]


def _ascend(a, best, signs, t: Coupling, p, layout: BlockLayout, sweeps: int) -> float:
    """Coordinate ascent on the witness a, whose ratio is best, over the basis
    of the coupling t on a triangular layout: each step rescales one
    coefficient and keeps the change when the ratio rises.

    The sign products _synthesize(signs * a, t, dim), held coordinates x rows,
    and their block norms are kept across steps.  Rescaling a_i moves only the
    coordinates of f_i (at most two), each fed by a_i and at most one other
    coefficient, so a step recomputes those coordinates, s_i a_i plus the
    other's part, and the blocks holding them.  Each is a sum of at most two
    exact products, so the values equal the full product's bit for bit.

    The ratio reads two rows: row 0 and the largest.  A screen value of each
    row's norm, from the sums of squares of the blocks the step moves (those
    of the coordinates it leaves alone summed once a coefficient), picks the
    rows that can hold the largest, and only those, with row 0, go through
    ``block_norms`` and ``_lp_of_blocks``; at finite p the screen also bounds
    the trial's ratio and skips the exact norms of a trial that cannot rise
    above the ratio kept (see _POWER_SCREEN_ERR).  Both norm each row on its
    own, so the largest of those exact norms is the whole table's bit for
    bit, and the kept steps, the products and the result are those of norming
    every row; the moved blocks of every row are normed exactly, and the
    screen's table updated, only when a step is kept.  A cycle of n
    visits that keeps nothing leaves the state as it found it, so every later
    visit would keep nothing either: the ascent returns.
    """
    p, n = float(p), a.size
    prod = _synthesize(signs * a, t, layout.dim)
    bn_t = np.ascontiguousarray(block_norms(prod, layout).T)   # blocks x rows
    prod_t = np.ascontiguousarray(prod.T)                       # coordinates x rows
    del prod
    plans = _plans(t, layout)
    screen = _SupScreen(bn_t) if p == math.inf else _PowerScreen(bn_t, p, layout)
    idle = 0   # consecutive visits that kept nothing
    for _ in range(sweeps):
        for i, (cols, span, at, ks, touched, other) in enumerate(plans):
            val = a[i]
            a[i] = 0.0
            fixed = signs.T[other] * a[other, None]   # the other coefficients' part
            sign = signs.T[i]
            base = prod_t[span]
            base[at] = 0.0
            sq_rest = _block_squares(base, touched)
            fold = cols.size > ks.size   # both coordinates in one block
            rest = screen.rest(ks)
            keep, kept = best, None
            for step in (0.5, 2.0, -1.0):
                a[i] = val * step if val != 0 else step
                moved = fixed + a[i] * sign
                rows = screen.contenders(rest, _moved_squares(sq_rest, moved, fold), keep)
                if rows is None:
                    continue
                seg_t = base[:, rows]
                seg_t[at] = moved[:, rows]
                trial = bn_t[:, rows].T.copy()
                trial[:, ks] = block_norms(seg_t.T.copy(), touched)
                r = _ratio(_lp_of_blocks(trial, p))
                if r > keep:
                    keep, val, kept = r, a[i], moved
            a[i] = val
            if kept is None:
                idle += 1
                if idle == n:
                    return best
                continue
            idle = 0
            prod_t[cols] = kept
            bn_t[ks] = block_norms(prod_t[span].T.copy(), touched).T
            screen.update(ks)
            best = keep
    return best
