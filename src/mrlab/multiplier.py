"""Schauder multipliers for the twisted basis, realized on truncations.

The multiplier with symbol g scales each basis vector f_j by g(y_j).  By
the coupling rule of ``twistbasis``, f_a = e_{H(a)} + e_{H(b)} for each
coupled pair (a, b) and f_j = e_{H(j)} otherwise, so in coordinates it is
the diagonal g(y_j) at column H(j) plus g(y_a) - g(y_b) at row H(b),
column H(a), for each coupled pair.

Rows that fall outside the truncation are dropped.  Because the coupled
rows are never themselves coupled columns, that projection commutes with
composition, so the semigroup law, the resolvent identity and the group
law of the imaginary powers hold exactly at every truncation, and on
truncations the permutation maps into itself the operator is similar to
the plain diagonal through the coordinate transforms.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .blockspace import (_NORMAL_MIN, BlockLayout, _check_p, _lp_of_blocks, block_norms,
                         bv_norm, triangular_block_index)
from .errors import InvariantViolation, ParameterError, SingularityError
from .sequences import (_LN2, MultiplierSeq, RatioSeq, family_seq, step_offsets,
                        twisted_lacunary)
from .twistbasis import EVEN_TWIST, TwistPermutation, layout_coupling

__all__ = [
    "TwistedMultiplier",
    "PositivityReport",
    "SectorialityReport",
    "positivity_check",
    "bip_pair_ratios",
    "bv_semigroup_bound",
    "sectoriality_probe",
    "opnorm_lower",
    "scaled_resolvent_values",
]

_LOG2_HUGE = 600.0  # beyond this, treat gamma as infinite relative to any sane lambda
_EXP_DEAD = 746.0   # np.exp(-x) is exactly 0.0 for every x > 745.14
_SCAN_CELLS = 1 << 15   # float64 cells per block of the positivity table
_PROBE_CELLS = 1 << 14  # complex cells per batch of duality-map ascents
_ASCENT_STEPS = 12      # duality-map steps of each ascent before its last evaluation


@dataclass(frozen=True)
class _Structure:
    diag_src: np.ndarray       # 1-based sequence index feeding each diagonal slot
    off_rows: np.ndarray       # 0-based row positions of the off-diagonal entries
    off_cols: np.ndarray       # 0-based column positions
    off_hi: np.ndarray         # sequence index whose g-value enters positively
    off_lo: np.ndarray         # sequence index subtracted
    needed: int                # largest sequence index the structure reads


@dataclass(frozen=True)
class TwistedMultiplier:
    """Multiplier operator descriptor.

    Parameters
    ----------
    seq : MultiplierSeq
        The positive multiplier sequence.  Must cover every index the
        structure reads: the table indices and their partners.
    perm : TwistPermutation
        Permutation of the evens; it must serve the coordinates of the
        layout, as ``TwistPermutation.covering(layout.dim)`` does.
    variant : str
        One of "plain", "even-twist", "odd-twist".
    layout : BlockLayout
        The coordinate truncation the operator acts on.
    """

    seq: MultiplierSeq
    perm: TwistPermutation
    variant: str
    layout: BlockLayout

    def __post_init__(self):
        needed = self.structure.needed
        if self.seq.length < needed:
            raise ParameterError(
                f"sequence of length {self.seq.length} is too short; the "
                f"truncation couples indices up to {needed}"
            )

    @classmethod
    def covering(cls, dim: int, family: str, param=None,
                 bound: float = 0.125) -> "TwistedMultiplier":
        """The even-twist operator of a named family (``sequences.family_seq``)
        on the smallest triangular layout holding ``dim`` coordinates.

        The permutation is ``TwistPermutation.covering`` of the layout
        dimension.  Every index the structure reads is a table index or its
        partner, so the sequence runs one past the table.
        """
        layout = BlockLayout.triangular_covering(dim)
        perm = TwistPermutation.covering(layout.dim)
        return cls(family_seq(family, param, perm.size + 1, bound)[0], perm, EVEN_TWIST, layout)

    @cached_property
    def structure(self) -> _Structure:
        return _structure(self.layout, self.perm, self.variant)

    # -- symbol evaluation ------------------------------------------------

    def symbols(self, g):
        """Diagonal and coupling entries of the multiplier with symbol values g.

        ``g[..., i - 1]`` is the symbol at sequence index i, for i = 1 ..
        ``structure.needed``; returns ``(diag, off)``, one row of each per
        row of a stack g, which ``apply_symbols`` applies row by row.
        """
        st = self.structure
        if g.shape[-1] < st.needed:
            raise ParameterError(f"symbol values must cover index {st.needed}")
        return (g.take(st.diag_src - 1, axis=-1),
                g.take(st.off_hi - 1, axis=-1) - g.take(st.off_lo - 1, axis=-1))

    def apply_symbols(self, diag, off, arr):
        """Multiply by the entries ``symbols`` returned; batches run along the last axis."""
        st = self.structure
        out = arr * diag
        out[..., st.off_rows] += off * arr[..., st.off_cols]
        return out

    def adjoint_apply_symbols(self, diag, off, arr):
        """The adjoint of ``apply_symbols`` with the same entries."""
        st = self.structure
        # named: past 256 KiB numpy reuses a temporary right operand of the
        # output's shape and multiplies in swapped order, which rounds the
        # complex products differently (_ascend writes these products with
        # out=, in this order)
        conj_diag = np.conj(diag)
        out = arr * conj_diag
        out[..., st.off_cols] += np.conj(off) * arr[..., st.off_rows]
        return out

    def _multiply(self, g, v):
        diag, off = self.symbols(g)
        arr = np.asarray(v)
        if arr.shape[-1] != self.layout.dim:
            raise ParameterError("vector length does not match the operator layout")
        return self.apply_symbols(diag, off, arr)

    def _log2(self):
        return self.seq.log2[: self.structure.needed]

    @cached_property
    def _gamma(self):
        """gamma_i for i = 1 .. structure.needed, inf where float64 overflows."""
        return self.seq.values_upto(self.structure.needed, allow_inf=True)

    # -- the operator family ----------------------------------------------

    def apply(self, v):
        """A v, the multiplier with symbol g(x) = x."""
        return self._multiply(self.seq.values_upto(self.structure.needed), v)

    def resolvent(self, lam, v):
        """(lam - A)^{-1} v for lam off the truncated spectrum."""
        return self._multiply(self._resolvent_values(complex(lam)), v)

    def _resolvent_values(self, lam, singular=None, variation=None):
        """1 / (lam - gamma_i), i = 1 .. structure.needed, for one lam, or a row
        of them for each lam of a column, all from one lam - gamma.

        A lam within 1e-14 relative of a gamma_i below 2^600 raises
        SingularityError, or, given ``singular`` (a boolean per row), is
        marked there and its row is left unset.  Given ``variation``, each
        other row's ``bv_norm`` of lam / (lam - gamma), read as 0 where it is
        not finite, is written there.
        """
        log2, vals = self._log2(), self._gamma
        lams = np.asarray(lam, dtype=np.complex128)
        if any(abs(x) >= 2.0 ** 500 for x in lams.ravel().tolist()):
            raise ParameterError("resolvent parameters beyond 2^500 are not supported")
        finite = log2 < _LOG2_HUGE
        g = np.subtract(lams, vals)   # lam - gamma, then its inverse in place
        close = (np.abs(g) <= 1e-14 * np.maximum(np.abs(lams), vals)) & finite
        rows = close.any(axis=-1)
        if singular is None and rows.any():
            raise SingularityError(
                f"lambda is within 1e-14 relative of the multiplier value at "
                f"index {int(np.nonzero(close)[-1][0]) + 1}"
            )
        del close
        if variation is not None:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                symbol = np.divide(lams, g)
            np.copyto(symbol, 0.0, where=~np.isfinite(symbol))
            variation[~rows] = bv_norm(symbol)[~rows]
            del symbol
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            np.divide(1.0, g, out=g)   # singular rows may divide by 0: they are dropped
        g[..., ~finite] = -np.exp2(-log2[~finite])  # (lam - x)^{-1} ~ -1/x
        if singular is not None:
            singular[...] = rows
        return g

    def semigroup(self, t, v):
        """e^{-t A} v for t >= 0."""
        if not (np.isfinite(t) and t >= 0.0):
            raise ParameterError("semigroup times must be finite and nonnegative")
        return self._multiply(self._semigroup_values(float(t)), v)

    def _semigroup_values(self, t):
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.exp(-t * self._gamma)
        g = np.where(np.isnan(g), 0.0, g)  # t = 0 with inf values
        if t == 0.0:
            g = np.ones_like(g)
        return g

    def imaginary_power(self, t, v):
        """A^{it} v; the diagonal part is unimodular."""
        if not np.isfinite(t):
            raise ParameterError("imaginary-power parameters must be finite")
        return self._multiply(np.exp(1j * float(t) * _LN2 * self._log2()), v)

    def spectrum(self) -> np.ndarray:
        """Eigenvalues of the truncated operator (the diagonal symbol values)."""
        return self.symbols(self.seq.values_upto(self.structure.needed))[0]


def scaled_resolvent_values(log2_gamma, log2_q):
    """Symbol of q R(q, A) at the values gamma, for q = -2^log2_q.

    Written in ratio form 1 / (1 + gamma/|q|), so arbitrarily large
    exponents on either side stay finite; broadcasts like its arguments.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp2(log2_gamma - log2_q))


def _structure(layout: BlockLayout, perm: TwistPermutation, variant: str) -> _Structure:
    """Column H(a), row H(b) for each coupled pair with both inside the layout."""
    t = layout_coupling(perm, variant, layout.dim)
    keep = t.head_b <= layout.dim
    off_hi, off_lo = t.a[keep], t.b[keep]
    needed = int(max(t.index.max(initial=1), off_hi.max(initial=1), off_lo.max(initial=1)))
    return _Structure(t.index, t.head_b[keep] - 1, t.head_a[keep] - 1, off_hi, off_lo, needed)


# -- positivity ------------------------------------------------------------


@dataclass(frozen=True)
class PositivityReport:
    min_entry: float
    argmin_t: float
    argmin_col: int
    monotone_pairs: bool
    monotone_values: bool
    per_t_min: np.ndarray = field(repr=False)
    t_grid: np.ndarray = field(repr=False)

    def violation(self):
        """The InvariantViolation if the sign of the minimum and the pairs' rounded
        values disagree (positive entries iff every pair decreases), else None."""
        if (self.min_entry >= 0.0) == self.monotone_values:
            return None
        return InvariantViolation(
            "the sign of the smallest entry disagrees with the monotonicity of the pair values: "
            f"min_entry {self.min_entry:.17g} at t {self.argmin_t:.17g} column {self.argmin_col}, "
            f"monotone_values {str(self.monotone_values).lower()}")


def positivity_check(op: TwistedMultiplier, t_grid) -> PositivityReport:
    """Scan the semigroup matrices over a time grid for negative entries.

    The grid is augmented, per coupled pair, with the time maximizing the
    entry magnitude, so a sign defect cannot slip between grid points.
    Pairs whose values overflow float64 are invisible to the scan (their
    entries underflow to zero at any representable time).
    """
    st = op.structure
    log2 = op.seq.log2[: st.needed]
    # sorted, equal neighbours dropped: 2-4 times faster than np.unique(..., return_index=True)
    ts = np.sort(np.concatenate([scan_times(t_grid), _extremal_times(log2, st)]))
    ts = ts[np.concatenate(([True], ts[1:] != ts[:-1]))]

    per_t = np.empty(ts.size)
    # t = 0 and inf go one at a time
    batched = (ts > 0.0) & (ts < np.inf)
    per_t[batched] = _entry_minima(op, ts[batched])
    for i in np.flatnonzero(~batched):
        per_t[i] = _entries_at(op, float(ts[i])).min()
    i = int(np.argmin(per_t))               # the earliest time attaining the minimum
    cols = np.concatenate([np.arange(op.layout.dim), st.off_cols])
    arg_col = int(cols[np.argmin(_entries_at(op, float(ts[i])))]) + 1
    # True with no pairs; the values are the rounded ones the entries read
    return PositivityReport(
        min_entry=float(per_t[i]), argmin_t=float(ts[i]), argmin_col=arg_col,
        monotone_pairs=bool(np.all(log2[st.off_hi - 1] <= log2[st.off_lo - 1])),
        monotone_values=bool(np.all(op._gamma[st.off_hi - 1] <= op._gamma[st.off_lo - 1])),
        per_t_min=per_t, t_grid=ts)


def scan_times(t_grid):
    """The times of a positivity scan, flat float64: nonempty, none negative or NaN."""
    ts = np.asarray(t_grid, dtype=np.float64).ravel()
    if ts.size == 0 or not np.all(ts >= 0.0):   # written so that NaN fails it
        raise ParameterError("the time grid must be nonempty and nonnegative")
    return ts


def _extremal_times(log2, st):
    """Per coupled pair with finite values a, b that differ once rounded:
    |ln(b/a)| / |b - a|."""
    hi, lo = log2[st.off_hi - 1], log2[st.off_lo - 1]
    keep = (hi < _LOG2_HUGE) & (lo < _LOG2_HUGE)
    a, b = np.exp2(hi[keep]), np.exp2(lo[keep])
    differ = a != b
    a, b = a[differ], b[differ]
    # math.log, not np.log, which differs from it in the last bit on some
    # ratios; once per distinct ratio
    ratios, index = np.unique(b / a, return_inverse=True)
    return np.abs(np.array([math.log(r) for r in ratios.tolist()])[index]) / np.abs(b - a)


def _entries_at(op, t):
    """Diagonal then coupling entries of e^{-tA}."""
    diag, off = op.symbols(op._semigroup_values(t))
    return np.concatenate([diag, off])


def _entry_minima(op, ts):
    """Smallest entry of e^{-tA} at each time of ``ts`` (sorted, positive).

    Equal bit for bit to ``_entries_at(op, t).min()``: a minimum is exact in
    any order, so only the set of entries evaluated differs.
    ``_screened_minima`` settles the times at which it finds a negative
    entry, from the runs of coupled pairs its bounds cannot rule out;
    ``_prefix_minima`` takes the others.
    """
    st, gamma = op.structure, op._gamma
    hi, lo = gamma[st.off_hi - 1], gamma[st.off_lo - 1]
    order = np.argsort(np.minimum(hi, lo), kind="stable")
    hi, lo = hi[order], lo[order]
    out = np.empty(ts.size)
    rest = _screened_minima(hi, lo, ts, out)
    out[rest] = _prefix_minima(np.sort(gamma[st.diag_src - 1]), hi, lo, ts[rest])
    return out


# The bound of the screen.  A coupled pair with values hi, lo has key =
# min(hi, lo) and ratio r = |hi - lo| / key; at time t let v = t key.  The
# scan reads E = fl(fl(e^x) - fl(e^y)) with x = fl(-t hi), y = fl(-t lo),
# and u = 2^-53:
# - the products: |x - y| <= t |hi - lo| + u t (hi + lo) <= v (r + 2u (1 + r)),
#   and max(x, y) <= -v (1 - u);
# - np.exp is taken to be within eps = _SCREEN_EXP_ERR relative where its
#   value is normal and within 2^-1070 where it is subnormal (test_batched_scans
#   holds the running dispatch target to 2^-48 against math.exp); it reads
#   0.0 below -745.14, so E = 0.0 once v > _EXP_DEAD, and e^{uv} <= 1 + 2^-43
#   for every other entry;
# - |e^x - e^y| <= |x - y| e^max(x, y), and the subtraction adds u.
# So |E| <= (1 + 2^-41) e^{-v} (v R' + 2 eps) + 2^-1068 for each pair of a run
# whose rounded ratios are at most R, where R' = R (1 + 2^-50) + 2^-50 covers
# the rounding of r and the 2u (1 + r).  Over v in [t first, t last], v e^{-v}
# peaks at c = clip(1, t first, t last), and 2 eps e^{-v} <= 6 eps e^{-c}
# (c is t first when that is past 1, else e^{-v} <= 1 <= e e^{-c}), so each
# entry of the run is at most e^{-c} (c R' + 6 eps), times 1 + 2^-41, plus the
# 2^-1068.  Past c = 1 this only falls, so c is clamped to _SCREEN_U_MAX,
# where 6 eps e^{-c} is still normal, some 2^160 above the 2^-1068.  Forming
# c from rounded products moves c e^{-c} and e^{-c} by at most 1200 u
# relative, and np.exp and the bound's five roundings add eps + 5u:
# _SCREEN_SLACK = 1 + 2^-36 covers all of it.  ``_Runs.band`` bounds the runs
# past a band's edge from these bounds.
_SCREEN_EXP_ERR = 2.0 ** -44
_SCREEN_U_MAX = 600.0
_SCREEN_SLACK = 1.0 + 2.0 ** -36
_SCREEN_RUN = 16          # pairs in one run
_SCREEN_BANDS = (2, 8)    # runs bounded one by one on each side of the peak's run


def _screened_minima(hi, lo, ts, out):
    """Write the smallest entry of each time of ``ts`` it settles into ``out``;
    return the positions of the others, in order.

    hi and lo are the coupled pairs' values sorted by key = min(hi, lo).  At
    time t the pair whose key is nearest 1/t, where v e^{-v} peaks, is read
    first.  If it reads m < 0, the minimum is m or an entry of a run (see
    ``_Runs``) whose bound exceeds |m|, since the diagonal and the dead
    entries read 0.0 or more; those runs are evaluated.  Left to
    ``_prefix_minima`` are every time of a scan with no increasing pair, and
    each time whose peak pair reads no negative entry or whose widest band
    cannot rule out the runs past its edges.  Times go in blocks whose first
    band bounds about _SCAN_CELLS // 4 runs.
    """
    if not np.any(hi > lo):
        return np.arange(ts.size)
    key = np.minimum(hi, lo)
    runs = _Runs.cut(hi, lo)
    rest = [np.arange(0)]
    step = max(1, _SCAN_CELLS // 4 // (2 * _SCREEN_BANDS[0] + 3))
    for i in range(0, ts.size, step):
        t = ts[i:i + step]
        with np.errstate(over="ignore"):
            peak = np.minimum(np.searchsorted(key, 1.0 / t), key.size - 1)
            low = np.exp(-t * hi[peak]) - np.exp(-t * lo[peak])
        todo = np.flatnonzero(low < 0.0)
        row_of, run_of = [np.repeat(todo, runs.always.size)], [np.tile(runs.always, todo.size)]
        for width in _SCREEN_BANDS:
            if todo.size:
                held, row, run = runs.band(t[todo], low[todo], peak[todo] // _SCREEN_RUN, width)
                row_of.append(todo[row])
                run_of.append(run)
                todo = todo[~held]
        settled = low < 0.0
        settled[todo] = False
        row_of, run_of = np.concatenate(row_of), np.concatenate(run_of)
        keep = settled[row_of]
        row_of, run_of = row_of[keep], run_of[keep]
        np.minimum.at(low, row_of, _run_minima(-t[row_of], hi, lo, run_of))
        out[i:i + step][settled] = low[settled]
        rest.append(i + np.flatnonzero(~settled))
    return np.concatenate(rest)


@dataclass(frozen=True)
class _Runs:
    """The coupled pairs, sorted by key, cut into runs of _SCREEN_RUN pairs in
    key order (run r holds pairs r _SCREEN_RUN to (r + 1) _SCREEN_RUN - 1;
    only the last may be shorter), each with its bound's terms.

    The bound holds for any grouping: ``ratio`` is each run's R' (see
    _SCREEN_SLACK) over the pairs it holds, or inf where a pair's ratio is not
    finite (a value 0, or one value inf): such a run, listed in ``always``,
    is evaluated at every time, and ``below`` and ``above``, the largest R'
    of the runs up to and from each run, leave it out.
    """
    first: np.ndarray      # each run's smallest key
    last: np.ndarray       # and its largest
    ratio: np.ndarray
    below: np.ndarray
    above: np.ndarray
    always: np.ndarray

    @classmethod
    def cut(cls, hi, lo):
        """The runs of the pairs (hi, lo), sorted by key."""
        key = np.minimum(hi, lo)
        starts = np.arange(0, key.size, _SCREEN_RUN)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(hi - lo) / key
        ratio[key == np.inf] = 0.0   # both values inf: the entry reads 0.0 at every t > 0
        ratio = np.maximum.reduceat(ratio, starts)   # NaN where any ratio is
        finite = np.isfinite(ratio)
        ratio = np.where(finite, ratio * (1.0 + 2.0 ** -50) + 2.0 ** -50, np.inf)
        edge = np.where(finite, ratio, 0.0)
        return cls(key[starts], key[np.minimum(starts + _SCREEN_RUN, key.size) - 1], ratio,
                   np.maximum.accumulate(edge), np.maximum.accumulate(edge[::-1])[::-1],
                   np.flatnonzero(~finite))

    def band(self, t, low, top, width):
        """For times t with negative first entries low and peaks in the runs
        top: whether the runs within ``width`` of top hold every entry below
        low, and the (time, run) positions of those runs whose bound exceeds
        |low|.

        The runs past each edge of the band are bounded together by the
        bound of the edge run with the largest R' on its side, its c moved
        to 1 where it lies beyond it and 17 eps (over 6 e eps) in place of
        6 eps: c is monotone in the run, c e^{-c} only rises up to c = 1 and
        only falls past it, and e^{-c} <= 1 <= e e^{-1} wherever c <= 1.
        """
        run = top + np.arange(-width - 1, width + 2)[:, None]   # the band and its two edges
        inside = (run >= 0) & (run < self.first.size)
        run = np.clip(run, 0, self.first.size - 1)
        with np.errstate(over="ignore"):
            c = np.minimum(np.maximum(np.minimum(t * self.last[run], 1.0), t * self.first[run]),
                           _SCREEN_U_MAX)
        c[0], c[-1] = np.minimum(c[0], 1.0), np.maximum(c[-1], 1.0)
        r = self.ratio[run]
        r[0], r[-1] = self.below[run[0]], self.above[run[-1]]
        eps = np.full((run.shape[0], 1), 6.0 * _SCREEN_EXP_ERR)
        eps[[0, -1]] = 17.0 * _SCREEN_EXP_ERR
        with np.errstate(invalid="ignore"):   # 0 inf: a NaN bound passes, as an inf one does
            need = ~(_SCREEN_SLACK * np.exp(-c) * (c * r + eps) <= -low) & inside
        band = np.flatnonzero(need[1:-1])
        return ~(need[0] | need[-1]), band % t.size, run[1:-1].ravel()[band]


def _run_minima(neg_t, hi, lo, runs):
    """The smallest coupling entry of each run of ``runs`` at its time
    -neg_t: runs by columns, _SCREEN_RUN rows deep, the last run repeating
    the last pair, about _SCAN_CELLS // 4 cells at a time."""
    low = np.empty(runs.size)
    step = max(1, _SCAN_CELLS // 4 // _SCREEN_RUN)
    depth = np.arange(_SCREEN_RUN)[:, None]
    for i in range(0, runs.size, step):
        pairs = np.minimum(runs[i:i + step] * _SCREEN_RUN + depth, hi.size - 1)
        t = neg_t[i:i + step]
        with np.errstate(over="ignore"):
            low[i:i + step] = (np.exp(t * hi[pairs]) - np.exp(t * lo[pairs])).min(axis=0)
    return low


def _prefix_minima(d_key, hi, lo, ts):
    """Smallest entry of e^{-tA} at each time of ``ts`` (sorted, positive),
    from the sorted diagonal values and the coupled pairs sorted by
    min(hi, lo).

    An entry reads e^{-t gamma} at one or two indices, and np.exp is
    exactly 0.0 below -745.14, so an entry whose every gamma has t gamma >
    _EXP_DEAD is 0.0.  Sorted by their smallest gamma, the entries still
    alive at t form a prefix; only that prefix is evaluated, and the
    diagonal (never negative) only while every entry is alive.  Times go in
    blocks of about _SCAN_CELLS cells, each sized at its smallest time.
    """
    o_key = np.minimum(hi, lo)
    out = np.empty(ts.size)
    i = 0
    while i < ts.size:
        with np.errstate(over="ignore"):    # as in _semigroup_values
            cut = _EXP_DEAD / ts[i]
            nd = int(np.searchsorted(d_key, cut, side="right"))
            no = int(np.searchsorted(o_key, cut, side="right"))
            everything = nd + no == d_key.size + o_key.size
            rows = max(1, _SCAN_CELLS // max(1, 2 * no + (nd if everything else 0)))
            t = -ts[i:i + rows, None]
            low = np.zeros(t.shape[0])
            if everything:
                low = np.exp(t * d_key).min(axis=1)
            if no:
                off = np.exp(t * hi[:no]) - np.exp(t * lo[:no])
                np.minimum(low, off.min(axis=1), out=low)
        out[i:i + low.size] = low
        i += low.size
    return out


# -- imaginary powers -------------------------------------------------------


def bip_pair_ratios(ratios: RatioSeq, t_grid, n_pairs: int):
    """Per t of the grid, max over pairs of |y_{2m}^{it} - y_{2m-1}^{it}| / (8 |t| c_{2m}),
    y the sequence the ratios solve (``sequences.seq_from_ratios``).

    The linear-growth bound for the imaginary powers asserts this never
    exceeds 1 when the ratio sequence stays inside (0, 1/8).  t = 0 reads
    0.0; the times must be finite.  Where x = t g / 2 (g the log pair gap)
    or the denominator leaves the normal float range, the ratio is read as
    |sin x / x| g / (8 c_{2m}), with sin x / x = 1 below that range.

    The ratios hold one value per triangular block, so the pairs are read
    one block at a time: c_{2m}, m = 1 .. n_pairs, takes the values of
    blocks 2 .. K, K the block of 2 n_pairs (every block from 2 on holds an
    even index).  Each cell is the per-pair expression on the same inputs
    and a max is exact in any order, so the result is the per-pair one bit
    for bit, in O(sqrt(n_pairs)) work and memory per time.
    """
    if n_pairs < 1:
        raise ParameterError("the pair bound needs at least one pair")
    if 2 * n_pairs > ratios.max_index:
        raise ParameterError("ratio sequence too short for the requested number of pairs")
    cvals = ratios.block_values[1:triangular_block_index(2 * n_pairs)]
    if np.any(cvals >= 0.125) or np.any(cvals <= 0.0):
        raise ParameterError("the pair bound requires ratio values inside (0, 1/8)")
    gaps = np.log1p(step_offsets(cvals))   # ln(gamma_{2m} / gamma_{2m-1}) > 0
    ts = np.asarray(t_grid, dtype=np.float64).ravel()
    if not np.all(np.isfinite(ts)):
        raise ParameterError("the pair bound's times must be finite")
    # float products are monotone, so the extreme c and g decide for each t
    # whether every x and denominator stays in the normal range
    c_lo, c_hi, g_lo = float(cvals.min()), float(cvals.max()), float(gaps.min())
    worst = np.zeros(ts.size)
    for i, t in enumerate(ts.tolist()):
        a = abs(t)
        if 8.0 * a * c_lo >= _NORMAL_MIN and 8.0 * a * c_hi < math.inf \
                and 0.5 * a * g_lo >= _NORMAL_MIN:
            num = 2.0 * np.abs(np.sin(0.5 * t * gaps))
            worst[i] = (num / (8.0 * a * cvals)).max()
        elif t != 0.0:   # np.sinc(y) is sin(pi y) / (pi y), and 1 at y = 0
            worst[i] = (np.abs(np.sinc(0.5 * t * gaps / np.pi)) * gaps / (8.0 * cvals)).max()
    return worst


# -- variation bound for the lacunary semigroup -----------------------------


def bv_closed_form(alpha: float, t: float) -> float:
    a = 2.0 ** alpha
    return a / (a - 1.0) * (2.0 ** (3.0 * alpha) + a - 2.0) * math.exp(-t)


def bv_semigroup_bound(alpha, t, n: int):
    """Variation of (e^{-t y_m^alpha}) for the twisted lacunary sequence.

    alpha and t broadcast together.  Returns (computed, closed_form), floats
    when both are scalars and arrays of their broadcast shape otherwise; the
    closed form dominates the full infinite sum, so any truncation must stay
    below it.  Nothing is judged here: the callers hold computed <=
    closed_form (bv-bound's ok column).  The sequence is built once; each
    alpha's times go in row blocks of about _SCAN_CELLS cells, each exp'd
    only on the prefix its smallest time leaves above 0.0.
    """
    alphas, ts = np.broadcast_arrays(np.asarray(alpha, dtype=np.float64),
                                     np.asarray(t, dtype=np.float64))
    flat_alphas, flat = alphas.ravel(), ts.ravel()
    distinct = dict.fromkeys(flat_alphas.tolist())
    # the closed form divides by 2^alpha - 1 and forms 2^(3 alpha); both are
    # nonzero floats only while 2^alpha > 1 and 3 alpha < 1024
    if not (all(3.0 * a < 1024.0 and 2.0 ** a > 1.0 for a in distinct) and np.all(ts > 0.0)):
        raise ParameterError("need 0 < alpha < 1024/3 with 2^alpha > 1, and t > 0")
    seq = twisted_lacunary(n)
    computed = np.empty(flat.size)
    rows = max(1, _SCAN_CELLS // n)
    for a in distinct:
        at = np.flatnonzero(flat_alphas == a)
        with np.errstate(over="ignore"):
            powered = np.exp2(a * seq.log2)
        # past its last entry whose suffix minimum is at most _EXP_DEAD / t,
        # e^{-t y^alpha} reads 0.0, and so do the differences one entry on
        floor = np.minimum.accumulate(powered[::-1])[::-1]
        for i in range(0, at.size, rows):
            t = flat[at[i:i + rows], None]
            with np.errstate(over="ignore"):
                live = min(n, int(np.searchsorted(floor, _EXP_DEAD / t.min(), side="right")) + 1)
                s = np.exp(-t * powered[:live])
            # the zero tail keeps each row's pairwise summation, and so its bits
            steps = np.zeros((t.size, n - 1))
            np.abs(np.diff(s, axis=-1), out=steps[:, :live - 1])
            computed[at[i:i + rows]] = steps.sum(axis=-1)
    closed = np.array([bv_closed_form(a, x) for a, x in zip(flat_alphas.tolist(), flat.tolist())])
    if ts.ndim == 0:
        return float(computed[0]), float(closed[0])
    return computed.reshape(ts.shape), closed.reshape(ts.shape)


# -- sectoriality probing ----------------------------------------------------


@dataclass(frozen=True)
class SectorialityReport:
    angles: np.ndarray
    radii: np.ndarray
    lower: np.ndarray            # (n_angles, n_radii) certified lower bounds
    per_angle_sup: np.ndarray
    bv_upper: np.ndarray         # (n_angles, n_radii) variation norms of the symbol
    measured_K: float
    skipped: tuple = ()


def _j_map(z, bn, exponent, layout, out):
    """Norming directions of the rows of z, whose block norms are bn, written
    into ``out`` (not z): block weights bn^(e-2); e = inf concentrates on the
    top block.  Zero rows map to zero.

    A row whose image, of block norms bn^(e-1), has its largest block norm
    outside the normal float range is weighed again as (z / bn) (bn / peak)^(e-1),
    the same direction scaled by peak^(1-e) (a zero row maps to zero again);
    every other row keeps the plain weights.
    """
    positive = bn > 0.0
    safe = np.where(positive, bn, 1.0)
    if exponent == math.inf:
        weights = np.where(bn == bn.max(axis=-1, keepdims=True), 1.0, 0.0)
        scale = np.where(positive, weights / safe, 0.0)
        return np.multiply(z, np.repeat(scale, layout.sizes, axis=-1), out=out)
    # a weight or an image past the float range raises a floating-point flag
    # here; only then are the rows read one by one
    flags = []
    with np.errstate(over="call", under="call", invalid="call", call=lambda *_: flags.append(1)):
        scale = np.where(positive, safe ** (exponent - 2.0), 0.0)
        np.multiply(z, np.repeat(scale, layout.sizes, axis=-1), out=out)
    if not flags:
        return out
    with np.errstate(over="ignore", invalid="ignore"):
        # each row's largest image block norm, column-wise as in _lp_of_blocks
        top = np.ascontiguousarray((bn * scale).T).max(axis=0)
    redo = ~((top >= _NORMAL_MIN) & (top < math.inf))
    if redo.any():
        unit = z[redo]
        # real and imaginary parts apart: a complex quotient overflows on the
        # way to a subnormal block norm
        parts = unit.view(np.float64).reshape(*unit.shape, -1)
        parts /= np.repeat(safe[redo], layout.sizes, axis=-1)[..., None]
        peak = bn[redo].max(axis=-1, keepdims=True)
        ratio = bn[redo] / np.where(peak > 0.0, peak, 1.0)
        out[redo] = unit * np.repeat(ratio ** (exponent - 1.0), layout.sizes, axis=-1)
    return out


def _start(rng, out):
    """Draw a standard complex normal start into ``out``, real parts first."""
    out.real, out.imag = rng.standard_normal((2, out.size))


def _ascend(op, rows, p):
    """Duality-map power ascents from a batch of (lam, diag, off, rng) rows, run together.

    Row k ascends lam_k times the multiplier with the entries (diag_k,
    off_k) of ``TwistedMultiplier.symbols`` from the start ``_start`` draws
    from rng_k, rows in order: _ASCENT_STEPS steps and a last evaluation,
    each normalizing the iterate and evaluating its image.  The exponent p
    is checked by the entry points.  Returns each ascent's largest image
    norm (0.0 if none is positive).

    The iterates and the images live in two complex buffers of the batch's
    fixed shape, written in place with every product in the operand order
    of ``apply_symbols`` and ``adjoint_apply_symbols``.  A row whose image
    or iterate reaches norm zero rides along at zero, its zero norm read as
    1, so no later image beats its best.  The entries and the adjoint's
    conj(lam diag) and conj(lam off) are stacked once per batch, one row of
    each per row.
    """
    layout, st = op.layout, op.structure
    n, dim, n_off = len(rows), layout.dim, st.off_rows.size
    q = 1.0 if p == math.inf else p / (p - 1.0)
    lam = np.array([row[0] for row in rows], dtype=np.complex128)[:, None]
    entries = [np.stack([row[1] for row in rows]), np.stack([row[2] for row in rows])]
    entries += [lam * entries[0], lam * entries[1]]
    for adjoint in entries[2:]:
        np.conj(adjoint, out=adjoint)
    v, z = np.empty((n, dim), dtype=np.complex128), np.empty((n, dim), dtype=np.complex128)
    for k, row in enumerate(rows):
        _start(row[3], v[k])
    best = np.zeros(n)
    # the coupling entries of every row as flat positions in the batch
    shift = np.arange(n)[:, None] * dim
    flat_rows, flat_cols = (shift + st.off_rows).ravel(), (shift + st.off_cols).ravel()
    gathered = np.empty((n, n_off), dtype=np.complex128)

    def apply_entries(diag, off, pick, put):
        # z = v * diag, then z[put] += off * v[pick]
        np.multiply(v, diag, out=z)
        # "clip" writes straight into out; the positions are in range
        np.take(v.reshape(-1), pick, out=gathered.reshape(-1), mode="clip")
        np.multiply(off, gathered, out=gathered)
        # the positions are distinct: the same adds as z[put] += gathered
        np.add.at(z.reshape(-1), put, gathered.reshape(-1))

    for step in range(_ASCENT_STEPS + 1):
        nv = _lp_of_blocks(block_norms(v, layout), p)
        nv[nv == 0.0] = 1.0   # a row at zero stays at zero
        # numpy's complex / real is (re + im 0, im - re 0) / nv: this, up to signed zeros
        np.multiply(v, np.conj(1.0 / nv + 0j)[:, None], out=v)
        apply_entries(entries[0], entries[1], flat_cols, flat_rows)   # z = lam A v
        np.multiply(lam, z, out=z)
        bn = block_norms(z, layout)
        nz = _lp_of_blocks(bn, p)
        np.fmax(best, nz, out=best)   # a NaN norm never counts
        if step == _ASCENT_STEPS:
            break
        _j_map(z, bn, p, layout, out=v)
        apply_entries(entries[2], entries[3], flat_rows, flat_cols)   # z = A* J_p(lam A v)
        _j_map(z, block_norms(z, layout), q, layout, out=v)
    return best


def _ascents(op, rows, p):
    """Ascents of the (lam, diag, off, rng) rows an iterable yields, drawn
    _PROBE_CELLS // dim rows per batch: a batch's rows, and their starts, are
    drawn when it runs.

    Returns each row's largest image norm, rows in order.
    """
    rows = iter(rows)
    size = max(1, _PROBE_CELLS // op.layout.dim)
    best = []
    while batch := list(itertools.islice(rows, size)):
        best.extend(_ascend(op, batch, p).tolist())
    return best


def opnorm_lower(op: TwistedMultiplier, g, p, trials: int = 4, seed: int = 0) -> float:
    """Certified lower bound of the norm of the multiplier with symbol values
    g (as in ``TwistedMultiplier.symbols``) on the mixed-norm space.

    Duality-map power ascents from random starts, each trial a row with
    lam = 1; the bound is the largest image norm any of them reaches.
    """
    p = _check_p(p)
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    diag, off = op.symbols(g)
    rng = np.random.default_rng(seed)
    return max(_ascents(op, ((1.0, diag, off, rng) for _ in range(trials)), p))


def sectoriality_probe(op: TwistedMultiplier, angles, radii, p,
                       trials: int = 3, seed: int = 0) -> SectorialityReport:
    """Lower-bound |lam R(lam, A)| along rays lam = r e^{i(pi - theta)}.

    Uniform boundedness of the per-angle data as r sweeps is the finite
    surrogate for a zero sectorial angle; no angle is claimed.
    """
    angles = np.asarray(angles, dtype=np.float64).ravel()
    radii = np.asarray(radii, dtype=np.float64).ravel()
    if not (angles.size and radii.size):
        raise ParameterError("the probe needs at least one angle and one radius")
    # written so that NaN fails them
    if not np.all((angles > 0.0) & (angles < math.pi)):
        raise ParameterError("angles must lie strictly between 0 and pi")
    if not np.all(radii > 0.0):
        raise ParameterError("radii must be positive")
    p = _check_p(p)
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    lower = np.zeros((angles.size, radii.size))
    bv_upper = np.zeros_like(lower)
    singular = np.zeros(lower.shape, dtype=bool)
    best = _ascents(op, _ray_rows(op, angles, radii, trials, seed, singular, bv_upper), p)
    lower[~singular] = np.reshape(best, (-1, trials)).max(axis=1)
    ratios = lower[bv_upper > 0.0] / bv_upper[bv_upper > 0.0]
    measured_k = float(ratios.max()) if ratios.size else 0.0
    return SectorialityReport(angles=angles, radii=radii, lower=lower,
                              per_angle_sup=lower.max(axis=1),
                              bv_upper=bv_upper, measured_K=measured_k,
                              skipped=tuple((float(angles[i]), float(radii[j]))
                                            for i, j in np.argwhere(singular)))


def _ray_rows(op, angles, radii, trials, seed, singular, bv_upper):
    """The probe's (lam, diag, off, rng) rows, ``trials`` per ray, rays in
    order, each ray's rows with one (diag, off) and one generator of starts;
    marks each singular ray in ``singular`` and fills ``bv_upper`` with the
    variation norm of each other ray's symbol as it goes.

    The symbols are formed a chunk of rays at a time, about as many rays
    as one batch of ascents reads."""
    lams = [r * cmath.exp(1j * (math.pi - theta)) for theta in angles for r in radii]
    chunk = _PROBE_CELLS // op.layout.dim // trials + 1
    flat_singular, flat_bv = singular.reshape(-1), bv_upper.reshape(-1)
    for c in range(0, len(lams), chunk):
        rays = slice(c, c + chunk)
        g = op._resolvent_values(np.array(lams[rays])[:, None], flat_singular[rays],
                                 flat_bv[rays])
        diag, off = op.symbols(g)
        del g
        for k in np.flatnonzero(~flat_singular[rays]).tolist():
            i, j = divmod(c + k, radii.size)
            ray = lams[c + k], diag[k], off[k], np.random.default_rng(seed + 7 * i + j)
            for _ in range(trials):
                yield ray
