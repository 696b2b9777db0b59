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

from .blockspace import (_NORMAL_MIN, BlockLayout, _check_p, _lp_of_blocks, _norms_of_sums,
                         bv_norm)
from .errors import InvariantViolation, ParameterError, SingularityError
from .sequences import MultiplierSeq, RatioSeq, family_seq, step_offsets, twisted_lacunary
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

_LN2 = math.log(2.0)
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
        if st.off_rows.size:
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
        if st.off_rows.size:
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

    def _resolvent_values(self, lam):
        log2, vals = self._log2(), self._gamma
        if abs(lam) >= 2.0 ** 500:
            raise ParameterError("resolvent parameters beyond 2^500 are not supported")
        finite = log2 < _LOG2_HUGE
        close = finite & (np.abs(lam - vals) <= 1e-14 * np.maximum(np.abs(lam), vals))
        if np.any(close):
            raise SingularityError(
                f"lambda is within 1e-14 relative of the multiplier value at "
                f"index {int(np.flatnonzero(close)[0]) + 1}"
            )
        g = np.empty(log2.size, dtype=np.complex128)
        g[finite] = 1.0 / (lam - vals[finite])
        g[~finite] = -np.exp2(-log2[~finite])  # (lam - x)^{-1} ~ -1/x
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
    ts = np.unique(np.concatenate([scan_times(t_grid), _extremal_times(log2, st)]))

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
    # math.log per pair: np.log differs from it in the last bit on some ratios
    logs = np.array([math.log(r) for r in (b / a).tolist()], dtype=np.float64)
    return np.abs(logs) / np.abs(b - a)


def _entries_at(op, t):
    """Diagonal then coupling entries of e^{-tA}."""
    diag, off = op.symbols(op._semigroup_values(t))
    return np.concatenate([diag, off])


def _entry_minima(op, ts):
    """Smallest entry of e^{-tA} at each time of ``ts`` (sorted, positive).

    Equal bit for bit to ``_entries_at(op, t).min()``.  An entry reads
    e^{-t gamma} at one or two indices, and np.exp is exactly 0.0 below
    -745.14, so an entry whose every gamma has t gamma > _EXP_DEAD is 0.0.
    Sorted by their smallest gamma, the entries still alive at t form a
    prefix; only that prefix is evaluated, and the diagonal (never
    negative) only while every entry is alive.  Times go in blocks of
    about _SCAN_CELLS cells, each sized at its smallest time.
    """
    st, gamma = op.structure, op._gamma
    d_key = np.sort(gamma[st.diag_src - 1])
    hi, lo = gamma[st.off_hi - 1], gamma[st.off_lo - 1]
    order = np.argsort(np.minimum(hi, lo), kind="stable")
    hi, lo = hi[order], lo[order]
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
    """
    if n_pairs < 1:
        raise ParameterError("the pair bound needs at least one pair")
    if 2 * n_pairs > ratios.max_index:
        raise ParameterError("ratio sequence too short for the requested number of pairs")
    cvals = ratios.values_upto(2 * n_pairs)[1::2]   # c_{2m}, m = 1 .. n_pairs
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


def bv_semigroup_bound(alpha: float, t, n: int):
    """Variation of (e^{-t y_m^alpha}) for the twisted lacunary sequence.

    Returns (computed, closed_form), floats for a scalar t and arrays shaped
    like t otherwise; the closed form dominates the full infinite sum, so any
    truncation must stay below it.  Nothing is judged here: the callers hold
    computed <= closed_form (bv-bound's ok column).  The sequence is built
    once; the times go in row blocks of about _SCAN_CELLS cells, each exp'd
    only on the prefix its smallest time leaves above 0.0.
    """
    ts = np.asarray(t, dtype=np.float64)
    # the closed form divides by 2^alpha - 1 and forms 2^(3 alpha); both are
    # nonzero floats only while 2^alpha > 1 and 3 alpha < 1024
    if not (3.0 * alpha < 1024.0 and 2.0 ** alpha > 1.0 and np.all(ts > 0.0)):
        raise ParameterError("need 0 < alpha < 1024/3 with 2^alpha > 1, and t > 0")
    seq = twisted_lacunary(n)
    with np.errstate(over="ignore"):
        powered = np.exp2(alpha * seq.log2)
    # past its last entry whose suffix minimum is at most _EXP_DEAD / t,
    # e^{-t y^alpha} reads 0.0, and so do the differences one entry on
    floor = np.minimum.accumulate(powered[::-1])[::-1]
    flat = ts.ravel()
    computed = np.empty(flat.size)
    rows = max(1, _SCAN_CELLS // n)
    for i in range(0, flat.size, rows):
        t = flat[i:i + rows, None]
        with np.errstate(over="ignore"):
            live = min(n, int(np.searchsorted(floor, _EXP_DEAD / t.min(), side="right")) + 1)
            s = np.exp(-t * powered[:live])
        # the zero tail keeps each row's pairwise summation, and so its bits
        steps = np.zeros((t.size, n - 1))
        np.abs(np.diff(s, axis=-1), out=steps[:, :live - 1])
        computed[i:i + rows] = steps.sum(axis=-1)
    closed = np.array([bv_closed_form(alpha, x) for x in flat.tolist()])
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
    safe = np.where(bn > 0.0, bn, 1.0)
    if exponent == math.inf:
        weights = np.where(bn == bn.max(axis=-1, keepdims=True), 1.0, 0.0)
        scale = np.where(bn > 0.0, weights / safe, 0.0)
        return np.multiply(z, np.repeat(scale, layout.sizes, axis=-1), out=out)
    # a weight or an image past the float range raises a floating-point flag
    # here; only then are the rows read one by one
    flags = []
    with np.errstate(over="call", under="call", invalid="call", call=lambda *_: flags.append(1)):
        scale = np.where(bn > 0.0, safe ** (exponent - 2.0), 0.0)
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


@np.errstate(over="ignore")   # as in block_norms
def _block_norms(arr, layout, sq, tmp):
    """``block_norms`` of the complex rows of arr, their squares formed in the
    float buffers sq and tmp of arr's shape."""
    np.multiply(arr.real, arr.real, out=sq)
    np.multiply(arr.imag, arr.imag, out=tmp)
    np.add(sq, tmp, out=sq)
    return _norms_of_sums(arr, layout, np.add.reduceat(sq, layout.starts, axis=-1))


def _start(rng, out):
    """Draw a standard complex normal start into ``out``, real parts first."""
    re = rng.standard_normal(out.size)
    np.multiply(1j, rng.standard_normal(out.size), out=out)
    np.add(re, out, out=out)


def _ascend(op, rows, p, witness=False):
    """Duality-map power ascents from a batch of (lam, diag, off, rng) rows, run together.

    Row k ascends lam_k times the multiplier with the entries (diag_k,
    off_k) of ``TwistedMultiplier.symbols`` from the start ``_start`` draws
    from rng_k, rows in order: _ASCENT_STEPS steps and a last evaluation,
    each normalizing the iterate and evaluating its image.  The exponent p
    is checked by the entry points.  Returns each ascent's largest image
    norm (0.0 if none is positive) and, with ``witness``, the earliest
    iterate attaining it.

    The iterates and the images live in two complex buffers of the batch's
    fixed shape, written in place with every product in the operand order
    of ``apply_symbols`` and ``adjoint_apply_symbols``.  A row whose image
    or iterate reaches norm zero rides along at zero, its zero norm read as
    1, so no later image beats its best.  The entries and the adjoint's
    conj(lam diag) and conj(lam off) are formed once per batch: the rows'
    shared (diag, off) when they hold one, else one row of each per row.
    """
    layout, st = op.layout, op.structure
    n, dim, n_off = len(rows), layout.dim, st.off_rows.size
    q = 1.0 if p == math.inf else p / (p - 1.0)
    lam = np.array([row[0] for row in rows], dtype=np.complex128)[:, None]
    lam0, diag0, off0 = rows[0][:3]
    if all(row[1] is diag0 and row[2] is off0 and row[0] == lam0 for row in rows):
        entries = [diag0, off0, lam0 * diag0, lam0 * off0]
    else:
        entries = [np.stack([row[1] for row in rows]), np.stack([row[2] for row in rows])]
        entries += [lam * entries[0], lam * entries[1]]
    for adjoint in entries[2:]:
        np.conj(adjoint, out=adjoint)
    v, z = np.empty((n, dim), dtype=np.complex128), np.empty((n, dim), dtype=np.complex128)
    for k, row in enumerate(rows):
        _start(row[3], v[k])
    best = np.zeros(n)
    best_v = np.zeros_like(v) if witness else None
    sq, tmp = np.empty((n, dim)), np.empty((n, dim))
    # the coupling entries of every row as flat positions in the batch
    shift = np.arange(n)[:, None] * dim
    flat_rows, flat_cols = (shift + st.off_rows).ravel(), (shift + st.off_cols).ravel()
    gathered = np.empty((n, n_off), dtype=np.complex128)

    def apply_entries(diag, off, pick, put):
        # z = v * diag, then z[put] += off * v[pick]
        np.multiply(v, diag, out=z)
        if n_off:
            np.take(v.reshape(-1), pick, out=gathered.reshape(-1))
            np.multiply(off, gathered, out=gathered)
            z.reshape(-1)[put] += gathered.reshape(-1)

    for step in range(_ASCENT_STEPS + 1):
        nv = _lp_of_blocks(_block_norms(v, layout, sq, tmp), p)
        nv[nv == 0.0] = 1.0   # a row at zero stays at zero
        if witness:   # the witness bytes are pinned, signed zeros too
            np.divide(v, nv[:, None], out=v)
        else:   # complex / real is (re + im 0, im - re 0) / nv: equal up to signed zeros
            np.multiply(v, np.conj(1.0 / nv + 0j)[:, None], out=v)
        apply_entries(entries[0], entries[1], flat_cols, flat_rows)   # z = lam A v
        np.multiply(lam, z, out=z)
        bn = _block_norms(z, layout, sq, tmp)
        nz = _lp_of_blocks(bn, p)
        up = nz > best
        best[up] = nz[up]
        if witness:
            best_v[up] = v[up]
        if step == _ASCENT_STEPS:
            break
        _j_map(z, bn, p, layout, out=v)
        apply_entries(entries[2], entries[3], flat_rows, flat_cols)   # z = A* J_p(lam A v)
        _j_map(z, _block_norms(z, layout, sq, tmp), q, layout, out=v)
    return best, best_v


def _ascents(op, rows, p, witness=False):
    """Ascents of the (lam, diag, off, rng) rows an iterable yields, drawn
    _PROBE_CELLS // dim rows per batch: a batch's rows, and their starts, are
    drawn when it runs.

    Returns each row's largest image norm, rows in order, and, with
    ``witness``, the earliest iterate attaining the largest of them (None
    when none is positive, or without ``witness``).
    """
    rows = iter(rows)
    size = max(1, _PROBE_CELLS // op.layout.dim)
    best, top, found = [], 0.0, None
    while batch := list(itertools.islice(rows, size)):
        vals, vecs = _ascend(op, batch, p, witness)
        if witness and vals.max() > top:
            k = int(np.argmax(vals))
            top, found = vals[k], vecs[k].copy()
        best.extend(vals.tolist())
    return best, found


def opnorm_lower(op: TwistedMultiplier, g, p, trials: int = 4, seed: int = 0):
    """Certified lower bound of the norm of the multiplier with symbol values
    g (as in ``TwistedMultiplier.symbols``) on the mixed-norm space.

    Duality-map power ascents from random starts, each trial a row with
    lam = 1.  The returned witness attains the bound, so re-evaluation
    reproduces it; it is the earliest trial and step that reaches the
    maximum.
    """
    p = _check_p(p)
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    diag, off = op.symbols(g)
    rng = np.random.default_rng(seed)
    best, witness = _ascents(op, ((1.0, diag, off, rng) for _ in range(trials)), p,
                             witness=True)
    return max(best), witness


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
    best = _ascents(op, _ray_rows(op, angles, radii, trials, seed, singular, bv_upper), p)[0]
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
    variation norm of each other ray's symbol as it goes."""
    for i, theta in enumerate(angles):
        for j, r in enumerate(radii):
            lam = r * cmath.exp(1j * (math.pi - theta))
            try:
                diag, off = op.symbols(op._resolvent_values(lam))
            except SingularityError:
                singular[i, j] = True
                continue
            bv_upper[i, j] = _symbol_variation(lam, op._gamma)
            rng = np.random.default_rng(seed + 7 * i + j)
            for _ in range(trials):
                yield lam, diag, off, rng


def _symbol_variation(lam, gamma):
    """``bv_norm`` of the symbol lam / (lam - gamma), read as 0 where it is not
    finite: formed in place, and released before the ray's ascents run."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        symbol = np.subtract(lam, gamma)
        np.divide(lam, symbol, out=symbol)
    symbol[~np.isfinite(symbol)] = 0.0
    return bv_norm(symbol)
