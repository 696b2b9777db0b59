"""Schauder multipliers for the twisted basis, realized on truncations.

In coordinates the multiplier with symbol g acting through the twisted
basis is a diagonal plus one off-diagonal entry per coupled column:

    even-twist:  column j even:  g(y_m) at j and g(y_m) - g(y_{m-1}) at
                 row m-1, where m is the preimage of j; odd columns are
                 diagonal.
    odd-twist:   column r odd:   g(y_r) at r and g(y_r) - g(y_{r+1}) at
                 the even row coupled to r+1; even columns are diagonal.

Rows that fall outside the truncation are dropped.  Because the coupled
rows are never themselves coupled columns, that projection commutes with
composition, so the semigroup law, the resolvent identity and the group
law of the imaginary powers hold exactly at every truncation, and on
truncations the permutation maps into itself the operator is similar to
the plain diagonal through the coordinate transforms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .blockspace import BlockLayout, MixedVector, bv_norm, mixed_norm, sequence_variation
from .errors import InvariantViolation, ParameterError, SingularityError
from .sequences import MultiplierSeq, RatioSeq, twisted_lacunary
from .twistbasis import EVEN_TWIST, PLAIN, TwistPermutation, VARIANTS

__all__ = [
    "TwistedMultiplier",
    "PositivityReport",
    "SectorialityReport",
    "positivity_check",
    "bip_pair_ratio_max",
    "bv_semigroup_bound",
    "sectoriality_probe",
    "opnorm_lower",
]

_LN2 = math.log(2.0)
_LOG2_HUGE = 600.0  # beyond this, treat gamma as infinite relative to any sane lambda


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
        The positive multiplier sequence.  Must cover every coupled index
        of the truncation (roughly twice the layout dimension).
    perm : TwistPermutation
        Permutation of the evens; its inverse must cover the layout.
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

    @cached_property
    def structure(self) -> _Structure:
        return _structure(self.layout, self.perm, self.variant)

    # -- symbol evaluation ------------------------------------------------

    def symbols(self, g):
        """Diagonal and coupling entries of the multiplier with symbol values g.

        ``g[i - 1]`` is the symbol at sequence index i, for i = 1 ..
        ``structure.needed``; returns ``(diag, off)``.
        """
        st = self.structure
        if len(g) < st.needed:
            raise ParameterError(f"symbol values must cover index {st.needed}")
        return g[st.diag_src - 1], g[st.off_hi - 1] - g[st.off_lo - 1]

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
        out = arr * np.conj(diag)
        if st.off_rows.size:
            out[..., st.off_cols] += np.conj(off) * arr[..., st.off_rows]
        return out

    def _multiply(self, g, v):
        diag, off = self.symbols(g)
        if isinstance(v, MixedVector):
            if v.layout.dim != self.layout.dim:
                raise ParameterError("vector layout does not match the operator")
            return MixedVector(self.apply_symbols(diag, off, v.coeffs), self.layout)
        arr = np.asarray(v, dtype=np.complex128)
        if arr.shape[-1] != self.layout.dim:
            raise ParameterError("vector length does not match the operator layout")
        return self.apply_symbols(diag, off, arr)

    def _values(self):
        return self.seq.values_upto(self.structure.needed)

    def _log2(self):
        return self.seq.log2[: self.structure.needed]

    @cached_property
    def _gamma(self):
        """gamma_i for i = 1 .. structure.needed, inf where float64 overflows."""
        return self.seq.values_upto(self.structure.needed, allow_inf=True)

    # -- the operator family ----------------------------------------------

    def apply(self, v):
        """A v, the multiplier with symbol g(x) = x."""
        return self._multiply(self._values(), v)

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

    def fractional_power_apply(self, alpha, v):
        """A^alpha v through the symbol x^alpha (real alpha > 0)."""
        if not (np.isfinite(alpha) and alpha > 0.0):
            raise ParameterError("fractional powers need alpha > 0")
        with np.errstate(over="ignore"):
            g = np.exp2(alpha * self._log2())
        if not np.all(np.isfinite(g)):
            raise ParameterError("fractional power overflows on this truncation")
        return self._multiply(g, v)

    def sequence_apply(self, beta, v):
        """Multiplier with arbitrary coefficients beta (1-based, covers the coupling)."""
        return self._multiply(np.asarray(beta), v)

    def spectrum(self) -> np.ndarray:
        """Eigenvalues of the truncated operator (the diagonal symbol values)."""
        return self.symbols(self._values())[0]

    def dense_matrix(self, symbols=None) -> np.ndarray:
        """Materialize the coordinate matrix; small truncations only."""
        st = self.structure
        diag, off = self.symbols(self._values()) if symbols is None else symbols
        mat = np.diag(diag.astype(np.complex128))
        mat[st.off_rows, st.off_cols] = off
        return mat


def _structure(layout: BlockLayout, perm: TwistPermutation, variant: str) -> _Structure:
    if variant not in VARIANTS:
        raise ParameterError(f"unknown basis variant {variant!r}")
    dim = layout.dim
    positions = np.arange(1, dim + 1)
    if variant == PLAIN:
        empty = np.zeros(0, dtype=np.int64)
        return _Structure(positions, empty, empty, empty, empty, dim)
    evens = positions[1::2]
    pre = perm.pi_inv(evens)
    diag_src = positions.copy()
    diag_src[evens - 1] = pre
    if variant == EVEN_TWIST:
        rows = pre - 1                          # odd coordinate m-1
        keep = rows <= dim
        off_rows = rows[keep] - 1
        off_cols = evens[keep] - 1
        off_hi = pre[keep]
        off_lo = off_hi - 1
    else:
        odd = positions[::2]
        partners = perm.pi(odd + 1)
        keep = partners <= dim
        off_rows = partners[keep] - 1           # even coordinate pi(r+1)
        off_cols = odd[keep] - 1
        off_hi = odd[keep]
        off_lo = off_hi + 1
    needed = int(max(diag_src.max(initial=1),
                     off_hi.max(initial=1), off_lo.max(initial=1)))
    return _Structure(diag_src, off_rows, off_cols, off_hi, off_lo, needed)


def required_cover(layout: BlockLayout, perm: TwistPermutation, variant: str) -> int:
    """Largest sequence index a truncation of this shape can touch."""
    return _structure(layout, perm, variant).needed


# -- positivity ------------------------------------------------------------


@dataclass(frozen=True)
class PositivityReport:
    min_entry: float
    argmin_t: float
    argmin_col: int
    verdict: bool
    monotone_pairs: bool
    per_t_min: np.ndarray = field(repr=False)
    t_grid: np.ndarray = field(repr=False)


def positivity_check(op: TwistedMultiplier, t_grid, tol: float = 1e-12) -> PositivityReport:
    """Scan the semigroup matrices over a time grid for negative entries.

    The grid is augmented, per coupled pair, with the time maximizing the
    entry magnitude, so a sign defect cannot slip between grid points.
    Pairs whose values overflow float64 are invisible to the scan (their
    entries underflow to zero at any representable time).
    """
    st = op.structure
    ts = np.asarray(t_grid, dtype=np.float64).ravel()
    if ts.size == 0 or np.any(ts < 0.0):
        raise ParameterError("the time grid must be nonempty and nonnegative")
    log2 = op.seq.log2[: st.needed]
    finite = log2 < _LOG2_HUGE
    extra = []
    for hi, lo in zip(st.off_hi, st.off_lo):
        if finite[hi - 1] and finite[lo - 1] and log2[hi - 1] != log2[lo - 1]:
            a, b = np.exp2(log2[hi - 1]), np.exp2(log2[lo - 1])
            extra.append(abs(math.log(b / a)) / abs(b - a))
    ts = np.unique(np.concatenate([ts, np.asarray(extra)])) if extra else np.unique(ts)

    best = np.inf
    arg_t, arg_col = float("nan"), -1
    per_t = np.empty(ts.size)
    for i, t in enumerate(ts):
        diag, off = op.symbols(op._semigroup_values(float(t)))
        entries = np.concatenate([diag.real, off.real]) if off.size else diag.real
        per_t[i] = entries.min()
        if per_t[i] < best:
            best = float(per_t[i])
            arg_t = float(t)
            cols = np.concatenate([np.arange(op.layout.dim), st.off_cols])
            arg_col = int(cols[np.argmin(entries)]) + 1
    monotone = bool(np.all(log2[st.off_hi - 1] <= log2[st.off_lo - 1]))  # True with no pairs
    return PositivityReport(min_entry=best, argmin_t=arg_t, argmin_col=arg_col,
                            verdict=bool(best >= -tol), monotone_pairs=monotone,
                            per_t_min=per_t, t_grid=ts)


# -- imaginary powers -------------------------------------------------------


def bip_pair_ratio_max(seq: MultiplierSeq, ratios: RatioSeq, t_grid, n_pairs: int):
    """max over pairs and times of |y_{2m}^{it} - y_{2m-1}^{it}| / (8 |t| c_{2m}).

    The linear-growth bound for the imaginary powers asserts this never
    exceeds 1 when the ratio sequence stays inside (0, 1/8).
    """
    if seq.origin != "recurrence":
        raise ParameterError("the pair bound applies to recurrence-built sequences")
    if 2 * n_pairs > seq.length:
        raise ParameterError("sequence too short for the requested number of pairs")
    cvals = ratios.value_at(2 * np.arange(1, n_pairs + 1))
    if np.any(cvals >= 0.125) or np.any(cvals <= 0.0):
        raise ParameterError("the pair bound requires ratio values inside (0, 1/8)")
    even_m = 2 * np.arange(1, n_pairs + 1)
    gaps = seq.ln_pair_gap(even_m)          # ln(gamma_{2m} / gamma_{2m-1}) > 0
    worst = 0.0
    for t in np.asarray(t_grid, dtype=np.float64).ravel():
        if t == 0.0:
            continue
        num = 2.0 * np.abs(np.sin(0.5 * t * gaps))
        ratio = num / (8.0 * abs(t) * cvals)
        worst = max(worst, float(ratio.max()))
    return worst


def imaginary_pair_magnitude(seq: MultiplierSeq, t: float, even_m):
    """|y_{2m}^{it} - y_{2m-1}^{it}| = sqrt(2 (1 - cos(t log(y_{2m-1}/y_{2m}))))."""
    gaps = seq.ln_pair_gap(even_m)
    return np.sqrt(2.0 * (1.0 - np.cos(t * gaps)))


# -- variation bound for the lacunary semigroup -----------------------------


def bv_closed_form(alpha: float, t: float) -> float:
    a = 2.0 ** alpha
    return a / (a - 1.0) * (2.0 ** (3.0 * alpha) + a - 2.0) * math.exp(-t)


def bv_semigroup_bound(alpha: float, t: float, n: int, check: bool = True):
    """Variation of (e^{-t y_m^alpha}) for the twisted lacunary sequence.

    Returns (computed, closed_form); the closed form dominates the full
    infinite sum, so any truncation must stay below it.
    """
    if not (alpha > 0.0 and t > 0.0):
        raise ParameterError("need alpha > 0 and t > 0")
    seq = twisted_lacunary(n)
    with np.errstate(over="ignore"):
        powered = np.exp2(alpha * seq.log2)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.exp(-t * powered)
    s = np.where(np.isnan(s), 0.0, s)
    computed = sequence_variation(s)
    closed = bv_closed_form(alpha, t)
    if check and computed > closed * (1.0 + 1e-12):
        raise InvariantViolation(
            f"variation {computed} exceeds the closed-form bound {closed} "
            f"at alpha={alpha}, t={t}"
        )
    return computed, closed


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

    def upper(self):
        return self.measured_K * self.bv_upper


def _j_map(z, exponent, layout):
    """Norming direction: block weights bn^(e-2); e = inf concentrates on the top block."""
    from .blockspace import block_norms

    bn = block_norms(z, layout)
    if not bn.any():
        return z
    safe = np.where(bn > 0.0, bn, 1.0)
    if exponent == math.inf:
        weights = np.where(bn == bn.max(), 1.0, 0.0)
        scale = np.where(bn > 0.0, weights / safe, 0.0)
    else:
        scale = np.where(bn > 0.0, safe ** (exponent - 2.0), 0.0)
    return z * np.repeat(scale, layout.sizes)


def opnorm_lower(apply_fn, adjoint_fn, layout: BlockLayout, p,
                 trials: int = 4, iters: int = 12, seed: int = 0):
    """Certified lower bound of an operator norm on the mixed-norm space.

    Duality-map power ascents from random starts; the returned witness
    attains the bound, so re-evaluation reproduces it.
    """
    rng = np.random.default_rng(seed)
    best, best_v = 0.0, None
    for _ in range(max(1, trials)):
        v = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
        v /= mixed_norm(v, p, layout)       # rejects p <= 1 before q is formed
        q = 1.0 if p == math.inf else p / (p - 1.0)
        for _ in range(max(1, iters)):
            z = apply_fn(v)
            nz = mixed_norm(z, p, layout)
            if nz == 0.0:
                break
            if nz > best:
                best, best_v = float(nz), v.copy()
            w = adjoint_fn(_j_map(z, p, layout))
            v_new = _j_map(w, q, layout)
            nv = mixed_norm(v_new, p, layout)
            if nv == 0.0:
                break
            v = v_new / nv
        z = apply_fn(v)
        nz = mixed_norm(z, p, layout)
        if nz > best:
            best, best_v = float(nz), v.copy()
    return best, best_v


def sectoriality_probe(op: TwistedMultiplier, angles, radii, p,
                       trials: int = 3, seed: int = 0) -> SectorialityReport:
    """Lower-bound |lam R(lam, A)| along rays lam = r e^{i(pi - theta)}.

    Uniform boundedness of the per-angle data as r sweeps is the finite
    surrogate for a zero sectorial angle; no angle is claimed.
    """
    angles = np.asarray(angles, dtype=np.float64).ravel()
    radii = np.asarray(radii, dtype=np.float64).ravel()
    if np.any(angles <= 0.0) or np.any(angles >= math.pi):
        raise ParameterError("angles must lie strictly between 0 and pi")
    if np.any(radii <= 0.0):
        raise ParameterError("radii must be positive")
    vals = op._gamma
    lower = np.zeros((angles.size, radii.size))
    bv_upper = np.zeros_like(lower)
    skipped = []
    for i, theta in enumerate(angles):
        for j, r in enumerate(radii):
            lam = r * cmath.exp(1j * (math.pi - theta))
            try:
                diag, off = op.symbols(op._resolvent_values(lam))
            except SingularityError:
                skipped.append((float(theta), float(r)))
                continue
            lam_diag, lam_off = lam * diag, lam * off
            val, _ = opnorm_lower(
                lambda v: lam * op.apply_symbols(diag, off, v),
                lambda u: op.adjoint_apply_symbols(lam_diag, lam_off, u),
                op.layout, p, trials=trials, seed=seed + 7 * i + j)
            lower[i, j] = val
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                symbol = lam / (lam - vals)
            symbol = np.where(np.isfinite(symbol), symbol, 0.0)
            bv_upper[i, j] = bv_norm(symbol)
    ratios = lower[bv_upper > 0.0] / bv_upper[bv_upper > 0.0]
    measured_k = float(ratios.max()) if ratios.size else 0.0
    return SectorialityReport(angles=angles, radii=radii, lower=lower,
                              per_angle_sup=lower.max(axis=1),
                              bv_upper=bv_upper, measured_K=measured_k,
                              skipped=tuple(skipped))

