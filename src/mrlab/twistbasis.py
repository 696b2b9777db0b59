"""The even-integer permutation and the twisted Schauder basis.

The permutation pi fixes the odd integers.  Indices 4k+2 are sent to the
reserved values b_k, where b_k is the first even number in triangular
block k+2 (block 1 is the singleton {1} and contains no even number, so
the b-list starts with block 2: b_0 = 2, b_1 = 4, b_2 = 8, ...).  Indices
4k take the smallest even number that is neither reserved nor already
used.  On top of pi sit three basis variants over the unit vectors e_m:

    plain       f_m = e_m
    even-twist  f_m = e_m (m odd),            e_{m-1} + e_{pi(m)} (m even)
    odd-twist   f_m = e_m + e_{pi(m+1)} (m odd),   e_{pi(m)}      (m even)

Coefficient analysis (vector -> twisted coefficients) is total; synthesis
back into a fixed layout fails with a structural error when a coupled
partner index falls outside the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blockspace import BlockLayout, MixedVector, mixed_norm
from .errors import ParameterError, StructuralError

__all__ = [
    "PLAIN",
    "EVEN_TWIST",
    "ODD_TWIST",
    "VARIANTS",
    "TwistPermutation",
    "build_permutation",
    "first_even_in_shifted_block",
    "twisted_analysis",
    "twisted_synthesis",
    "analysis_length",
    "synthesis_cover",
    "twisted_basis_matrix",
    "unconditional_constant",
]

PLAIN = "plain"
EVEN_TWIST = "even-twist"
ODD_TWIST = "odd-twist"
VARIANTS = (PLAIN, EVEN_TWIST, ODD_TWIST)


def first_even_in_shifted_block(k: int) -> int:
    """b_k: the first even number of triangular block k + 2 (k >= 0)."""
    start = (k + 1) * (k + 2) // 2 + 1
    return start if start % 2 == 0 else start + 1


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
    def build(cls, size: int) -> "TwistPermutation":
        return _build(size, even_cover=0)

    @classmethod
    def covering(cls, even_cover: int) -> "TwistPermutation":
        """Build a table large enough that pi^{-1} is known on evens <= even_cover."""
        return _build(size=0, even_cover=even_cover)


def _build(size: int, even_cover: int) -> TwistPermutation:
    if size < 0 or (size == 0 and even_cover < 2):
        raise ParameterError("need size >= 2 or an even cover >= 2")
    if even_cover:
        # reserved values <= cover have preimage 4k+2; each filler j is the
        # i-th non-reserved even and is hit at index 4i
        bound = even_cover
        b_vals = []
        k = 0
        while True:
            b = first_even_in_shifted_block(k)
            if b > bound:
                break
            b_vals.append(b)
            k += 1
        n_fillers = bound // 2 - len(b_vals)
        size = max(size, 4 * n_fillers, 4 * (len(b_vals) - 1) + 2, bound, 2)

    n_b = size // 4 + 2
    b_list = np.array([first_even_in_shifted_block(k) for k in range(n_b)], dtype=np.int64)
    # the filler scan below may pass the largest reserved value; reserve further out
    extra = list(b_list)
    k = n_b
    while extra[-1] <= 2 * size + 4:
        extra.append(first_even_in_shifted_block(k))
        k += 1
    reserved = set(int(b) for b in extra)

    table = np.zeros(size + 1, dtype=np.int64)
    odd = np.arange(1, size + 1, 2)
    table[odd] = odd
    candidate = 2
    for m in range(2, size + 1, 2):
        if m % 4 == 2:
            table[m] = b_list[(m - 2) // 4]
        else:
            while candidate in reserved:
                candidate += 2
            table[m] = candidate
            candidate += 2

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
    return TwistPermutation.build(n)


def _check_variant(variant):
    if variant not in VARIANTS:
        raise ParameterError(f"unknown basis variant {variant!r}; expected one of {VARIANTS}")


def analysis_length(layout: BlockLayout, perm: TwistPermutation, variant: str) -> int:
    """Number of twisted coefficients needed to expand any vector of the layout."""
    _check_variant(variant)
    dim = layout.dim
    if variant == PLAIN:
        return dim
    evens = np.arange(2, dim + 1, 2)
    longest = dim if evens.size == 0 else int(max(dim, perm.pi_inv(evens).max()))
    if variant == ODD_TWIST and dim % 2 == 1:
        # the last odd coordinate forces an even coefficient one past it
        longest = max(longest, dim + 1)
    return longest


def synthesis_cover(n_coeffs: int, perm: TwistPermutation, variant: str) -> int:
    """Smallest dimension that can hold a synthesis of n_coeffs coefficients."""
    _check_variant(variant)
    if variant == PLAIN:
        return n_coeffs
    if variant == EVEN_TWIST:
        partners = [perm.pi(m) for m in range(2, n_coeffs + 1, 2)]
    else:
        partners = [perm.pi(m + 1) for m in range(1, n_coeffs + 1, 2) if m + 1 <= perm.size]
        partners += [perm.pi(m) for m in range(2, n_coeffs + 1, 2)]
    return max([n_coeffs] + partners)


def twisted_analysis(v: MixedVector, perm: TwistPermutation, variant: str) -> np.ndarray:
    """Coefficients of v in the twisted basis (1-based order, entry m at [m-1])."""
    _check_variant(variant)
    arr, dim = v.coeffs, v.layout.dim
    if variant == PLAIN:
        return arr.copy()
    length = analysis_length(v.layout, perm, variant)
    coeffs = np.zeros(length, dtype=np.complex128)
    evens_e = np.arange(2, dim + 1, 2)   # even coordinate indices of the layout
    pre = perm.pi_inv(evens_e) if evens_e.size else np.zeros(0, dtype=np.int64)
    if variant == EVEN_TWIST:
        # coefficient functionals: c[2m] reads coordinate pi(2m), c[odd r] = v_r - c[r+1]
        coeffs[pre - 1] = arr[evens_e - 1]
        odd = np.arange(1, length + 1, 2)
        partner = np.where(odd + 1 <= length, coeffs[np.minimum(odd + 1, length) - 1], 0.0)
        base = np.where(odd <= dim, arr[np.minimum(odd, dim) - 1], 0.0)
        coeffs[odd - 1] = base - partner
    else:
        # c[odd r] = v_r; c[even m] = v_{pi(m)} - v_{m-1}, coordinates
        # outside the layout reading as zero
        odd = np.arange(1, length + 1, 2)
        base = np.where(odd <= dim, arr[np.minimum(odd, dim) - 1], 0.0)
        coeffs[odd - 1] = base
        ev = np.arange(2, length + 1, 2)
        tgt = perm.pi(ev)
        heads = np.where(tgt <= dim,
                         arr[np.minimum(tgt, dim) - 1], 0.0)
        tails = np.where(ev - 1 <= dim, arr[np.minimum(ev - 1, dim) - 1], 0.0)
        coeffs[ev - 1] = heads - tails
    return coeffs


def twisted_synthesis(coeffs, perm: TwistPermutation, variant: str,
                      layout: BlockLayout) -> MixedVector:
    """Rebuild the coordinate vector sum_m c_m f_m inside the given layout."""
    _check_variant(variant)
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    n = c.size
    dim = layout.dim
    out = np.zeros(dim, dtype=np.complex128)
    if variant == PLAIN:
        if n > dim and np.any(c[dim:]):
            bad = dim + 1 + int(np.flatnonzero(c[dim:])[0])
            raise StructuralError(f"coefficient {bad} exceeds layout dim {dim}")
        out[: min(n, dim)] = c[: min(n, dim)]
        return MixedVector(out, layout)

    odd = np.arange(1, n + 1, 2)
    evens = np.arange(2, n + 1, 2)
    if variant == EVEN_TWIST:
        targets = perm.pi(evens) if evens.size else evens
        live = c[evens - 1] != 0.0
        if np.any(live & (targets > dim)):
            m = int(evens[live & (targets > dim)][0])
            raise StructuralError(
                f"coefficient {m} couples to coordinate {int(perm.pi(m))} "
                f"outside layout dim {dim}"
            )
        out[targets[targets <= dim] - 1] = c[evens[targets <= dim] - 1]
        partner = np.where(odd + 1 <= n, c[np.minimum(odd + 1, n) - 1], 0.0)
        vals = c[odd - 1] + partner
        bad = (odd > dim) & (vals != 0.0)
        if np.any(bad):
            raise StructuralError(
                f"coefficients around index {int(odd[bad][0])} need coordinate "
                f"{int(odd[bad][0])} outside layout dim {dim}"
            )
        keep = odd <= dim
        out[odd[keep] - 1] = vals[keep]
    else:
        bad = (odd > dim) & (c[odd - 1] != 0.0)
        if np.any(bad):
            raise StructuralError(
                f"coefficient {int(odd[bad][0])} exceeds layout dim {dim}"
            )
        keep = odd <= dim
        out[odd[keep] - 1] = c[odd[keep] - 1]
        # even coordinate pi(m) collects c[m] + c[m-1]; a trailing odd
        # coefficient still couples forward, so include the pair (n, n+1)
        m_hi = n if n % 2 == 0 else n + 1
        ev = np.arange(2, m_hi + 1, 2)
        if ev.size:
            totals = np.where(ev <= n, c[np.minimum(ev, n) - 1], 0.0).astype(np.complex128)
            totals += c[ev - 2]
            targets = perm.pi(ev)
            live = totals != 0.0
            if np.any(live & (targets > dim)):
                m = int(ev[live & (targets > dim)][0])
                raise StructuralError(
                    f"coefficient {m} couples to coordinate {int(perm.pi(m))} "
                    f"outside layout dim {dim}"
                )
            sel = targets <= dim
            out[targets[sel] - 1] = totals[sel]
    return MixedVector(out, layout)


def twisted_basis_matrix(n: int, perm: TwistPermutation, variant: str,
                         layout: BlockLayout) -> np.ndarray:
    """(n, dim) matrix whose row m-1 is f_m in coordinates; small n only."""
    rows = np.zeros((n, layout.dim), dtype=np.complex128)
    for m in range(1, n + 1):
        unit = np.zeros(n)
        unit[m - 1] = 1.0
        rows[m - 1] = twisted_synthesis(unit, perm, variant, layout).coeffs
    return rows


def _witness_family(n, rng, n_random=6):
    """Deterministic coefficient vectors, nested across n by truncation."""
    fam = [np.ones(n)]
    scale = 1.0 / np.sqrt(np.arange(1, n + 1))
    fam.append(scale)
    pair = np.zeros(n)
    for m in range(n):  # alternating signs on (4k+1, 4k+2) pairs
        idx = m + 1
        if idx % 4 == 1:
            pair[m] = -1.0
        elif idx % 4 == 2:
            pair[m] = 1.0
    if np.any(pair):
        fam.append(pair)
    master = rng.standard_normal((n_random, n))
    fam.extend(master)
    return fam


def unconditional_constant(n: int, p, mode: str = "exact", seed: int = 0,
                           variant: str = EVEN_TWIST,
                           perm: TwistPermutation | None = None,
                           n_signs: int = 2000, ascent_sweeps: int = 2) -> float:
    """Lower estimate of the unconditional constant of the twisted basis.

    Exact mode enumerates all 2^n sign patterns (n <= 14) against a fixed
    witness family; sampled mode draws seeded random signs and improves the
    witness by coordinate ascent.  The plain variant returns 1 exactly.
    """
    _check_variant(variant)
    if n < 2:
        raise ParameterError("need n >= 2")
    if mode not in ("exact", "sampled"):
        raise ParameterError("mode must be 'exact' or 'sampled'")
    if mode == "exact" and n > 14:
        raise ParameterError("exact sign enumeration is limited to n <= 14")
    if perm is None:
        perm = TwistPermutation.covering(max(2 * n + 4, 8))
    layout = BlockLayout.triangular_covering(synthesis_cover(n, perm, variant))
    basis = twisted_basis_matrix(n, perm, variant, layout)

    rng = np.random.default_rng(seed)
    if mode == "exact":
        k = np.arange(2 ** n, dtype=np.uint64)
        signs = (((k[:, None] >> np.arange(n, dtype=np.uint64)) & 1) * 2.0 - 1.0)
    else:
        signs = rng.choice([-1.0, 1.0], size=(n_signs, n))
        signs[0] = 1.0
        # flip of one member per coupled pair: turns the small difference
        # vectors of the pair witness into the large sums
        signs[1] = 1.0
        signs[1, np.arange(n) % 4 == 0] = -1.0

    def best_ratio(a):
        base = mixed_norm((a[None, :] @ basis)[0], p, layout)
        if base == 0.0:
            return 0.0
        flipped = (signs * a[None, :]) @ basis
        return float(np.max(mixed_norm(flipped, p, layout)) / base)

    witnesses = _witness_family(n, np.random.default_rng(seed + 1))
    best = max(best_ratio(a) for a in witnesses)
    if mode == "sampled":
        a = max(witnesses, key=best_ratio).astype(float).copy()
        for _ in range(ascent_sweeps):
            for i in range(n):
                keep, val = best, a[i]
                for step in (0.5, 2.0, -1.0):
                    a[i] = val * step if val != 0 else step
                    r = best_ratio(a)
                    if r > keep:
                        keep, val = r, a[i]
                a[i] = val
                best = max(best, keep)
    return best
