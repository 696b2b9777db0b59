"""The one coupling table of the twisted basis against the per-variant code
it replaced, kept here verbatim as oracles.

The permutation builder, coefficient analysis and synthesis, the two
cover rules, the basis matrix (the synthesis of ``np.eye(n)``) and the
multiplier structure must agree with the oracles bit for bit, and raise
the same error class wherever the oracles raise.  The program forms no
dense basis matrix; the oracle ``twisted_basis_matrix`` is the one the
sign-average oracles and the sign-class properties multiply by.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from mrlab import multiplier
from mrlab import twistbasis as tb
from mrlab.blockspace import BlockLayout
from mrlab.errors import ParameterError, StructuralError
from mrlab.multiplier import _Structure
from mrlab.twistbasis import EVEN_TWIST, ODD_TWIST, PLAIN, VARIANTS, TwistPermutation

# -- oracles: the per-variant code, verbatim ---------------------------------


@dataclass(frozen=True)
class MixedVector:
    """The coefficients-and-layout pair the oracles read and return, with the
    coefficients cast to complex128, so that the oracles stay the complex
    reference the program's real path is held to."""

    coeffs: np.ndarray
    layout: BlockLayout

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           np.asarray(self.coeffs, dtype=np.complex128).reshape(-1))


def first_even_in_shifted_block(k: int) -> int:
    """b_k: the first even number of triangular block k + 2 (k >= 0)."""
    start = (k + 1) * (k + 2) // 2 + 1
    return start if start % 2 == 0 else start + 1


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


# -- comparison helpers ------------------------------------------------------


def coupling_cover(n_coeffs, perm, variant):
    """The program's synthesis cover: the ``cover`` of the coupling of n_coeffs
    coefficients."""
    return tb._coupling(perm, variant, np.arange(1, n_coeffs + 1)).cover


def same_array(a, b):
    """Equal shape, dtype and bytes (so -0.0 and 0.0 differ)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def outcome(fn, *args):
    """The value of fn(*args), or the class of the error it raises."""
    try:
        return fn(*args)
    except (ParameterError, StructuralError) as exc:
        return type(exc)


def assert_same_outcome(got, want):
    """Complex results equal the oracle's in dtype and bytes.  A real result is
    float64, equal bit for bit to the oracle's real part, and every imaginary
    part of the oracle is +0.0."""
    if isinstance(want, type):
        assert got is want
    elif isinstance(want, MixedVector):
        assert_same_outcome(got, want.coeffs)
    elif np.iscomplexobj(want) and not np.iscomplexobj(got):
        assert got.dtype == np.float64 and same_array(got, want.real)
        assert same_array(want.imag, np.zeros(want.shape))
    elif isinstance(want, np.ndarray):
        assert same_array(got, want)
    else:
        assert type(got) is type(want) and got == want


def same_permutation(got, want):
    return (got.size == want.size and got.even_cover == want.even_cover
            and same_array(got.table, want.table) and same_array(got.b_list, want.b_list)
            and same_array(got.inv_even, want.inv_even))


BLOCKS = range(1, 61)


def setup(n_blocks):
    layout = BlockLayout.triangular(n_blocks)
    return layout, TwistPermutation.covering(2 * layout.dim + 8)


# -- the permutation ---------------------------------------------------------


def test_first_even_in_shifted_block_takes_arrays():
    ks = np.arange(5000)
    got = tb.first_even_in_shifted_block(ks)
    assert got.dtype == np.int64
    assert got.tolist() == [first_even_in_shifted_block(k) for k in range(5000)]
    assert type(tb.first_even_in_shifted_block(7)) is int


@pytest.mark.parametrize("n", [1, 2, 3, 20, 2000, 100_000])
def test_build_matches_oracle(n):
    if n == 1:
        with pytest.raises(ParameterError):
            tb.build_permutation(n)
    else:
        assert same_permutation(tb.build_permutation(n), _build(n, even_cover=0))


# covering(n) serves the indices 1..n: the inverse covers n + 1, the
# odd-twist partner of n


def test_covering_matches_oracle_on_small_covers():
    for cover in range(2, 400):
        assert same_permutation(TwistPermutation.covering(cover),
                                _build(0, even_cover=cover + 1))


@pytest.mark.parametrize("cover", [511, 1000, 1001, 4097, 8014, 16_010])
def test_covering_matches_oracle(cover):
    assert same_permutation(TwistPermutation.covering(cover), _build(0, even_cover=cover + 1))


@pytest.mark.parametrize("size, cover", [(-1, 0), (0, 0), (0, 1), (-3, 5)])
def test_build_rejects_what_the_oracle_rejects(size, cover):
    with pytest.raises(ParameterError):
        _build(size, cover)
    with pytest.raises(ParameterError):
        tb._build(size, cover)


# -- the multiplier structure and the covers ---------------------------------


def analysis_size(layout, perm, variant):
    """The number of twisted coefficients the program's analysis gives a
    vector of the layout."""
    return tb.twisted_analysis(np.zeros(layout.dim), perm, variant).size


def same_structure(got, want):
    return got.needed == want.needed and all(
        same_array(getattr(got, name), getattr(want, name))
        for name in ("diag_src", "off_rows", "off_cols", "off_hi", "off_lo"))


@pytest.mark.parametrize("variant", VARIANTS)
def test_structure_and_analysis_length_match_oracle(variant):
    for n_blocks in BLOCKS:
        layout, perm = setup(n_blocks)
        assert same_structure(multiplier._structure(layout, perm, variant),
                              _structure(layout, perm, variant))
        assert_same_outcome(analysis_size(layout, perm, variant),
                            analysis_length(layout, perm, variant))


@pytest.mark.parametrize("variant", VARIANTS)
def test_structure_on_short_permutations_matches_oracle(variant):
    # tables that end at or just past the layout: pi(dim + 1) may be unknown
    for dim in range(1, 40):
        layout = BlockLayout.from_sizes(np.ones(dim, int))
        for size in range(max(2, dim - 1), dim + 3):
            perm = tb.build_permutation(size)
            want = outcome(_structure, layout, perm, variant)
            got = outcome(multiplier._structure, layout, perm, variant)
            if isinstance(want, type):
                assert got is want
            else:
                assert same_structure(got, want)
            assert_same_outcome(outcome(analysis_size, layout, perm, variant),
                                outcome(analysis_length, layout, perm, variant))


@pytest.mark.parametrize("variant", VARIANTS)
def test_synthesis_cover_matches_oracle_up_to_and_past_the_table(variant):
    for size in (2, 3, 20, 21, 64):
        perm = tb.build_permutation(size)
        for n in range(0, size + 4):   # n = size, size + 1 meet the m + 1 <= size guard
            want = outcome(synthesis_cover, n, perm, variant)
            if variant == ODD_TWIST and n in (size, size + 1) and n - 1 + n % 2 >= size:
                # the oracle leaves out the partner of its last odd coefficient,
                # which lies past the table; synthesis raises there, so does the cover
                want = ParameterError
            assert_same_outcome(outcome(coupling_cover, n, perm, variant), want)
    perm = TwistPermutation.covering(16_010)
    for n in (1001, 16_009):
        assert_same_outcome(coupling_cover(n, perm, variant), synthesis_cover(n, perm, variant))


def test_unknown_variant_is_a_parameter_error():
    layout, perm = setup(3)
    for fn, args in ((multiplier._structure, (layout, perm, "twisted")),
                     (analysis_size, (layout, perm, "twisted")),
                     (coupling_cover, (5, perm, "twisted")),
                     (tb.twisted_synthesis, (np.ones(3), perm, "twisted", layout))):
        with pytest.raises(ParameterError, match="unknown basis variant 'twisted'"):
            fn(*args)


# -- analysis, synthesis and the basis matrix --------------------------------


def random_vector(rng, layout):
    return rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)


@pytest.mark.parametrize("variant", VARIANTS)
def test_analysis_and_synthesis_match_oracle(variant):
    rng = np.random.default_rng(5)
    for n_blocks in BLOCKS:
        layout, perm = setup(n_blocks)
        z = random_vector(rng, layout)
        for v in (z, z.real.copy()):
            got = tb.twisted_analysis(v, perm, variant)
            want = twisted_analysis(MixedVector(v, layout), perm, variant)
            assert_same_outcome(got, want)
            assert_same_outcome(tb.twisted_synthesis(got, perm, variant, layout),
                                twisted_synthesis(want, perm, variant, layout))


@pytest.mark.parametrize("variant", VARIANTS)
def test_analysis_keeps_signed_zeros(variant):
    layout, perm = setup(9)
    arr = np.zeros(layout.dim, dtype=np.complex128)
    arr[::3] = complex(-0.0, -0.0)
    arr[1::3] = complex(-0.0, 1.5)
    assert same_array(tb.twisted_analysis(arr, perm, variant),
                      twisted_analysis(MixedVector(arr, layout), perm, variant))
    assert_same_outcome(tb.twisted_analysis(arr.real.copy(), perm, variant),
                        twisted_analysis(MixedVector(arr.real, layout), perm, variant))


def coefficient_vectors(rng, layout, perm, variant, n):
    """Dense random coefficients, the truncated analysis of a random vector
    (whose totals beyond the layout cancel until the cut), and the real parts
    of both."""
    dense = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    expansion = twisted_analysis(MixedVector(random_vector(rng, layout), layout),
                                 perm, variant)
    cut = np.zeros(n, dtype=np.complex128)
    cut[: min(n, expansion.size)] = expansion[:n]
    head = np.zeros(n, dtype=np.complex128)
    head[: min(n, layout.dim)] = dense[: layout.dim]   # nothing past the layout
    return dense, cut, head, dense.real.copy(), cut.real.copy()


@pytest.mark.parametrize("variant", VARIANTS)
def test_synthesis_of_every_length_matches_oracle(variant):
    # odd lengths leave a trailing odd coefficient that couples forward
    rng = np.random.default_rng(11)
    for n_blocks in (1, 2, 3, 4, 5, 8, 12, 16):
        layout, perm = setup(n_blocks)
        longest = analysis_length(layout, perm, variant) + 5
        for n in range(0, longest + 1):
            for c in coefficient_vectors(rng, layout, perm, variant, n):
                assert_same_outcome(outcome(tb.twisted_synthesis, c, perm, variant, layout),
                                    outcome(twisted_synthesis, c, perm, variant, layout))


@pytest.mark.parametrize("variant", VARIANTS)
def test_synthesis_past_the_permutation_table_matches_oracle(variant):
    rng = np.random.default_rng(3)
    layout = BlockLayout.triangular(4)
    for size in (10, 11, 12):
        perm = tb.build_permutation(size)
        for n in range(0, size + 4):
            c = np.zeros(n, dtype=np.complex128)
            c[: min(n, 4)] = rng.standard_normal(min(n, 4))
            assert_same_outcome(outcome(tb.twisted_synthesis, c, perm, variant, layout),
                                outcome(twisted_synthesis, c, perm, variant, layout))


def test_synthesis_error_names_the_coordinate():
    layout = BlockLayout.triangular(3)  # dim 6, pi(4) = 6 fits, pi(8) = 10 does not
    perm = TwistPermutation.covering(32)
    coeffs = np.zeros(8)
    coeffs[7] = 1.0
    with pytest.raises(StructuralError, match="coefficient 8 needs coordinate 10 "
                                              "outside layout dim 6"):
        tb.twisted_synthesis(coeffs, perm, EVEN_TWIST, layout)


def synthesized_basis(n, perm, variant, layout):
    """The (n, dim) matrix whose row m-1 is f_m, synthesized from np.eye(n)."""
    t = tb._coupling(perm, variant, np.arange(1, n + 1))
    return tb._synthesize(np.eye(n), t, layout.dim)


@pytest.mark.parametrize("variant", VARIANTS)
def test_basis_matrix_matches_oracle(variant):
    for n_blocks in (1, 2, 3, 4, 6, 9):
        layout, perm = setup(n_blocks)
        for n in range(1, 2 * layout.dim + 3):
            assert_same_outcome(outcome(synthesized_basis, n, perm, variant, layout),
                                outcome(twisted_basis_matrix, n, perm, variant, layout))
