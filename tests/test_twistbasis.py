import re

import numpy as np
import pytest

from mrlab import multiplier
from mrlab.blockspace import BlockLayout
from mrlab.errors import ParameterError, StructuralError
from mrlab.multiplier import TwistedMultiplier
from mrlab.twistbasis import (
    EVEN_TWIST,
    ODD_TWIST,
    PLAIN,
    TwistPermutation,
    build_permutation,
    first_even_in_shifted_block,
    synthesis_cover,
    twisted_analysis,
    twisted_basis_matrix,
    twisted_synthesis,
    unconditional_constant,
)


def naive_permutation(n):
    """Direct transcription of the defining rule, as an independent oracle."""
    b_vals = []
    k = 0
    while len(b_vals) < n:  # more than enough reserved values
        b_vals.append(first_even_in_shifted_block(k))
        k += 1
    forbidden = set(b_vals)
    table = {}
    used = set()
    for m in range(1, n + 1):
        if m % 2 == 1:
            table[m] = m
        elif m % 4 == 2:
            table[m] = b_vals[(m - 2) // 4]
            used.add(table[m])
        else:
            cand = 2
            while cand in forbidden or cand in used:
                cand += 2
            table[m] = cand
            used.add(cand)
    return table


def block_scan_first_even(block):
    first = (block - 1) * block // 2 + 1
    last = block * (block + 1) // 2
    for j in range(first, last + 1):
        if j % 2 == 0:
            return j
    return None


def test_b_list_is_first_even_of_shifted_blocks():
    for k in range(0, 200):
        assert first_even_in_shifted_block(k) == block_scan_first_even(k + 2)


def test_permutation_frozen_values():
    perm = build_permutation(20)
    assert perm.pi(1) == 1 and perm.pi(3) == 3
    assert perm.pi(2) == 2 and perm.pi(6) == 4 and perm.pi(10) == 8 and perm.pi(14) == 12
    assert perm.pi(4) == 6 and perm.pi(8) == 10 and perm.pi(12) == 14
    np.testing.assert_array_equal(perm.b_list[:5], [2, 4, 8, 12, 16])


def test_permutation_matches_naive_oracle():
    n = 2000
    perm = build_permutation(n)
    oracle = naive_permutation(n)
    got = perm.table[1:]
    np.testing.assert_array_equal(got, [oracle[m] for m in range(1, n + 1)])


def test_permutation_bijective_on_evens():
    n = 100_000
    perm = build_permutation(n)
    evens = np.arange(2, n + 1, 2)
    image = perm.table[evens]
    assert np.all(image % 2 == 0)
    assert np.unique(image).size == evens.size
    odds = np.arange(1, n + 1, 2)
    np.testing.assert_array_equal(perm.table[odds], odds)


def test_inverse_round_trip():
    perm = TwistPermutation.covering(3000)
    evens = np.arange(2, 3001, 2)
    pre = perm.pi_inv(evens)
    np.testing.assert_array_equal(perm.pi(pre), evens)


COVERED = sorted(set(range(1, 100)) | set(range(100, 3001, 11)) | {2999, 3000})


@pytest.mark.parametrize("variant", [PLAIN, EVEN_TWIST, ODD_TWIST])
def test_covering_serves_the_indices_asked_of_it(variant):
    # covering(n) serves 1..n as coordinates and as coefficients: the
    # structure and the synthesis cover read from it what a wide table gives
    wide = TwistPermutation.covering(3 * max(COVERED))
    for n in COVERED:
        perm = TwistPermutation.covering(n)
        layout = BlockLayout.from_sizes(np.ones(n, int))
        got, want = (multiplier._structure(layout, p, variant) for p in (perm, wide))
        assert got.needed == want.needed
        for name in ("diag_src", "off_rows", "off_cols", "off_hi", "off_lo"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert synthesis_cover(n, perm, variant) == synthesis_cover(n, wide, variant)


def test_covering_operator_table_stays_within_twice_the_dimension():
    # the bound the CLI checks before it builds an operator
    for n in COVERED[::3]:
        assert TwistedMultiplier.covering(n, "lacunary").perm.size <= 2 * n + 8
    assert TwistedMultiplier.covering(8000, "lacunary").perm.size == 15_500


@pytest.mark.parametrize("variant", [EVEN_TWIST, ODD_TWIST, PLAIN])
@pytest.mark.parametrize("n_blocks", [4, 8, 13])
def test_round_trip_random_vectors(variant, n_blocks):
    layout = BlockLayout.triangular(n_blocks)
    perm = TwistPermutation.covering(max(2 * layout.dim + 8, 16))
    rng = np.random.default_rng(42)
    for _ in range(25):
        v = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
        coeffs = twisted_analysis(v, perm, variant)
        back = twisted_synthesis(coeffs, perm, variant, layout)
        np.testing.assert_allclose(back, v, atol=1e-12)


def test_round_trip_thousand_vectors_tiny_error():
    layout = BlockLayout.triangular(4)
    perm = TwistPermutation.covering(2 * layout.dim + 8)
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        v = rng.standard_normal(layout.dim)
        back = twisted_synthesis(twisted_analysis(v, perm, EVEN_TWIST),
                                 perm, EVEN_TWIST, layout)
        worst = max(worst, float(np.abs(back - v).max()))
    assert worst <= 1e-12


def test_round_trip_large_dimension_conditioning():
    layout = BlockLayout.triangular_covering(10_000)
    perm = TwistPermutation.covering(2 * layout.dim + 8)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(layout.dim)
    coeffs = twisted_analysis(v, perm, EVEN_TWIST)
    back = twisted_synthesis(coeffs, perm, EVEN_TWIST, layout)
    err = np.abs(back - v).max() / np.abs(v).max()
    assert err <= 1e-10


def test_basis_columns_even_twist():
    layout = BlockLayout.triangular(6)
    perm = TwistPermutation.covering(64)
    f = twisted_basis_matrix(8, perm, EVEN_TWIST, layout)
    e = np.eye(layout.dim)
    np.testing.assert_array_equal(f[0], e[0])          # f_1 = e_1
    np.testing.assert_array_equal(f[1], e[0] + e[1])   # f_2 = e_1 + e_{pi(2)}
    np.testing.assert_array_equal(f[3], e[2] + e[5])   # f_4 = e_3 + e_6
    # e_{pi(2)} expands as f_2 - f_1
    coeffs = twisted_analysis(np.eye(layout.dim)[perm.pi(2) - 1], perm, EVEN_TWIST)
    assert coeffs[1] == 1.0 and coeffs[0] == -1.0
    assert not np.any(coeffs[2:])


def test_basis_columns_odd_twist():
    layout = BlockLayout.triangular(6)
    perm = TwistPermutation.covering(64)
    f = twisted_basis_matrix(8, perm, ODD_TWIST, layout)
    e = np.eye(layout.dim)
    np.testing.assert_array_equal(f[0], e[0] + e[1])   # f_1 = e_1 + e_{pi(2)}
    np.testing.assert_array_equal(f[1], e[1])          # f_2 = e_{pi(2)}
    np.testing.assert_array_equal(f[2], e[2] + e[perm.pi(4) - 1])


def test_synthesis_structural_error_names_index():
    layout = BlockLayout.triangular(3)  # dim 6, pi(4) = 6 fits, pi(8) = 10 does not
    perm = TwistPermutation.covering(32)
    coeffs = np.zeros(8)
    coeffs[7] = 1.0
    with pytest.raises(StructuralError, match="10"):
        twisted_synthesis(coeffs, perm, EVEN_TWIST, layout)


def test_synthesis_cover_and_analysis_length():
    perm = TwistPermutation.covering(64)
    layout = BlockLayout.triangular(4)  # dim 10
    n = twisted_analysis(np.zeros(layout.dim), perm, EVEN_TWIST).size
    assert n >= layout.dim
    cover = synthesis_cover(12, perm, EVEN_TWIST)
    assert cover >= max(perm.pi(m) for m in range(2, 13, 2))


@pytest.mark.parametrize("variant", [PLAIN, EVEN_TWIST, ODD_TWIST])
def test_synthesis_cover_agrees_with_synthesis_at_the_table_end(variant):
    """The cover raises exactly when synthesis of n coefficients does, with
    the same error; otherwise synthesis fits inside the cover."""
    for size in (2, 3, 20, 21, 64):
        perm = build_permutation(size)
        wide = BlockLayout.from_sizes(np.ones(4 * size + 16, int))
        for n in range(1, size + 4):
            try:
                cover = synthesis_cover(n, perm, variant)
            except ParameterError as exc:
                with pytest.raises(ParameterError, match=re.escape(str(exc))):
                    twisted_synthesis(np.ones(n), perm, variant, wide)
                continue
            fits = BlockLayout.from_sizes(np.ones(cover, int))
            twisted_synthesis(np.ones(n), perm, variant, fits)


def test_unconditional_constant_plain_basis_is_one():
    for p in (1.5, 2.0, 4.0):
        val = unconditional_constant(8, p, mode="exact", variant=PLAIN)
        assert val == pytest.approx(1.0, abs=1e-12)


def test_unconditional_constant_stable_at_p2():
    vals = [unconditional_constant(n, 2.0, mode="exact") for n in (8, 10, 12)]
    assert vals[0] > 1.0
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12          # nested witness families
    assert vals[-1] <= 1.1 * vals[0]   # stable within 10% as n grows 8 -> 12


def test_unconditional_constant_grows_at_p4():
    vals = [unconditional_constant(n, 4.0, mode="sampled", seed=0, n_signs=64,
                                   ascent_sweeps=0)
            for n in (16, 64, 256)]
    assert vals[1] >= vals[0] * 0.99
    assert vals[2] > vals[0] * 1.15


@pytest.mark.parametrize("n_signs", [0, 1])
def test_unconditional_constant_sampled_needs_two_sign_rows(n_signs):
    # row 1 flips one member per coupled pair: with fewer rows this ended
    # in an IndexError
    with pytest.raises(ParameterError, match="at least 2 sign rows"):
        unconditional_constant(8, 3.0, mode="sampled", n_signs=n_signs)


def test_unconditional_constant_sampled_close_to_exact():
    exact = unconditional_constant(10, 2.0, mode="exact")
    sampled = unconditional_constant(10, 2.0, mode="sampled", seed=1, n_signs=512)
    assert sampled <= exact + 1e-9
    assert sampled >= 0.75 * exact


def test_sampled_unconditional_constant_rates_each_witness_once(monkeypatch):
    # a full product multiplies every sign row; the witnesses are rated once
    # each (9 at n 12); the ascent forms its sign products once, outside
    # combination_norms, then recomputes only the columns a step moves
    from mrlab import twistbasis

    full = []
    inner = twistbasis.combination_norms

    def counting(weights, *args):
        if weights.shape[0] > 1:
            full.append(weights.shape[0])
        return inner(weights, *args)

    monkeypatch.setattr(twistbasis, "combination_norms", counting)
    unconditional_constant(12, 3.0, mode="sampled", seed=0)
    assert len(full) == 9


def test_unconditional_constant_errors():
    with pytest.raises(ParameterError):
        unconditional_constant(16, 2.0, mode="exact")
    with pytest.raises(ParameterError):
        unconditional_constant(8, 2.0, mode="bogus")
