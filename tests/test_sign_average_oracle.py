"""The streamed sign averages against the unblocked products they replaced.

``rad_norm`` (exact and sampled) and ``unconditional_constant`` used to
form the whole patterns x dim product ``signs @ vectors`` at once and
norm it in one ``mixed_norm`` call.  Those forms are kept here verbatim
as oracles: ``blockspace.combination_norms``, which forms the product a
row block at a time, must reproduce them bit for bit, also when the
blocks are made a few rows long so that they split unevenly.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from mrlab import blockspace
from mrlab.blockspace import (
    EXACT_TERM_LIMIT,
    BlockLayout,
    combination_norms,
    mixed_norm,
    sign_patterns,
)
from mrlab.errors import ParameterError
from mrlab.rademacher import RadSum, SampledNorm, rad_norm
from mrlab.twistbasis import (
    EVEN_TWIST,
    ODD_TWIST,
    PLAIN,
    TwistPermutation,
    _witness_family,
    synthesis_cover,
    twisted_basis_matrix,
    unconditional_constant,
)


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


# -- the old unblocked code, verbatim ------------------------------------------


def rad_norm_oracle(s, mode, seed=0, samples=100_000):
    if mode == "exact":
        signs = sign_patterns(s.n_terms)
        norms = mixed_norm(signs.astype(np.complex128) @ s.terms, s.p, s.layout)
        return float(np.sqrt(np.mean(norms ** 2)))
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(samples, s.n_terms))
    signs[:, 0] = 1.0
    norms = mixed_norm(signs.astype(np.complex128) @ s.terms, s.p, s.layout)
    sq = norms ** 2
    mean = float(np.mean(sq))
    se_mean = float(np.std(sq, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    value = math.sqrt(mean)
    stderr = se_mean / (2.0 * value) if value > 0.0 else se_mean
    return SampledNorm(value=value, stderr=stderr, samples=samples)


def unconditional_constant_oracle(n, p, mode="exact", seed=0, variant=EVEN_TWIST,
                                  n_signs=2000, ascent_sweeps=2):
    perm = TwistPermutation.covering(max(2 * n + 4, 8))
    layout = BlockLayout.triangular_covering(synthesis_cover(n, perm, variant))
    basis = twisted_basis_matrix(n, perm, variant, layout).astype(np.complex128)

    rng = np.random.default_rng(seed)
    if mode == "exact":
        signs = sign_patterns(n)
    else:
        signs = rng.choice([-1.0, 1.0], size=(n_signs, n))
        signs[0] = 1.0
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


# -- rad_norm ------------------------------------------------------------------


def make_sum(k, blocks, seed, p=3.0):
    layout = BlockLayout.triangular(blocks)
    terms = np.random.default_rng(seed).standard_normal((k, layout.dim))
    return RadSum(terms, layout, p)


# k = 14 stays at small layouts: the oracle holds 2^14 x dim complex cells
RAD_CASES = [(k, blocks) for k in (6, 10, 12, 14) for blocks in (4, 9, 20)
             if not (k == 14 and blocks > 9)] + [(6, 40), (10, 40), (14, 20)]


def assert_rad_norm_matches(s, seed, samples):
    assert bits(rad_norm(s, "exact")) == bits(rad_norm_oracle(s, "exact"))
    got = rad_norm(s, "sampled", seed=seed, samples=samples)
    want = rad_norm_oracle(s, "sampled", seed=seed, samples=samples)
    assert bits([got.value, got.stderr]) == bits([want.value, want.stderr])
    assert got.samples == want.samples


@pytest.mark.parametrize("k, blocks", RAD_CASES)
@pytest.mark.parametrize("seed", [0, 7])
def test_rad_norm_matches_the_unblocked_oracle(k, blocks, seed):
    assert_rad_norm_matches(make_sum(k, blocks, seed), seed, samples=3001)


@pytest.mark.parametrize("k, blocks, samples", [(6, 4, 2003), (10, 9, 2001),
                                                (12, 6, 2002), (3, 40, 2)])
def test_rad_norm_matches_the_oracle_in_uneven_blocks(k, blocks, samples, monkeypatch):
    # 7 rows a block: 2^6 and 2003 leave a one-row remainder, 2^10 and 2001 others
    s = make_sum(k, blocks, seed=5, p=2.5)
    monkeypatch.setattr(blockspace, "_PATTERN_CELLS", 7 * s.layout.dim + 3)
    assert_rad_norm_matches(s, seed=5, samples=samples)


def test_sampled_rad_norm_memory_stays_bounded():
    # the whole 20,000 x 820 complex product alone would be 250 MiB
    s = make_sum(10, 40, seed=3)
    tracemalloc.start()
    try:
        rad_norm(s, "sampled", samples=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_combination_norms_reads_each_row():
    layout = BlockLayout.triangular(5)
    vectors = np.random.default_rng(4).standard_normal((3, layout.dim))
    weights = np.array([[1.0, 0.0, 0.0], [1.0, -1.0, 2.0], [0.0, 0.0, 0.0]])
    got = combination_norms(weights, vectors, 4.0, layout)
    assert got.shape == (3,)
    assert got[0] == mixed_norm(vectors[0], 4.0, layout)
    assert got[2] == 0.0


# -- the dtype of the products ---------------------------------------------------


@pytest.mark.parametrize("terms, dtype", [(np.ones((2, 3)), np.float64),
                                          (np.ones((2, 3), dtype=np.float32), np.float64),
                                          (np.ones((2, 3), dtype=np.int64), np.float64),
                                          ([[1, 0, 2]], np.float64),
                                          (np.ones((2, 3), dtype=np.complex64), np.complex128),
                                          (np.ones((2, 3)) * 1j, np.complex128)])
def test_rad_sum_keeps_real_terms_real(terms, dtype):
    s = RadSum(terms, BlockLayout.triangular(2), 3.0)
    assert s.terms.dtype == dtype
    assert s.terms.ndim == 2


def _recorded_dtypes(monkeypatch):
    seen = []
    norm = blockspace.mixed_norm

    def recording(v, p, layout=None):
        seen.append(np.asarray(v).dtype)
        return norm(v, p, layout)

    monkeypatch.setattr(blockspace, "mixed_norm", recording)
    return seen


@pytest.mark.parametrize("vectors, dtype", [(np.ones((3, 15)), np.float64),
                                            (np.ones((3, 15)) + 0j, np.complex128)])
def test_combination_norms_forms_the_product_in_the_inputs_dtype(vectors, dtype, monkeypatch):
    seen = _recorded_dtypes(monkeypatch)
    weights = sign_patterns(3)
    got = combination_norms(weights, vectors, 3.0, BlockLayout.triangular(5))
    assert seen and set(seen) == {np.dtype(dtype)}
    monkeypatch.undo()
    assert bits(got) == bits(mixed_norm(weights.astype(np.complex128) @ vectors, 3.0,
                                        BlockLayout.triangular(5)))


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_real_sign_averages_form_no_complex_product(mode, monkeypatch):
    seen = _recorded_dtypes(monkeypatch)
    rad_norm(make_sum(5, 4, seed=1), mode, samples=50)
    unconditional_constant(8, 3.0, mode=mode, n_signs=50, ascent_sweeps=1)
    assert seen and set(seen) == {np.dtype(np.float64)}


# -- unconditional_constant ----------------------------------------------------


# n = 14 enumerates 2^14 patterns per witness: one variant there and at the
# odd n = 13; the oracle takes the maximum over all 2^n patterns, exact mode
# over the half whose last sign is -1
UNCOND_EXACT = [(n, variant) for n in (2, 3, 5, 8, 11)
                for variant in (PLAIN, EVEN_TWIST, ODD_TWIST)] + [(13, ODD_TWIST),
                                                                  (14, EVEN_TWIST)]


@pytest.mark.parametrize("n, variant", UNCOND_EXACT)
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0, 6.0, math.inf])
def test_exact_unconditional_constant_matches_the_oracle(n, variant, p):
    seed = n % 3
    got = unconditional_constant(n, p, seed=seed, variant=variant)
    assert bits(got) == bits(unconditional_constant_oracle(n, p, seed=seed, variant=variant))


@pytest.mark.parametrize("n, p, seed, variant", [(12, 2.0, 0, EVEN_TWIST),
                                                 (20, 3.0, 1, ODD_TWIST),
                                                 (28, 4.0, 2, EVEN_TWIST),
                                                 (40, 3.0, 1, EVEN_TWIST),
                                                 (18, math.inf, 2, PLAIN),
                                                 (33, 1.5, 0, ODD_TWIST)])
def test_sampled_unconditional_constant_matches_the_oracle(n, p, seed, variant):
    got = unconditional_constant(n, p, mode="sampled", seed=seed, variant=variant)
    want = unconditional_constant_oracle(n, p, mode="sampled", seed=seed, variant=variant)
    assert bits(got) == bits(want)


@pytest.mark.parametrize("n, mode", [(6, "exact"), (10, "exact"), (12, "sampled")])
def test_unconditional_constant_matches_the_oracle_in_uneven_blocks(n, mode, monkeypatch):
    perm = TwistPermutation.covering(max(2 * n + 4, 8))
    dim = BlockLayout.triangular_covering(synthesis_cover(n, perm, EVEN_TWIST)).dim
    want = unconditional_constant_oracle(n, 3.0, mode=mode, seed=4, n_signs=500)
    monkeypatch.setattr(blockspace, "_PATTERN_CELLS", 7 * dim + 3)
    got = unconditional_constant(n, 3.0, mode=mode, seed=4, n_signs=500)
    assert bits(got) == bits(want)


# -- the enumeration limit -----------------------------------------------------


def test_every_enumeration_shares_one_limit():
    k = EXACT_TERM_LIMIT + 1
    with pytest.raises(ParameterError) as enumerated:
        sign_patterns(k)
    message = str(enumerated.value)
    assert str(EXACT_TERM_LIMIT) in message
    with pytest.raises(ParameterError, match=re.escape(message)):
        rad_norm(make_sum(k, 3, seed=0), "exact")
    with pytest.raises(ParameterError, match=re.escape(message)):
        unconditional_constant(k, 2.0)
    assert sign_patterns(EXACT_TERM_LIMIT).shape == (2 ** EXACT_TERM_LIMIT, EXACT_TERM_LIMIT)
