"""The streamed sign averages against the unblocked products they replaced.

``rad_norm`` (exact and sampled) and ``unconditional_constant`` used to
form the whole patterns x dim product ``signs @ vectors`` at once and
norm it in one ``mixed_norm`` call.  Those forms are kept here verbatim
as oracles: ``blockspace.combination_norms``, which forms the product a
row block at a time, must reproduce them bit for bit, also when the
blocks are made a few rows long so that they split unevenly.  The
oracles enumerate all 2^k sign patterns with the old ``sign_patterns``,
kept here verbatim too; the code reads only the half ``sign_patterns(k)``
whose first sign is +1, which relies on a product row's bits not
depending on its place in the batch.  Up to EXACT_TERM_LIMIT terms
``rad_norm`` reads every square from the table of that half.  The sampler
draws its signs a row block at a time, which must give the oracle's single
draw, and norms the draws themselves when the table is not worth forming.
``unconditional_constant`` norms one sign row of each class whose products
have the same moduli, where the oracle norms every row, and reads each
ratio's denominator from row 0 of its sign products, where the oracle
forms a one-row product; its sampled ascent norms exactly only the rows
that can hold a trial's maximum, only in the trials whose ratio can rise,
and returns once a cycle over the coefficients keeps nothing.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mrlab import blockspace, rademacher, twistbasis
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
    VARIANTS,
    TwistPermutation,
    _witness_family,
    basis_layout,
    synthesis_cover,
    twisted_basis_matrix,
    unconditional_constant,
)


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


# -- the old unblocked code, verbatim ------------------------------------------


def all_sign_patterns(k: int) -> np.ndarray:
    """All 2^k sign vectors as rows of +-1.0; bit i of the row number sets sign i."""
    if k > EXACT_TERM_LIMIT:
        raise ParameterError(f"sign enumeration takes at most {EXACT_TERM_LIMIT} terms, not {k}")
    rows = np.arange(2 ** k, dtype=np.uint64)
    return ((rows[:, None] >> np.arange(k, dtype=np.uint64)) & 1) * 2.0 - 1.0


def rad_norm_oracle(s, mode, seed=0, samples=100_000):
    if mode == "exact":
        signs = all_sign_patterns(s.n_terms)
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
        signs = all_sign_patterns(n)
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


# -- the table of pattern norms ---------------------------------------------------


def _normed_rows(monkeypatch):
    rows = []
    norms = rademacher.combination_norms

    def counting(weights, vectors, p, layout):
        rows.append(weights.shape[0])
        return norms(weights, vectors, p, layout)

    monkeypatch.setattr(rademacher, "combination_norms", counting)
    return rows


@pytest.mark.parametrize("k", [1, 2, 7, EXACT_TERM_LIMIT])
def test_exact_and_sampled_norms_share_one_pattern_table(k, monkeypatch):
    rows = _normed_rows(monkeypatch)
    s = make_sum(k, 4, seed=k)
    rad_norm(s, "exact")
    rad_norm(s, "sampled", seed=1, samples=5000)
    assert sum(rows) == 2 ** (k - 1)
    assert s.pattern_squares.shape == (2 ** (k - 1),)


def test_sampled_norm_past_the_limit_norms_each_draw(monkeypatch):
    rows = _normed_rows(monkeypatch)
    rad_norm(make_sum(EXACT_TERM_LIMIT + 1, 3, seed=2), "sampled", seed=3, samples=700)
    assert sum(rows) == 700


def make_complex_sum(k, blocks, seed, p):
    layout = BlockLayout.triangular(blocks)
    g = np.random.default_rng(seed).standard_normal((2, k, layout.dim))
    return RadSum(g[0] + 1j * g[1], layout, p)


@pytest.mark.parametrize("k", range(1, EXACT_TERM_LIMIT + 1))
@pytest.mark.parametrize("p", [1.5, 3.0, math.inf])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_pattern_table_reads_match_the_oracle_at_every_width(k, p, kind):
    # every width checks the mirror index c ^ (2^k - 1) and the draw numbering
    s = make_sum(k, 3, seed=k, p=p) if kind == "real" else make_complex_sum(k, 3, k, p)
    assert bits(rad_norm(s, "exact")) == bits(rad_norm_oracle(s, "exact"))
    got = rad_norm(s, "sampled", seed=k, samples=1001)
    want = rad_norm_oracle(s, "sampled", seed=k, samples=1001)
    assert bits([got.value, got.stderr]) == bits([want.value, want.stderr])


def test_sampled_table_reads_hold_no_more_than_the_draw_and_one_row_block():
    # 100,000 draws at k = 14 over dim 210: a samples x dim product would be
    # 168 MB.  ``Generator.choice`` itself holds its int64 indices next to
    # the signs, so the draw's own peak is measured first.
    k, samples = EXACT_TERM_LIMIT, 100_000
    s = make_sum(k, 20, seed=6)
    tracemalloc.start()
    try:
        np.random.default_rng(0).choice([-1.0, 1.0], size=(samples, k))
        _, draw = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        rad_norm(s, "sampled", seed=0, samples=samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert draw >= samples * k * 8
    assert peak < draw + blockspace._PATTERN_CELLS * 16


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
    weights = all_sign_patterns(3)
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
# over the half ``sign_patterns(n)`` whose first sign is +1
UNCOND_EXACT = [(n, variant) for n in (2, 3, 5, 8, 11)
                for variant in (PLAIN, EVEN_TWIST, ODD_TWIST)] + [(13, ODD_TWIST),
                                                                  (14, EVEN_TWIST)]


@pytest.mark.parametrize("n, variant", UNCOND_EXACT)
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0, 6.0, math.inf])
def test_exact_unconditional_constant_matches_the_oracle(n, variant, p):
    seed = n % 3
    got = unconditional_constant(n, p, seed=seed, variant=variant)
    assert bits(got) == bits(unconditional_constant_oracle(n, p, seed=seed, variant=variant))


# the ascent norms exactly only the rows its estimate cannot rule out: at
# exponents near 1 and far past 2, where the estimate's powers reach the
# ends of the float range, past the exponents the power screen's margin
# covers (1e12), where every row is normed, and at n = 5, where the 2000
# draws fall into the 4 classes of two coupled pairs, one row each.  Rows
# that tie for the largest estimate are pinned by
# test_the_screen_keeps_every_row_tied_for_the_largest
SCREEN_EDGES = [(n, p, n % 3, EVEN_TWIST) for n in (12, 27, 40)
                for p in (1.001, 200.0, 1000.0, math.inf)] + [(5, 3.0, 1, EVEN_TWIST),
                                                              (12, 1e12, 0, EVEN_TWIST)]


@pytest.mark.parametrize("n, p, seed, variant", [(12, 2.0, 0, EVEN_TWIST),
                                                 (20, 3.0, 1, ODD_TWIST),
                                                 (28, 4.0, 2, EVEN_TWIST),
                                                 (40, 3.0, 1, EVEN_TWIST),
                                                 (18, math.inf, 2, PLAIN),
                                                 (33, 1.5, 0, ODD_TWIST)] + SCREEN_EDGES)
def test_sampled_unconditional_constant_matches_the_oracle(n, p, seed, variant):
    got = unconditional_constant(n, p, mode="sampled", seed=seed, variant=variant)
    want = unconditional_constant_oracle(n, p, mode="sampled", seed=seed, variant=variant)
    assert bits(got) == bits(want)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(n=hs.integers(2, 24),
       p=hs.sampled_from([1.001, 1.5, 2.0, 3.0, 7.5, 200.0, 1000.0, math.inf]),
       seed=hs.integers(0, 2 ** 16), variant=hs.sampled_from(VARIANTS))
def test_sampled_unconditional_constant_matches_the_oracle_anywhere(n, p, seed, variant):
    got = unconditional_constant(n, p, mode="sampled", seed=seed, variant=variant)
    want = unconditional_constant_oracle(n, p, mode="sampled", seed=seed, variant=variant)
    assert bits(got) == bits(want)


def ascent_oracle(a, signs, basis, p, layout, sweeps=2):
    """The ascent as ``unconditional_constant_oracle`` runs it, norming every
    sign row of every trial: the witness a's ratio and the ascent's result."""
    def ratio(a):
        norms = mixed_norm((signs * a) @ basis, p, layout)
        return float(np.max(norms) / norms[0]) if norms[0] != 0.0 else 0.0

    start = best = ratio(a)
    for _ in range(sweeps):
        for i in range(a.size):
            keep, val = best, a[i]
            for step in (0.5, 2.0, -1.0):
                a[i] = val * step if val != 0 else step
                r = ratio(a)
                if r > keep:
                    keep, val = r, a[i]
            a[i] = val
            best = max(best, keep)
    return start, best


# witness scales whose squares fall below the normal range, whose largest
# block norm squared leaves it (past 2^500 or under 2^-500), and whose
# squares overflow; the zero coefficients step to 0.5, 2 and -1, so blocks
# mix those scales with plain ones
@pytest.mark.parametrize("scale", [1e-170, 1e-155, 1e-140, 1e152, 1e200])
@pytest.mark.parametrize("p", [1.001, 3.0, 1000.0, math.inf])
def test_the_ascent_matches_the_oracle_at_the_ends_of_the_float_range(scale, p):
    n = 10
    rng = np.random.default_rng(7)
    perm, layout = basis_layout(n)
    basis = twisted_basis_matrix(n, perm, EVEN_TWIST, layout)
    signs = rng.choice([-1.0, 1.0], size=(200, n))
    signs[0] = 1.0
    a = scale * rng.standard_normal(n) * (np.arange(n) % 3 != 0)
    start, want = ascent_oracle(a.copy(), signs, basis, p, layout)
    got = twistbasis._ascend(a.copy(), start, signs, basis, p, layout, 2)
    assert bits(got) == bits(want)


def test_the_sampled_ascent_norms_few_rows_exactly(monkeypatch):
    # of the 240 trials (2 sweeps x 40 coefficients x 3 steps) only those the
    # screen cannot rule out are normed exactly, and every kept step is one of
    # them; a return to norming the whole table would read 2000 rows a call
    rows, trials, kept = [], [], []
    exact = twistbasis._lp_of_blocks
    screen, update = twistbasis._PowerScreen.contenders, twistbasis._PowerScreen.update

    def counting(bn, p):
        rows.append(bn.shape[0])
        return exact(bn, p)

    def counting_trials(self, *args):
        trials.append(1)
        return screen(self, *args)

    def counting_kept(self, ks):
        kept.append(ks)   # None for the table formed before the first step
        return update(self, ks)

    monkeypatch.setattr(twistbasis, "_lp_of_blocks", counting)
    monkeypatch.setattr(twistbasis._PowerScreen, "contenders", counting_trials)
    monkeypatch.setattr(twistbasis._PowerScreen, "update", counting_kept)
    unconditional_constant(40, 3.0, mode="sampled", seed=1)
    assert kept[0] is None and len(trials) == 240 and len(kept) > 1
    assert len(kept) - 1 <= len(rows) < len(trials) and np.mean(rows) < 200


def test_the_ascent_stops_after_a_cycle_that_keeps_nothing(monkeypatch):
    # at p = 2 only the first two visits keep a step: the 40 visits after
    # them keep nothing, so the ascent returns after visit 41 (counted from 0)
    # of the 2 x 40, with the bits of the oracle's full two sweeps
    visits = []
    squares = twistbasis._block_squares

    def counting(seg_t, touched):
        visits.append(1)   # once a visit, for the coordinates it leaves alone
        return squares(seg_t, touched)

    monkeypatch.setattr(twistbasis, "_block_squares", counting)
    got = unconditional_constant(40, 2.0, mode="sampled", seed=1)
    assert len(visits) == 42
    assert bits(got) == bits(unconditional_constant_oracle(40, 2.0, mode="sampled", seed=1))


def screened(bn_t, ks, sq, p, keep=0.0):
    """The ascent's screen of a trial over the block norms bn_t (blocks x
    rows, one coordinate a block) that moves the blocks ks to the sums of
    squares sq."""
    if p == math.inf:
        screen = twistbasis._SupScreen(bn_t)
    else:
        screen = twistbasis._PowerScreen(bn_t, p, BlockLayout.from_sizes(np.ones(bn_t.shape[0])))
    return screen.contenders(screen.rest(np.asarray(ks)), sq, keep)


@pytest.mark.parametrize("n, mode, variant, most", [(12, "sampled", EVEN_TWIST, 64),
                                                    (12, "sampled", ODD_TWIST, 64),
                                                    (14, "exact", EVEN_TWIST, 128),
                                                    (12, "sampled", PLAIN, 1),
                                                    (14, "exact", PLAIN, 1)])
def test_each_sign_class_is_normed_once(n, mode, variant, most, monkeypatch):
    # n // 2 coupled pairs: 2^6 classes among the 2000 draws at n = 12, 2^7
    # among the 2^13 patterns at n = 14, one with no pair (plain); a return
    # to norming every row would read 2000 or 8192 rows a call
    normed, ascended = [], []
    norms, ascend = twistbasis.combination_norms, twistbasis._ascend

    def counting_norms(weights, *args):
        normed.append(weights.shape[0])
        return norms(weights, *args)

    def counting_ascent(a, best, signs, *args):
        ascended.append(signs.shape[0])
        return ascend(a, best, signs, *args)

    monkeypatch.setattr(twistbasis, "combination_norms", counting_norms)
    monkeypatch.setattr(twistbasis, "_ascend", counting_ascent)
    got = unconditional_constant(n, 3.0, mode=mode, seed=1, variant=variant)
    assert normed and max(normed) <= most
    assert len(ascended) == (mode == "sampled") and max(ascended, default=1) <= most
    if variant == PLAIN:
        assert set(normed + ascended) == {1} and got == 1.0


@pytest.mark.parametrize("p", [1.001, 3.0, math.inf])
def test_the_screen_keeps_every_row_tied_for_the_largest(p):
    # rows 1, 3 and 4 share the largest screen value: one sign row a class
    # leaves no repeated row to tie, so the ties are set up here, a block of
    # norm 1 left alone and one moved to the norms below
    moved = np.array([[1.0, 2.0, 1.0, 2.0, 2.0, 0.5]])
    rows = screened(np.ones((2, 6)), [1], moved ** 2, p)
    assert rows.tolist() == [0, 1, 3, 4]


def test_the_screen_norms_exactly_what_it_cannot_estimate():
    # two blocks (2 and 3 coordinates) of 5 rows, a row a column: plain
    # values, squares below the normal range, zeros, squares past the float
    # range, and the largest plain row
    touched = BlockLayout.from_sizes([2, 3])
    seg_t = np.array([[3.0, 1e-170, 0.0, 1e200, 10.0],
                      [4.0, 1e-170, 0.0, 1e200, 10.0],
                      [1.0, 0.0, 0.0, 1.0, 10.0],
                      [0.0, 0.0, 0.0, 0.0, 10.0],
                      [0.0, 0.0, 0.0, 0.0, 10.0]])
    with np.errstate(over="ignore"):
        exact = blockspace.block_norms(np.ascontiguousarray(seg_t.T), touched).T
    sq = twistbasis._block_squares(seg_t, touched)
    assert np.isnan(sq[0, 1]) and sq[0, 3] == math.inf and sq[0, 2] == sq[1, 2] == 0.0
    fine = np.isfinite(sq)
    assert np.allclose(np.sqrt(sq[fine]), exact[fine], rtol=1e-15, atol=0.0)
    # row 0 is the denominator, rows 1 and 3 cannot be ruled out and row 4
    # holds the largest finite value; rows 0 and 2, whose zero blocks are
    # estimated exactly, fall short of it.  With rows it cannot estimate the
    # screen skips no trial, however high the ratio to beat
    for p in (3.0, math.inf):
        rows = screened(np.ones((3, 5)), [1, 2], sq, p, keep=1e300)
        assert rows.tolist() == [0, 1, 3, 4]


@pytest.mark.parametrize("fold", [False, True])
def test_the_moved_squares_read_as_the_whole_blocks_do(fold):
    # the blocks of test_the_screen_norms_exactly_what_it_cannot_estimate
    # with a row of tiny values moved into a zero block, summed from the
    # coordinates a step leaves alone and those it moves: one in each block,
    # or both in the second block alone
    seg_t = np.array([[3.0, 1e-170, 0.0, 1e200, 10.0, 0.0],
                      [4.0, 1e-170, 0.0, 1e200, 10.0, 1e-170],
                      [1.0, 0.0, 0.0, 1.0, 10.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0, 10.0, 1e-170],
                      [0.0, 0.0, 0.0, 0.0, 10.0, 0.0]])
    if fold:
        touched, seg_t, at = BlockLayout.from_sizes([3]), seg_t[2:], np.array([1, 2])
    else:
        touched, at = BlockLayout.from_sizes([2, 3]), np.array([1, 3])
    base = seg_t.copy()
    base[at] = 0.0
    got = twistbasis._moved_squares(twistbasis._block_squares(base, touched), seg_t[at], fold)
    want = twistbasis._block_squares(seg_t, touched)
    assert np.array_equal(np.isnan(got), np.isnan(want)) and np.isnan(got[:, 5]).all()
    assert np.allclose(got, want, rtol=1e-15, atol=0.0, equal_nan=True)


# at p = 2 the moved block of a row may dwarf the one left alone, so that
# T - P[moved] rounds the rest mass: 3e-17 beside 0.25 reads 5.55e-17 and
# 1e-16 beside 1 reads 0 once the trial zeroes the moved block.  A rival at
# 9e-17 then reads above the row of the largest norm, and row 0 reads above
# its norm, so that the ratio looks lower than it is: the screen still norms
# the largest row and skips neither trial, whose ratio tops the one to beat
CANCELLED = [([[np.sqrt(3e-17), np.sqrt(1e-16), np.sqrt(9e-17)], [0.5, 1.0, 0.0]], 1.0, [0, 1, 2]),
             ([[np.sqrt(3e-17), 1.0], [0.5, 1.0]], 1.5e8, [0, 1])]


@pytest.mark.parametrize("bn_t, keep, rows", CANCELLED)
def test_the_power_screen_allows_for_the_rest_mass_it_cancels(bn_t, keep, rows):
    bn_t = np.array(bn_t)
    trial = bn_t.T.copy()
    trial[:, 1] = 0.0
    norms = blockspace._lp_of_blocks(trial, 2.0)
    assert np.argmax(norms) == 1 and twistbasis._ratio(norms) > keep
    got = screened(bn_t, [1], np.zeros((1, bn_t.shape[1])), 2.0, keep)
    assert got is not None and got.tolist() == rows


@pytest.mark.parametrize("p", [1.0000001, 1.001, 1.5, 2.0, 3.0, 7.5, 200.0, 1000.0])
@pytest.mark.parametrize("seed", range(4))
def test_the_power_screen_skips_only_trials_that_cannot_win(p, seed):
    # a table of 6 blocks over 300 rows whose last two blocks the trial
    # moves: the exact ratio r of the trial is the largest exact norm over
    # row 0's.  A trial whose ratio tops the ratio to beat is never skipped
    # and keeps the row of its largest norm.  One that falls short of it by
    # more than 2^-20 is skipped, unless row 0's sum before the step, which
    # the subtraction T - P[moved] rounds against, dwarfs its value in the
    # trial: at p = 200 and 1000 the table's powers span that far
    rng = np.random.default_rng(seed)
    layout = BlockLayout.from_sizes(np.ones(6))
    bn_t = rng.uniform(0.5, 2.0, (6, 300))
    moved = rng.uniform(0.5, 2.0, (2, 300)) * rng.choice([0.9, 1.0, 1.1], (2, 1))
    trial = bn_t.T.copy()
    trial[:, 4:] = moved.T
    norms = blockspace._lp_of_blocks(trial, p)
    r = twistbasis._ratio(norms)
    screen = twistbasis._PowerScreen(bn_t, p, layout)
    rest = screen.rest(np.array([4, 5]))
    rows = screen.contenders(rest, moved ** 2, np.nextafter(r, 0.0))
    assert rows is not None and rows[0] == 0 and np.argmax(norms) in rows
    if p < 10.0:
        assert screen.contenders(rest, moved ** 2, r * (1.0 + 2.0 ** -20)) is None


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
    assert sign_patterns(EXACT_TERM_LIMIT).shape == (2 ** (EXACT_TERM_LIMIT - 1),
                                                     EXACT_TERM_LIMIT)
    # the half with a first sign of +1 needs a first sign
    with pytest.raises(ParameterError, match="not 0"):
        sign_patterns(0)


@pytest.mark.parametrize("k", range(1, EXACT_TERM_LIMIT + 1))
def test_sign_patterns_are_the_half_with_a_first_plus_all_plus_first(k):
    half = sign_patterns(k)
    assert half.shape == (2 ** (k - 1), k)
    assert (half[0] == 1.0).all() and (half[:, 0] == 1.0).all()
    # row r is pattern 2^k - 1 - 2r of the full enumeration
    rows = 2 ** k - 1 - 2 * np.arange(2 ** (k - 1))
    assert bits(half) == bits(all_sign_patterns(k)[rows])


def test_sign_patterns_hold_one_half_table():
    # the 2^13 x 14 table is 0.875 MiB; the full one and its uint64 shifts were 3.7 MiB
    tracemalloc.start()
    try:
        sign_patterns(EXACT_TERM_LIMIT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("n, mode", [(8, "exact"), (12, "sampled")])
def test_unconditional_ratios_form_no_one_row_product(n, mode, monkeypatch):
    # the denominator is row 0 of the sign products, the all-plus pattern
    rows = []
    norms = twistbasis.combination_norms

    def counting(weights, *args):
        rows.append(weights.shape[0])
        return norms(weights, *args)

    monkeypatch.setattr(twistbasis, "combination_norms", counting)
    unconditional_constant(n, 3.0, mode=mode, seed=1, n_signs=64)
    assert rows and min(rows) > 1


# -- the streamed draw -------------------------------------------------------------

# the sampler draws a row block at a time; one generator across the blocks
# gives the same stream as the oracle's single draw.  Up to EXACT_TERM_LIMIT
# terms 2001 draws stay below 2^(k-1) at k = 13, 14 and are normed as they
# come, 9001 reach it and read the table; both leave a remainder block
STREAM_KS = [1, 2, 13, 14, EXACT_TERM_LIMIT + 1, EXACT_TERM_LIMIT + 2]


@pytest.mark.parametrize("k, exact_first", [(k, first) for k in STREAM_KS for first in (False, True)
                                             if k <= EXACT_TERM_LIMIT or not first])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("samples", [2001, 9001])
@pytest.mark.parametrize("few_rows", [False, True])
def test_streamed_draws_match_the_one_draw_oracle(k, kind, samples, exact_first, few_rows,
                                                  monkeypatch):
    # dim 78: 840 rows a block by default, 7 with few_rows
    s = make_sum(k, 12, seed=k) if kind == "real" else make_complex_sum(k, 12, k, 3.0)
    want = rad_norm_oracle(s, "sampled", seed=k + 1, samples=samples)
    if few_rows:
        monkeypatch.setattr(blockspace, "_PATTERN_CELLS", 7 * s.layout.dim + 3)
    if exact_first:
        rad_norm(s, "exact")
    got = rad_norm(s, "sampled", seed=k + 1, samples=samples)
    assert bits([got.value, got.stderr]) == bits([want.value, want.stderr])
    assert got.samples == want.samples


def test_sampled_only_norm_forms_no_pattern_table(monkeypatch):
    # 200 draws on a fresh 14-term sum over dim 1,830 norm 200 rows, not
    # the 8,192 of the table, and leave no table on the sum
    rows = _normed_rows(monkeypatch)
    s = make_sum(EXACT_TERM_LIMIT, 60, seed=8)
    got = rad_norm(s, "sampled", seed=2, samples=200)
    assert sum(rows) == 200
    assert "pattern_squares" not in vars(s)
    monkeypatch.undo()
    want = rad_norm_oracle(s, "sampled", seed=2, samples=200)
    assert bits([got.value, got.stderr]) == bits([want.value, want.stderr])


@pytest.mark.parametrize("samples, table", [(511, False), (512, True)])
def test_sampled_norm_reads_the_table_from_as_many_draws_as_patterns(samples, table,
                                                                      monkeypatch):
    rows = _normed_rows(monkeypatch)
    s = make_sum(10, 5, seed=9)
    rad_norm(s, "sampled", seed=3, samples=samples)
    assert ("pattern_squares" in vars(s)) == table
    assert sum(rows) == (2 ** 9 if table else samples)


def _sampled_peak(k, samples):
    s = make_sum(k, 20, seed=k)
    tracemalloc.start()
    try:
        rad_norm(s, "sampled", seed=0, samples=samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [EXACT_TERM_LIMIT, EXACT_TERM_LIMIT + 1])
def test_sampled_memory_grows_by_the_squares_alone(k):
    # dim 210: the squares take 8 bytes a sample and the rest is one row
    # block (k = 15) or the table and its 2^13 x 14 sign patterns (k = 14).
    # Measured with numpy 2.4, the peaks differ by exactly 8 x 90,000 bytes
    # at k = 15 and by under 1 KB at k = 14; the slack of 64 KiB allows for
    # other numpy versions' temporaries
    small, large = _sampled_peak(k, 10 ** 4), _sampled_peak(k, 10 ** 5)
    assert large - small <= 8 * (10 ** 5 - 10 ** 4) + 64 * 2 ** 10
    if k == EXACT_TERM_LIMIT:
        assert large < 4 * 2 ** 20


def test_sampled_norm_holds_one_samples_long_array():
    # 10^6 squares are 7.6 MiB; the spread is taken in place of them, where
    # np.std formed a second samples-long array of deviations
    s = make_sum(EXACT_TERM_LIMIT, 4, seed=4)
    rad_norm(s, "exact")
    tracemalloc.start()
    try:
        rad_norm(s, "sampled", seed=0, samples=10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
