import dataclasses
import math
import warnings

import numpy as np
import scipy.linalg
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mrlab import multiplier
from mrlab.blockspace import BlockLayout, bv_norm
from mrlab.errors import ParameterError, SingularityError
from mrlab.multiplier import (
    TwistedMultiplier,
    bip_pair_ratios,
    bv_closed_form,
    bv_semigroup_bound,
    opnorm_lower,
    positivity_check,
    scaled_resolvent_values,
    sectoriality_probe,
)
from mrlab.sequences import (
    MultiplierSeq,
    constant_ratios,
    family_seq,
    ratio_family,
    seq_from_ratios,
    twisted_lacunary,
)
from mrlab.twistbasis import (
    EVEN_TWIST,
    ODD_TWIST,
    PLAIN,
    TwistPermutation,
    twisted_analysis,
    twisted_synthesis,
)

INF = float("inf")


def make_op(n_blocks=6, variant=EVEN_TWIST, c=0.1):
    """The constant-c operator (ratio bound 1/2) of any variant, built to the
    constructor's shape: its permutation, and a sequence two past ``needed``."""
    layout = BlockLayout.triangular(n_blocks)
    perm = TwistPermutation.covering(2 * layout.dim + 8)
    needed = multiplier._structure(layout, perm, variant).needed
    seq = family_seq("constant", c, needed + 2, bound=0.5)[0]
    return TwistedMultiplier(seq=seq, perm=perm, variant=variant, layout=layout)


def with_seq(op, seq_of_length, pad):
    """The operator's shape with the sequence seq_of_length(needed + pad)."""
    return dataclasses.replace(op, seq=seq_of_length(op.structure.needed + pad))


def dense_matrix(op):
    """The coordinate matrix of the operator: the oracle of the structured path."""
    structure = op.structure
    diag, off = op.symbols(op.seq.values_upto(structure.needed))
    mat = np.diag(diag.astype(np.complex128))
    mat[structure.off_rows, structure.off_cols] = off
    return mat


# -- the operator identities on random sizes, variants and families -----------

FAMILIES = [("lacunary", None), ("constant", 0.1), ("power", 0.25), ("powerlog", 0.2),
            ("geometric", None)]


def family_op(variant, n_blocks, family, param):
    """The family's operator of any variant on n triangular blocks."""
    layout = BlockLayout.triangular(n_blocks)
    perm = TwistPermutation.covering(2 * layout.dim + 8)
    needed = multiplier._structure(layout, perm, variant).needed
    seq = family_seq(family, param, needed + 2)[0]
    return TwistedMultiplier(seq=seq, perm=perm, variant=variant, layout=layout)


sizes = hs.integers(1, 8)               # triangular blocks, dim up to 36
families = hs.sampled_from(FAMILIES)
variants = hs.sampled_from([PLAIN, EVEN_TWIST, ODD_TWIST])
seeds = hs.integers(0, 2 ** 32 - 1)
# lam off the positive axis, where the spectrum lies
off_spectrum = hs.builds(complex, hs.floats(-100.0, 100.0), hs.floats(0.5, 1e6)) | \
    hs.floats(-1e4, -0.01).map(complex)


def random_vector(seed, dim):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def unit(dim, j):
    """The unit vector e_j of length dim."""
    e = np.zeros(dim)
    e[j - 1] = 1.0
    return e


def test_apply_on_unit_vectors_even_twist():
    op = make_op()
    vals = op.seq.values_upto(op.structure.needed)
    e1 = unit(op.layout.dim, 1)
    out = op.apply(e1)
    np.testing.assert_allclose(out, vals[0] * e1, rtol=1e-14)
    # column at pi(m): gamma_m e_{pi(m)} + (gamma_m - gamma_{m-1}) e_{m-1}
    for m in (2, 4, 6, 8):
        j = op.perm.pi(m)
        if j > op.layout.dim or m - 1 > op.layout.dim:
            continue
        out = op.apply(unit(op.layout.dim, j))
        expect = np.zeros(op.layout.dim, dtype=complex)
        expect[j - 1] = vals[m - 1]
        expect[m - 2] = vals[m - 1] - vals[m - 2]
        np.testing.assert_allclose(out, expect, rtol=1e-13, atol=1e-13)


def test_apply_linearity():
    op = make_op()
    rng = np.random.default_rng(0)
    u = rng.standard_normal(op.layout.dim) + 1j * rng.standard_normal(op.layout.dim)
    v = rng.standard_normal(op.layout.dim)
    lhs = op.apply(u + 2.5j * v)
    rhs = op.apply(u) + 2.5j * op.apply(v)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("variant", [EVEN_TWIST, ODD_TWIST])
def test_apply_matches_transform_composition(variant):
    # truncations the coupling maps into itself, so the operator factors
    # exactly through the coordinate transforms (dim 21 for the even twist;
    # the odd twist couples the last odd coordinate forward, dim 20 closes it)
    if variant == EVEN_TWIST:
        layout = BlockLayout.triangular(6)
    else:
        layout = BlockLayout.from_sizes([1, 2, 3, 4, 10])
    perm = TwistPermutation.covering(2 * layout.dim + 10)
    seq = seq_from_ratios(np.full(4 * layout.dim, 0.12))
    op = TwistedMultiplier(seq=seq, perm=perm, variant=variant, layout=layout)
    vals = seq.values_upto(op.structure.needed + 8)
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.standard_normal(layout.dim)
        coeffs = twisted_analysis(v, perm, variant)
        scaled = coeffs * vals[: coeffs.size]
        via_transform = twisted_synthesis(scaled, perm, variant, layout)
        np.testing.assert_allclose(op.apply(v), via_transform,
                                   rtol=1e-11, atol=1e-11)


def test_spectrum_closed_truncation_is_head_of_sequence():
    layout = BlockLayout.triangular(6)  # dim 21: evens <= 20 map among themselves
    perm = TwistPermutation.covering(2 * layout.dim + 10)
    seq = seq_from_ratios(np.full(60, 0.1))
    op = TwistedMultiplier(seq=seq, perm=perm, variant=EVEN_TWIST, layout=layout)
    np.testing.assert_allclose(np.sort(op.spectrum()),
                               np.sort(seq.values_upto(21)), rtol=1e-14)
    eig = np.linalg.eigvals(dense_matrix(op))
    np.testing.assert_allclose(np.sort(eig.real), np.sort(seq.values_upto(21)),
                               rtol=1e-8)
    assert np.abs(eig.imag).max() < 1e-10


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(variants, hs.integers(1, 7), hs.floats(0.01, 0.3))
def test_spectrum_general_truncation_matches_eig(variant, n_blocks, c):
    # most truncations are not closed under the coupling; as the coupling rows
    # are never coupling columns, the eigenvalues are still the diagonal symbols
    op = make_op(n_blocks=n_blocks, variant=variant, c=c)
    eig = np.linalg.eigvals(dense_matrix(op))
    np.testing.assert_allclose(np.sort(eig.real), np.sort(op.spectrum()), rtol=1e-8)
    assert np.abs(eig.imag).max() <= 1e-8 * op.spectrum().max()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(variants, sizes, families, off_spectrum, seeds)
def test_resolvent_inverts_shift(variant, n_blocks, family, lam, seed):
    # (lam - A) R(lam) v = v
    op = family_op(variant, n_blocks, *family)
    v = random_vector(seed, op.layout.dim)
    w = op.resolvent(lam, v)
    np.testing.assert_allclose(lam * w - op.apply(w), v, rtol=1e-9, atol=1e-9 * np.abs(v).max())


@pytest.mark.parametrize("variant", [EVEN_TWIST, ODD_TWIST, PLAIN])
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(sizes, families, off_spectrum, off_spectrum, seeds)
def test_resolvent_identity(variant, n_blocks, family, lam, mu, seed):
    # R(lam) - R(mu) = (mu - lam) R(lam) R(mu)
    op = family_op(variant, n_blocks, *family)
    v = random_vector(seed, op.layout.dim)
    lhs = op.resolvent(lam, v) - op.resolvent(mu, v)
    rhs = (mu - lam) * op.resolvent(lam, op.resolvent(mu, v))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12 * np.abs(v).max())


def test_resolvent_limit_at_large_negative_lambda():
    op = make_op(n_blocks=4)
    gmax = op.seq.values_upto(op.structure.needed).max()
    lam = -1e9 * gmax
    v = np.ones(op.layout.dim)
    out = lam * op.resolvent(lam, v)
    assert np.abs(out - v).max() < 1e-6


def test_resolvent_singularity_detection():
    op = make_op()
    gamma3 = op.seq.values_upto(3)[2]
    with pytest.raises(SingularityError):
        op.resolvent(gamma3 * (1.0 + 1e-16), np.ones(op.layout.dim))


def test_resolvent_coefficient_at_minus_even_value():
    # for the twisted lacunary, the coefficient in the twisted coordinates
    # at an even slot with lam = -gamma_{2m} is -1/(2 gamma_{2m})
    seq = twisted_lacunary(40)
    layout = BlockLayout.triangular(6)
    perm = TwistPermutation.covering(2 * layout.dim + 10)
    op = TwistedMultiplier(seq=seq, perm=perm, variant=EVEN_TWIST, layout=layout)
    m = 4
    gamma_m = seq.values_upto(m)[m - 1]
    lam = -gamma_m
    out = op.resolvent(lam, unit(op.layout.dim, op.perm.pi(m)))
    coeffs = twisted_analysis(out, perm, EVEN_TWIST)
    assert coeffs[m - 1] == pytest.approx(-1.0 / (2.0 * gamma_m), rel=1e-12)


@pytest.mark.parametrize("variant", [EVEN_TWIST, ODD_TWIST])
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(sizes, families, hs.floats(0.0, 20.0), hs.floats(0.0, 20.0), seeds)
def test_semigroup_identity_at_zero_and_composition(variant, n_blocks, family, s, t, seed):
    # T(0) = I and T(s) T(t) = T(s + t)
    op = family_op(variant, n_blocks, *family)
    v = random_vector(seed, op.layout.dim)
    np.testing.assert_allclose(op.semigroup(0.0, v), v, rtol=0, atol=0)
    lhs = op.semigroup(s, op.semigroup(t, v))
    rhs = op.semigroup(s + t, v)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10 * np.abs(v).max())
    with pytest.raises(ParameterError):
        op.semigroup(-1.0, v)


def same_bits(a, b):
    """Equal shape, dtype and bytes (so -0.0 and 0.0 differ)."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(hs.lists(hs.integers(1, 6), min_size=1, max_size=7), families,
       hs.floats(0.0, 20.0), hs.floats(-20.0, 20.0), off_spectrum, seeds)
def test_real_vectors_keep_their_dtype(block_sizes, family, t, s, lam, seed):
    # a real vector under a real symbol gives a float64 result: the real part,
    # bit for bit, of the same call on the complex cast, whose imaginary part
    # is +0.0 throughout; complex symbols give the complex cast's result
    layout = BlockLayout.from_sizes(block_sizes)
    perm = TwistPermutation.covering(2 * layout.dim + 8)
    v = np.random.default_rng(seed).standard_normal(layout.dim)
    for variant in (PLAIN, EVEN_TWIST, ODD_TWIST):
        needed = multiplier._structure(layout, perm, variant).needed
        op = TwistedMultiplier(family_seq(*family, needed + 2)[0], perm, variant, layout)
        real = [(op.apply, v), (lambda x: op.semigroup(t, x), v),
                (lambda x: twisted_analysis(x, perm, variant), v),
                (lambda c: twisted_synthesis(c, perm, variant, layout),
                 twisted_analysis(v, perm, variant))]
        for call, x in real:
            got, want = call(x), call(x.astype(np.complex128))
            assert got.dtype == np.float64 and same_bits(got, want.real)
            assert same_bits(want.imag, np.zeros(want.shape))
        for call in (lambda x: op.resolvent(lam, x), lambda x: op.imaginary_power(s, x)):
            assert same_bits(call(v), call(v.astype(np.complex128)))


def test_semigroup_column_formula():
    op = make_op()
    vals = op.seq.values_upto(op.structure.needed)
    t = 0.37
    for m in (2, 4, 6):
        j = op.perm.pi(m)
        if j > op.layout.dim:
            continue
        col = op.semigroup(t, unit(op.layout.dim, j))
        expect = np.zeros(op.layout.dim, dtype=complex)
        expect[j - 1] = math.exp(-t * vals[m - 1])
        expect[m - 2] = math.exp(-t * vals[m - 1]) - math.exp(-t * vals[m - 2])
        np.testing.assert_allclose(col, expect, rtol=1e-13, atol=1e-15)


def test_positivity_twisted_lacunary():
    op = TwistedMultiplier.covering(200, "lacunary")
    rep = positivity_check(op, 2.0 ** np.arange(-10, 11))
    assert rep.min_entry >= -1e-12 and rep.monotone_pairs


def test_positivity_fails_for_increasing_sequence():
    op = make_op(n_blocks=8)
    rep = positivity_check(op, 2.0 ** np.arange(-10, 11))
    assert not rep.monotone_pairs and rep.min_entry < -1e-6
    # the detected negative entry sits in a coupled column
    assert rep.argmin_col % 2 == 0


def test_positivity_verdict_equals_monotonicity_on_families():
    for builder in (lambda n: twisted_lacunary(n),
                    lambda n: seq_from_ratios(np.full(n - 1, 0.3)),
                    lambda n: MultiplierSeq("custom", np.log2(np.linspace(5.0, 1.0, n)))):
        op = with_seq(make_op(), builder, 4)
        rep = positivity_check(op, 2.0 ** np.arange(-8, 9))
        assert (rep.min_entry >= -1e-12) == rep.monotone_pairs


def test_imaginary_power_identity_and_unimodular_diagonal():
    op = make_op()
    rng = np.random.default_rng(5)
    v = rng.standard_normal(op.layout.dim)
    np.testing.assert_allclose(op.imaginary_power(0.0, v), v, atol=0)
    st = op.structure
    phase = np.exp(1j * 2.3 * math.log(2.0) * op.seq.log2[: st.needed])
    assert np.abs(np.abs(phase) - 1.0).max() < 1e-14
    with pytest.raises(ParameterError):
        op.imaginary_power(float("nan"), v)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(variants, sizes, families, hs.floats(-10.0, 10.0), hs.floats(-10.0, 10.0), seeds)
def test_imaginary_power_group_law(variant, n_blocks, family, s, t, seed):
    # A^{is} A^{it} = A^{i(s + t)}
    op = family_op(variant, n_blocks, *family)
    v = random_vector(seed, op.layout.dim)
    lhs = op.imaginary_power(s, op.imaginary_power(t, v))
    rhs = op.imaginary_power(s + t, v)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10 * np.abs(v).max())


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(variants, hs.integers(1, 12), families, hs.integers(1, 4), seeds)
def test_truncation_commutes_with_composition(variant, n_blocks, family, n_factors, seed):
    # the truncated multipliers of the symbols q_k/(q_k - x) compose to the
    # truncated multiplier of their product: the coupling rows are never
    # coupling columns.  The factors and the product go through ``symbols``
    # as rows of one stack, and each row of the stacked apply is the
    # single apply of its symbol, bit for bit
    op = family_op(variant, n_blocks, *family)
    log2 = op.seq.log2[: op.structure.needed]
    rng = np.random.default_rng(seed)
    log2_q = rng.uniform(-5.0, min(log2.max(), 600.0) + 5.0, n_factors)
    g = scaled_resolvent_values(log2, log2_q[:, None])
    diag, off = op.symbols(np.vstack([g, g.prod(axis=0)]))
    v = random_vector(seed, op.layout.dim)
    composed = v
    for k in range(n_factors):
        composed = op.apply_symbols(diag[k], off[k], composed)
    direct = op.apply_symbols(diag[-1], off[-1], v)
    np.testing.assert_allclose(composed, direct, rtol=1e-13, atol=1e-14 * np.abs(v).max())
    rows = op.apply_symbols(diag, off, np.broadcast_to(v, (n_factors + 1, v.size)))
    assert rows[0].tobytes() == op.apply_symbols(diag[0], off[0], v).tobytes()
    assert rows[-1].tobytes() == direct.tobytes()


def imaginary_coupling_entries(op, t):
    """The coupling entries of A^{it}: row H(b) of the column A^{it} e_{H(a)}."""
    structure = op.structure
    columns = op.imaginary_power(t, np.eye(op.layout.dim))   # row j: A^{it} e_{j+1}
    return columns[structure.off_cols, structure.off_rows]


def test_imaginary_pair_magnitude_formula():
    # |y_{2m}^{it} - y_{2m-1}^{it}| = sqrt(2 (1 - cos(t ln(y_{2m} / y_{2m-1})))), the
    # numerator of the bip pair bound, read off the coupling entries of A^{it}
    op = make_op(n_blocks=12, c=0.05)
    even_m = op.structure.off_hi   # even twist: the pairs (2m, 2m - 1)
    t = 1.7
    got = np.abs(imaginary_coupling_entries(op, t))
    vals = op.seq.values_upto(op.structure.needed)
    direct = np.abs(vals[even_m - 1] ** (1j * t) - vals[even_m - 2] ** (1j * t))
    formula = np.sqrt(2.0 * (1.0 - np.cos(t * np.log1p(op.seq.step_offsets[even_m - 2]))))
    np.testing.assert_allclose(got, direct, rtol=1e-10)
    np.testing.assert_allclose(got, formula, rtol=1e-10)


def test_imaginary_power_norm_growth_at_p2():
    # |A^{it}| <= 1 + 8 C |t| with C the sup of the ratio values
    fam = ratio_family("power", 0.25, 12)
    op = TwistedMultiplier.covering(36, "power", 0.25)   # 8 triangular blocks
    cover = op.structure.needed
    cmax = float(fam.block_values.max())
    for t in (0.5, 2.0, 10.0):
        val = opnorm_lower(op, np.exp(1j * t * math.log(2.0) * op.seq.log2[:cover]),
                           2.0, trials=3, seed=0)
        assert val <= 1.0 + 8.0 * cmax * t + 1e-9


def test_bip_pair_ratio_bounded_by_one():
    fam = constant_ratios(0.1, 70)
    worst = bip_pair_ratios(fam, [1.0], 1000).max()
    assert worst <= 1.0
    # t -> 0 limit: ratio approaches log-gap / (8 c), still below 1
    tiny = bip_pair_ratios(fam, [1e-8], 1000).max()
    gap = math.log(1.2 / 0.8)  # ln((1 + 2c)/(1 - 2c)) at c = 0.1
    assert tiny == pytest.approx(gap / (8 * 0.1), rel=1e-6)
    assert tiny <= 1.0


def test_bip_pair_ratios_per_time():
    fam = constant_ratios(0.1, 70)
    grid = [1.0, 0.0, 1e-8, -3.0]
    per_t = bip_pair_ratios(fam, grid, 1000)
    assert per_t.shape == (4,) and per_t[1] == 0.0
    for t, value in zip(grid, per_t):
        assert bip_pair_ratios(fam, [t], 1000)[0] == value
    assert per_t[3] == bip_pair_ratios(fam, [3.0], 1000)[0] > 0.0


def test_bip_pair_ratios_at_times_past_the_float_range():
    # below the normal range the ratio is its t -> 0 limit log-gap / (8 c); at
    # 1e308, where 8 |t| c overflows, it is |sin x / x| log-gap / (8 c)
    fam = constant_ratios(0.1, 70)
    gap = math.log(1.2 / 0.8)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        per_t = bip_pair_ratios(fam, [5e-324, -1e-310, 1e308, -1e308], 1000)
    assert per_t[:2] == pytest.approx(gap / (8 * 0.1), rel=1e-12)
    assert per_t[2] == per_t[3]
    assert 0.0 < per_t[2] <= 2.0 / 8.0 / 1e308 / 0.1   # |sin x| <= 1


def test_bip_pair_ratio_validates_hypothesis():
    fam = constant_ratios(0.2, 50, bound=0.5)
    with pytest.raises(ParameterError, match="inside \\(0, 1/8\\)"):
        bip_pair_ratios(fam, [1.0], 40)
    with pytest.raises(ParameterError, match="too short"):   # c_1 .. c_6 hold 3 pairs
        bip_pair_ratios(constant_ratios(0.1, 3), [1.0], 4)


def test_bip_equal_pair_gives_zero():
    # y_{2m} = y_{2m-1} on every pair: A^{it} has no coupling entries
    op = with_seq(make_op(), lambda n: MultiplierSeq(
        "custom", np.repeat(np.arange(1.0, n // 2 + 2), 2)[:n]), 0)
    entries = imaginary_coupling_entries(op, 3.0)
    assert entries.size and np.all(entries == 0.0)


def test_bv_semigroup_bound_values():
    computed, closed = bv_semigroup_bound(1.0, 1.0, 2000)
    assert closed == pytest.approx(16.0 / math.e, rel=1e-14)
    assert closed == pytest.approx(5.886071058743077, rel=1e-12)
    assert computed <= closed
    for alpha in (0.25, 0.5):
        computed, closed = bv_semigroup_bound(alpha, np.geomspace(0.01, 10.0, 12), 2000)
        assert np.all(computed <= closed)
    a = 2.0 ** 0.5
    assert bv_closed_form(0.5, 2.0) == pytest.approx(
        a / (a - 1.0) * (2.0 ** 1.5 + a - 2.0) * math.exp(-2.0), rel=1e-14)


def test_bv_bound_invariant_violation_raises():
    with pytest.raises(ParameterError):
        bv_semigroup_bound(-1.0, 1.0, 100)
    with pytest.raises(ParameterError):
        bv_semigroup_bound(1.0, np.array([1.0, 0.0]), 100)


def bv_bound_oracle(alpha, t, n):
    """One time at a time, as the bound was first computed."""
    with np.errstate(over="ignore"):
        powered = np.exp2(alpha * twisted_lacunary(n).log2)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.exp(-t * powered)
    s = np.where(np.isnan(s), 0.0, s)
    return float(np.abs(np.diff(s)).sum()), bv_closed_form(alpha, t)


@pytest.mark.parametrize("n", [2, 10, 2000, 40_000])
def test_bv_bound_over_a_time_grid_matches_the_oracle(n, monkeypatch):
    # the times go in row blocks; a small block budget splits them unevenly
    monkeypatch.setattr(multiplier, "_SCAN_CELLS", 3 * n + 1)
    ts = np.geomspace(1e-3, 40.0, 23).reshape(1, 23)
    for alpha in (0.05, 0.5, 1.0):
        computed, closed = bv_semigroup_bound(alpha, ts, n)
        assert computed.shape == closed.shape == ts.shape
        want = [bv_bound_oracle(alpha, t, n) for t in ts[0].tolist()]
        assert computed[0].tolist() == [c for c, _ in want]
        assert closed[0].tolist() == [b for _, b in want]
        assert bv_semigroup_bound(alpha, ts[0, 7], n) == want[7]


def test_sequence_multiplier_bv_ratio_stable_across_sizes():
    # the largest observed (operator norm / BV norm) ratio over a fixed set
    # of random BV multipliers settles as the truncation grows
    rng = np.random.default_rng(7)
    ops = {n: make_op(n_blocks=n) for n in (5, 7, 9)}
    longest = max(op.structure.needed for op in ops.values())
    betas = [np.cumsum(rng.standard_normal(longest) * 0.1) + 1.0 for _ in range(10)]
    measured = []
    for n, op in ops.items():
        ratios = []
        for beta in betas:
            val = opnorm_lower(op, beta[: op.structure.needed], 2.5, trials=2, seed=11)
            ratios.append(val / bv_norm(beta))
        measured.append(max(ratios))
    assert max(measured) < 10.0
    # lower bounds only improve on larger truncations, and not by much
    assert measured[0] <= measured[1] * 1.05 and measured[1] <= measured[2] * 1.05
    assert measured[2] <= 1.6 * measured[0]


def test_sectoriality_probe_diagonal_contraction():
    # plain diagonal on singleton blocks at p = 2: |lam R(lam)| <= 1 on the
    # negative axis (angle pi/2 aims lam at the negative reals here)
    layout = BlockLayout.from_sizes(np.ones(12, int))
    seq = seq_from_ratios(np.full(14, 0.1))
    perm = TwistPermutation.covering(2 * layout.dim + 8)
    op = TwistedMultiplier(seq=seq, perm=perm, variant=PLAIN, layout=layout)
    rep = sectoriality_probe(op, angles=[math.pi / 2 - 1e-9], radii=np.geomspace(0.1, 1e4, 6),
                             p=2.0, trials=2, seed=0)
    assert rep.lower.max() <= 1.0 + 1e-6
    assert rep.measured_K > 0.0
    assert np.all(rep.lower <= rep.measured_K * rep.bv_upper + 1e-9)


def test_sectoriality_probe_twisted_lacunary_flat_in_radius():
    op = TwistedMultiplier.covering(21, "lacunary")   # 6 triangular blocks
    # below the bottom of the spectrum |lam R(lam)| decays linearly in r,
    # so the flatness check sweeps radii from the spectrum upward
    radii = np.geomspace(1.0, 1e6, 7)
    rep = sectoriality_probe(op, angles=[math.pi / 2], radii=radii, p=4.0,
                             trials=2, seed=3)
    logs = np.log(rep.lower[0])
    slope = np.polyfit(np.log(radii), logs, 1)[0]
    assert abs(slope) <= 0.05


@pytest.mark.parametrize("angles, radii", [([], [1.0]), ([1.0], []), ([], [])])
def test_sectoriality_probe_needs_an_angle_and_a_radius(angles, radii):
    # as positivity_check needs a time: an empty list used to give an empty
    # report (no angle) or a ValueError from numpy (no radius)
    op = TwistedMultiplier.covering(10, "lacunary")
    with pytest.raises(ParameterError, match="at least one angle and one radius"):
        sectoriality_probe(op, angles, radii, p=4.0)


# lam = 4 e^{i(pi - theta)} at this theta rounds onto gamma_2 = 4: a singular ray
SINGULAR_ANGLE = 3.1415926535897927


@pytest.mark.parametrize("p", [0.5, math.nan])
def test_sectoriality_probe_checks_the_exponent_when_every_ray_is_singular(p):
    # the exponent was checked by the first ascent, and no ray ran one
    op = TwistedMultiplier.covering(10, "lacunary")
    assert sectoriality_probe(op, [SINGULAR_ANGLE], [4.0], 3.0).skipped == ((SINGULAR_ANGLE, 4.0),)
    with pytest.raises(ParameterError, match=r"exponent must satisfy p > 1 \(or p = inf\)"):
        sectoriality_probe(op, [SINGULAR_ANGLE], [4.0], p)


@pytest.mark.parametrize("trials", [0, -5])
def test_trial_counts_below_one_are_refused(trials):
    # both used to run one trial, as if asked for it
    op = TwistedMultiplier.covering(10, "lacunary")
    with pytest.raises(ParameterError, match="trials must be at least 1"):
        sectoriality_probe(op, [1.0], [4.0], 3.0, trials=trials)
    with pytest.raises(ParameterError, match="trials must be at least 1"):
        opnorm_lower(op, np.ones(op.structure.needed), 3.0, trials=trials)


@pytest.mark.parametrize("p", [1.001, 200.0, 1000.0])
def test_opnorm_lower_at_extreme_exponents(p):
    # unimodular symbols: the duality-map weights bn^(p-2) and bn^(q-2) leave
    # the float range at these exponents unless the row is rescaled
    op = TwistedMultiplier.covering(50, "lacunary")
    g = np.exp(1j * 0.7 * op.seq.log2[: op.structure.needed])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        val = opnorm_lower(op, g, p)
    assert 1.0 < val < INF


@pytest.mark.parametrize("variant", [PLAIN, EVEN_TWIST, ODD_TWIST])
def test_structured_apply_matches_dense_matrix(variant):
    # fuzz the structured path against plain matrix multiplication
    rng = np.random.default_rng(9)
    for n_blocks in (3, 5, 8):
        op = make_op(n_blocks=n_blocks, variant=variant, c=0.07)
        mat = dense_matrix(op)
        for _ in range(10):
            v = rng.standard_normal(op.layout.dim) + 1j * rng.standard_normal(op.layout.dim)
            np.testing.assert_allclose(op.apply(v), mat @ v, rtol=1e-12, atol=1e-12)
        lam = -1.7 + 0.4j
        res = np.linalg.solve(lam * np.eye(op.layout.dim) - mat, v)
        np.testing.assert_allclose(op.resolvent(lam, v), res, rtol=1e-9, atol=1e-9)
        # the coupling rows are never coupling columns, so the projected
        # generator exponentiates to the projected semigroup; scipy's expm
        # is the independent route
        t = 0.31
        expm = scipy.linalg.expm(-t * mat)
        np.testing.assert_allclose(op.semigroup(t, v), expm @ v, rtol=1e-9, atol=1e-9)


def test_covering_operator_and_short_sequence_error():
    op = TwistedMultiplier.covering(13, "constant", 0.1)
    cover = op.structure.needed
    assert op.layout.dim == 15 and cover >= op.layout.dim   # 5 triangular blocks
    # the table serves the coordinates 1..dim; the sequence covers its
    # indices and their partners, one past the table
    assert op.perm.size <= 2 * op.layout.dim + 8 and op.perm.even_cover == op.layout.dim + 1
    assert op.seq.length == op.perm.size + 1 and cover <= op.seq.length
    TwistedMultiplier(seq=seq_from_ratios(np.full(cover - 1, 0.1)), perm=op.perm,
                      variant=EVEN_TWIST, layout=op.layout)   # length cover suffices
    seq = seq_from_ratios(np.full(cover - 2, 0.1))
    with pytest.raises(ParameterError, match="too short"):
        TwistedMultiplier(seq=seq, perm=op.perm, variant=EVEN_TWIST, layout=op.layout)
