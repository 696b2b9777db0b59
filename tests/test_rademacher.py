import math

import numpy as np
import pytest

from mrlab.blockspace import BlockLayout, MixedVector, mixed_norm
from mrlab.errors import ParameterError, StructuralError
from mrlab.multiplier import TwistedMultiplier
from mrlab.rademacher import (
    Log2Negatives,
    RadSum,
    associated_operator,
    blowup_series,
    blowup_witness,
    evaluate_rbound_witness,
    pair_resolvent_coeffs,
    rad_norm,
    rbound_lower,
    scaled_resolvent_symbols,
)
from mrlab.sequences import seq_from_ratios, twisted_lacunary
from mrlab.twistbasis import EVEN_TWIST, PLAIN, TwistPermutation


def test_rad_norm_single_term():
    lay = BlockLayout.triangular(4)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(lay.dim)
    s = RadSum(x[None, :], lay, 3.0)
    assert rad_norm(s, "exact") == pytest.approx(mixed_norm(x, 3.0, lay), rel=1e-14)


def test_rad_norm_two_equal_terms_hilbert():
    # E (eps_1 + eps_2)^2 = 2, so the norm is sqrt(2) |x|
    lay = BlockLayout.singletons(10)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(lay.dim)
    s = RadSum(np.stack([x, x]), lay, 2.0)
    assert rad_norm(s, "exact") == pytest.approx(math.sqrt(2.0) * np.linalg.norm(x), rel=1e-13)


def test_rad_norm_disjoint_equals_exact():
    rng = np.random.default_rng(2)
    lay = BlockLayout.triangular(6)
    for trial in range(20):
        groups = np.array_split(rng.permutation(lay.dim), 10)
        terms = np.zeros((10, lay.dim), dtype=complex)
        for g, grp in enumerate(groups):
            terms[g, grp] = rng.standard_normal(grp.size)
        p = rng.uniform(1.5, 6.0)
        s = RadSum(terms, lay, p)
        assert s.supports_disjoint()
        assert rad_norm(s, "disjoint") == pytest.approx(rad_norm(s, "exact"), rel=1e-12)


def test_rad_norm_disjoint_sign_invariance_exhaustive():
    rng = np.random.default_rng(3)
    lay = BlockLayout.triangular(5)
    groups = np.array_split(np.arange(lay.dim), 8)
    terms = np.zeros((8, lay.dim), dtype=complex)
    for g, grp in enumerate(groups):
        terms[g, grp] = rng.standard_normal(grp.size)
    p = 2.7
    base = mixed_norm(terms.sum(axis=0), p, lay)
    for bits in range(2 ** 8):
        signs = np.array([1.0 if bits >> i & 1 else -1.0 for i in range(8)])
        assert mixed_norm(signs @ terms, p, lay) == pytest.approx(base, rel=1e-12)


def test_rad_norm_sampled_within_three_stderr():
    rng = np.random.default_rng(4)
    lay = BlockLayout.triangular(5)
    misses = 0
    for trial in range(30):
        terms = rng.standard_normal((12, lay.dim))
        s = RadSum(terms, lay, rng.uniform(1.5, 5.0))
        exact = rad_norm(s, "exact")
        est = rad_norm(s, "sampled", seed=trial, samples=100_000)
        if abs(est.value - exact) > 3.0 * est.stderr:
            misses += 1
    assert misses <= 1


def test_rad_norm_zeroing_terms_never_increases():
    rng = np.random.default_rng(5)
    lay = BlockLayout.triangular(5)
    for _ in range(20):
        terms = rng.standard_normal((8, lay.dim))
        s = RadSum(terms, lay, 3.0)
        full = rad_norm(s, "exact")
        drop = int(rng.integers(0, 8))
        t2 = terms.copy()
        t2[drop] = 0.0
        assert rad_norm(RadSum(t2, lay, 3.0), "exact") <= full + 1e-12


def test_rad_norm_errors():
    lay = BlockLayout.triangular(3)
    s = RadSum(np.ones((15, lay.dim)), lay, 2.0)
    with pytest.raises(ParameterError):
        rad_norm(s, "exact")
    overlapping = RadSum(np.ones((2, lay.dim)), lay, 2.0)
    with pytest.raises(StructuralError):
        rad_norm(overlapping, "disjoint")
    with pytest.raises(ParameterError):
        rad_norm(overlapping, "bogus")
    with pytest.raises(ParameterError, match="at least 2 samples"):
        rad_norm(overlapping, "sampled", samples=1)
    with pytest.raises(ParameterError, match="at least one term"):
        RadSum(np.zeros((0, lay.dim)), lay, 2.0)


def make_lacunary_op(n_blocks=8):
    return TwistedMultiplier.covering(n_blocks * (n_blocks + 1) // 2, "lacunary")


def test_associated_operator_lacunary_half_and_sixth():
    # q_m = -2^{2m-1} = -gamma_{2m} keeps exactly one half and leaks one sixth
    op = make_lacunary_op()
    seq = op.seq
    ms = np.arange(1, 9)
    terms = []
    keep = []
    for m in ms:
        j = op.perm.pi(2 * int(m))
        if j <= op.layout.dim and 2 * int(m) - 1 <= op.layout.dim:
            terms.append(MixedVector.unit(op.layout, j))
            keep.append(int(m))
    s = RadSum.from_vectors(terms, 4.0)
    qs = Log2Negatives(np.array([2.0 * m - 1.0 for m in keep]))
    out = associated_operator(op, qs, s)
    for row, m in enumerate(keep):
        j = op.perm.pi(2 * m)
        vec = out.terms[row]
        assert vec[j - 1] == pytest.approx(0.5, abs=1e-15)
        assert vec[2 * m - 2] == pytest.approx(1.0 / 6.0, abs=1e-15)
        mask = np.ones(op.layout.dim, dtype=bool)
        mask[[j - 1, 2 * m - 2]] = False
        assert not np.any(vec[mask])


def test_pair_resolvent_coeffs_vectorized_lacunary():
    seq = twisted_lacunary(2000)
    even_m = 2 * np.arange(1, 1001)
    kept, leaked = pair_resolvent_coeffs(seq, 2.0 * np.arange(1, 1001) - 1.0, even_m)
    assert np.max(np.abs(kept - 0.5)) == 0.0
    assert np.max(np.abs(leaked - 1.0 / 6.0)) <= 1e-16


def test_associated_operator_recurrence_leaks_minus_c():
    c = 0.08
    op = TwistedMultiplier.covering(55, "constant", c)   # 10 triangular blocks
    layout, perm, seq = op.layout, op.perm, op.seq
    m = 3  # term at e_{pi(4m+2)} with q = -gamma_{4m+2}
    j = perm.pi(4 * m + 2)
    s = RadSum.from_vectors([MixedVector.unit(layout, j)], 4.0)
    out = associated_operator(op, Log2Negatives(seq.log2_at([4 * m + 2])), s)
    vec = out.terms[0]
    assert vec[j - 1] == pytest.approx(0.5, abs=1e-14)
    assert vec[4 * m] == pytest.approx(-c, rel=1e-9)


def test_associated_operator_resolvent_limit():
    op = make_lacunary_op(n_blocks=5)
    rng = np.random.default_rng(6)
    terms = rng.standard_normal((3, op.layout.dim))
    s = RadSum(terms, op.layout, 3.0)
    gmax = np.exp2(op.seq.log2[: op.structure.needed].max())
    qs = np.full(3, -1e9 * gmax)
    out = associated_operator(op, qs, s)
    assert np.abs(out.terms - s.terms).max() < 1e-6


def test_associated_operator_scaling_and_validation():
    op = make_lacunary_op(n_blocks=5)
    rng = np.random.default_rng(7)
    terms = rng.standard_normal((4, op.layout.dim))
    s = RadSum(terms, op.layout, 3.0)
    qs = -np.abs(rng.uniform(1.0, 50.0, size=4))
    out1 = associated_operator(op, qs, s)
    out2 = associated_operator(op, qs, RadSum(2.5 * terms, op.layout, 3.0))
    np.testing.assert_allclose(out2.terms, 2.5 * out1.terms, rtol=1e-13)
    with pytest.raises(ParameterError):
        associated_operator(op, np.array([1.0, -2.0, -3.0, -4.0]), s)
    with pytest.raises(ParameterError):
        associated_operator(op, qs[:2], s)


def test_associated_operator_commutes_with_truncation_restriction():
    # a term supported deep inside a small layout maps the same way whether
    # the operator is built on the small layout or on a larger one
    small = BlockLayout.triangular(6)
    op_big = TwistedMultiplier.covering(55, "lacunary")   # 10 triangular blocks
    big, perm, seq = op_big.layout, op_big.perm, op_big.seq
    op_small = TwistedMultiplier(seq=seq, perm=perm, variant=EVEN_TWIST, layout=small)
    j = perm.pi(6)
    qs = np.array([-3.7])
    s_small = RadSum.from_vectors([MixedVector.unit(small, j)], 3.0)
    s_big = RadSum.from_vectors([MixedVector.unit(big, j)], 3.0)
    out_small = associated_operator(op_small, qs, s_small).terms[0]
    out_big = associated_operator(op_big, qs, s_big).terms[0]
    np.testing.assert_allclose(out_big[: small.dim], out_small, rtol=1e-14)


def test_rbound_identity_family_is_one():
    lay = BlockLayout.triangular(4)
    rep = rbound_lower([lambda v: v], lay, 3.0, trials=10, seed=0)
    assert rep.lower_bound == pytest.approx(1.0, abs=1e-9)
    assert evaluate_rbound_witness([lambda v: v], rep) == pytest.approx(
        rep.lower_bound, abs=1e-12)


def test_rbound_diagonal_resolvents_hilbert_contractive():
    lay = BlockLayout.singletons(14)
    perm = TwistPermutation.covering(2 * lay.dim + 8)
    seq = seq_from_ratios(np.full(lay.dim + 4, 0.1))
    op = TwistedMultiplier(seq=seq, perm=perm, variant=PLAIN, layout=lay)
    lams = [-0.5, -2.0, -10.0, -100.0]
    ops = [lambda v, lam=lam: lam * op.resolvent(lam, v) for lam in lams]
    rep = rbound_lower(ops, lay, 2.0, trials=25, seed=1)
    assert rep.lower_bound <= 1.0 + 1e-6


def test_blowup_series_monotone_and_crosschecked():
    series = blowup_series("powerlog", 4.0, alpha=0.25, block_counts=range(7, 60))
    assert np.all(np.diff(series.lower) >= -1e-15)
    # materialized witness agrees with the closed-form block value
    for k in (9, 20, 41):
        rsum, qs, op, expected = blowup_witness("powerlog", k, 4.0, alpha=0.25)
        out = associated_operator(op, qs, rsum)
        got = rad_norm(out, "disjoint")
        assert got == pytest.approx(expected, rel=1e-9)
        assert rad_norm(rsum, "disjoint") == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("construction", ["power", "powerlog"])
def test_blowup_witness_builds_its_sequence_at_its_bound(construction):
    # the closed form reads the ratios at ``bound``; the operator's sequence
    # must be solved from the same ratios (at bound 1/2 it was solved at 1/8)
    rsum, qs, op, expected = blowup_witness(construction, 9, 4.0, alpha=0.25, bound=0.5)
    out = associated_operator(op, qs, rsum)
    assert rad_norm(out, "disjoint") == pytest.approx(expected, rel=1e-9)


def test_blowup_witness_exact_mode_agreement():
    rsum, qs, op, expected = blowup_witness("power", 9, 4.0, alpha=0.25)
    assert rsum.n_terms <= 14
    out = associated_operator(op, qs, rsum)
    assert rad_norm(out, "exact") == pytest.approx(rad_norm(out, "disjoint"), rel=1e-12)


def test_blowup_lacunary_rate():
    ks = np.unique(np.geomspace(100, 10_000, 9).astype(int))
    series = blowup_series("lacunary", 4.0, block_counts=ks)
    assert series.slope == pytest.approx(0.25, abs=0.03)
    # leaked value is (1/6) (#targets)^{1/4} with about k/4 targets per block
    assert series.lower[-1] == pytest.approx((10_000 / 4.0) ** 0.25 / 6.0, rel=0.05)


def test_blowup_power_flat_powerlog_doubles():
    ks = [100, 1000, 2000, 5000, 10_000]
    flat = blowup_series("power", 4.0, alpha=0.25, block_counts=ks)
    increments = np.diff(flat.lower)
    assert np.all(np.abs(increments) < 1e-6)
    log = blowup_series("powerlog", 4.0, alpha=0.25, block_counts=ks)
    assert log.lower[-1] / log.lower[0] == pytest.approx(2.0, abs=0.2)


def test_blowup_seeds_rbound_family():
    k = 20
    rsum, qs, op, expected = blowup_witness("powerlog", k, 4.0, alpha=0.25)
    idx = list(range(rsum.n_terms))
    ops = [lambda v, i=i: op.apply_symbols(
        *scaled_resolvent_symbols(op, qs.log2_abs(i)), v) for i in idx]
    rep = rbound_lower(ops, rsum.layout, 4.0, trials=2, seed=0,
                       candidates=[(idx, rsum)])
    series = blowup_series("powerlog", 4.0, alpha=0.25, block_counts=[k])
    assert rep.lower_bound >= 0.5 * series.lower[0]


def test_blowup_validation():
    with pytest.raises(ParameterError):
        blowup_series("power", 1.5, alpha=0.25)
    with pytest.raises(ParameterError):
        blowup_series("power", 4.0, alpha=0.25, block_counts=[3])
    with pytest.raises(ParameterError):
        blowup_series("cubic", 4.0)


@pytest.mark.parametrize("construction", ["power", "powerlog"])
def test_power_families_need_alpha_at_both_entry_points(construction):
    with pytest.raises(ParameterError, match="power families need alpha"):
        blowup_witness(construction, 9, 4.0)
    with pytest.raises(ParameterError, match="power families need alpha"):
        blowup_series(construction, 4.0, block_counts=[10])
