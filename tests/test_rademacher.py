import math

import numpy as np
import pytest

from mrlab.blockspace import BlockLayout, mixed_norm
from mrlab.errors import ParameterError, StructuralError
from mrlab.multiplier import TwistedMultiplier
from mrlab.rademacher import (
    RadSum,
    associated_operator,
    blowup_series,
    blowup_witness,
    pair_resolvent_coeffs,
    rad_norm,
)
from mrlab.sequences import seq_from_ratios, twisted_lacunary
from mrlab.twistbasis import EVEN_TWIST, ODD_TWIST, PLAIN, TwistPermutation


def test_rad_norm_single_term():
    lay = BlockLayout.triangular(4)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(lay.dim)
    s = RadSum(x[None, :], lay, 3.0)
    assert rad_norm(s, "exact") == pytest.approx(mixed_norm(x, 3.0, lay), rel=1e-14)


def test_rad_norm_two_equal_terms_hilbert():
    # E (eps_1 + eps_2)^2 = 2, so the norm is sqrt(2) |x|
    lay = BlockLayout.from_sizes(np.ones(10, int))
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


def unit(layout, j):
    """The unit vector e_j of the layout."""
    e = np.zeros(layout.dim)
    e[j - 1] = 1.0
    return e


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
            terms.append(unit(op.layout, j))
            keep.append(int(m))
    s = RadSum(np.stack(terms), op.layout, 4.0)
    out = associated_operator(op, np.array([2.0 * m - 1.0 for m in keep]), s)
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
    s = RadSum(unit(layout, j), layout, 4.0)
    out = associated_operator(op, seq.log2_at([4 * m + 2]), s)
    vec = out.terms[0]
    assert vec[j - 1] == pytest.approx(0.5, abs=1e-14)
    assert vec[4 * m] == pytest.approx(-c, rel=1e-9)


def test_associated_operator_resolvent_limit():
    op = make_lacunary_op(n_blocks=5)
    rng = np.random.default_rng(6)
    terms = rng.standard_normal((3, op.layout.dim))
    s = RadSum(terms, op.layout, 3.0)
    log2_q = np.full(3, math.log2(1e9) + op.seq.log2[: op.structure.needed].max())
    out = associated_operator(op, log2_q, s)
    assert np.abs(out.terms - s.terms).max() < 1e-6


def test_associated_operator_scaling_and_validation():
    op = make_lacunary_op(n_blocks=5)
    rng = np.random.default_rng(7)
    terms = rng.standard_normal((4, op.layout.dim))
    s = RadSum(terms, op.layout, 3.0)
    log2_q = np.log2(rng.uniform(1.0, 50.0, size=4))
    out1 = associated_operator(op, log2_q, s)
    out2 = associated_operator(op, log2_q, RadSum(2.5 * terms, op.layout, 3.0))
    np.testing.assert_allclose(out2.terms, 2.5 * out1.terms, rtol=1e-13)
    with pytest.raises(ParameterError, match="one q per term"):
        associated_operator(op, log2_q[:2], s)


def test_associated_operator_commutes_with_truncation_restriction():
    # a term supported deep inside a small layout maps the same way whether
    # the operator is built on the small layout or on a larger one
    small = BlockLayout.triangular(6)
    op_big = TwistedMultiplier.covering(55, "lacunary")   # 10 triangular blocks
    big, perm, seq = op_big.layout, op_big.perm, op_big.seq
    op_small = TwistedMultiplier(seq=seq, perm=perm, variant=EVEN_TWIST, layout=small)
    j = perm.pi(6)
    log2_q = np.log2([3.7])
    s_small = RadSum(unit(small, j), small, 3.0)
    s_big = RadSum(unit(big, j), big, 3.0)
    out_small = associated_operator(op_small, log2_q, s_small).terms[0]
    out_big = associated_operator(op_big, log2_q, s_big).terms[0]
    np.testing.assert_allclose(out_big[: small.dim], out_small, rtol=1e-14)


def associated_operator_oracle(op, log2_q, s):
    """One term at a time: the symbol of q_k R(q_k, A) in ratio form, applied
    to term k alone."""
    log2 = op.seq.log2[: op.structure.needed]
    out = np.empty_like(s.terms)
    for k in range(s.n_terms):
        with np.errstate(over="ignore"):
            r = np.exp2(log2 - float(log2_q[k]))
        out[k] = op.apply_symbols(*op.symbols(1.0 / (1.0 + r)), s.terms[k])
    return out


@pytest.mark.parametrize("variant", [PLAIN, EVEN_TWIST, ODD_TWIST])
@pytest.mark.parametrize("family, param, n_terms, seed", [
    ("lacunary", None, 1, 0),
    ("constant", 0.1, 5, 1),
    ("power", 0.25, 9, 2),
    ("powerlog", 0.3, 4, 3),
])
def test_associated_operator_matches_per_term_loop(variant, family, param, n_terms, seed):
    covering = TwistedMultiplier.covering(60, family, param)
    op = TwistedMultiplier(seq=covering.seq, perm=covering.perm, variant=variant,
                           layout=covering.layout)
    rng = np.random.default_rng(seed)
    terms = rng.standard_normal((n_terms, op.layout.dim)) \
        + 1j * rng.standard_normal((n_terms, op.layout.dim))
    s = RadSum(terms, op.layout, 3.0)
    # magnitudes from far below the smallest value to far above the largest
    log2_q = rng.uniform(-40.0, op.seq.log2[: op.structure.needed].max() + 40.0, n_terms)
    want = associated_operator_oracle(op, log2_q, s)
    assert associated_operator(op, log2_q, s).terms.tobytes() == want.tobytes()


def test_associated_operator_matches_per_term_loop_past_256_kib():
    # the stacked products exceed the 256 KiB at which numpy reuses a
    # temporary operand and multiplies in swapped order
    op = TwistedMultiplier.covering(3000, "powerlog", 0.25)
    rng = np.random.default_rng(8)
    terms = rng.standard_normal((40, op.layout.dim)) + 1j * rng.standard_normal((40, op.layout.dim))
    assert terms.nbytes > 1 << 18 and 40 * op.structure.off_rows.size * 16 > 1 << 18
    s = RadSum(terms, op.layout, 4.0)
    log2_q = rng.uniform(0.0, 40.0, 40)
    want = associated_operator_oracle(op, log2_q, s)
    assert associated_operator(op, log2_q, s).terms.tobytes() == want.tobytes()


def test_rbound_diagonal_resolvents_hilbert_contractive():
    # on plain ell_2 the family {lam R(lam, A) : lam < 0} of the diagonal
    # operator maps every Rademacher sum to one of at most its norm
    lay = BlockLayout.from_sizes(np.ones(14, int))
    perm = TwistPermutation.covering(2 * lay.dim + 8)
    seq = seq_from_ratios(np.full(lay.dim + 4, 0.1))
    op = TwistedMultiplier(seq=seq, perm=perm, variant=PLAIN, layout=lay)
    rng = np.random.default_rng(1)
    for _ in range(25):
        k = int(rng.integers(1, 9))
        s = RadSum(rng.standard_normal((k, lay.dim)) + 1j * rng.standard_normal((k, lay.dim)),
                   lay, 2.0)
        log2_q = np.log2(rng.choice([0.5, 2.0, 10.0, 100.0], size=k))
        mapped = associated_operator(op, log2_q, s)
        assert rad_norm(mapped, "exact") <= rad_norm(s, "exact") * (1 + 1e-12)


def test_blowup_series_monotone_and_crosschecked():
    series = blowup_series("powerlog", 4.0, alpha=0.25, block_counts=range(7, 60))
    assert np.all(np.diff(series.lower) >= -1e-15)
    # materialized witness agrees with the closed-form block value
    for k in (9, 20, 41):
        rsum, log2_q, op, expected = blowup_witness("powerlog", k, 4.0, alpha=0.25)
        out = associated_operator(op, log2_q, rsum)
        got = rad_norm(out, "disjoint")
        assert got == pytest.approx(expected, rel=1e-9)
        assert rad_norm(rsum, "disjoint") == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("k", [7, 9, 20, 41])
def test_lacunary_witness_agrees_with_its_closed_form(k):
    # every pair leaks 1/6 onto a flat unit profile
    rsum, log2_q, op, expected = blowup_witness("lacunary", k, 4.0)
    out = associated_operator(op, log2_q, rsum)
    assert rad_norm(out, "disjoint") == pytest.approx(expected, rel=1e-9)
    assert rad_norm(rsum, "disjoint") == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("construction", ["power", "powerlog"])
def test_blowup_witness_builds_its_sequence_at_its_bound(construction):
    # the closed form reads the ratios at ``bound``; the operator's sequence
    # must be solved from the same ratios (at bound 1/2 it was solved at 1/8)
    rsum, log2_q, op, expected = blowup_witness(construction, 9, 4.0, alpha=0.25, bound=0.5)
    out = associated_operator(op, log2_q, rsum)
    assert rad_norm(out, "disjoint") == pytest.approx(expected, rel=1e-9)


def test_blowup_witness_exact_mode_agreement():
    rsum, log2_q, op, expected = blowup_witness("power", 9, 4.0, alpha=0.25)
    assert rsum.n_terms <= 14
    out = associated_operator(op, log2_q, rsum)
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
    # the witness's ratio under the resolvent family bounds the R-bound from
    # below, and it dominates half the leaked block value
    k = 20
    rsum, log2_q, op, expected = blowup_witness("powerlog", k, 4.0, alpha=0.25)
    ratio = rad_norm(associated_operator(op, log2_q, rsum), "disjoint") / rad_norm(rsum, "disjoint")
    series = blowup_series("powerlog", 4.0, alpha=0.25, block_counts=[k])
    assert ratio >= 0.5 * series.lower[0]


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
