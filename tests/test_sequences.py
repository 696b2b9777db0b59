import math

import numpy as np
import pytest

from mrlab.blockspace import triangular_end
from mrlab.errors import ParameterError, SequenceOverflowError
from mrlab.rademacher import pair_resolvent_coeffs
from mrlab.sequences import (
    _global_raw_max,
    _raw_block_values,
    alpha_for_right_endpoint,
    block_q_norms,
    block_qsup_partials,
    MultiplierSeq,
    RatioSeq,
    constant_ratios,
    family_ratios,
    family_seq,
    finite_length,
    geometric_ratios,
    holder_conjugate,
    ratio_family,
    seq_from_ratios,
    step_offsets,
    twisted_lacunary,
)


def test_recurrence_frozen_doubling():
    # ratio (1 + 1/3)/(1 - 1/3) = 2, so the sequence doubles
    seq = seq_from_ratios(np.full(7, 1.0 / 6.0))
    np.testing.assert_allclose(seq.values_upto(8), 2.0 ** np.arange(8), rtol=1e-12)


def test_recurrence_frozen_ratio_three_halves():
    seq = seq_from_ratios(np.full(9, 0.1))
    vals = seq.values_upto(10)
    np.testing.assert_allclose(vals[1:] / vals[:-1], 1.5, rtol=1e-13)
    assert vals[0] == 1.0


def test_gamma_starts_at_one_and_increases():
    rng = np.random.default_rng(1)
    c = rng.uniform(0.01, 0.49, size=60)
    seq = seq_from_ratios(c)
    assert seq.values_upto(1)[0] == 1.0
    assert np.all(np.diff(seq.values_upto(61)) > 0.0)
    assert np.all(np.diff(seq.log2) > 0.0)


def test_recovered_ratios_round_trip_tight():
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = rng.uniform(0.0, 0.5, size=500)
        c = np.clip(c, 1e-12, 0.5 - 1e-12)
        seq = seq_from_ratios(c)
        rec = seq.recovered_ratios()
        assert np.max(np.abs(rec - c) / c) <= 1e-12


def test_recovered_ratios_beyond_value_overflow():
    c = np.full(2999, 0.49)
    seq = seq_from_ratios(c)
    assert np.any(np.isinf(seq.values_upto(seq.length, allow_inf=True)))
    rec = seq.recovered_ratios()
    assert np.max(np.abs(rec - c) / c) <= 1e-12
    with pytest.raises(SequenceOverflowError):
        seq.values_upto(seq.length)


def test_value_based_recovery_cross_check():
    # independent recovery from the materialized values, away from tiny c
    rng = np.random.default_rng(3)
    c = rng.uniform(1e-3, 0.45, size=200)
    vals = seq_from_ratios(c).values_upto(201)
    rec = 0.5 * np.diff(vals) / (vals[1:] + vals[:-1])
    assert np.max(np.abs(rec - c) / c) <= 1e-9


def test_log_identity_against_direct_product():
    rng = np.random.default_rng(4)
    c = rng.uniform(0.05, 0.3, size=120)
    seq = seq_from_ratios(c)
    direct = np.cumprod((1.0 + 2.0 * c) / (1.0 - 2.0 * c))
    np.testing.assert_allclose(seq.values_upto(121)[1:], direct, rtol=1e-10)


def test_recurrence_domain_errors():
    with pytest.raises(ParameterError):
        seq_from_ratios(np.array([0.1, 0.5, 0.2]))
    with pytest.raises(ParameterError):
        seq_from_ratios(np.array([0.0, 0.1]))


def test_twisted_lacunary_frozen_head():
    seq = twisted_lacunary(8)
    np.testing.assert_array_equal(seq.values_upto(4), [4.0, 2.0, 16.0, 8.0])
    evens = seq.values_upto(8)[1::2]
    assert np.all(np.diff(evens) > 0.0)


def test_twisted_lacunary_pair_ratio_is_one_sixth():
    seq = twisted_lacunary(4000)
    even_m = np.arange(2, 4001, 2)
    r = np.exp2(seq.log2_at(even_m - 1) - seq.log2_at(even_m))  # gamma_{2m-1}/gamma_{2m}
    np.testing.assert_array_equal(r, 2.0)
    half_gap = 0.5 * (r - 1.0) / (r + 1.0)
    np.testing.assert_allclose(half_gap, 1.0 / 6.0, rtol=1e-15)
    # adjacent pairs decrease at even positions
    assert np.all(seq.log2_at(even_m) < seq.log2_at(even_m - 1))


def test_ratio_family_power_scaled_to_open_eighth():
    fam = ratio_family("power", 0.25, 100, bound=0.125)
    vals = fam.values_upto(fam.max_index)
    assert np.all(vals > 0.0) and np.all(vals < 0.125)
    # block-constant: all values inside a block agree
    assert fam.block_values[2] == fam.value_at(4) == fam.value_at(6)
    assert fam.scale == pytest.approx(1.0 / 16.0)
    assert np.all(np.diff(fam.block_values) <= 0.0)


def test_ratio_family_powerlog_peak_location():
    fam = ratio_family("powerlog", 0.25, 200)
    peak = int(np.argmax(fam.block_values)) + 1
    # calculus on k^{-1/4} log(k+1): maximum near exp(4) - 1 ~ 53.6
    assert 45 <= peak <= 65
    assert np.all(np.diff(fam.block_values[:peak]) > 0.0)
    assert np.all(np.diff(fam.block_values[peak - 1:]) <= 0.0)
    assert np.max(fam.block_values) == pytest.approx(0.125 / 2.0)


def test_alpha_for_right_endpoint():
    assert alpha_for_right_endpoint(4.0) == pytest.approx(0.25)
    assert alpha_for_right_endpoint(3.0) == pytest.approx(1.0 / 6.0)
    with pytest.raises(ParameterError):
        alpha_for_right_endpoint(2.0)


def test_family_alpha_validation():
    with pytest.raises(ParameterError):
        ratio_family("power", 0.6, 10)
    with pytest.raises(ParameterError):
        ratio_family("cubic", 0.2, 10)


def leaked_weight(g_prev, g_cur, t):
    """|leak| of t R(-t, A) from a reserved even coordinate onto its odd
    neighbour, read off ``pair_resolvent_coeffs``: d(t) = t [(t + g_prev)^{-1}
    - (t + g_cur)^{-1}]."""
    seq = MultiplierSeq("custom", np.log2([g_prev, g_cur]))
    return np.abs(pair_resolvent_coeffs(seq, np.log2(t), 2)[1])


def resolvent_gap_max(g_prev, g_cur):
    """The closed-form maximum of d(t): t_star = sqrt(g_prev g_cur)."""
    t_star = math.sqrt(g_prev) * math.sqrt(g_cur)
    return t_star, t_star * (g_cur - g_prev) / ((t_star + g_prev) * (t_star + g_cur))


def test_resolvent_gap_max_against_grid_oracle():
    t_star, d_star = resolvent_gap_max(2.0, 4.0)
    assert t_star == pytest.approx(math.sqrt(8.0), rel=1e-15)
    assert d_star == pytest.approx((2.0 - math.sqrt(2.0)) / (2.0 + math.sqrt(2.0)), rel=1e-12)
    assert d_star > 1.0 / 6.0
    assert leaked_weight(2.0, 4.0, t_star) == pytest.approx(d_star, rel=1e-14)
    grid = np.arange(1e-4, 100.0, 1e-4)
    d = leaked_weight(2.0, 4.0, grid)
    assert d_star >= d.max() - 1e-12
    assert abs(grid[np.argmax(d)] - t_star) <= 1e-3


def test_resolvent_gap_at_gamma_cur_is_half_ratio():
    for a, b in [(2.0, 4.0), (1.0, 1.5), (10.0, 160.0)]:
        d_at_b = leaked_weight(a, b, b)
        assert d_at_b == pytest.approx(0.5 * (b - a) / (b + a), rel=1e-14)
        _, d_star = resolvent_gap_max(a, b)
        assert d_star > d_at_b


def test_resolvent_gap_scaling_invariance():
    t = np.geomspace(0.01, 100.0, 41)
    np.testing.assert_allclose(leaked_weight(2.0 * 37.5, 4.0 * 37.5, 37.5 * t),
                               leaked_weight(2.0, 4.0, t), rtol=1e-14)
    with pytest.raises(ParameterError):
        pair_resolvent_coeffs(MultiplierSeq("custom", np.log2([2.0, 4.0])), 1.0, 1)


def test_resolvent_gap_dominates_dense_grid():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.uniform(0.1, 5.0)
        b = a * rng.uniform(1.1, 20.0)
        t_star, d_star = resolvent_gap_max(a, b)
        grid = np.linspace(t_star / 50, t_star * 50, 10_000)
        assert np.all(d_star >= leaked_weight(a, b, grid) - 1e-12)


def test_block_qsup_partials_power_at_threshold_constant():
    alpha = 0.25
    q = 1.0 / alpha
    fam = ratio_family("power", alpha, 2000)
    sups = block_qsup_partials(fam, q)
    np.testing.assert_allclose(sups, fam.scale, rtol=1e-12)


def test_block_qsup_partials_powerlog_log_growth():
    alpha = 0.25
    fam = ratio_family("powerlog", alpha, 10_000)
    sups = block_qsup_partials(fam, 1.0 / alpha)
    ratio = sups[10_000 - 1] / sups[100 - 1]
    assert ratio == pytest.approx(2.0, abs=0.02)
    assert np.all(np.diff(sups) >= 0.0)


def test_block_qsup_partials_power_subthreshold_cauchy():
    fam = ratio_family("power", 0.25, 5000)
    sups = block_qsup_partials(fam, 3.0)  # 1/q = 1/3 > alpha: q-norms blow up? no: 1/3 > 1/4
    # with 1/q > alpha the block norms grow, so use q with 1/q < alpha instead
    sups = block_qsup_partials(fam, 8.0)
    tail = sups[1000:]
    assert np.max(np.abs(np.diff(tail))) < 1e-6


def test_constant_and_geometric_families():
    const = constant_ratios(0.1, 20)
    assert np.all(const.block_values == 0.1)
    geo = geometric_ratios(30)
    assert geo.block_values[0] > geo.block_values[1] > geo.block_values[29] > 0.0
    for q in (2.5, 4.0, 12.0):
        assert np.all(np.isfinite(block_qsup_partials(geo, q)))


@pytest.mark.parametrize("bound, limit", [(0.125, 1070), (0.5, 1072)])
def test_geometric_family_refuses_the_blocks_past_its_last_positive_value(bound, limit):
    assert geometric_ratios(limit, bound).block_values[-1] > 0.0
    with pytest.raises(ParameterError, match=f"stays positive on {limit} blocks; "
                                             f"{limit + 1} were asked for"):
        geometric_ratios(limit + 1, bound)
    # family_seq takes one block past those holding the length, so it states
    # the limit as the longest sequence its blocks solve
    length = triangular_end(limit - 1)
    assert family_seq("geometric", None, length, bound)[1].n_blocks == limit
    with pytest.raises(ParameterError, match=f"stays positive up to length {length}; "
                                             f"length {length + 1} was asked for"):
        family_seq("geometric", None, length + 1, bound)


def test_seq_from_ratio_seq_length_coverage():
    fam = ratio_family("power", 0.25, 4)  # covers indices up to 10
    seq = seq_from_ratios(fam, length=10)
    assert seq.length == 10
    with pytest.raises(ParameterError):
        seq_from_ratios(fam, length=11)


@pytest.mark.parametrize("length", [1, 2, 3, 10, 11, 500])
@pytest.mark.parametrize("family, param", [("power", 0.25), ("powerlog", 0.1),
                                           ("constant", 0.05), ("geometric", None)])
def test_family_seq_solves_the_covering_blocks(family, param, length):
    seq, ratios = family_seq(family, param, length)
    k = ratios.n_blocks - 1   # the fewest blocks holding the length, and one more
    assert k * (k + 1) // 2 >= length > (k - 1) * k // 2
    assert seq.length == length
    expect = seq_from_ratios(family_ratios(family, param, ratios.n_blocks), length=length)
    assert seq.log2.tobytes() == expect.log2.tobytes()


@pytest.mark.parametrize("family, param", [("power", 0.25), ("powerlog", 0.1),
                                           ("constant", 0.05), ("geometric", None)])
def test_values_upto_reads_what_value_at_reads(family, param):
    # the repeated block values against the per-index lookup, bit for bit, on
    # each side of every block end up to 5,000 and at the last stored index
    ratios = family_ratios(family, param, 101)
    ends = [k * (k + 1) // 2 for k in range(1, 100)]
    lengths = sorted({n for end in ends for n in (end - 1, end, end + 1) if n <= 5000})
    for n in [*lengths, ratios.max_index]:
        got = ratios.values_upto(n)
        assert got.tobytes() == ratios.value_at(np.arange(1, n + 1)).tobytes(), n
    assert ratios.values_upto(0).size == 0
    with pytest.raises(ParameterError, match="index out of range"):
        ratios.values_upto(ratios.max_index + 1)


def test_family_seq_lacunary_has_no_ratios():
    seq, ratios = family_seq("lacunary", None, 9)
    assert ratios is None and seq.log2.tobytes() == twisted_lacunary(9).log2.tobytes()


@pytest.mark.parametrize("c", [0.001, 0.1, 0.3, 0.49])
def test_constant_family_at_bound_half_matches_a_full_ratio_vector(c):
    # the --gamma constant:C operator reads the family at bound 1/2; its
    # sequence is the one solved from a plain vector of C, bit for bit
    seq, _ = family_seq("constant", c, 777, bound=0.5)
    plain = seq_from_ratios(np.full(777, c), length=777)
    assert seq.log2.tobytes() == plain.log2.tobytes()
    assert seq.step_offsets.tobytes() == plain.step_offsets.tobytes()


def test_holder_conjugate():
    assert holder_conjugate(4.0) == pytest.approx(4.0)
    assert holder_conjugate(3.0) == pytest.approx(6.0)
    with pytest.raises(ParameterError):
        holder_conjugate(2.0)


@pytest.mark.parametrize("p", [float("inf"), float("nan")])
def test_holder_conjugate_rejects_non_finite_p(p):
    with pytest.raises(ParameterError, match="finite"):
        holder_conjugate(p)


def test_step_offsets_give_the_log_pair_gap():
    c = np.full(99, 0.2)
    seq = seq_from_ratios(c)
    gaps = np.log1p(step_offsets(c))
    assert gaps.tobytes() == np.log1p(seq.step_offsets).tobytes()
    direct = np.log((1.0 + 0.4) / (1.0 - 0.4))
    np.testing.assert_allclose(gaps, direct, rtol=1e-13)


def _scanned_raw_max(alpha):
    horizon = max(16, int(4.0 * math.exp(1.0 / alpha)))
    ks = np.arange(1, horizon + 1, dtype=np.float64)
    return float(_raw_block_values("powerlog", alpha, ks).max())


@pytest.mark.parametrize("alpha", np.linspace(0.1, 0.45, 36))
def test_powerlog_global_max_equals_the_full_scan(alpha):
    assert _global_raw_max("powerlog", float(alpha)) == _scanned_raw_max(float(alpha))


def test_powerlog_small_alpha_scales_without_a_scan():
    # the peak of k^-alpha log(k+1) sits near k = e^(1/alpha), where it is
    # close to 1/(e alpha); a scan up to that k cannot be allocated
    peak = _global_raw_max("powerlog", 0.01)
    assert peak == pytest.approx(1.0 / (math.e * 0.01), rel=1e-6)
    fam = ratio_family("powerlog", 0.01, 50)
    assert fam.block_values.max() < fam.bound


def test_constant_ratios_reject_nan():
    # NaN fails both ``<= 0`` and ``>= bound``; the check must still catch it
    with pytest.raises(ParameterError, match=r"position 1 is outside \(0, 0.125\)"):
        constant_ratios(float("nan"), 3)
    with pytest.raises(ParameterError, match="position 4 is outside"):
        RatioSeq("constant", 0.125, 4, block_values=np.array([0.1, 0.1, 0.1, float("nan")]))


def test_dense_block_q_norms_of_tiny_values_do_not_underflow():
    # the q-th powers of 1e-190 underflow to zero, so a block norm must not
    # be formed from them; irregular values under the constant label, which
    # only mr_predicate reads
    vals = np.geomspace(1e-200, 1e-190, 6)
    per_block = block_q_norms(RatioSeq("constant", 0.125, 6, block_values=vals), 4.0)
    assert np.all(per_block > 0.0)
    np.testing.assert_allclose(per_block, np.arange(1, 7) ** 0.25 * vals, rtol=1e-15)


@pytest.mark.parametrize("family, param", [
    ("power", 0.25), ("power", 0.45), ("power", 0.05), ("powerlog", 0.25), ("powerlog", 0.1),
    ("constant", 0.1), ("constant", 0.12), ("constant", 0.001), ("constant", 1e-9),
])
def test_finite_length_is_the_first_overflow_of_the_solved_sequence(family, param):
    # the block-summed growth decides only away from the float range's end;
    # near it the solved sequence does, so the prefix is exact at every length
    ratios = family_ratios(family, param, 700)
    log2 = seq_from_ratios(ratios).log2
    over = np.flatnonzero(log2 >= math.log2(np.finfo(np.float64).max))
    first = int(over[0]) if over.size else log2.size
    for length in sorted({2, 3, 100, first - 1, first, first + 1, first + 5000, log2.size}):
        if 2 <= length <= log2.size:
            assert finite_length(ratios, length) == min(first, length)
