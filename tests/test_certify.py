import math

import numpy as np
import pytest

from mrlab.blockspace import BlockLayout, mixed_norm, triangular_bounds
from mrlab.certify import (
    dissipativity_norm_sq,
    IntervalSpec,
    diagonal_norm,
    dissipativity_norm_onset,
    dissipativity_witness,
    holder_gap,
    mr_predicate,
    plan_interval,
)
from mrlab.errors import ParameterError
from mrlab.sequences import (
    RatioSeq,
    constant_ratios,
    family_ratios,
    geometric_ratios,
    holder_conjugate,
    ratio_family,
)

GRID = np.arange(21, 161) / 20.0


def extremizer(dn, lay):
    """The profile of a DiagonalNorm laid out on its layout: zero off the winning block."""
    a = np.zeros(lay.dim)
    start = lay.starts[dn.block - 1]
    a[start:start + dn.block] = dn.profile
    return a


def test_diagonal_norm_power_at_threshold_all_blocks_tie():
    fam = ratio_family("power", 0.25, 20)
    lay = BlockLayout.triangular(20)
    dn = diagonal_norm(fam, 4.0, lay.n_blocks)
    # every block value equals the scale, so the max does too
    assert dn.value == pytest.approx(fam.scale, rel=1e-12)
    assert dn.profile.dtype == np.float64 and dn.profile.shape == (dn.block,)
    got = mixed_norm(extremizer(dn, lay) * fam.values_upto(lay.dim), 4.0, lay)
    assert got == pytest.approx(dn.value, rel=1e-9)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("kind", ["power", "powerlog"])
def test_diagonal_norm_extremizer_and_domination(p, kind):
    fam = ratio_family(kind, 0.25, 20)
    lay = BlockLayout.triangular(20)
    dn = diagonal_norm(fam, p, lay.n_blocks)
    cvals = fam.values_upto(lay.dim)
    got = mixed_norm(extremizer(dn, lay) * cvals, p, lay)
    assert got == pytest.approx(dn.value, rel=1e-9)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2000, lay.dim))
    a /= np.power(np.power(np.abs(a), p).sum(axis=1), 1.0 / p)[:, None]
    samples = mixed_norm(a * cvals[None, :], p, lay)
    assert np.all(samples <= dn.value + 1e-9)


def test_diagonal_norm_single_block_and_errors():
    fam = constant_ratios(0.07, 1)
    dn = diagonal_norm(fam, 4.0, 1)
    assert dn.value == pytest.approx(0.07, rel=1e-13)
    with pytest.raises(ParameterError):
        diagonal_norm(fam, 2.0, 1)


def test_diagonal_norm_brute_force_block_max():
    # per-block ascent oracle: random unit profiles plus local polish never
    # beat the closed-form block value
    fam = ratio_family("powerlog", 0.3, 8)
    p = 3.5
    lay = BlockLayout.triangular(8)
    dn = diagonal_norm(fam, p, lay.n_blocks)
    lo, hi = triangular_bounds(dn.block)
    c = fam.values_upto(lay.dim)[lo - 1: hi]
    rng = np.random.default_rng(1)
    best = 0.0
    for _ in range(3000):
        a = np.abs(rng.standard_normal(c.size))
        a /= np.power(np.power(a, p).sum(), 1.0 / p)
        best = max(best, float(np.sqrt(((a * c) ** 2).sum())))
    assert best <= dn.value + 1e-9
    assert best >= dn.value * 0.97


def test_mr_predicate_power_threshold():
    fam = ratio_family("power", 0.25, 30)
    for p in GRID[GRID > 2.0]:
        assert mr_predicate(fam, float(p)) == (p <= 4.0)
    assert mr_predicate(fam, 4.0)  # exact threshold included
    assert mr_predicate(fam, 1.5) is True


def test_mr_predicate_powerlog_strict_threshold():
    fam = ratio_family("powerlog", 0.25, 30)
    assert not mr_predicate(fam, 4.0)
    assert mr_predicate(fam, 3.95)
    assert not mr_predicate(fam, 4.05)


def test_mr_predicate_monotone_in_p():
    for fam in (ratio_family("power", 0.2, 30), ratio_family("powerlog", 0.35, 30),
                constant_ratios(0.05, 30), geometric_ratios(30)):
        verdicts = [mr_predicate(fam, float(p)) for p in GRID]
        # once regularity is lost going up in p it never returns
        flips = [i for i in range(1, len(verdicts)) if verdicts[i] and not verdicts[i - 1]]
        assert not flips


def test_mr_predicate_hypothesis_errors():
    big = constant_ratios(0.2, 10, bound=0.5)
    with pytest.raises(ParameterError, match="1/8"):
        mr_predicate(big, 3.0)


def test_mr_predicate_exponent_validation():
    fam = ratio_family("power", 0.25, 10)
    with pytest.raises(ParameterError):
        mr_predicate(fam, 1.0)


def test_holder_gap_exact_at_threshold():
    from mrlab.sequences import alpha_for_right_endpoint

    for p0 in (3.0, 4.0, 5.0, 6.0, 2.5):
        assert holder_gap(p0, alpha_for_right_endpoint(p0)) == 0.0


def test_interval_spec_validation():
    with pytest.raises(ParameterError):
        IntervalSpec(3.0, 5.0, True, True)       # misses 2
    with pytest.raises(ParameterError):
        IntervalSpec(1.0, 3.0, True, True)       # closed at 1
    with pytest.raises(ParameterError):
        IntervalSpec(1.5, math.inf, False, True)  # closed at inf
    with pytest.raises(ParameterError):
        IntervalSpec(3.0, 3.0, True, True)       # degenerate off 2
    spec = IntervalSpec(1.5, 3.0, True, True)
    assert spec.contains(1.5) and spec.contains(3.0) and not spec.contains(3.05)
    assert spec.describe() == "[1.5, 3]"


CASES = [
    IntervalSpec(1.5, 3.0, True, True),
    IntervalSpec(4.0 / 3.0, 4.0, False, True),
    IntervalSpec(2.0, 2.0, True, True),
    IntervalSpec(1.0, math.inf, False, False),
    IntervalSpec(2.0, 5.0, True, False),
]


@pytest.mark.parametrize("interval", CASES, ids=lambda s: s.describe())
def test_plan_interval_reproduces_membership(interval):
    plan = plan_interval(interval, grid=GRID)
    predicted = np.array([plan.predicted(float(p)) for p in GRID])
    member = np.array([interval.contains(float(p)) for p in GRID])
    np.testing.assert_array_equal(predicted, member)
    assert plan.predicted(2.0)


def test_plan_interval_family_choices():
    plan = plan_interval(IntervalSpec(1.5, 3.0, True, True), GRID)
    assert plan.right_kind == "power"
    assert plan.right_alpha == pytest.approx(1.0 / 6.0)
    assert plan.left_kind == "power"
    assert plan.left_dual_endpoint == pytest.approx(3.0)
    assert plan.left_alpha == pytest.approx(1.0 / 6.0)

    plan2 = plan_interval(IntervalSpec(4.0 / 3.0, 4.0, False, True), GRID)
    assert plan2.right_kind == "power" and plan2.right_alpha == pytest.approx(0.25)
    assert plan2.left_kind == "powerlog"
    assert plan2.left_dual_endpoint == pytest.approx(4.0)

    plan3 = plan_interval(IntervalSpec(2.0, 2.0, True, True), GRID)
    assert plan3.right_kind == "constant" and plan3.left_kind == "constant"
    assert plan3.external_reference

    plan4 = plan_interval(IntervalSpec(1.0, math.inf, False, False), GRID)
    assert plan4.right_kind == "geometric" and plan4.left_kind == "geometric"
    assert not plan4.external_reference


def test_plan_interval_materializes_ratio_families():
    plan = plan_interval(IntervalSpec(1.5, 3.0, True, True), GRID)
    right = family_ratios(plan.right_kind, plan.right_alpha, 25)
    assert mr_predicate(right, 3.0)
    assert not mr_predicate(right, 3.05)
    left = family_ratios(plan.left_kind, plan.left_alpha, 25)
    assert mr_predicate(left, 3.0)  # conjugate of 1.5


def test_plan_interval_random_intervals_stay_intervals():
    rng = np.random.default_rng(3)
    for _ in range(25):
        left = float(rng.uniform(1.05, 2.0))
        right = float(rng.uniform(2.0, 7.5))
        spec = IntervalSpec(left, right,
                            bool(rng.integers(2)) if left != 1.0 else False,
                            bool(rng.integers(2)))
        try:
            spec2 = IntervalSpec(spec.left, spec.right, spec.left_closed, spec.right_closed)
        except ParameterError:
            continue
        plan = plan_interval(spec2, grid=GRID)
        flags = np.array([plan.predicted(float(p)) for p in GRID])
        on = np.flatnonzero(flags)
        assert on.size > 0
        assert np.all(np.diff(on) == 1)  # an interval on the grid
        assert plan.predicted(2.0)


def test_dissipativity_witness_constant_tenth():
    fam = constant_ratios(0.1, 45)
    for k in (10, 20, 40):
        w = dissipativity_witness(fam, k)
        assert w.pairing > 0.0
        assert w.pairing == pytest.approx(w.closed_form, rel=1e-9)
    # witness mass n_k (t/2)^2 with t/2 = c/(1-2c) = 0.125
    w20 = dissipativity_witness(fam, 20)
    assert w20.x_norm_sq == pytest.approx(w20.n_terms * 0.25 ** 2, rel=1e-12)


def test_dissipativity_small_block_overlap_is_reported():
    fam = constant_ratios(0.1, 10)
    w = dissipativity_witness(fam, 3)  # the coupled coordinate lands inside B_3
    assert w.x_norm_sq >= 1.0  # the -1 entry contributes
    assert w.pairing != pytest.approx(w.closed_form, rel=1e-6)


def test_dissipativity_sandwich_measured_constant():
    # c <= (gamma_{m+1} - gamma_m)/(2 gamma_m) <= (8/3) c for c < 1/8
    for c in (0.01, 0.05, 0.1, 0.124):
        ratio = (2.0 * c / (1.0 - 2.0 * c)) / c
        assert 1.0 <= ratio <= 8.0 / 3.0 + 1e-12


def test_dissipativity_sandwich_measured_power_family():
    fam = ratio_family("power", 0.25, 30)
    ms = np.arange(2, 400)
    c_m = np.asarray(fam.value_at(ms))
    c_next = np.asarray(fam.value_at(ms + 1))
    increment = 2.0 * c_next / (1.0 - 2.0 * c_next)
    ratio = increment / c_m
    assert np.all(ratio <= 8.0 / 3.0 + 1e-12)
    assert np.all(ratio >= 1.0)


def test_dissipativity_norm_onset_constant():
    fam = constant_ratios(0.1, 80)
    k0 = dissipativity_norm_onset(fam, k_max=79)
    assert k0 is not None
    assert dissipativity_norm_sq(fam, k0) > 1.0
    assert dissipativity_norm_sq(fam, k0 - 1) <= 1.0
    # beyond the onset the mass keeps exceeding 1 for the constant family
    for k in (k0 + 1, k0 + 5):
        assert dissipativity_norm_sq(fam, k) > 1.0
    # the ratio-only mass agrees with the materialized witness where the
    # sequence values are still representable
    w = dissipativity_witness(fam, 20)
    assert dissipativity_norm_sq(fam, 20) == pytest.approx(w.x_norm_sq, rel=1e-12)


def test_dissipativity_positive_across_families():
    for fam in (ratio_family("power", 0.25, 25), ratio_family("powerlog", 0.3, 25),
                constant_ratios(0.05, 25)):
        w = dissipativity_witness(fam, 12)
        assert w.pairing > 0.0
        assert w.pairing == pytest.approx(w.closed_form, rel=1e-9)


def test_dissipativity_block_without_eligible_indices():
    fam = constant_ratios(0.1, 5)
    with pytest.raises(ParameterError):
        dissipativity_witness(fam, 2)  # B_2 = {2, 3} has no m = 1 mod 4


def irregular_ratios(values):
    """One arbitrary value per block, under the constant label (which only
    mr_predicate reads)."""
    return RatioSeq("constant", 0.125, len(values), block_values=np.asarray(values))


def test_diagonal_norm_dense_ratios_match_per_block_sums():
    # irregular block values: compare the closed form k^(1/q) c_k with the
    # sums over every index of each block
    rng = np.random.default_rng(3)
    n_blocks = 30
    fam = irregular_ratios(rng.uniform(0.001, 0.1, n_blocks))
    p = 3.0
    q = holder_conjugate(p)
    per_block = []
    for k in range(1, n_blocks + 1):
        lo, hi = triangular_bounds(k)
        per_block.append(np.power(np.power(fam.value_at(np.arange(lo, hi + 1)), q).sum(), 1 / q))
    lay = BlockLayout.triangular(n_blocks)
    dn = diagonal_norm(fam, p, lay.n_blocks)
    assert dn.value == pytest.approx(max(per_block), rel=1e-12)
    assert dn.block == int(np.argmax(per_block)) + 1
    got = mixed_norm(extremizer(dn, lay) * fam.values_upto(lay.dim), p, lay)
    assert got == pytest.approx(dn.value, rel=1e-9)


def test_diagonal_norm_of_tiny_dense_ratios():
    # the block norms and the Holder profile are scaled by the peak value, so
    # neither underflows to a zero norm
    fam = irregular_ratios(np.geomspace(1e-200, 1e-190, 6))
    lay = BlockLayout.triangular(6)
    dn = diagonal_norm(fam, 4.0, lay.n_blocks)
    assert dn.value == pytest.approx(6 ** 0.25 * 1e-190, rel=1e-14)
    assert dn.block == 6
    got = mixed_norm(extremizer(dn, lay) * fam.values_upto(lay.dim), 4.0, lay)
    assert got == pytest.approx(dn.value, rel=1e-9)


def test_short_ratio_sequences_are_refused_where_they_are_read():
    with pytest.raises(ParameterError, match="shorter than requested"):
        diagonal_norm(constant_ratios(0.05, 5), 4.0, 6)
    # the block-12 witness reads c up to index 80 = hi + 2
    with pytest.raises(ParameterError, match=r"index out of range 1\.\.78"):
        dissipativity_witness(constant_ratios(0.05, 12), 12)
