import numpy as np
import pytest

from mrlab.blockspace import (
    BlockLayout,
    MixedVector,
    SpreadMap,
    block_lq_norms,
    block_qsup_norm,
    bv_norm,
    compress,
    mixed_norm,
    spread,
    triangular_block_index,
    triangular_bounds,
    triangular_end,
)
from mrlab.errors import ParameterError, StructuralError

INF = float("inf")


def test_triangular_bounds_against_enumeration():
    # oracle: walk the blocks 1, 2, 3, ... by hand
    idx = 1
    for k in range(1, 60):
        first = idx
        last = idx + k - 1
        assert triangular_bounds(k) == (first, last)
        for m in range(first, last + 1):
            assert triangular_block_index(m) == k
        idx = last + 1


def test_block_index_vectorized_matches_scalar():
    m = np.arange(1, 5000)
    ks = triangular_block_index(m)
    # spot check the closed form against searchsorted on cumulative sizes
    ends = np.cumsum(np.arange(1, 120))
    oracle = np.searchsorted(ends, m - 1, side="right") + 1
    np.testing.assert_array_equal(ks, oracle)


def test_layout_block_of_and_bounds():
    lay = BlockLayout.triangular(6)
    assert lay.dim == 21 and lay.n_blocks == 6
    assert lay.bounds(1) == (1, 1)
    assert lay.bounds(4) == (7, 10)
    assert lay.block_of(7) == 4
    np.testing.assert_array_equal(lay.block_of(np.array([1, 2, 3, 4, 21])),
                                  [1, 2, 2, 3, 6])
    with pytest.raises(ParameterError):
        lay.bounds(7)
    with pytest.raises(StructuralError):
        lay.block_of(22)


def test_layout_covering_and_singletons():
    lay = BlockLayout.triangular_covering(500)
    assert lay.dim >= 500 and np.array_equal(lay.sizes, np.arange(1, lay.n_blocks + 1))
    assert BlockLayout.triangular_covering(lay.dim).dim == lay.dim
    single = BlockLayout.singletons(7)
    assert single.dim == 7 and single.n_blocks == 7 and np.all(single.sizes == 1)


def test_mixed_norm_frozen_examples():
    lay = BlockLayout.triangular(2)
    e1 = MixedVector.unit(lay, 1)
    for p in (1.5, 2, 3, INF):
        assert mixed_norm(e1, p) == pytest.approx(1.0, abs=1e-15)
    # hand evaluation: (0^3 + 5^3)^(1/3) = 5
    v = MixedVector(np.array([0.0, 3.0, 4.0]), lay)
    assert mixed_norm(v, 3) == pytest.approx(5.0, rel=1e-14)
    w = MixedVector(np.array([1.0, 1.0, 0.0]), lay)
    assert mixed_norm(w, INF) == pytest.approx(1.0, abs=1e-15)


def test_mixed_norm_singleton_blocks_is_plain_lp():
    rng = np.random.default_rng(7)
    lay = BlockLayout.singletons(40)
    for p in (1.5, 2.5, 4.0):
        x = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        direct = (np.abs(x) ** p).sum() ** (1.0 / p)
        assert mixed_norm(x, p, lay) == pytest.approx(direct, rel=1e-13)


def test_mixed_norm_p2_is_euclidean():
    rng = np.random.default_rng(11)
    lay = BlockLayout.triangular(12)
    x = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
    assert mixed_norm(x, 2, lay) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_mixed_norm_homogeneous_and_triangle():
    rng = np.random.default_rng(3)
    lay = BlockLayout.triangular(8)
    for p in (1.7, 2.0, 3.5, INF):
        x = rng.standard_normal(lay.dim)
        y = rng.standard_normal(lay.dim)
        assert mixed_norm(2.5 * x, p, lay) == pytest.approx(2.5 * mixed_norm(x, p, lay))
        assert mixed_norm(x + y, p, lay) <= mixed_norm(x, p, lay) + mixed_norm(y, p, lay) + 1e-12


def test_mixed_norm_errors():
    lay = BlockLayout.triangular(3)
    with pytest.raises(StructuralError):
        mixed_norm(np.ones(4), 2, lay)
    with pytest.raises(ParameterError):
        mixed_norm(np.ones(6), 1.0, lay)
    with pytest.raises(ParameterError):
        mixed_norm(np.ones(6), 0.5, lay)


def test_block_qsup_norm_examples():
    n = 9
    lay = BlockLayout.triangular(n)
    ks = lay.block_of(np.arange(1, lay.dim + 1))
    c = np.power(ks, -0.25)
    # block value k^{-1/4} * k^{1/4} = 1 in every block
    assert block_qsup_norm(c, 4, lay) == pytest.approx(1.0, rel=1e-13)
    lay4 = BlockLayout.triangular(4)
    assert block_qsup_norm(np.ones(lay4.dim), 2, lay4) == pytest.approx(2.0, rel=1e-14)
    lay1 = BlockLayout.triangular(1)
    assert block_qsup_norm(np.array([0.3]), 7, lay1) == pytest.approx(0.3, rel=1e-14)
    with pytest.raises(ParameterError):
        block_qsup_norm(np.zeros(0), 3, lay1)


def test_holder_within_blocks():
    # |(a c)|_{X_p} <= qsup(c, q) * |a|_p with 1/2 = 1/p + 1/q
    rng = np.random.default_rng(2026)
    lay = BlockLayout.triangular(7)
    for _ in range(1000):
        p = rng.uniform(2.1, 8.0)
        q = 2.0 * p / (p - 2.0)
        a = rng.standard_normal(lay.dim)
        c = rng.standard_normal(lay.dim)
        lhs = mixed_norm(a * c, p, lay)
        rhs = block_qsup_norm(c, q, lay) * (np.abs(a) ** p).sum() ** (1.0 / p)
        assert lhs <= rhs * (1 + 1e-10)


def test_bv_norm():
    assert bv_norm(np.full(5, -2.0)) == pytest.approx(2.0)
    assert bv_norm(np.array([1.0, 0.0, 1.0, 0.0])) == pytest.approx(4.0)
    # complex entries use the modulus of the differences
    assert bv_norm(np.array([1j, 0.0])) == pytest.approx(2.0)
    with pytest.raises(ParameterError):
        bv_norm(np.array([]))


def test_bv_norm_subadditive_and_tail_repeat():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = rng.standard_normal(20)
        t = rng.standard_normal(20)
        assert bv_norm(s + t) <= bv_norm(s) + bv_norm(t) + 1e-12
        assert bv_norm(np.append(s, s[-1])) == pytest.approx(bv_norm(s))


def test_bv_norm_of_lacunary_semigroup_under_closed_form():
    from mrlab.multiplier import bv_closed_form
    from mrlab.sequences import twisted_lacunary

    seq = twisted_lacunary(100)
    with np.errstate(over="ignore"):
        s = np.exp(-1.0 * np.exp2(seq.log2))
    assert bv_norm(s) <= bv_closed_form(1.0, 1.0)


def test_spread_identity_and_roundtrip():
    lay = BlockLayout.triangular(4)
    rng = np.random.default_rng(9)
    v = MixedVector(rng.standard_normal(lay.dim), lay)
    ident = SpreadMap.identity(lay.dim)
    assert ident.gap == 1
    out = spread(v, ident, lay)
    np.testing.assert_allclose(out.coeffs, v.coeffs)
    pos = SpreadMap.from_positions(2 * np.arange(1, lay.dim + 1) - 1)
    assert pos.gap == 2
    target = BlockLayout.triangular_covering(2 * lay.dim - 1)
    w = spread(v, pos, target)
    back = compress(w, pos, lay)
    np.testing.assert_array_equal(back.coeffs, v.coeffs)


def test_spread_norm_ratio_stable_across_sizes():
    # gap-2 spreading changes the norm by a factor that settles with size
    ratios = []
    for n in (8, 16, 24, 32):
        lay = BlockLayout.triangular(n)
        v = MixedVector(np.ones(lay.dim), lay)
        pos = SpreadMap.from_positions(2 * np.arange(1, lay.dim + 1) - 1)
        target = BlockLayout.triangular_covering(2 * lay.dim - 1)
        ratios.append(spread(v, pos, target).norm(3) / v.norm(3))
    ratios = np.array(ratios)
    assert np.all(ratios > 0.5) and np.all(ratios < 2.0)
    assert abs(ratios[-1] - ratios[-2]) < 0.02


def test_spread_errors():
    lay = BlockLayout.triangular(3)
    v = MixedVector(np.ones(lay.dim), lay)
    pos = SpreadMap.from_positions(np.arange(1, lay.dim + 1) * 5)
    with pytest.raises(StructuralError):
        spread(v, pos, lay)
    with pytest.raises(ParameterError):
        SpreadMap.from_positions([3, 2, 5])


def test_mixed_vector_validation():
    lay = BlockLayout.triangular(3)
    with pytest.raises(StructuralError):
        MixedVector(np.ones(5), lay)
    with pytest.raises(StructuralError):
        MixedVector(np.array([np.nan] * 6), lay)
    v = MixedVector.from_entries(lay, {1: 2.0, 6: 1j})
    assert v.coeffs[0] == 2.0 and v.coeffs[5] == 1j


def test_triangular_end_and_the_fewest_covering_blocks():
    np.testing.assert_array_equal(triangular_end(np.arange(6)), [0, 1, 3, 6, 10, 15])
    # the block of index m is the fewest blocks holding m indices; below 1 it is one
    assert [triangular_block_index(m) for m in (-4, 0, 1, 2, 3, 4, 6, 7)] == [1, 1, 1, 2, 2, 3, 3, 4]
    assert BlockLayout.triangular_covering(0).dim == 1
    assert BlockLayout.triangular_covering(11).n_blocks == 5


def test_block_qsup_norm_is_the_max_of_the_per_block_norms():
    lay = BlockLayout.triangular(6)
    c = np.random.default_rng(4).standard_normal((3, lay.dim))
    per_block = block_lq_norms(c, 3.5, lay)
    assert per_block.shape == (3, 6)
    lo, hi = lay.bounds(4)
    np.testing.assert_allclose(per_block[:, 3],
                               np.power(np.power(np.abs(c[:, lo - 1:hi]), 3.5).sum(axis=1),
                                        1 / 3.5), rtol=1e-14)
    np.testing.assert_array_equal(block_qsup_norm(c, 3.5, lay), per_block.max(axis=1))
    np.testing.assert_array_equal(block_lq_norms(np.zeros(lay.dim), 3.0, lay), np.zeros(6))
