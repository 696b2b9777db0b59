import numpy as np
import pytest

from mrlab.blockspace import (
    BlockLayout,
    block_norms,
    bv_norm,
    mixed_norm,
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


def test_layout_covering_and_singletons():
    lay = BlockLayout.triangular_covering(500)
    assert lay.dim >= 500 and np.array_equal(lay.sizes, np.arange(1, lay.n_blocks + 1))
    assert BlockLayout.triangular_covering(lay.dim).dim == lay.dim
    single = BlockLayout.from_sizes(np.ones(7, int))
    assert single.dim == 7 and single.n_blocks == 7 and np.all(single.sizes == 1)


def test_mixed_norm_frozen_examples():
    lay = BlockLayout.triangular(2)
    e1 = np.array([1.0, 0.0, 0.0])
    for p in (1.5, 2, 3, INF):
        assert mixed_norm(e1, p, lay) == pytest.approx(1.0, abs=1e-15)
    # hand evaluation: (0^3 + 5^3)^(1/3) = 5
    v = np.array([0.0, 3.0, 4.0])
    assert mixed_norm(v, 3, lay) == pytest.approx(5.0, rel=1e-14)
    w = np.array([1.0, 1.0, 0.0])
    assert mixed_norm(w, INF, lay) == pytest.approx(1.0, abs=1e-15)


def test_mixed_norm_singleton_blocks_is_plain_lp():
    rng = np.random.default_rng(7)
    lay = BlockLayout.from_sizes(np.ones(40, int))
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


@pytest.mark.parametrize("scale", [1e-200, 1e200])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_mixed_norm_survives_squares_out_of_range(scale, dtype):
    # 1e-200 squared underflows to 0.0 and 1e200 squared overflows to inf;
    # the sum used to read 0.0 and NaN, with overflow warnings
    lay = BlockLayout.triangular(3)
    ones = mixed_norm(np.ones(6, dtype=dtype), 3.0, lay)
    got = mixed_norm(np.full(6, scale, dtype=dtype), 3.0, lay)
    assert got == pytest.approx(scale * ones, rel=1e-15, abs=0.0)


def test_block_norms_rescale_only_the_blocks_out_of_range():
    lay = BlockLayout.triangular(4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, lay.dim)) + 1j * rng.standard_normal((3, lay.dim))
    x[0, 1:3] = 0.0                     # a zero block beside normal ones
    x[1] *= 1e-200                      # every block underflows
    x[2, 3:6] = [1e200, -1e200, 0.0]    # one block overflows
    with np.errstate(over="ignore"):
        sq = x.real * x.real + x.imag * x.imag
        plain = np.sqrt(np.add.reduceat(sq, lay.starts, axis=-1))
    got = block_norms(x, lay)
    assert got[0].tobytes() == plain[0].tobytes()
    np.testing.assert_allclose(got[1], 1e-200 * block_norms(x[1] * 1e200, lay), rtol=1e-15)
    assert got[2, 2] == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
    assert np.delete(got[2], 2).tobytes() == np.delete(plain[2], 2).tobytes()
    assert block_norms(np.array([np.inf, 1, 1, 1, 1, 1]), BlockLayout.triangular(3))[0] == INF


def test_mixed_norm_errors():
    lay = BlockLayout.triangular(3)
    with pytest.raises(StructuralError):
        mixed_norm(np.ones(4), 2, lay)
    with pytest.raises(ParameterError):
        mixed_norm(np.ones(6), 1.0, lay)
    with pytest.raises(ParameterError):
        mixed_norm(np.ones(6), 0.5, lay)


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
        qsup = np.power(np.add.reduceat(np.abs(c) ** q, lay.starts), 1.0 / q).max()
        rhs = qsup * (np.abs(a) ** p).sum() ** (1.0 / p)
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


def test_triangular_end_and_the_fewest_covering_blocks():
    np.testing.assert_array_equal(triangular_end(np.arange(6)), [0, 1, 3, 6, 10, 15])
    # the block of index m is the fewest blocks holding m indices; below 1 it is one
    assert [triangular_block_index(m) for m in (-4, 0, 1, 2, 3, 4, 6, 7)] == [1, 1, 1, 2, 2, 3, 3, 4]
    assert BlockLayout.triangular_covering(0).dim == 1
    assert BlockLayout.triangular_covering(11).n_blocks == 5
