"""Properties of the triangular layout, the per-block norms, the
permutation and the coupling rule, checked on random inputs.

Each property draws a fixed number of examples and keeps no example
database, so a run reads and writes nothing outside the test itself.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlab.blockspace import (
    BlockLayout,
    block_lq_norms,
    triangular_block_index,
    triangular_end,
    triangular_indices_1mod4,
)
from mrlab.sequences import block_q_norms, block_target_counts, custom_ratios
from mrlab.twistbasis import (
    VARIANTS,
    TwistPermutation,
    _coupling,
    synthesis_cover,
    twisted_basis_matrix,
)


def examples(n):
    return settings(max_examples=n, database=None, deadline=None)


@examples(200)
@given(st.integers(1, 10 ** 15))
def test_block_index_brackets_a_scalar_index(m):
    k = triangular_block_index(m)
    assert isinstance(k, int)
    assert triangular_end(k - 1) < m <= triangular_end(k)


@examples(50)
@given(st.lists(st.integers(1, 10 ** 15), min_size=1, max_size=64))
def test_block_index_brackets_an_array_of_indices(ms):
    m = np.array(ms, dtype=np.int64)
    k = triangular_block_index(m)
    assert np.all(triangular_end(k - 1) < m) and np.all(m <= triangular_end(k))
    assert k.tolist() == [triangular_block_index(x) for x in ms]


@examples(30)
@given(st.integers(1, 400))
def test_block_target_counts_count_the_targets(n_blocks):
    n, e = block_target_counts(n_blocks)
    for k in range(1, n_blocks + 1):
        targets = triangular_indices_1mod4(k)
        assert n[k - 1] == targets.size
        assert e[k - 1] == int(targets.size > 0 and targets[-1] == triangular_end(k))


positive_blocks = st.integers(1, 12).flatmap(
    lambda n_blocks: st.lists(st.floats(1e-3, 0.49), min_size=triangular_end(n_blocks),
                              max_size=triangular_end(n_blocks)))
scales = st.floats(-250.0, 0.0).map(lambda e: 10.0 ** e)


@examples(60)
@given(positive_blocks, scales, st.floats(1.5, 20.0))
def test_per_block_norms_are_homogeneous(values, s, q):
    c = np.array(values)
    layout = BlockLayout.triangular(triangular_block_index(c.size))
    np.testing.assert_allclose(block_lq_norms(s * c, q, layout),
                               s * block_lq_norms(c, q, layout), rtol=1e-12, atol=0.0)


@examples(60)
@given(positive_blocks, scales, st.floats(2.5, 20.0))
def test_dense_ratio_block_norms_are_homogeneous(values, s, q):
    c = np.array(values)
    n_blocks = triangular_block_index(c.size)
    scaled = block_q_norms(custom_ratios(s * c), q, n_blocks)
    np.testing.assert_allclose(scaled, s * block_q_norms(custom_ratios(c), q, n_blocks),
                               rtol=1e-12, atol=0.0)


@examples(40)
@given(st.integers(2, 20_000))
def test_permutation_is_a_bijection_on_the_evens(n):
    perm = TwistPermutation.build(n)
    m = np.arange(1, n + 1)
    images = perm.pi(m)
    assert np.array_equal(images[m % 2 == 1], m[m % 2 == 1])
    evens = images[m % 2 == 0]
    assert np.all(evens % 2 == 0)
    assert np.unique(evens).size == evens.size
    known = evens[evens <= perm.even_cover]
    assert np.array_equal(perm.pi(perm.pi_inv(known)), known)


@examples(40)
@given(st.integers(2, 20_000))
def test_covering_inverse_is_defined_on_every_even_up_to_the_cover(cover):
    perm = TwistPermutation.covering(cover)
    evens = np.arange(2, cover + 1, 2)
    pre = perm.pi_inv(evens)
    assert np.all(pre % 2 == 0)
    assert np.array_equal(perm.pi(pre), evens)


@examples(40)
@given(st.integers(2, 200))
def test_basis_matrix_rows_are_the_coupling_heads(n):
    # f_j = e_{H(j)} + [j coupled] e_{H(partner of j)}: one or two unit entries
    # per row, and no coordinate fed by more than two coefficients
    perm = TwistPermutation.covering(max(2 * n + 4, 8))
    for variant in VARIANTS:
        layout = BlockLayout.triangular_covering(synthesis_cover(n, perm, variant))
        basis = twisted_basis_matrix(n, perm, variant, layout)
        assert np.all((basis == 0.0) | (basis == 1.0))
        nonzero = basis != 0.0
        assert set(nonzero.sum(axis=1).tolist()) <= {1, 2}
        assert nonzero.sum(axis=0).max() <= 2
        t = _coupling(perm, variant, np.arange(1, n + 1))
        heads = [{int(h)} for h in t.head]
        for j, hb in zip(t.a.tolist(), t.head_b.tolist()):
            heads[j - 1].add(int(hb))
        assert [set((np.flatnonzero(row) + 1).tolist()) for row in nonzero] == heads
