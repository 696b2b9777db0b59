"""Properties of the triangular layout, the per-block norms, the mixed
norm, the ratio recurrence, the permutation, the coupling rule, the
twisted analysis and synthesis and the sign classes of the unconditional
constant, checked on random inputs.

Each property draws the same fixed examples on every run and keeps no
example database, so a run reads and writes nothing outside the test
itself.
"""

import contextlib
import io
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlab import cli
from mrlab.blockspace import (
    BlockLayout,
    block_norms,
    combination_norms,
    mixed_norm,
    triangular_block_index,
    triangular_end,
    triangular_indices_1mod4,
)
from mrlab.sequences import RatioSeq, block_q_norms, block_target_counts, seq_from_ratios
from mrlab.twistbasis import (
    EVEN_TWIST,
    ODD_TWIST,
    VARIANTS,
    TwistPermutation,
    _coupling,
    _sign_classes,
    _synthesize,
    _witness_family,
    basis_layout,
    build_permutation,
    twisted_analysis,
    twisted_synthesis,
)
from test_coupling_oracle import twisted_basis_matrix as oracle_basis


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 10 ** 15))
def test_block_index_brackets_a_scalar_index(m):
    k = triangular_block_index(m)
    assert isinstance(k, int)
    assert triangular_end(k - 1) < m <= triangular_end(k)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(2 ** 62, 2 ** 80))
def test_block_index_of_a_scalar_past_int64_is_exact(m):
    # an integer is read with math.isqrt, not through int64 and a float root
    k = triangular_block_index(m)
    assert isinstance(k, int)
    assert triangular_end(k - 1) < m <= triangular_end(k)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(1, 10 ** 15), min_size=1, max_size=64))
def test_block_index_brackets_an_array_of_indices(ms):
    m = np.array(ms, dtype=np.int64)
    k = triangular_block_index(m)
    assert np.all(triangular_end(k - 1) < m) and np.all(m <= triangular_end(k))
    assert k.tolist() == [triangular_block_index(x) for x in ms]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 400))
def test_block_target_counts_count_the_targets(n_blocks):
    n, e = block_target_counts(n_blocks)
    for k in range(1, n_blocks + 1):
        targets = triangular_indices_1mod4(k)
        assert n[k - 1] == targets.size
        assert e[k - 1] == int(targets.size > 0 and targets[-1] == triangular_end(k))


block_values = st.lists(st.floats(1e-3, 0.49), min_size=1, max_size=300)
scales = st.floats(-250.0, 0.0).map(lambda e: 10.0 ** e)


def ratios(values):
    """One value per block, under the constant label (read only by mr_predicate)."""
    return RatioSeq("constant", 0.5, len(values), block_values=np.asarray(values))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(block_values, scales, st.floats(2.5, 20.0))
def test_per_block_norms_are_homogeneous(values, s, q):
    c = np.array(values)
    np.testing.assert_allclose(block_q_norms(ratios(s * c), q),
                               s * block_q_norms(ratios(c), q), rtol=1e-12, atol=0.0)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 20_000))
def test_permutation_is_a_bijection_on_the_evens(n):
    perm = build_permutation(n)
    m = np.arange(1, n + 1)
    images = perm.pi(m)
    assert np.array_equal(images[m % 2 == 1], m[m % 2 == 1])
    evens = images[m % 2 == 0]
    assert np.all(evens % 2 == 0)
    assert np.unique(evens).size == evens.size
    known = evens[evens <= perm.even_cover]
    assert np.array_equal(perm.pi(perm.pi_inv(known)), known)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 20_000))
def test_covering_inverse_is_defined_on_every_even_up_to_the_cover(cover):
    perm = TwistPermutation.covering(cover)
    evens = np.arange(2, cover + 1, 2)
    pre = perm.pi_inv(evens)
    assert np.all(pre % 2 == 0)
    assert np.array_equal(perm.pi(pre), evens)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 200))
def test_basis_matrix_rows_are_the_coupling_heads(n):
    # f_j = e_{H(j)} + [j coupled] e_{H(partner of j)}: one or two unit entries
    # per row, and no coordinate fed by more than two coefficients
    perm = TwistPermutation.covering(n)
    for variant in VARIANTS:
        t = _coupling(perm, variant, np.arange(1, n + 1))
        layout = BlockLayout.triangular_covering(t.cover)
        basis = _synthesize(np.eye(n), t, layout.dim)
        assert np.all((basis == 0.0) | (basis == 1.0))
        nonzero = basis != 0.0
        assert set(nonzero.sum(axis=1).tolist()) <= {1, 2}
        assert nonzero.sum(axis=0).max() <= 2
        heads = [{int(h)} for h in t.head]
        for j, hb in zip(t.a.tolist(), t.head_b.tolist()):
            heads[j - 1].add(int(hb))
        assert [set((np.flatnonzero(row) + 1).tolist()) for row in nonzero] == heads


@st.composite
def sign_rows(draw):
    """(variant, signs): the all-plus row 0, a few drawn rows, and copies and
    negations of rows already drawn, in a drawn order after row 0."""
    variant = draw(st.sampled_from(VARIANTS))
    n = draw(st.integers(2, 40))
    drawn = draw(st.lists(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n),
                          min_size=1, max_size=6))
    rows = [np.ones(n)] + [np.array(r) for r in drawn]
    for pick, negate in draw(st.lists(st.tuples(st.integers(0, 2 * len(rows)),
                                                st.booleans()), max_size=8)):
        row = rows[pick % len(rows)]
        rows.append(-row if negate else row.copy())
    rest = draw(st.permutations(rows[1:]))
    return variant, np.stack([rows[0], *rest])


@st.composite
def witnesses(draw, n):
    """The all-ones, pair or a Gaussian witness, with drawn coordinates zeroed."""
    family = _witness_family(n, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    a = family[draw(st.sampled_from([0, 2, len(family) - 1]))].copy()
    a[draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0.0
    return a


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(sign_rows(), st.data(), st.sampled_from([1.001, 1.5, 3.0, 200.0, math.inf]))
def test_sign_rows_of_one_class_have_one_norm(drawn, data, p):
    # the class of a row: the bit s_i s_j of each coordinate two coefficients feed
    variant, signs = drawn
    n = signs.shape[1]
    a = data.draw(witnesses(n))
    t, layout = basis_layout(n, variant)
    basis = oracle_basis(n, t.perm, variant, layout).real.copy()
    key = signs @ basis[:, basis.sum(axis=0) == 2] != 0.0
    first = {}
    for r, k in enumerate(key):
        first.setdefault(k.tobytes(), r)
    kept = _sign_classes(signs, t)
    assert kept.tolist() == sorted(first.values()) and kept[0] == 0
    norms = combination_norms(signs * a, lambda w: w @ basis, p, layout)
    assert norms.tobytes() == norms[[first[k.tobytes()] for k in key]].tobytes()
    products = partial(_synthesize, t=t, dim=layout.dim)
    reduced = combination_norms(signs[kept] * a, products, p, layout)
    assert reduced[[0, np.argmax(reduced)]].tobytes() == norms[[0, np.argmax(norms)]].tobytes()


def sign_classes_oracle(signs, basis):
    """The sign classes as they were read off the dense basis, verbatim: the
    coordinates two coefficients feed found by a scan of its columns."""
    shared = basis[:, basis.sum(axis=0) == 2].T
    i, j = np.nonzero(shared)[1].reshape(-1, 2).T   # the two coefficients of each
    bits = np.packbits(signs[:, i] == signs[:, j], axis=1)
    # at least one 64-bit word a row: np.lexsort refuses an empty key
    words = np.zeros((signs.shape[0], max(1, -(-bits.shape[1] // 8))), dtype=np.uint64)
    words.view(np.uint8)[:, :bits.shape[1]] = bits
    order = np.lexsort(words.T)   # stable: each class lists its rows in order
    words = words[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(words[1:] != words[:-1], axis=1)
    return np.sort(order[first])


# coefficients at both ends of the float range and below its normal range,
# so that a shared coordinate may add 1e300 to -1e300, or a subnormal to 0
EDGE_COEFFS = [0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, -5e-324, 2.5e-310, 1.5, -3.0]


def assert_sign_products_are_the_basis_products(variant, n, a, seed, rows=64):
    """_synthesize(signs * a, t, dim) against the dense basis product: equal
    moduli and block norms bit for bit, and the sign classes of the old column
    scan, over rows that repeat and negate a few drawn ones after the all-plus row 0."""
    rng = np.random.default_rng(seed)
    drawn = rng.choice([-1.0, 1.0], size=(6, n))
    signs = drawn[rng.integers(0, 6, rows)] * rng.choice([-1.0, 1.0], size=(rows, 1))
    signs[0] = 1.0
    t, layout = basis_layout(n, variant)
    basis = oracle_basis(n, t.perm, variant, layout).real.copy()   # the real 0/1 basis
    got, want = _synthesize(signs * a, t, layout.dim), (signs * a) @ basis
    assert np.abs(got).tobytes() == np.abs(want).tobytes()
    assert block_norms(got, layout).tobytes() == block_norms(want, layout).tobytes()
    assert _sign_classes(signs, t).tolist() == sign_classes_oracle(signs, basis).tolist()


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(VARIANTS), st.integers(2, 60), st.data())
def test_sign_products_through_the_coupling_are_the_basis_products(variant, n, data):
    a = np.array(data.draw(st.lists(st.sampled_from(EDGE_COEFFS), min_size=n, max_size=n)))
    assert_sign_products_are_the_basis_products(variant, n, a, data.draw(st.integers(0, 2 ** 32 - 1)))


@pytest.mark.parametrize("variant", [EVEN_TWIST, ODD_TWIST])
def test_sign_products_through_the_coupling_are_the_basis_products_at_n_393(variant):
    # the widest sampled layout the CLI admits (dim 4,950)
    a = np.resize(EDGE_COEFFS, 393) * np.random.default_rng(3).uniform(0.5, 2.0, 393)
    assert_sign_products_are_the_basis_products(variant, 393, a, seed=5, rows=100)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 14), st.sampled_from(VARIANTS), st.integers(0, 2 ** 32 - 1))
def test_synthesis_after_analysis_is_the_identity(n_blocks, variant, seed):
    # every vector of the layout is the synthesis of its twisted coefficients
    layout = BlockLayout.triangular(n_blocks)
    perm = TwistPermutation.covering(2 * layout.dim + 8)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    back = twisted_synthesis(twisted_analysis(v, perm, variant), perm, variant, layout)
    np.testing.assert_allclose(back, v, rtol=0.0, atol=1e-15 * np.abs(v).max())


# -- the mixed norm and the ratio recurrence ----------------------------------

block_sizes = st.lists(st.integers(1, 12), min_size=1, max_size=12)
exponents = st.floats(1.01, 50.0) | st.just(float("inf"))


def random_pair(sizes, seed, decades):
    """A layout of the given block sizes and two complex vectors on it, each
    at its own scale between 10^-decades and 10^decades."""
    layout = BlockLayout.from_sizes(sizes)
    rng = np.random.default_rng(seed)
    x, y = (10.0 ** rng.uniform(-decades, decades)
            * (rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim))
            for _ in range(2))
    return layout, x, y


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(block_sizes, exponents, st.integers(0, 2 ** 32 - 1))
def test_mixed_norm_triangle_inequality(sizes, p, seed):
    # scales whose squares leave the float range take the rescaled block sums
    layout, x, y = random_pair(sizes, seed, 250.0)
    lhs = mixed_norm(x + y, p, layout)
    assert lhs <= (mixed_norm(x, p, layout) + mixed_norm(y, p, layout)) * (1.0 + 1e-13)
    assert mixed_norm(-2.5j * x, p, layout) == pytest.approx(2.5 * mixed_norm(x, p, layout),
                                                             rel=1e-14)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(block_sizes, st.floats(1.01, 50.0), st.integers(0, 2 ** 32 - 1))
def test_mixed_norm_holder_inequality(sizes, p, seed):
    # |<x, y>| <= |x|_p |y|_p' with 1/p + 1/p' = 1: the pairing of the space
    # with its dual, ell_p' of the same Euclidean blocks
    layout, x, y = random_pair(sizes, seed, 150.0)
    pairing = abs(np.vdot(y, x))
    bound = mixed_norm(x, p, layout) * mixed_norm(y, p / (p - 1.0), layout)
    assert pairing <= bound * (1.0 + 1e-13)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True), min_size=1,
                max_size=400))
def test_ratio_recurrence_round_trip(values):
    # c -> t = 4c/(1 - 2c) -> c = t/(2(2 + t)), for any admissible ratios,
    # subnormal ones and ones next to 1/2 included
    c = np.array(values)
    back = seq_from_ratios(c).recovered_ratios()
    assert back.size == c.size
    np.testing.assert_allclose(back, c, rtol=1e-15, atol=0.0)


def stated_size(*argv):
    """The size record the subcommand of argv states before it builds anything."""
    args = cli._build_parser("0").parse_args(argv)
    return next(args.func(args))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 10 ** 6))
def test_operator_record_states_the_layout_and_its_cover_bound(n):
    # the covering permutation stays within the 2 n + 8 entries the record
    # admits, though it covers the whole layout, which may exceed n
    layout = BlockLayout.triangular_covering(n)
    assert TwistPermutation.covering(layout.dim).size <= 2 * n + 8
    for command in ("semigroup-check", "sector-probe"):
        size = stated_size(command, "--n", str(n))
        assert size.dim == layout.dim
        assert size.arrays[0] == (f"--n {n}", 2 * n + 8)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 3000))
def test_sampled_basis_record_states_the_basis_layout(n):
    size = stated_size("uncond-constant", "--n", str(n), "--mode", "sampled")
    assert size.dim == basis_layout(n)[1].dim


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.floats(-300.0, math.log10(0.49)), st.integers(1, 600))
def test_constant_gamma_never_breaks_the_positivity_invariant(exponent, n):
    # positive entries iff the rounded pair values decrease, for every
    # admissible constant: tiny steps round to equal values or to negative
    # entries smaller than --tol
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["semigroup-check", "--gamma", f"constant:{10.0 ** exponent!r}",
                         "--n", str(n)])
    assert (code, err.getvalue()) == (0, "")
