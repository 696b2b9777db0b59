"""The ell_p combination of block norms against the row-by-row form it replaced.

``blockspace._lp_of_blocks`` used to take each row's peak along the last
axis, which numpy reduces one row at a time.  That expression is kept here
verbatim as the oracle: the column-wise peak of the transposed copy must
give the same bytes on every shape, including zero rows, inf, NaN and
subnormal block norms.

The sampled unconditional constant norms only a few rows of its block-norm
table exactly, which gives the whole table's maximum only if a row's norm
does not depend on the rows beside it: ``_lp_of_blocks`` and
``block_norms`` of any subset of rows must equal those rows of the full
call byte for byte.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlab.blockspace import BlockLayout, _lp_of_blocks, block_norms

INF = math.inf


# -- the old row-by-row code, verbatim --------------------------------------------


def lp_of_blocks_oracle(bn, p):
    if p == math.inf:
        return bn.max(axis=-1)
    peak = bn.max(axis=-1, keepdims=True)
    scaled = bn / np.where(peak == 0.0, 1.0, peak)
    return peak[..., 0] * np.power(np.power(scaled, p).sum(axis=-1), 1.0 / p)


SHAPES = [(1,), (7,), (1, 1), (1, 9), (40, 1), (6553, 4), (2000, 11), (3, 5, 4)]


@st.composite
def block_norm_batches(draw):
    """Non-negative block norms, as ``block_norms`` returns them, with zero
    rows and inf, NaN and subnormal entries mixed in."""
    shape = draw(st.one_of(st.sampled_from(SHAPES),
                           st.tuples(st.integers(1, 300), st.integers(1, 70))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bn = rng.exponential(size=shape) * 10.0 ** rng.integers(-320, 300, size=shape)
    for value in (0.0, INF, math.nan, 5e-324, 2.2e-310):
        fraction = draw(st.sampled_from([0.0, 0.001, 0.05, 0.5]))
        bn[rng.random(shape) < fraction] = value
    if bn.ndim > 1 and draw(st.booleans()):
        bn[rng.random(shape[:-1]) < 0.2] = 0.0          # whole rows of zeros
    return bn


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(block_norm_batches(), st.sampled_from([1.5, 3.0, 6.0, INF]))
def test_column_wise_row_peak_matches_the_row_by_row_oracle(bn, p):
    with np.errstate(all="ignore"):
        got = np.asarray(_lp_of_blocks(bn, p))
        want = np.asarray(lp_of_blocks_oracle(bn, p))
    assert got.shape == want.shape == bn.shape[:-1]
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# -- rows on their own -------------------------------------------------------------


def some_rows(seed, n_rows):
    """A random nonempty subset of range(n_rows), in random order."""
    rng = np.random.default_rng(seed)
    return rng.choice(n_rows, size=rng.integers(1, n_rows + 1), replace=False)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(block_norm_batches(), st.sampled_from([1.001, 1.5, 3.0, 6.0, 200.0, 1000.0, INF]),
       st.integers(0, 2 ** 32 - 1))
def test_a_row_subset_norms_as_in_the_full_table(bn, p, seed):
    bn = bn.reshape(-1, bn.shape[-1])
    rows = some_rows(seed, bn.shape[0])
    with np.errstate(all="ignore"):
        full = _lp_of_blocks(bn, p)
        part = _lp_of_blocks(bn[rows], p)
    assert part.tobytes() == full[rows].tobytes()


@st.composite
def vector_batches(draw):
    """Real or complex row batches on a random layout, each row scaled from
    the subnormal range to past the float range, with zero and inf entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    layout = BlockLayout.from_sizes(rng.integers(1, 6, size=draw(st.integers(1, 69))))
    shape = (draw(st.integers(1, 300)), layout.dim)

    def part():
        return (rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, size=shape)
                * 10.0 ** rng.integers(-330, 288, size=(shape[0], 1)))

    v = part() + 1j * part() if draw(st.booleans()) else part()
    for value in (0.0, INF):
        v[rng.random(shape) < draw(st.sampled_from([0.0, 0.01, 0.3]))] = value
    return v, layout


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(vector_batches(), st.integers(0, 2 ** 32 - 1))
def test_a_row_subset_has_the_block_norms_of_the_full_batch(batch, seed):
    v, layout = batch
    rows = some_rows(seed, v.shape[0])
    with np.errstate(all="ignore"):
        full = block_norms(v, layout)
        part = block_norms(v[rows], layout)
    assert part.tobytes() == full[rows].tobytes()
