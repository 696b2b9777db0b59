"""``blockspace.block_norms`` against the two block-norm kernels it replaced.

``block_norms`` used to square with ``x * x`` (a complex entry as re * re +
im * im), and the sector probe's ascent had a kernel of its own,
``multiplier._block_norms``, which squared the real and imaginary views
with ``np.square`` into two float buffers held per batch.  Both are kept
here verbatim as oracles, with the ``_norms_of_sums`` they shared: the one
kernel, which squares with ``np.square``, must give the same bytes on real
and complex batches, contiguous and strided, holding zeros, subnormals,
infinities and NaNs, and on rows whose block sums of squares overflow or
underflow, which ``_scaled_block_norms`` sums again.
"""

import math

import numpy as np
import pytest

from mrlab import blockspace
from mrlab.blockspace import _NORMAL_MIN, BlockLayout, _scaled_block_norms, block_norms
from mrlab.errors import StructuralError


# -- the old kernels, verbatim ----------------------------------------------------


@np.errstate(over="ignore")   # squares past the float range are summed again below
def block_norms_oracle(arr, layout: BlockLayout):
    arr = np.asarray(arr)
    if arr.shape[-1] != layout.dim:
        raise StructuralError(f"vector length {arr.shape[-1]} != layout dim {layout.dim}")
    if np.iscomplexobj(arr):
        sq = arr.real * arr.real + arr.imag * arr.imag
    else:
        sq = arr * arr
    return norms_of_sums_oracle(arr, layout, np.add.reduceat(sq, layout.starts, axis=-1))


def norms_of_sums_oracle(arr, layout, sums):
    out = np.sqrt(sums)
    if sums.size and not (sums.min() >= _NORMAL_MIN and sums.max() < math.inf):
        # a vector whose squares add up to ``shadow`` holds a block 2^53 times
        # the norm of any block whose sum underflowed; those blocks stay as they are
        shadow = _NORMAL_MIN * 2.0 ** 106 * layout.n_blocks
        total = sums.sum(axis=-1)
        if not (total.min() >= shadow and total.max() < math.inf):
            redo = ((sums < _NORMAL_MIN) & (total < shadow)[..., None]) | (sums == math.inf)
            out[redo] = _scaled_block_norms(arr, layout, redo)
    return out


@np.errstate(over="ignore")   # as in block_norms
def probe_block_norms_oracle(arr, layout, sq, tmp):
    np.square(arr.real, out=sq)   # x * x bit for bit, and faster on strided views
    np.square(arr.imag, out=tmp)
    np.add(sq, tmp, out=sq)
    return norms_of_sums_oracle(arr, layout, np.add.reduceat(sq, layout.starts, axis=-1))


# -- inputs ----------------------------------------------------------------------


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, _NORMAL_MIN, 1e-162, 1.5e-154, 1.4e154,
           1e300, math.inf, -math.inf, math.nan, -math.nan, 1.0, -1.0]


def bits(x):
    return np.asarray(x).tobytes()


def random_layout(rng, dim):
    """Blocks of 1 to 9 coordinates covering dim."""
    sizes = []
    while sum(sizes) < dim:
        sizes.append(int(min(rng.integers(1, 10), dim - sum(sizes))))
    return BlockLayout.from_sizes(sizes)


def complex_batch(seed, rows=24, cols=300):
    """Rows of the special values and of moduli across the whole float range,
    then rows whose blocks all overflow when squared, all underflow, or
    mix both, so that every row shape reaches ``_scaled_block_norms``."""
    rng = np.random.default_rng(seed)
    scaled = rng.standard_normal(4000) * 2.0 ** rng.integers(-1074, 1024, 4000)
    parts = np.concatenate([SPECIAL * 8, scaled])
    z = np.empty((rows, cols), dtype=np.complex128)
    for row in z:
        row.real, row.imag = rng.choice(parts, cols), rng.choice(parts, cols)
    tiny = rng.standard_normal((2, cols)) * 2.0 ** rng.integers(-1074, -540, (2, cols))
    huge = rng.standard_normal((2, cols)) * 2.0 ** rng.integers(520, 1024, (2, cols))
    z[0].real, z[0].imag = tiny                      # every block underflows
    z[1].real, z[1].imag = huge                      # every block overflows
    z[2].real, z[2].imag = tiny[0], huge[1]
    z[3] = z[0]
    z[3, ::7] = 1.0                                  # underflowing blocks beside normal ones
    z[4] = rng.standard_normal(cols) + 1j * rng.standard_normal(cols)   # the plain sum only
    return z


def views(z):
    """The batch and its strided forms, each with a layout of its last axis."""
    rng = np.random.default_rng(z.shape[0])
    for arr in (z, z[:, ::3], z.T, z[5]):
        yield arr, random_layout(rng, arr.shape[-1])


@pytest.fixture
def redo_calls(monkeypatch):
    calls = []

    def counted(arr, layout, redo):
        calls.append(int(redo.sum()))
        return _scaled_block_norms(arr, layout, redo)

    monkeypatch.setattr(blockspace, "_scaled_block_norms", counted)
    return calls


# -- the one kernel against both ---------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_complex_rows_match_both_old_kernels(seed, redo_calls):
    for arr, layout in views(complex_batch(seed)):
        got = block_norms(arr, layout)
        assert bits(got) == bits(block_norms_oracle(arr, layout))
        sq, tmp = np.empty(arr.shape), np.empty(arr.shape)
        assert bits(got) == bits(probe_block_norms_oracle(arr, layout, sq, tmp))
    assert sum(redo_calls) > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_real_rows_match_the_old_kernel(seed, part, redo_calls):
    z = complex_batch(seed)
    for arr, layout in views(z):
        for real in (getattr(arr, part), getattr(arr, part).copy()):
            assert bits(block_norms(real, layout)) == bits(block_norms_oracle(real, layout))
    assert sum(redo_calls) > 0


@pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.int64, np.bool_])
def test_other_dtypes_match_the_old_kernel(dtype):
    rng = np.random.default_rng(3)
    layout = BlockLayout.triangular(12)
    re, im = rng.standard_normal((2, 9, layout.dim)) * 1e3
    arr = (re + 1j * im).astype(dtype) if dtype is np.complex64 else re.astype(dtype)
    for view in (arr, arr[::2], arr[0]):
        got = block_norms(view, layout)
        assert got.dtype == block_norms_oracle(view, layout).dtype
        assert bits(got) == bits(block_norms_oracle(view, layout))

