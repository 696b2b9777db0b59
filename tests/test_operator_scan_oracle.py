"""The operator-scan kernels that skip dead work, against the code they replaced.

``multiplier.bv_semigroup_bound`` evaluates e^{-t y^alpha} only on the
prefix of the sequence that can be nonzero; it replaced a full-length
loop kept here verbatim with ``sequence_variation``, which it called.
``multiplier.bip_pair_ratios`` reads the ratio sequence alone; it replaced
a form that read the solved sequence's ``ln_pair_gap`` and the ratios'
``value_at``, kept here verbatim and fed as ``cmd_bip_check`` fed it
(``family_seq``).  Both must give the old bits at every SIMD dispatch
level: numpy's exp, log1p and sin must not change a cell's bits with the
length of the array it sits in.  The sector probe normalizes its iterates
by a multiply with conj(1/nv + 0j) where it divided by nv; the two agree
bit for bit except in the sign of a zero that underflows and in the sign
or payload of a NaN.
"""

import math

import numpy as np
import pytest

from mrlab import multiplier
from mrlab.blockspace import triangular_block_index
from mrlab.errors import ParameterError
from mrlab.multiplier import _SCAN_CELLS, bip_pair_ratios, bv_closed_form, bv_semigroup_bound
from mrlab.sequences import _LN2, family_ratios, family_seq, twisted_lacunary

# -- the old forms, verbatim ---------------------------------------------------------


def sequence_variation(s):
    """Total variation sum |s_{m+1} - s_m| without the leading term; supports
    batches along the last axis."""
    s = np.asarray(s)
    if s.size == 0:
        raise ParameterError("variation of an empty sequence")
    out = np.abs(np.diff(s, axis=-1)).sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def bv_oracle(alpha: float, t, n: int):
    ts = np.asarray(t, dtype=np.float64)
    if not (3.0 * alpha < 1024.0 and 2.0 ** alpha > 1.0 and np.all(ts > 0.0)):
        raise ParameterError("need 0 < alpha < 1024/3 with 2^alpha > 1, and t > 0")
    seq = twisted_lacunary(n)
    with np.errstate(over="ignore"):
        powered = np.exp2(alpha * seq.log2)
    flat = ts.ravel()
    computed = np.empty(flat.size)
    rows = max(1, _SCAN_CELLS // n)
    for i in range(0, flat.size, rows):
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.exp(-flat[i:i + rows, None] * powered)
        s = np.where(np.isnan(s), 0.0, s)
        computed[i:i + rows] = sequence_variation(s)
    closed = np.array([bv_closed_form(alpha, x) for x in flat.tolist()])
    if ts.ndim == 0:
        return float(computed[0]), float(closed[0])
    return computed.reshape(ts.shape), closed.reshape(ts.shape)


def ln_pair_gap(seq, even_m):
    """ln(gamma_{m} / gamma_{m-1}) for even m, stable for tiny steps."""
    even_m = np.asarray(even_m, dtype=np.int64)
    if np.any(even_m % 2):
        raise ParameterError("pair gaps are indexed by even positions")
    if seq.origin == "recurrence":
        return np.log1p(seq.step_offsets[even_m - 2])
    return (seq.log2_at(even_m) - seq.log2_at(even_m - 1)) * _LN2


def bip_oracle(seq, ratios, t_grid, n_pairs: int):
    if seq.origin != "recurrence":
        raise ParameterError("the pair bound applies to recurrence-built sequences")
    if n_pairs < 1:
        raise ParameterError("the pair bound needs at least one pair")
    if 2 * n_pairs > seq.length:
        raise ParameterError("sequence too short for the requested number of pairs")
    cvals = ratios.value_at(2 * np.arange(1, n_pairs + 1))
    if np.any(cvals >= 0.125) or np.any(cvals <= 0.0):
        raise ParameterError("the pair bound requires ratio values inside (0, 1/8)")
    gaps = ln_pair_gap(seq, 2 * np.arange(1, n_pairs + 1))
    ts = np.asarray(t_grid, dtype=np.float64).ravel()
    if not np.all(np.isfinite(ts)):
        raise ParameterError("the pair bound's times must be finite")
    c_lo, c_hi, g_lo = float(cvals.min()), float(cvals.max()), float(gaps.min())
    worst = np.zeros(ts.size)
    for i, t in enumerate(ts.tolist()):
        a = abs(t)
        if 8.0 * a * c_lo >= multiplier._NORMAL_MIN and 8.0 * a * c_hi < math.inf \
                and 0.5 * a * g_lo >= multiplier._NORMAL_MIN:
            num = 2.0 * np.abs(np.sin(0.5 * t * gaps))
            worst[i] = (num / (8.0 * a * cvals)).max()
        elif t != 0.0:
            worst[i] = (np.abs(np.sinc(0.5 * t * gaps / np.pi)) * gaps / (8.0 * cvals)).max()
    return worst


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


# -- the variation bound -------------------------------------------------------------

TIMES = np.array([5e-324, 1e-310, 1e-300, 1e-12, 1e-3, 0.01, 0.37, 1.0, 2.5, 10.0, 745.0,
                  746.0, 1e4, 1e100, 1e300])


@pytest.mark.parametrize("n", [2, 3, 500, 5848])
@pytest.mark.parametrize("alpha", [0.01, 0.25, 1.0, 3.0])
def test_bv_bound_matches_the_full_length_loop(alpha, n):
    got, want = bv_semigroup_bound(alpha, TIMES, n), bv_oracle(alpha, TIMES, n)
    assert bits(got[0]) == bits(want[0]) and bits(got[1]) == bits(want[1])
    for t in (5e-324, 1.0, 1e300):   # a scalar time
        assert bv_semigroup_bound(alpha, t, n) == bv_oracle(alpha, t, n)


@pytest.mark.parametrize("cells", [1, 3 * 500, 7 * 500])
def test_bv_bound_blocks_of_unsorted_times_match(cells, monkeypatch):
    # each row block cuts its prefix at its own smallest time
    grid = np.concatenate([TIMES, np.geomspace(0.01, 10.0, 50)])
    grid = np.random.default_rng(5).permutation(grid)
    monkeypatch.setattr(multiplier, "_SCAN_CELLS", cells)
    for alpha in (0.25, 1.0):
        got, want = bv_semigroup_bound(alpha, grid, 500), bv_oracle(alpha, grid, 500)
        assert bits(got[0]) == bits(want[0])


def test_bv_bound_evaluates_only_the_live_prefix(monkeypatch):
    lengths = []
    exp = np.exp

    def spy(x, *args, **kwargs):
        lengths.append(x.shape[-1])
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(multiplier.np, "exp", spy)
    bv_semigroup_bound(1.0, [1.0], 20_000)
    monkeypatch.undo()
    # y^1 passes 746 within the first dozen terms: 2^(m -+ 1) > 746 from m = 11
    assert lengths and max(lengths) < 20


# -- the imaginary-power pair ratios ------------------------------------------------

FAMILIES = [("power", 0.1), ("power", 0.25), ("power", 0.45), ("powerlog", 0.1),
            ("powerlog", 0.25), ("powerlog", 0.45), ("constant", 0.01), ("constant", 0.1),
            ("geometric", None)]
GRID = [5e-324, -1e-310, 1e308, -1e308, 0.0, -3.0, 0.01, 0.1, 1.0, 10.0, 100.0]


@pytest.mark.parametrize("pairs", [1, 7, 1000, 60342])
@pytest.mark.parametrize("family, param", FAMILIES)
def test_bip_pair_ratios_match_the_sequence_form(family, param, pairs):
    length = 2 * pairs + 2   # as cmd_bip_check sizes it
    seq, ratios = family_seq(family, param, length)
    got = bip_pair_ratios(family_ratios(family, param, triangular_block_index(length) + 1),
                          GRID, pairs)
    assert bits(got) == bits(bip_oracle(seq, ratios, GRID, pairs))


@pytest.mark.parametrize("family, param, pairs, grid", [
    ("power", 0.25, 0, [1.0]), ("powerlog", 0.1, -3, [1.0]), ("constant", 0.2, 5, [1.0]),
    ("constant", 0.1, 5, [math.nan]), ("geometric", None, 5, [1.0, -math.inf])])
def test_bip_refusals_match_the_sequence_form(family, param, pairs, grid):
    length = 2 * pairs + 2
    seq, ratios = family_seq(family, param, length, bound=0.5)
    with pytest.raises(ParameterError) as old:
        bip_oracle(seq, ratios, grid, pairs)
    with pytest.raises(ParameterError) as new:
        bip_pair_ratios(family_ratios(family, param, triangular_block_index(length) + 1,
                                      bound=0.5), grid, pairs)
    assert str(new.value) == str(old.value)


# -- the probe's normalization -------------------------------------------------------

def test_a_multiply_by_conj_reciprocal_divides_up_to_signed_zeros_and_nans():
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
                        0.1, -1.0, 1.5, 1e300, -1.7976931348623157e308, math.inf, -math.inf,
                        math.nan])
    re, im = (part.ravel() for part in np.meshgrid(special, special))
    norms = np.array([5e-324, 1e-310, 2.2e-308, 1e-200, 0.3, 1.0, 3.0, 1e200, 1.5e308])
    rng = np.random.default_rng(0)
    draws = 20_000
    v = np.concatenate([np.tile(re + 1j * 0.0, norms.size), rng.standard_normal(draws)
                        * 10.0 ** rng.uniform(-320, 308, draws)])
    v.imag = np.concatenate([np.tile(im, norms.size), rng.standard_normal(draws)
                             * 10.0 ** rng.uniform(-320, 308, draws)])
    nv = np.concatenate([np.repeat(norms, re.size), 10.0 ** rng.uniform(-323, 308, draws)])
    with np.errstate(all="ignore"):
        divided = np.divide(v, nv).view(np.float64)
        multiplied = np.multiply(v, np.conj(1.0 / nv + 0j)).view(np.float64)
    differ = divided.view(np.int64) != multiplied.view(np.int64)
    nan = np.isnan(divided) & np.isnan(multiplied)
    underflow = (divided == 0.0) & (multiplied == 0.0) & (v.view(np.float64) != 0.0)
    assert np.isnan(divided).tolist() == np.isnan(multiplied).tolist()
    assert not np.any(differ & ~nan & ~underflow)
