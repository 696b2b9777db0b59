"""The closed-form per-block target sums against the per-block loops they replaced.

The blow-up series, the dissipativity mass and its onset used to list the
targets m = 1 mod 4 of one triangular block at a time.  Those loops are
kept here verbatim as oracles: ``sequences.block_target_sums`` and its
consumers must agree with them to a relative 1e-15 per block, with equal
onsets and the same errors.
"""

import numpy as np
import pytest

from mrlab.blockspace import triangular_bounds, triangular_indices_1mod4
from mrlab.certify import dissipativity_norm_onset, dissipativity_norm_sq
from mrlab.errors import ParameterError
from mrlab.rademacher import _blowup_args, blowup_series
from mrlab.sequences import (
    block_target_counts,
    block_target_sums,
    constant_ratios,
    custom_ratios,
    geometric_ratios,
    ratio_family,
)
from mrlab.twistbasis import first_even_in_shifted_block

REL = 1e-15


# -- the old per-block code, verbatim ------------------------------------------


def _block_leak_qnorm(construction, ratios, k, q):
    """ell_q norm of the leaked coefficients on the targets of block k."""
    targets = triangular_indices_1mod4(k)
    if targets.size == 0:
        return 0.0, 0
    if construction == "lacunary":
        # q_m = -gamma_{4m+2} leaks exactly 1/6 on every pair
        return (targets.size ** (1.0 / q)) / 6.0, int(targets.size)
    cvals = ratios.value_at(targets + 1)
    return float(np.power(np.power(np.abs(cvals), q).sum(), 1.0 / q)), int(targets.size)


def old_blowup_per_block(construction, p, alpha=None, block_counts=(100, 1000, 10000),
                         bound=0.125):
    p, q, ks = _blowup_args(construction, p, block_counts, alpha)
    kmax = int(ks.max())
    ratios = None
    if construction in ("power", "powerlog"):
        if alpha is None:
            raise ParameterError("power families need alpha")
        ratios = ratio_family(construction, alpha, kmax + 1, bound=bound)
    per_block = np.zeros(kmax + 1)
    for k in range(7, kmax + 1):
        per_block[k], _ = _block_leak_qnorm(construction, ratios, k, q)
    return per_block


def old_dissipativity_norm_sq(ratios, k):
    lo, hi = triangular_bounds(k)
    if ratios.max_index < hi + 1:
        raise ParameterError("ratio sequence does not cover the block")
    ms = triangular_indices_1mod4(k)
    if ms.size == 0:
        return 0.0
    c_next = np.asarray(ratios.value_at(ms + 1), dtype=np.float64)
    x = 2.0 * c_next / (1.0 - 2.0 * c_next)
    partner = first_even_in_shifted_block((ms - 1) // 4)
    overlaps = np.count_nonzero((lo <= partner) & (partner <= hi))
    return float((x * x).sum()) + float(overlaps)


def old_dissipativity_norm_onset(ratios, k_max=500):
    if old_dissipativity_norm_sq(ratios, k_max) <= 1.0:
        return None
    onset = k_max
    for k in range(k_max - 1, 0, -1):
        if old_dissipativity_norm_sq(ratios, k) <= 1.0:
            return onset
        onset = k
    return onset


# -- cases --------------------------------------------------------------------

BLOWUP_FAMILIES = [("lacunary", None), ("power", 0.1), ("power", 0.25),
                   ("powerlog", 0.1), ("powerlog", 0.25)]
K_BLOWUP = 3000


def _assert_rel(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    scale = np.where(old == 0.0, 1.0, np.abs(old))
    assert np.all(np.abs(new - old) <= REL * scale)


def _dense(n_blocks, seed):
    rng = np.random.default_rng(seed)
    size = n_blocks * (n_blocks + 1) // 2 + 1
    return custom_ratios(rng.uniform(0.001, 0.12, size=size))


def _mass_families(n_blocks):
    return {
        "constant-0.1": constant_ratios(0.1, n_blocks),
        "constant-0.05": constant_ratios(0.05, n_blocks),
        "constant-0.02": constant_ratios(0.02, n_blocks),
        "power-0.1": ratio_family("power", 0.1, n_blocks),
        "power-0.25": ratio_family("power", 0.25, n_blocks),
        "powerlog-0.1": ratio_family("powerlog", 0.1, n_blocks),
        "powerlog-0.25": ratio_family("powerlog", 0.25, n_blocks),
        "geometric": geometric_ratios(n_blocks),
        "custom": _dense(n_blocks - 1, seed=5),
    }


# -- tests --------------------------------------------------------------------


def test_target_counts_match_enumeration():
    n, e = block_target_counts(3000)
    for k in range(1, 3001):
        targets = triangular_indices_1mod4(k)
        _, hi = triangular_bounds(k)
        assert n[k - 1] == targets.size
        assert e[k - 1] == int(targets.size > 0 and targets[-1] == hi)


@pytest.mark.parametrize("construction,alpha", BLOWUP_FAMILIES)
@pytest.mark.parametrize("p", [2.5, 4.0, 8.0])
def test_blowup_matches_per_block_loop(construction, alpha, p):
    ks = np.arange(7, K_BLOWUP + 1)
    old = old_blowup_per_block(construction, p, alpha=alpha, block_counts=[K_BLOWUP])
    q = 2.0 * p / (p - 2.0)
    if construction == "lacunary":
        n, _ = block_target_counts(K_BLOWUP)
        per_block = np.power(n, 1.0 / q) / 6.0
    else:
        ratios = ratio_family(construction, alpha, K_BLOWUP + 1)
        per_block = np.power(block_target_sums(ratios, lambda c: np.abs(c) ** q, K_BLOWUP),
                             1.0 / q)
    _assert_rel(per_block[6:], old[7:])
    series = blowup_series(construction, p, alpha=alpha, block_counts=ks)
    _assert_rel(series.lower, np.maximum.accumulate(old)[ks])


@pytest.mark.parametrize("blocks", [[7], [7, 8, 9], [100, 1000, 120]])
@pytest.mark.parametrize("construction,alpha", BLOWUP_FAMILIES)
def test_blowup_series_at_short_horizons(construction, alpha, blocks):
    old = old_blowup_per_block(construction, 4.0, alpha=alpha, block_counts=blocks)
    series = blowup_series(construction, 4.0, alpha=alpha, block_counts=blocks)
    _assert_rel(series.lower, np.maximum.accumulate(old)[series.ks])


@pytest.mark.parametrize("name", sorted(_mass_families(301)))
def test_masses_match_per_block_loop(name):
    ratios = _mass_families(301)[name]
    for k in range(1, 301):
        _assert_rel(dissipativity_norm_sq(ratios, k), old_dissipativity_norm_sq(ratios, k))


@pytest.mark.parametrize("k_max", [1, 6, 30, 89, 300])
@pytest.mark.parametrize("name", sorted(_mass_families(301)))
def test_onsets_match_per_k_loop(name, k_max):
    ratios = _mass_families(301)[name]
    assert dissipativity_norm_onset(ratios, k_max) == old_dissipativity_norm_onset(ratios, k_max)


def test_onsets_cover_found_and_missing():
    found = {name: dissipativity_norm_onset(r, 300) for name, r in _mass_families(301).items()}
    assert found["constant-0.1"] == 67
    assert found["geometric"] is None


@pytest.mark.parametrize("n_blocks", [1, 2, 3, 4, 60])
def test_dense_sums_match_enumeration(n_blocks):
    ratios = _dense(n_blocks, seed=n_blocks)
    sums = block_target_sums(ratios, np.square, n_blocks)
    old = [float(np.square(np.asarray(ratios.value_at(triangular_indices_1mod4(k) + 1))).sum())
           for k in range(1, n_blocks + 1)]
    _assert_rel(sums, old)


def test_uncovered_ratios_raise_the_same_error():
    short = constant_ratios(0.1, 10)
    dense = custom_ratios(np.full(55, 0.1))
    for ratios in (short, dense):
        for new, old in ((dissipativity_norm_sq, old_dissipativity_norm_sq),
                         (dissipativity_norm_onset, old_dissipativity_norm_onset)):
            with pytest.raises(ParameterError) as want:
                old(ratios, 10)
            with pytest.raises(ParameterError) as got:
                new(ratios, 10)
            assert str(got.value) == str(want.value)
    for new, old in ((dissipativity_norm_sq, old_dissipativity_norm_sq),
                     (dissipativity_norm_onset, old_dissipativity_norm_onset)):
        with pytest.raises(ParameterError) as want:
            old(short, 0)
        with pytest.raises(ParameterError) as got:
            new(short, 0)
        assert str(got.value) == str(want.value)
