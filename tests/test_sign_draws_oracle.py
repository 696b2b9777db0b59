"""``blockspace.SignDraws`` against the ``Generator`` methods it replaces.

The sampled Rademacher norm and the sampled unconditional constant used to
draw their signs with ``Generator.integers(0, 2)`` and ``Generator.choice([-1.0,
1.0])``, in one call or a row block at a time, and ``rad_norm`` numbered each
row's pattern as ``(draw @ (1 << np.arange(k))) >> 1``.  Those calls are the
oracles here: the sampler reads the same draws from the raw PCG64 stream and
must give them bit for bit, whatever row blocks it is asked for, also blocks
of an odd number of draws, whose last word's high half it carries into the
next block.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mrlab.blockspace import SignDraws
from mrlab.errors import ParameterError

SEEDS = range(5)
KS = range(1, 21)


# row counts of the blocks one draw is split into: an odd count of draws
# (m k odd) wherever k is odd, an empty block, and one large block
BLOCKS = [3, 1, 0, 5, 2, 257, 1]


def oracle_draws(seed, rows, k):
    return np.random.default_rng(seed).integers(0, 2, size=(rows, k))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", KS)
def test_row_blocks_give_one_integers_draw_and_one_choice_draw(seed, k):
    draws = SignDraws(np.random.default_rng(seed))
    got = np.concatenate([draws.signs(m, k) for m in BLOCKS])
    assert np.array_equal(got > 0.0, oracle_draws(seed, sum(BLOCKS), k) == 1)
    want = np.random.default_rng(seed).choice([-1.0, 1.0], size=(sum(BLOCKS), k))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", range(1, 18))
def test_pattern_numbers_are_the_draws_past_the_first(seed, k):
    draws = SignDraws(np.random.default_rng(seed))
    got = np.concatenate([draws.patterns(m, k) for m in BLOCKS])
    want = (oracle_draws(seed, sum(BLOCKS), k) @ (1 << np.arange(k))) >> 1
    assert np.array_equal(got, want)


def test_pattern_numbers_after_a_call_with_more_draws_a_row():
    # a shorter row after a longer one: its columns past k - 1 draws must read 0
    draws = SignDraws(np.random.default_rng(7))
    got = [draws.patterns(40, 14), draws.patterns(9, 3), draws.patterns(60, 14)]
    want = oracle_draws(7, 40 * 14 + 9 * 3 + 60 * 14, 1).ravel()
    rows = [want[:560].reshape(40, 14), want[560:587].reshape(9, 3), want[587:].reshape(60, 14)]
    for g, w in zip(got, rows):
        assert np.array_equal(g, (w @ (1 << np.arange(w.shape[1]))) >> 1)


def test_table_block_sizes_of_rad_norm():
    # rad_norm's table path asks for block_rows(k) rows a block, 21,845 at
    # k = 3, an odd count of draws
    draws = SignDraws(np.random.default_rng(11))
    got = np.concatenate([draws.patterns(21_845, 3), draws.patterns(1_000, 3)])
    want = (oracle_draws(11, 22_845, 3) @ np.array([1, 2, 4])) >> 1
    assert np.array_equal(got, want)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(hs.integers(0, 2 ** 64 - 1), hs.lists(hs.integers(0, 70), min_size=1, max_size=12))
def test_any_split_gives_one_draw(seed, counts):
    draws = SignDraws(np.random.default_rng(seed))
    got = np.concatenate([draws.signs(c, 1).ravel() for c in counts])
    want = np.random.default_rng(seed).integers(0, 2, size=sum(counts))
    assert np.array_equal(got > 0.0, want == 1)


@pytest.mark.parametrize("rng", [
    np.random.Generator(np.random.MT19937(0)),
    np.random.Generator(np.random.PCG64DXSM(0)),
    np.random.Generator(np.random.Philox(0)),
])
def test_refuses_other_bit_generators(rng):
    with pytest.raises(ParameterError, match="PCG64"):
        SignDraws(rng)


def test_refuses_a_generator_holding_a_half_word():
    rng = np.random.default_rng(0)
    rng.integers(0, 2, size=3)   # an odd count leaves the last word's high half held
    with pytest.raises(ParameterError, match="half word"):
        SignDraws(rng)


def test_a_used_generator_holding_no_half_word_goes_on_with_its_stream():
    rng, oracle = np.random.default_rng(3), np.random.default_rng(3)
    rng.integers(0, 2, size=4)
    want = oracle.integers(0, 2, size=4 + 25)[4:]
    assert np.array_equal(SignDraws(rng).signs(25, 1).ravel() > 0.0, want == 1)
