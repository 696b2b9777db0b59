"""The batched positivity scan and sector probe against per-time and
per-trial loops kept here as oracles.

The oracles are the straightforward forms: one semigroup matrix per
time, one duality-map ascent per random start.  The batched forms must
reproduce them bit for bit, not merely to a tolerance.
"""

import cmath
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlab import cli, multiplier
from mrlab.blockspace import (_NORMAL_MIN, BlockLayout, block_norms, bv_norm, mixed_norm,
                              triangular_block_index)
from mrlab.errors import ParameterError, SingularityError
from mrlab.multiplier import (
    TwistedMultiplier,
    opnorm_lower,
    positivity_check,
    sectoriality_probe,
)
from mrlab.sequences import MultiplierSeq, seq_from_ratios, twisted_lacunary
from mrlab.twistbasis import EVEN_TWIST, ODD_TWIST, PLAIN, TwistPermutation

# the --gamma sources of the benchmark's operator scans
SCAN_GAMMAS = ("lacunary",
               "constant:0.001", "constant:0.004", "constant:0.02", "constant:0.1",
               "power:0.1", "power:0.2", "power:0.3", "power:0.45",
               "powerlog:0.1", "powerlog:0.2", "powerlog:0.3", "powerlog:0.45")


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def make_op(variant, seq_of_length, n_blocks=10):
    layout = BlockLayout.triangular(n_blocks)
    perm = TwistPermutation.covering(2 * layout.dim + 8)
    seq = seq_of_length(multiplier._structure(layout, perm, variant).needed + 4)
    return TwistedMultiplier(seq=seq, perm=perm, variant=variant, layout=layout)


def gamma_op(source, n):
    """The operator the CLI builds for ``--gamma source --n n``."""
    return cli._gamma_operator(types.SimpleNamespace(gamma=source, n=n))


# -- oracles ---------------------------------------------------------------


def positivity_oracle(op, t_grid):
    """One semigroup matrix per augmented time."""
    st = op.structure
    ts = np.asarray(t_grid, dtype=np.float64).ravel()
    log2 = op.seq.log2[: st.needed]
    finite = log2 < 600.0
    extra = []
    for hi, lo in zip(st.off_hi, st.off_lo):
        if finite[hi - 1] and finite[lo - 1]:
            a, b = np.exp2(log2[hi - 1]), np.exp2(log2[lo - 1])
            if a != b:
                extra.append(abs(math.log(b / a)) / abs(b - a))
    ts = np.unique(np.concatenate([ts, np.asarray(extra)])) if extra else np.unique(ts)
    best, arg_t, arg_col = np.inf, float("nan"), -1
    per_t = np.empty(ts.size)
    for i, t in enumerate(ts):
        diag, off = op.symbols(op._semigroup_values(float(t)))
        entries = np.concatenate([diag.real, off.real]) if off.size else diag.real
        per_t[i] = entries.min()
        if per_t[i] < best:
            best, arg_t = float(per_t[i]), float(t)
            cols = np.concatenate([np.arange(op.layout.dim), st.off_cols])
            arg_col = int(cols[np.argmin(entries)]) + 1
    monotone = bool(np.all(log2[st.off_hi - 1] <= log2[st.off_lo - 1]))
    return best, arg_t, arg_col, monotone, per_t, ts


def entry_minima_oracle(op, ts):
    """The live-prefix scan of every time (sorted, positive), as
    ``multiplier._entry_minima`` ran before its screen."""
    st, gamma = op.structure, op._gamma
    d_key = np.sort(gamma[st.diag_src - 1])
    hi, lo = gamma[st.off_hi - 1], gamma[st.off_lo - 1]
    order = np.argsort(np.minimum(hi, lo), kind="stable")
    hi, lo = hi[order], lo[order]
    o_key = np.minimum(hi, lo)

    out = np.empty(ts.size)
    i = 0
    while i < ts.size:
        with np.errstate(over="ignore"):
            cut = multiplier._EXP_DEAD / ts[i]
            nd = int(np.searchsorted(d_key, cut, side="right"))
            no = int(np.searchsorted(o_key, cut, side="right"))
            everything = nd + no == d_key.size + o_key.size
            rows = max(1, (1 << 15) // max(1, 2 * no + (nd if everything else 0)))
            t = -ts[i:i + rows, None]
            low = np.zeros(t.shape[0])
            if everything:
                low = np.exp(t * d_key).min(axis=1)
            if no:
                off = np.exp(t * hi[:no]) - np.exp(t * lo[:no])
                np.minimum(low, off.min(axis=1), out=low)
        out[i:i + low.size] = low
        i += low.size
    return out


def j_map_oracle(z, exponent, layout):
    bn = block_norms(z, layout)
    if not bn.any():
        return z
    safe = np.where(bn > 0.0, bn, 1.0)
    if exponent == math.inf:
        weights = np.where(bn == bn.max(), 1.0, 0.0)
        scale = np.where(bn > 0.0, weights / safe, 0.0)
        return z * np.repeat(scale, layout.sizes)
    with np.errstate(all="ignore"):
        scale = np.where(bn > 0.0, safe ** (exponent - 2.0), 0.0)
        if _NORMAL_MIN <= (bn * scale).max() < math.inf:
            return z * np.repeat(scale, layout.sizes)
    # the image's largest block norm leaves the normal range: the same
    # direction as (z / bn) (bn / peak)^(e - 1), block by block
    unit = np.empty_like(z)
    unit.real = z.real / np.repeat(safe, layout.sizes)
    unit.imag = z.imag / np.repeat(safe, layout.sizes)
    ratio = bn / bn.max()
    return unit * np.repeat(ratio ** (exponent - 1.0), layout.sizes)


def opnorm_oracle(apply_fn, adjoint_fn, layout, p, trials=4, iters=12, seed=0):
    """One ascent per trial on single vectors."""
    rng = np.random.default_rng(seed)
    best, best_v = 0.0, None
    for _ in range(max(1, trials)):
        v = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
        v /= mixed_norm(v, p, layout)
        q = 1.0 if p == math.inf else p / (p - 1.0)
        for _ in range(max(1, iters)):
            z = apply_fn(v)
            nz = mixed_norm(z, p, layout)
            if nz == 0.0:
                break
            if nz > best:
                best, best_v = float(nz), v.copy()
            w = adjoint_fn(j_map_oracle(z, p, layout))
            v_new = j_map_oracle(w, q, layout)
            nv = mixed_norm(v_new, p, layout)
            if nv == 0.0:
                break
            v = v_new / nv
        z = apply_fn(v)
        nz = mixed_norm(z, p, layout)
        if nz > best:
            best, best_v = float(nz), v.copy()
    return best, best_v


def probe_oracle(op, angles, radii, p, trials, seed):
    """(lower, bv_upper, skipped) with one ascent per ray and trial."""
    angles = np.asarray(angles, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    lower = np.zeros((angles.size, radii.size))
    bv_upper = np.zeros_like(lower)
    skipped = []
    for i, theta in enumerate(angles):
        for j, r in enumerate(radii):
            lam = r * cmath.exp(1j * (math.pi - theta))
            try:
                diag, off = op.symbols(op._resolvent_values(lam))
            except SingularityError:
                skipped.append((float(theta), float(r)))
                continue
            lam_diag, lam_off = lam * diag, lam * off
            lower[i, j], _ = opnorm_oracle(
                lambda v: lam * op.apply_symbols(diag, off, v),
                lambda u: op.adjoint_apply_symbols(lam_diag, lam_off, u),
                op.layout, p, trials=trials, seed=seed + 7 * i + j)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                symbol = lam / (lam - op._gamma)
            bv_upper[i, j] = bv_norm(np.where(np.isfinite(symbol), symbol, 0.0))
    return lower, bv_upper, tuple(skipped)


# -- positivity ------------------------------------------------------------

OPERATORS = {
    "plain-constant": lambda: make_op(PLAIN, lambda n: seq_from_ratios(np.full(n - 1, 0.1))),
    "even-constant": lambda: make_op(EVEN_TWIST, lambda n: seq_from_ratios(np.full(n - 1, 0.3))),
    "odd-constant": lambda: make_op(ODD_TWIST, lambda n: seq_from_ratios(np.full(n - 1, 0.3))),
    "odd-lacunary": lambda: make_op(ODD_TWIST, twisted_lacunary),
    "even-decreasing": lambda: make_op(
        EVEN_TWIST, lambda n: MultiplierSeq("custom", np.log2(np.linspace(5.0, 1.0, n)))),
    "cli-constant": lambda: gamma_op("constant:0.001", 700),
    "cli-power": lambda: gamma_op("power:0.45", 700),
    "cli-powerlog": lambda: gamma_op("powerlog:0.2", 400),
    "cli-lacunary-inf": lambda: gamma_op("lacunary", 1200),   # gamma overflows to inf
}

GRIDS = {
    "pow2": 2.0 ** np.arange(-10, 11),
    "with-zero": np.array([0.0, 1e-3, 1.0]),
    "extremes": np.array([0.0, 5e-324, 1e-300, 1e300, np.inf]),
}


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_positivity_scan_matches_per_time_loop(name, grid):
    op = OPERATORS[name]()
    best, arg_t, arg_col, monotone, per_t, ts = positivity_oracle(op, GRIDS[grid])
    rep = positivity_check(op, GRIDS[grid])
    assert bits(rep.t_grid) == bits(ts)
    assert bits(rep.per_t_min) == bits(per_t)
    assert bits([rep.min_entry, rep.argmin_t]) == bits([best, arg_t])
    assert (rep.argmin_col, rep.monotone_pairs) == (arg_col, monotone)


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_positivity_scan_refuses_nan_times(name):
    # NaN passed the check ts < 0 and was scanned as a time
    with pytest.raises(ParameterError, match="the time grid must be nonempty and nonnegative"):
        positivity_check(OPERATORS[name](), np.append(GRIDS["extremes"], np.nan))


@pytest.mark.parametrize("tgrid", ["nan", "1,nan"])
def test_semigroup_check_refuses_nan_times(tgrid, capsys):
    # --tgrid nan exited 0 with a row at t nan and a minimum of 0 at t nan
    assert cli.main(["semigroup-check", "--tgrid", tgrid, "--n", "5"]) == 1
    assert capsys.readouterr() == ("", "error: the time grid must be nonempty and nonnegative\n")


def test_lacunary_case_has_infinite_gamma():
    assert np.isinf(OPERATORS["cli-lacunary-inf"]()._gamma).any()


def test_positivity_scan_small_blocks(monkeypatch):
    # blocks of a few cells split the times every few rows
    op = OPERATORS["cli-power"]()
    expect = positivity_oracle(op, GRIDS["pow2"])[4]
    monkeypatch.setattr(multiplier, "_SCAN_CELLS", 7)
    assert bits(positivity_check(op, GRIDS["pow2"]).per_t_min) == bits(expect)


# -- the screened scan ------------------------------------------------------


def scanned_times(rep):
    """The times of a positivity report that _entry_minima scans: 0 < t < inf."""
    return (rep.t_grid > 0.0) & (rep.t_grid < np.inf)


@pytest.mark.parametrize("gamma, n", [
    *[(g, n) for g in SCAN_GAMMAS for n in (500, 2639, 8000)],
    ("constant:0.001", 20100),
])
def test_screened_scan_matches_the_prefix_scan(gamma, n):
    op = gamma_op(gamma, n)
    rep = positivity_check(op, GRIDS["pow2"])
    ts = rep.t_grid[scanned_times(rep)]
    assert bits(rep.per_t_min[scanned_times(rep)]) == bits(entry_minima_oracle(op, ts))


# per block, the step of log2 gamma from each index to the next: equal
# values, near-equal ones (as constant:1e-13 has), increasing and
# decreasing pairs; slow growth keeps many pairs alive at once
LOG2_STEPS = [0.0, 1.4e-13, -1.4e-13, 1e-3, 1e-3, 6e-3, 6e-3, 0.05, -0.05, 0.4, -0.7, 2.0]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(steps=st.lists(st.sampled_from(LOG2_STEPS), min_size=40, max_size=40),
       start=st.sampled_from([-30.0, 0.0, 12.0]),
       overflow=st.sampled_from([None, 28, 34]),
       times=st.lists(st.floats(1e-300, 1e300), max_size=4),
       cells=st.sampled_from([64, 1024, 1 << 15]),
       run=st.sampled_from([2, 3, 16]))
def test_screened_scan_matches_per_time_loop_on_block_constant_ratios(steps, start, overflow,
                                                                      times, cells, run):
    # gamma_{m+1} / gamma_m is one constant on each triangular block of m,
    # as in the ratio families, with pairs across block edges, and from the
    # block ``overflow`` on gamma leaves the float range; small blocks and
    # runs send even these few pairs through the screen
    if overflow is not None:
        steps = steps[:overflow] + [40.0] * (len(steps) - overflow)

    def seq(length):
        m = np.arange(1, length)
        step = np.asarray(steps)[triangular_block_index(m) % len(steps)]
        return MultiplierSeq("custom", start + np.concatenate(([0.0], np.cumsum(step))))

    op = make_op(EVEN_TWIST, seq, n_blocks=30)
    grid = np.array([0.0, 5e-324, np.inf, *times])
    best, arg_t, arg_col, monotone, per_t, ts = positivity_oracle(op, grid)
    with mock.patch.object(multiplier, "_SCAN_CELLS", cells), \
            mock.patch.object(multiplier, "_SCREEN_RUN", run):
        rep = positivity_check(op, grid)
    assert bits(rep.t_grid) == bits(ts)
    assert bits(rep.per_t_min) == bits(per_t)
    assert bits([rep.min_entry, rep.argmin_t]) == bits([best, arg_t])
    assert (rep.argmin_col, rep.monotone_pairs) == (arg_col, monotone)


def test_screen_reads_a_pair_with_one_infinite_value_at_every_time():
    # at t = 2^-10 the peak is a run of pairs at 2^10 with ratio 1e-3, the
    # pairs from 2^11 to 2^12.9 differ by about 1e-13, and the pair (904,
    # 903), 904 past the float range, reads -e^{-t 2^12.9}: the smallest
    # entry, more than a band away from the peak and left out of the edge
    # bounds, so only its run's evaluation at every time finds it
    def seq(length):
        i = np.arange(1, length + 1)
        p = (i + 1) // 4   # pair p couples 4p - 1 and 4p
        log2 = np.where(p <= 100, 9.9 * p / 100,
                        np.where(p <= 120, 10.0, 11.0 + 1.9 * (p - 121) / 104))
        log2 += np.where((p > 100) & (p <= 120), 1.44e-3, 1.4e-13) * (i % 4 == 0)
        log2[i >= 904] = 2000.0
        return MultiplierSeq("custom", log2)

    op = make_op(EVEN_TWIST, seq, n_blocks=45)
    grid = np.array([2.0 ** -10])
    per_t, ts = positivity_oracle(op, grid)[4:]
    with mock.patch.object(multiplier, "_SCAN_CELLS", 1024):
        rep = positivity_check(op, grid)
    assert bits(rep.per_t_min) == bits(per_t)
    assert per_t[np.searchsorted(ts, 2.0 ** -10)] < -5e-4


@pytest.mark.parametrize("gamma", ["constant:0.001", "power:0.45", "lacunary"])
def test_screen_leaves_the_prefix_scan_only_times_with_few_live_pairs(gamma, monkeypatch):
    # a screen that silently sent every time to the live-prefix scan would
    # be exact, and quadratic in the pairs again
    op = gamma_op(gamma, 8000)
    sent = []
    prefix = multiplier._prefix_minima

    def counted(d_key, hi, lo, ts):
        sent.append(np.searchsorted(np.minimum(hi, lo), multiplier._EXP_DEAD / ts, side="right"))
        return prefix(d_key, hi, lo, ts)

    monkeypatch.setattr(multiplier, "_prefix_minima", counted)
    scanned = np.count_nonzero(scanned_times(positivity_check(op, GRIDS["pow2"])))
    live = np.concatenate(sent)
    if gamma == "lacunary":   # no pair increases: no entry is negative, nothing to screen
        assert live.size == scanned
    else:
        assert live.size <= scanned // 20
        assert np.all(live <= 4 * multiplier._SCREEN_RUN)


def test_exp_is_within_the_screens_error_at_this_dispatch():
    # the screen's bound takes np.exp to be within _SCREEN_EXP_ERR of e^x
    # where that is normal, and within 2^-1070 below; math.exp (libm) is
    # within an ulp, so 2^-48 leaves room for both
    x = np.concatenate([np.linspace(-745.0, 0.0, 200_001), -np.geomspace(1e-300, 745.0, 20_001)])
    got, want = np.exp(x), np.array([math.exp(v) for v in x.tolist()])
    normal = want >= _NORMAL_MIN
    assert np.all(np.abs(got - want)[normal] <= multiplier._SCREEN_EXP_ERR / 16 * want[normal])
    assert np.all(np.abs(got - want)[~normal] <= 2.0 ** -1070)


# -- sector probe ------------------------------------------------------------

DEFAULT_ANGLES = [0.5, 1.0, math.pi / 2]
DEFAULT_RADII = np.geomspace(1.0, 1e6, 7)


@pytest.mark.parametrize("source, n, p, trials, seed", [
    ("power:0.25", 64, 2.5, 3, 0),
    ("lacunary", 64, 1.5, 2, 5),
    ("constant:0.01", 120, 6.0, 4, 2),
    ("lacunary", 300, math.inf, 3, 0),
])
def test_sector_probe_matches_per_trial_loop(source, n, p, trials, seed):
    op = gamma_op(source, n)
    lower, bv_upper, skipped = probe_oracle(op, DEFAULT_ANGLES, DEFAULT_RADII, p, trials, seed)
    rep = sectoriality_probe(op, DEFAULT_ANGLES, DEFAULT_RADII, p=p, trials=trials, seed=seed)
    assert bits(rep.lower) == bits(lower)
    assert bits(rep.bv_upper) == bits(bv_upper)
    assert rep.skipped == skipped


@pytest.mark.parametrize("source, n", [("power:0.25", 64), ("lacunary", 64),
                                       ("constant:0.01", 120)])
@pytest.mark.parametrize("p", [1.001, 1000.0])
def test_sector_probe_matches_per_trial_loop_at_extreme_exponents(source, n, p):
    # at one of the exponents p and q the duality map's weights leave the
    # float range, and _j_map weighs those rows again into its output buffer
    op = gamma_op(source, n)
    lower, bv_upper, skipped = probe_oracle(op, DEFAULT_ANGLES, DEFAULT_RADII, p, 3, 0)
    rep = sectoriality_probe(op, DEFAULT_ANGLES, DEFAULT_RADII, p=p, trials=3, seed=0)
    assert bits(rep.lower) == bits(lower)
    assert bits(rep.bv_upper) == bits(bv_upper)


@pytest.mark.parametrize("rows", [1, 17])
def test_sector_probe_splits_rays_across_batches(rows, monkeypatch):
    # rays of 5 trials over batches of one row, and over batches of 17 rows
    # of 1035 coordinates: 275 KiB a buffer, past the 256 KiB from which
    # numpy reuses a temporary operand and would swap complex products
    op = TwistedMultiplier.covering(1000, "lacunary")
    angles, radii = [1.0, 2.0], [1.0, 1e3, 1e6]
    lower, bv_upper, _ = probe_oracle(op, angles, radii, 3.0, 5, 2)
    monkeypatch.setattr(multiplier, "_PROBE_CELLS", rows * op.layout.dim)
    assert rows * op.layout.dim * 16 > 1 << 18 or rows == 1
    rep = sectoriality_probe(op, angles, radii, p=3.0, trials=5, seed=2)
    assert bits(rep.lower) == bits(lower)
    assert bits(rep.bv_upper) == bits(bv_upper)


def test_sector_probe_batches_across_rays_and_skips(monkeypatch, name="odd-constant"):
    # radii on the spectrum with lam almost on the positive axis are
    # singular and skipped; batches of 2 rows split rays of 3 trials
    op = OPERATORS[name]()
    gam = op.spectrum().real
    radii = np.array([0.5, gam[0], gam[3], 7.0])
    angles = [math.nextafter(math.pi, 0.0), 2.0]
    expect = probe_oracle(op, angles, radii, 3.0, 3, 1)
    monkeypatch.setattr(multiplier, "_PROBE_CELLS", 2 * op.layout.dim + 1)
    rep = sectoriality_probe(op, angles, radii, p=3.0, trials=3, seed=1)
    assert rep.skipped and rep.skipped == expect[2]
    assert bits(rep.lower) == bits(expect[0])
    assert bits(rep.bv_upper) == bits(expect[1])


def test_sector_probe_batches_across_rays_and_skips_without_coupling_entries(monkeypatch):
    # the plain variant couples no pair: the ascent's gather and scatter run
    # on empty positions, with no guard around them
    assert OPERATORS["plain-constant"]().structure.off_rows.size == 0
    test_sector_probe_batches_across_rays_and_skips(monkeypatch, name="plain-constant")


def test_sector_probe_large_batch(monkeypatch):
    # one batch of 63 rows at dim 1035: the adjoint's conjugated symbols
    # pass the 256 KiB at which numpy reuses a temporary operand and would
    # swap the operands of the complex products
    op = TwistedMultiplier.covering(1000, "lacunary")
    monkeypatch.setattr(multiplier, "_PROBE_CELLS", 1 << 17)
    assert 63 * op.layout.dim > 1 << 14
    angles, radii = [1.0], [1.0, 1e3, 1e6]
    lower = probe_oracle(op, angles, radii, 4.0, 21, 3)[0]
    rep = sectoriality_probe(op, angles, radii, p=4.0, trials=21, seed=3)
    assert bits(rep.lower) == bits(lower)


@pytest.mark.parametrize("p", [2.0, 6.0])
def test_sector_probe_matches_per_trial_loop_at_the_pools_largest_size(p):
    # n = 2,000, the largest probe of the benchmark's operator scans: batches
    # of 8 rows, and the ray symbols formed 3 rays a chunk
    op = gamma_op("lacunary", 2000)
    assert multiplier._PROBE_CELLS // op.layout.dim // 3 + 1 == 3
    lower, bv_upper, skipped = probe_oracle(op, DEFAULT_ANGLES, DEFAULT_RADII, p, 3, 0)
    rep = sectoriality_probe(op, DEFAULT_ANGLES, DEFAULT_RADII, p=p, trials=3, seed=0)
    assert bits(rep.lower) == bits(lower)
    assert bits(rep.bv_upper) == bits(bv_upper)
    assert rep.skipped == skipped == ()


def test_sector_probe_chunks_rays_with_singular_ones_inside_and_at_the_edges(monkeypatch):
    # chunks of 3 ray symbols; rays 1, 3 and 5 of 12 are singular: mid-chunk,
    # first in its chunk and last in it
    op = OPERATORS["odd-constant"]()
    gam = op.spectrum().real
    angles = [math.nextafter(math.pi, 0.0), 2.0]
    radii = np.array([0.5, gam[0], 7.0, gam[3], 30.0, gam[5]])
    expect = probe_oracle(op, angles, radii, 3.0, 3, 1)
    monkeypatch.setattr(multiplier, "_PROBE_CELLS", 2 * 3 * op.layout.dim)
    chunks = []
    values = multiplier.TwistedMultiplier._resolvent_values

    def counted(self, lam, *args):
        chunks.append(np.shape(lam)[0])
        return values(self, lam, *args)

    monkeypatch.setattr(multiplier.TwistedMultiplier, "_resolvent_values", counted)
    rep = sectoriality_probe(op, angles, radii, p=3.0, trials=3, seed=1)
    assert chunks == [3, 3, 3, 3]
    assert rep.skipped == expect[2] and len(rep.skipped) == 3
    assert np.flatnonzero((rep.lower == 0.0).ravel()).tolist() == [1, 3, 5]
    assert bits(rep.lower) == bits(expect[0])
    assert bits(rep.bv_upper) == bits(expect[1])


@pytest.mark.parametrize("cells", [None, 1])
def test_sector_probe_ray_past_2_500_after_a_singular_one(cells, capsys, monkeypatch):
    # ray 0 is singular, ray 2 past 2^500: in one chunk, and a ray a chunk;
    # the per-ray loop ends in the same ParameterError
    argv = ["sector-probe", "--n", "10", "--angles", "3.1415926535897927",
            "--radii", "4,1,1e200"]
    op = gamma_op("lacunary", 10)
    with pytest.raises(ParameterError) as want:
        probe_oracle(op, [3.1415926535897927], [4.0, 1.0, 1e200], 4.0, 3, 0)
    if cells is not None:
        monkeypatch.setattr(multiplier, "_PROBE_CELLS", cells)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {want.value}\n"


def test_square_is_the_product_bit_for_bit_on_strided_views():
    # _block_norms squares the strided real and imaginary views of the
    # iterates with np.square, which must read x * x bit for bit
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, _NORMAL_MIN, 1e-162, 1.5e-154, 1.4e154,
               1e300, math.inf, -math.inf, math.nan, -math.nan, 1.0, -1.0]
    scaled = rng.standard_normal(4000) * 2.0 ** rng.integers(-1074, 1024, 4000)
    parts = np.concatenate([special * 8, scaled])
    z = np.empty((3, parts.size), dtype=np.complex128)
    for row in z:
        row.real, row.imag = rng.permutation(parts), rng.permutation(parts)
    with np.errstate(over="ignore", under="ignore"):
        for view in (z.real, z.imag, z[:, ::3].imag, z[1].real):
            assert bits(np.square(view)) == bits(view * view)
            sq = np.empty(view.shape)
            np.square(view, out=sq)
            assert bits(sq) == bits(np.multiply(view, view))


def imaginary_power_symbol(op):
    return np.exp(1j * 2.0 * math.log(2.0) * op.seq.log2[: op.structure.needed])


def zeros_symbol(op):
    # exact zeros on every third index: zero entries give signed zeros in the
    # images, which no norm of a lam = 1 row may read
    g = np.exp(1j * 0.7 * op.seq.log2[: op.structure.needed])
    return np.where(np.arange(g.size) % 3 == 0, 0.0, g)


def check_opnorm_lower(trials, cells, p, symbol, monkeypatch, name="even-constant"):
    op = OPERATORS[name]()
    if cells is not None:
        monkeypatch.setattr(multiplier, "_PROBE_CELLS", cells * op.layout.dim)
    g = symbol(op)
    sym = op.symbols(g)
    val = opnorm_lower(op, g, p, trials=trials, seed=4)
    want, _ = opnorm_oracle(lambda v: op._multiply(g, v),
                            lambda u: op.adjoint_apply_symbols(*sym, u),
                            op.layout, p, trials=trials, seed=4)
    assert type(val) is float and bits(val) == bits(want)


TRIALS_CELLS = [(3, None), (5, 2), (1, None)]


@pytest.mark.parametrize("trials, cells", TRIALS_CELLS)
def test_opnorm_lower_matches_per_trial_loop(trials, cells, monkeypatch):
    check_opnorm_lower(trials, cells, 2.5, imaginary_power_symbol, monkeypatch)


@pytest.mark.parametrize("p, symbol", [
    (1.001, imaginary_power_symbol), (1.5, imaginary_power_symbol),
    (1000.0, imaginary_power_symbol), (math.inf, imaginary_power_symbol),
    (1.5, zeros_symbol), (2.5, zeros_symbol), (math.inf, zeros_symbol),
])
@pytest.mark.parametrize("trials, cells", TRIALS_CELLS)
def test_opnorm_lower_matches_per_trial_loop_at_edge_exponents_and_zeros(
        trials, cells, p, symbol, monkeypatch):
    check_opnorm_lower(trials, cells, p, symbol, monkeypatch)


@pytest.mark.parametrize("p, symbol", [
    (2.5, imaginary_power_symbol), (1.001, imaginary_power_symbol),
    (math.inf, imaginary_power_symbol), (1.5, zeros_symbol),
])
@pytest.mark.parametrize("trials, cells", TRIALS_CELLS)
def test_opnorm_lower_matches_per_trial_loop_without_coupling_entries(
        trials, cells, p, symbol, monkeypatch):
    # the plain variant couples no pair: the ascent's gather and scatter
    # run on empty positions, with no guard around them
    assert OPERATORS["plain-constant"]().structure.off_rows.size == 0
    check_opnorm_lower(trials, cells, p, symbol, monkeypatch, name="plain-constant")


def test_sector_probe_draws_at_most_one_batch_ahead(monkeypatch):
    # the CLI bounds --trials x dim by the rows one batch holds: every batch
    # takes at most _PROBE_CELLS // dim rows, and no start is drawn before
    # the batch that runs it
    op = OPERATORS["odd-constant"]()
    gam = op.spectrum().real
    monkeypatch.setattr(multiplier, "_PROBE_CELLS", 5 * op.layout.dim + 1)
    starts, batches = [], []
    start, ascend = multiplier._start, multiplier._ascend

    def counted_start(rng, out):
        starts.append(out.size)
        return start(rng, out)

    def counted_ascend(op, rows, p):
        assert len(starts) == sum(batches)
        batches.append(len(rows))
        found = ascend(op, rows, p)
        assert len(starts) == sum(batches)
        return found

    monkeypatch.setattr(multiplier, "_start", counted_start)
    monkeypatch.setattr(multiplier, "_ascend", counted_ascend)
    rep = sectoriality_probe(op, [math.nextafter(math.pi, 0.0), 1.0],
                             [0.5, gam[0], 7.0, 30.0], p=3.0, trials=3, seed=1)
    assert len(rep.skipped) == 1
    assert batches == [5, 5, 5, 5, 1]
    assert len(starts) == 3 * 7


def test_opnorm_lower_of_the_zero_operator_is_zero():
    op = OPERATORS["even-constant"]()
    zero = np.zeros(op.structure.needed)
    sym = op.symbols(zero)
    want, _ = opnorm_oracle(lambda v: op.apply_symbols(*sym, v),
                            lambda u: op.adjoint_apply_symbols(*sym, u), op.layout, 2.0, trials=2)
    assert bits(opnorm_lower(op, zero, 2.0, trials=2)) == bits(want) == bits(0.0)


# (lam, symbol, scale, seed) rows of one batch, and where the oracle stops
# each: the zero symbol and lam = 0 at the first image; the scales 1e-150
# and 1e-154 at the first and the eleventh iterate, whose adjoint image
# underflows to zero; the others never
MIXED_ROWS = [
    (0.7 - 0.2j, imaginary_power_symbol, 1.0, 1),
    (0.7 - 0.2j, imaginary_power_symbol, 0.0, 2),
    (0.7 - 0.2j, imaginary_power_symbol, 1e-154, 3),
    (1.1 + 0.5j, zeros_symbol, 0.0, 4),
    (0.7 - 0.2j, imaginary_power_symbol, 1e-150, 5),
    (0.0, zeros_symbol, 1.0, 6),
    (-0.3 + 0.9j, zeros_symbol, 1.0, 7),
]
MIXED_ADJOINTS = [12, 0, 11, 0, 1, 0, 12]   # the oracle's adjoint steps per row


def mixed_rows(op):
    """The (lam, diag, off, rng) rows of MIXED_ROWS, each with its own
    generator, and the per-trial oracle's (best, witness) of each."""
    rows, want, adjoints = [], [], []
    for lam, symbol, scale, seed in MIXED_ROWS:
        diag, off = op.symbols(symbol(op) * scale)
        lam_diag, lam_off = lam * diag, lam * off

        def adjoint(u, diag=lam_diag, off=lam_off):
            adjoints[-1] += 1
            return op.adjoint_apply_symbols(diag, off, u)

        adjoints.append(0)
        want.append(opnorm_oracle(lambda v, lam=lam, diag=diag, off=off:
                                  lam * op.apply_symbols(diag, off, v),
                                  adjoint, op.layout, 3.0, trials=1, seed=seed))
        rows.append((lam, diag, off, np.random.default_rng(seed)))
    assert adjoints == MIXED_ADJOINTS
    return rows, want


def test_ascent_batch_with_rows_stopping_at_different_steps():
    # the stopped rows ride along at zero in the batch's fixed shape
    op = OPERATORS["even-constant"]()
    rows, want = mixed_rows(op)
    assert bits(multiplier._ascend(op, rows, 3.0)) == bits([val for val, _ in want])


@pytest.mark.parametrize("size", [1, 2, 3])
def test_ascents_with_stopped_rows_mid_batch_and_at_batch_edges(size, monkeypatch):
    # batches of 3 rows hold a zero row mid-batch (row 1), first (row 3) and
    # last (row 5); batches of 1 row stop every row of some batches
    op = OPERATORS["even-constant"]()
    monkeypatch.setattr(multiplier, "_PROBE_CELLS", size * op.layout.dim)
    rows, want = mixed_rows(op)
    assert bits(multiplier._ascents(op, rows, 3.0)) == bits([val for val, _ in want])
