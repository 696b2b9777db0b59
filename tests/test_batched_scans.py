"""The batched positivity scan and sector probe against per-time and
per-trial loops kept here as oracles.

The oracles are the straightforward forms: one semigroup matrix per
time, one duality-map ascent per random start.  The batched forms must
reproduce them bit for bit, not merely to a tolerance.
"""

import cmath
import math
import types

import numpy as np
import pytest

from mrlab import cli, multiplier
from mrlab.blockspace import _NORMAL_MIN, BlockLayout, block_norms, bv_norm, mixed_norm
from mrlab.errors import ParameterError, SingularityError
from mrlab.multiplier import (
    TwistedMultiplier,
    opnorm_lower,
    positivity_check,
    sectoriality_probe,
)
from mrlab.sequences import MultiplierSeq, seq_from_ratios, twisted_lacunary
from mrlab.twistbasis import EVEN_TWIST, ODD_TWIST, PLAIN, TwistPermutation


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


def test_sector_probe_batches_across_rays_and_skips(monkeypatch):
    # radii on the spectrum with lam almost on the positive axis are
    # singular and skipped; batches of 2 rows split rays of 3 trials
    op = OPERATORS["odd-constant"]()
    gam = op.spectrum().real
    radii = np.array([0.5, gam[0], gam[3], 7.0])
    angles = [math.nextafter(math.pi, 0.0), 2.0]
    expect = probe_oracle(op, angles, radii, 3.0, 3, 1)
    monkeypatch.setattr(multiplier, "_PROBE_CELLS", 2 * op.layout.dim + 1)
    rep = sectoriality_probe(op, angles, radii, p=3.0, trials=3, seed=1)
    assert rep.skipped and rep.skipped == expect[2]
    assert bits(rep.lower) == bits(expect[0])
    assert bits(rep.bv_upper) == bits(expect[1])


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


def imaginary_power_symbol(op):
    return np.exp(1j * 2.0 * math.log(2.0) * op.seq.log2[: op.structure.needed])


def zeros_symbol(op):
    # exact zeros on every third index: zero entries give signed zeros in the
    # images, which a lam = 1 row must carry into the witness unchanged
    g = np.exp(1j * 0.7 * op.seq.log2[: op.structure.needed])
    return np.where(np.arange(g.size) % 3 == 0, 0.0, g)


def check_opnorm_lower(trials, cells, p, symbol, monkeypatch):
    op = OPERATORS["even-constant"]()
    if cells is not None:
        monkeypatch.setattr(multiplier, "_PROBE_CELLS", cells * op.layout.dim)
    g = symbol(op)
    sym = op.symbols(g)
    val, vec = opnorm_lower(op, g, p, trials=trials, seed=4)
    want, want_v = opnorm_oracle(lambda v: op._multiply(g, v),
                                 lambda u: op.adjoint_apply_symbols(*sym, u),
                                 op.layout, p, trials=trials, seed=4)
    assert bits(val) == bits(want)
    assert vec.tobytes() == want_v.tobytes()


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

    def counted_ascend(op, rows, p, witness):
        assert len(starts) == sum(batches)
        batches.append(len(rows))
        found = ascend(op, rows, p, witness)
        assert len(starts) == sum(batches)
        return found

    monkeypatch.setattr(multiplier, "_start", counted_start)
    monkeypatch.setattr(multiplier, "_ascend", counted_ascend)
    rep = sectoriality_probe(op, [math.nextafter(math.pi, 0.0), 1.0],
                             [0.5, gam[0], 7.0, 30.0], p=3.0, trials=3, seed=1)
    assert len(rep.skipped) == 1
    assert batches == [5, 5, 5, 5, 1]
    assert len(starts) == 3 * 7


def test_opnorm_lower_zero_operator_has_no_witness():
    op = OPERATORS["even-constant"]()
    zero = np.zeros(op.structure.needed)
    sym = op.symbols(zero)
    want = opnorm_oracle(lambda v: op.apply_symbols(*sym, v),
                         lambda u: op.adjoint_apply_symbols(*sym, u), op.layout, 2.0, trials=2)
    assert opnorm_lower(op, zero, 2.0, trials=2) == (0.0, None) == want


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


@pytest.mark.parametrize("witness", [False, True])
def test_ascent_batch_with_rows_stopping_at_different_steps(witness):
    # the stopped rows ride along at zero in the batch's fixed shape
    op = OPERATORS["even-constant"]()
    rows, want = mixed_rows(op)
    best, best_v = multiplier._ascend(op, rows, 3.0, witness)
    assert bits(best) == bits([val for val, _ in want])
    for k, (val, vec) in enumerate(want):
        assert (vec is None) == (val == 0.0)
        if witness and vec is not None:
            assert best_v[k].tobytes() == vec.tobytes()


@pytest.mark.parametrize("size", [1, 2, 3])
def test_ascents_with_stopped_rows_mid_batch_and_at_batch_edges(size, monkeypatch):
    # batches of 3 rows hold a zero row mid-batch (row 1), first (row 3) and
    # last (row 5); batches of 1 row stop every row of some batches
    op = OPERATORS["even-constant"]()
    monkeypatch.setattr(multiplier, "_PROBE_CELLS", size * op.layout.dim)
    rows, want = mixed_rows(op)
    vals = [val for val, _ in want]
    best, found = multiplier._ascents(op, rows, 3.0, witness=True)
    assert bits(best) == bits(vals)
    assert found.tobytes() == want[int(np.argmax(vals))][1].tobytes()
    rows = mixed_rows(op)[0]
    assert bits(multiplier._ascents(op, rows, 3.0)[0]) == bits(vals)
