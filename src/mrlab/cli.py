"""Batch experiment runner.

Every capability is a subcommand with reproducible configuration:
the seed is always echoed to the output header, numeric output is
deterministic for a fixed configuration and seed, series go to CSV and
nested reports to JSON (UTF-8, LF, '.' decimals).  Exit codes: 0 on
success, 1 on usage or I/O errors, 2 when a guaranteed invariant fails.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .acceptance import run_all
from .blockspace import EXACT_TERM_LIMIT, BlockLayout, triangular_end
from .certify import (
    OVERLAP_BLOCKS,
    IntervalSpec,
    diagonal_norm,
    dissipativity_norm_onset,
    dissipativity_witness,
    mr_predicate,
    plan_interval,
)
from .errors import InvariantViolation, LabError, ParameterError
from .multiplier import (
    TwistedMultiplier,
    bip_pair_ratios,
    bv_semigroup_bound,
    positivity_check,
    sectoriality_probe,
)
from .rademacher import RadSum, blowup_series, rad_norm
from .sequences import CONSTANT, LACUNARY, POWER, POWERLOG, family_ratios, family_seq
from .twistbasis import basis_layout, build_permutation, unconditional_constant

_LN2 = math.log(2.0)
_ROW_BLOCK = 1024   # table rows converted and written at a time
_GRID_POINTS = 10 ** 6   # most points a generated grid may hold
_TRUNCATION_DIM = 2 * 10 ** 7   # most coordinates a triangular truncation may hold
_ARRAY_ENTRIES = 10 ** 7   # most entries of the largest array a flag sizes


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage errors and flag suggestions."""

    def error(self, message):
        if "unrecognized arguments" in message:
            bad = message.split(":", 1)[1].strip().split()
            options = set()
            for action in self._actions:
                options.update(action.option_strings)
            for sub in getattr(self, "_mrlab_subparsers", {}).values():
                for action in sub._actions:
                    options.update(action.option_strings)
            hints = []
            for b in bad:
                close = difflib.get_close_matches(b, sorted(options), n=1)
                if close:
                    hints.append(f"{b} -> did you mean {close[0]}?")
            if hints:
                message += "  (" + "; ".join(hints) + ")"
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


_ROWS = "\x00rows"   # stands where the rows go in a JSON report's fixed part
_BOOL_TEXT = np.array(["false", "true"], dtype=object)   # object: no new str per cell


def _cell_values(column, fmt):
    """A block of one column as the values its % conversion reads: bools as
    true/false and, in JSON, strings quoted and NaN, +inf and -inf as null,
    Infinity and -Infinity."""
    kind = column.dtype.kind
    if kind == "b":
        return _BOOL_TEXT[column.astype(np.intp)].tolist()
    values = column.tolist()
    if fmt == "json" and kind == "U":
        return [json.dumps(v) for v in values]
    if fmt == "json" and kind == "f":
        for i in np.flatnonzero(~np.isfinite(column)).tolist():
            values[i] = ("null" if math.isnan(values[i])
                         else "Infinity" if values[i] > 0 else "-Infinity")
    return values


def _conversion(column, fmt):
    """The % conversion of a column's cells: %.17g for CSV floats, else %s of
    what _cell_values gives (an int's digits, a JSON float's repr)."""
    return "%.17g" if fmt == "csv" and column.dtype.kind == "f" else "%s"


def _fmt(x):
    """A header value, written as the one cell of a CSV column."""
    column = np.atleast_1d(x)
    return _conversion(column, "csv") % tuple(_cell_values(column, "csv"))


class _Out:
    def __init__(self, path):
        self.path = path

    def __enter__(self):
        if self.path in (None, "-"):
            self.fh = sys.stdout
            self._close = False
        else:
            try:
                self.fh = open(self.path, "w", encoding="utf-8", newline="\n")
            except OSError as exc:
                raise ParameterError(f"cannot write {self.path}: {exc}") from None
            self._close = True
        return self.fh

    def __exit__(self, *exc):
        if self._close:
            self.fh.close()


def _config(args):
    return {k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "out", "config") and v is not None}


def _meta(args, command):
    """The ``meta`` object of a JSON report."""
    return {"tool": f"mrlab {__version__}",
            "schema": f"mrlab/{command}/v1",
            "seed": args.seed,
            "config": {k: str(v) for k, v in _config(args).items()}}


def _emit(args, command, columns, arrays, extra=(), report=None):
    """Write column arrays as a CSV table or a JSON report, per --format.

    Each cell is written by its column's dtype through one % template per
    row, _ROW_BLOCK rows at a time; a scalar stands for a one-row column.
    CSV carries a # header with ``extra`` as its last lines.  A JSON report
    is ``report`` dumped with _ROWS where the rows go, the rows as objects
    keyed by column; by default it is meta (with ``extra`` as notes),
    columns and rows, the rows as lists.
    """
    arrays = [np.atleast_1d(a) for a in arrays]
    fmt = args.format
    cells = [_conversion(a, fmt) for a in arrays]
    n = len(arrays[0])
    if fmt == "csv":
        head = "".join([f"# mrlab {__version__}\n", f"# schema mrlab/{command}/v1\n",
                        f"# seed {args.seed}\n",
                        f"# config {json.dumps(_config(args), sort_keys=True, default=str)}\n",
                        *[f"# {line}\n" for line in extra], ",".join(columns) + "\n"])
        row, sep, tail = ",".join(cells) + "\n", "", ""
    else:
        if report is None:
            report = {"meta": {**_meta(args, command), "notes": list(extra)},
                      "columns": list(columns), "rows": _ROWS}
            ends = "[]"
        else:
            cells = [json.dumps(c).replace("%", "%%") + ": " + cell
                     for c, cell in zip(columns, cells)]
            ends = "{}"
        # the rows sit two levels deep, under a top-level key
        row = f"    {ends[0]}\n      " + ",\n      ".join(cells) + f"\n    {ends[1]}"
        head, _, tail = json.dumps(report, indent=2).rpartition(json.dumps(_ROWS))
        opening, closing = ("[\n", "\n  ]") if n else ("[", "]")   # as json.dump writes []
        head, sep, tail = head + opening, ",\n", closing + tail + "\n"
    block = sep.join([row] * _ROW_BLOCK)
    with _Out(args.out) as fh:
        fh.write(head)
        for i in range(0, n, _ROW_BLOCK):
            part = [_cell_values(a[i:i + _ROW_BLOCK], fmt) for a in arrays]
            template = block if len(part[0]) == _ROW_BLOCK else sep.join([row] * len(part[0]))
            values = tuple(itertools.chain.from_iterable(zip(*part)))   # row-major
            fh.write((sep if i else "") + template % values)
        fh.write(tail)


def _grid_points(n):
    if not 1 <= n <= _GRID_POINTS:
        raise ParameterError(f"a grid takes 1 to {_GRID_POINTS} points, not {n:.7g}")
    return n


def _truncation_blocks(n_blocks):
    """n_blocks, refused before anything is built when blocks 1..n_blocks
    hold more than _TRUNCATION_DIM coordinates."""
    dim = triangular_end(n_blocks)
    if dim > _TRUNCATION_DIM:
        raise ParameterError(f"a truncation takes at most {_TRUNCATION_DIM} coordinates, "
                             f"not {dim}")
    return n_blocks


def _array_entries(flags, entries):
    """Refuse, before anything is built, flag values whose largest array
    would hold more than _ARRAY_ENTRIES entries."""
    if entries > _ARRAY_ENTRIES:
        raise ParameterError(f"{flags} asks for an array of {entries} entries; "
                             f"at most {_ARRAY_ENTRIES} are allowed")


def _seed(text):
    """The seed of --seed, MRLAB_SEED or a config: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ParameterError(f"a seed (--seed, MRLAB_SEED or config) is a non-negative "
                             f"integer, not {text!r}")
    return seed


def _parse_grid(text):
    """Comma list of floats, or pow2:a:b for 2^a .. 2^b, or geom:a:b:n."""
    try:
        if text.startswith("pow2:"):
            a, b = (int(x) for x in text.split(":")[1:])
            n = _grid_points(b - a + 1)
            if a < -1074 or b > 1023:   # 2^a or 2^b is no float64 number
                raise ValueError(text)
            return 2.0 ** np.arange(a, a + n)
        if text.startswith("geom:"):
            _, a, b, n = text.split(":")
            a, b = float(a), float(b)
            if (a < 0.0) != (b < 0.0):   # like a zero endpoint, no geometric grid joins them
                raise ValueError(text)
            return np.geomspace(a, b, _grid_points(int(n)))
        return np.array([float(x) for x in text.split(",")])
    except LabError:
        raise
    except ValueError:
        raise ParameterError(f"cannot read grid {text!r}; expected a comma list, "
                             f"pow2:a:b or geom:a:b:n") from None


def _parse_ints(text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ParameterError(f"cannot read {text!r} as a comma list of integers") from None


def _family(args):
    """The --family flag with its parameter: --value for constant, else --alpha."""
    return args.family, args.value if args.family == CONSTANT else args.alpha


def _gamma_operator(args):
    """The operator of --gamma (lacunary | power:A | powerlog:A | constant:C) at --n;
    a constant C may take any value in (0, 1/2)."""
    # the covering permutation of the layout holding --n has at most 2 n + 8 entries
    _array_entries(f"--n {args.n}", 2 * args.n + 8)
    if args.gamma == LACUNARY:
        return TwistedMultiplier.covering(args.n, LACUNARY)
    kind, _, value = args.gamma.partition(":")
    try:
        value = float(value)
    except ValueError:
        value = None
    if value is None or kind not in (POWER, POWERLOG, CONSTANT):
        raise ParameterError(f"cannot read gamma source {args.gamma!r}; expected "
                             f"lacunary, power:A, powerlog:A or constant:C")
    return TwistedMultiplier.covering(args.n, kind, value,
                                      bound=0.5 if kind == CONSTANT else 0.125)


# -- subcommands --------------------------------------------------------------


def cmd_gen_gamma(args):
    if args.n < 1:
        raise ParameterError("--n must be at least 1")
    _array_entries(f"--n {args.n}", args.n)
    seq, ratios = family_seq(*_family(args), args.n)
    cvals = np.full(args.n, float("nan"))
    cvals[1:] = (seq.recovered_ratios() if ratios is None
                 else ratios.value_at(np.arange(2, args.n + 1)))
    with np.errstate(over="ignore"):
        vals = np.exp2(seq.log2)
    _emit(args, "gen-gamma", ["m", "c_m", "gamma_m", "log_gamma_m"],
          [np.arange(1, args.n + 1), cvals, vals, seq.log2 * _LN2])
    return 0


def cmd_pi_table(args):
    _array_entries(f"--n {args.n}", args.n + 1)
    perm = build_permutation(args.n)
    b_line = " ".join(map(str, perm.b_list[:(args.n - 2) // 4 + 1].tolist()))
    m = np.arange(1, args.n + 1)
    # pi fixes the odds; the inverse table reads 0 where no preimage is <= n
    inverse = np.where(m % 2 == 1, m, perm.inv_even[m // 2])
    _emit(args, "pi-table", ["m", "pi", "inverse"], [m, perm.table[1:], inverse],
          extra=[f"b_list {b_line}"])
    return 0


def cmd_semigroup_check(args):
    op = _gamma_operator(args)
    grid = _parse_grid(args.tgrid)
    rep = positivity_check(op, grid, tol=args.tol)
    _emit(args, "semigroup-check", ["t", "min_entry", "verdict"],
          [rep.t_grid, rep.per_t_min, rep.per_t_min >= -args.tol], extra=[
        f"verdict {_fmt(rep.verdict)}",
        f"monotone_pairs {_fmt(rep.monotone_pairs)}",
        f"min_entry {_fmt(rep.min_entry)} at t {_fmt(rep.argmin_t)} "
        f"column {rep.argmin_col}",
    ])
    if rep.verdict != rep.monotone_pairs:
        print("positivity verdict disagrees with the pair monotonicity",
              file=sys.stderr)
        return 2
    return 0


def cmd_bv_bound(args):
    alphas, ts = _parse_grid(args.alpha), _parse_grid(args.tgrid)
    _grid_points(alphas.size * ts.size)
    _array_entries(f"--n {args.n}", args.n)
    per_alpha = [bv_semigroup_bound(alpha, ts, args.n, check=False) for alpha in alphas.tolist()]
    computed, closed = (np.concatenate(part) for part in zip(*per_alpha))
    ok = computed <= closed
    _emit(args, "bv-bound", ["alpha", "t", "computed", "bound", "ok"],
          [np.repeat(alphas, ts.size), np.tile(ts, alphas.size), computed, closed, ok])
    return 0 if ok.all() else 2


def cmd_bip_check(args):
    _array_entries(f"--pairs {args.pairs}", 2 * args.pairs + 2)
    seq, ratios = family_seq(*_family(args), 2 * args.pairs + 2)
    ts = _parse_grid(args.tgrid)
    per_t = bip_pair_ratios(seq, ratios, ts, args.pairs)
    worst = max(0.0, *per_t.tolist())
    _emit(args, "bip-check", ["t", "worst_ratio"], [ts, per_t],
          extra=[f"worst_ratio {_fmt(worst)}"])
    return 2 if worst > 1.0 else 0


def cmd_sector_probe(args):
    angles, radii = _parse_grid(args.angles), _parse_grid(args.radii)
    _grid_points(angles.size * radii.size)
    op = _gamma_operator(args)
    # every trial of a ray waits as one row of the next batch
    _array_entries(f"--trials {args.trials}", args.trials * op.layout.dim)
    rep = sectoriality_probe(op, angles, radii, p=args.p, trials=args.trials, seed=args.seed)
    angle, radius = np.meshgrid(rep.angles, rep.radii, indexing="ij")
    extra = [f"measured_K {_fmt(rep.measured_K)}"]
    for i, theta in enumerate(rep.angles):
        extra.append(f"angle {_fmt(theta)} sup {_fmt(rep.per_angle_sup[i])}")
    if rep.skipped:
        extra.append(f"skipped {len(rep.skipped)} singular parameters")
    _emit(args, "sector-probe", ["angle", "radius", "lower_bound", "bv_norm"],
          [angle.ravel(), radius.ravel(), rep.lower.ravel(), rep.bv_upper.ravel()],
          extra=extra)
    return 0


def cmd_rad_norm(args):
    _array_entries(f"--k {args.k} with --blocks {args.blocks}",
                   max(args.k, 1) * triangular_end(args.blocks))
    _array_entries(f"--samples {args.samples} with --k {args.k}", args.samples * args.k)
    layout = BlockLayout.triangular(args.blocks)
    terms = np.random.default_rng(args.seed).standard_normal((max(args.k, 0), layout.dim))
    s = RadSum(terms, layout, args.p)
    enumerable = args.k <= EXACT_TERM_LIMIT
    exact = rad_norm(s, "exact") if enumerable else float("nan")
    sampled = rad_norm(s, "sampled", seed=args.seed, samples=args.samples)
    _emit(args, "rad-norm", ["k", "p", "exact", "sampled", "stderr"],
          [args.k, args.p, exact, sampled.value, sampled.stderr])
    if enumerable and abs(sampled.value - exact) > 4.0 * max(sampled.stderr, 1e-15):
        return 2
    return 0


def cmd_rbound_blowup(args):
    blocks = _parse_ints(args.blocks)
    _array_entries(f"--blocks {max(blocks)}", max(blocks) + 1)
    series = blowup_series(args.family, args.p, alpha=args.alpha, block_counts=blocks)
    _emit(args, "rbound-blowup", ["k", "L_k", "fitted_slope"],
          [series.ks, series.lower, np.full(series.ks.size, series.slope)],
          extra=[f"slope {_fmt(series.slope)}"])
    return 0


def cmd_diag_norm(args):
    ratios = family_ratios(*_family(args), _truncation_blocks(args.blocks))
    dn = diagonal_norm(ratios, args.p, args.blocks)
    _emit(args, "diag-norm", ["p", "q", "value", "argmax_block"],
          [dn.p, dn.q, dn.value, dn.block],
          extra=[f"regular {_fmt(mr_predicate(ratios, args.p))}"])
    return 0


def cmd_interval_certify(args):
    try:
        left, right = float(args.left), float(args.right)
    except ValueError:
        raise ParameterError("--left and --right take numbers ('inf' on the right)") from None
    if not 0.0 < args.grid <= 1.0:
        raise ParameterError("--grid must lie in (0, 1]")
    spec = IntervalSpec(left, right, args.left_closed, args.right_closed)
    _grid_points(7.0 / args.grid)
    # integer numerators keep grid points at the exact rationals k/inv
    inv = round(1.0 / args.grid)
    grid = np.arange(inv + 1, 8 * inv + 1) / inv
    try:
        plan = plan_interval(spec, grid=grid)
    except InvariantViolation as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = {
        "meta": _meta(args, "interval-certify"),
        "interval": spec.describe(),
        "plan": {
            "right_kind": plan.right_kind, "right_alpha": plan.right_alpha,
            "left_kind": plan.left_kind, "left_alpha": plan.left_alpha,
            "left_dual_endpoint": plan.left_dual_endpoint,
            "external_reference": plan.external_reference,
            "notes": list(plan.notes),
        },
        "per_p": _ROWS,
        "set_equal": True,
    }
    _emit(args, "interval-certify", ["p", "predicted", "member"],
          [plan.grid, plan.grid_predicted, plan.grid_member],
          extra=[f"interval {spec.describe()}",
                 f"right {plan.right_kind} {plan.right_alpha}",
                 f"left {plan.left_kind} {plan.left_alpha}",
                 "set_equal true"], report=report)
    return 0


def cmd_dissipativity(args):
    _truncation_blocks(args.block)
    _array_entries(f"--onset-max {args.onset_max}", args.onset_max + 1)
    ratios = family_ratios(*_family(args), max(args.block + 2, args.onset_max + 1))
    w = dissipativity_witness(ratios, args.block)
    onset = dissipativity_norm_onset(ratios, k_max=args.onset_max)
    _emit(args, "dissipativity",
          ["block", "pairing", "closed_form", "x_norm_sq", "n_terms"],
          [w.block, w.pairing, w.closed_form, w.x_norm_sq, w.n_terms],
          extra=[f"norm_onset_block {onset if onset is not None else 'none'}"])
    if args.block in OVERLAP_BLOCKS:   # the closed form holds only past the overlap
        return 0
    if w.pairing <= 0.0 or abs(w.pairing - w.closed_form) > 1e-9 * abs(w.closed_form):
        print("dissipativity pairing disagrees with its closed form", file=sys.stderr)
        return 2
    return 0


def cmd_uncond_constant(args):
    # exact mode enumerates at most EXACT_TERM_LIMIT terms; n < 2 is refused below
    if args.mode == "sampled" and args.n >= 2:
        # the basis is synthesized from I_n into an n x dim array; checking
        # n x n first keeps the permutation that sizes dim small
        _array_entries(f"--n {args.n}", args.n * args.n)
        _array_entries(f"--n {args.n}", args.n * basis_layout(args.n)[1].dim)
    val = unconditional_constant(args.n, args.p, mode=args.mode, seed=args.seed)
    _emit(args, "uncond-constant", ["n", "p", "mode", "estimate"],
          [args.n, args.p, args.mode, val])
    return 0


def cmd_selftest(args):
    numbers = set(_parse_ints(args.only)) if args.only else None
    results = run_all(numbers)
    with _Out(args.out) as fh:
        for res in results:
            fh.write(res.line() + "\n")
    return 0 if all(r.passed for r in results) else 2


# -- wiring --------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _build_parser(env_seed):
    """The argument parser for one value of MRLAB_SEED, the --seed default."""
    parser = _Parser(prog="mrlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mrlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    parser._mrlab_subparsers = {}

    def sub(name, fn, **kwargs):
        sp = subs.add_parser(name, formatter_class=argparse.ArgumentDefaultsHelpFormatter,
                             **kwargs)
        sp.set_defaults(func=fn)
        sp.add_argument("--seed", default=env_seed,   # a string until main applies _seed
                        help="RNG seed (default: MRLAB_SEED or 0)")
        sp.add_argument("--out", default="-", help="output path, '-' for stdout")
        sp.add_argument("--config", default=None,
                        help="JSON file whose entries override flags")
        sp.add_argument("--format", default=None, choices=["csv", "json"],
                        help="output format (default: csv tables, json reports)")
        sp.add_argument("--jobs", type=int, default=1,
                        help="worker hint; output does not depend on it")
        parser._mrlab_subparsers[name] = sp
        return sp

    def family_flags(sp, default, *choices):
        """--family, --alpha and, where constant is a choice, --value."""
        sp.add_argument("--family", default=default, choices=list(choices))
        sp.add_argument("--alpha", type=float, default=0.25)
        if CONSTANT in choices:
            sp.add_argument("--value", type=float, default=0.1, help="constant family value")

    sp = sub("gen-gamma", cmd_gen_gamma, help="dump a multiplier sequence as CSV")
    family_flags(sp, "constant", "lacunary", "power", "powerlog", "constant", "geometric")
    sp.add_argument("--n", type=int, default=64, help="sequence length")

    sp = sub("pi-table", cmd_pi_table, help="dump the even permutation table")
    sp.add_argument("--n", type=int, default=64)

    sp = sub("semigroup-check", cmd_semigroup_check,
             help="positivity scan of the semigroup matrices")
    sp.add_argument("--gamma", default="lacunary",
                    help="lacunary | power:A | powerlog:A | constant:C")
    sp.add_argument("--tgrid", default="pow2:-10:10")
    sp.add_argument("--n", type=int, default=128, help="truncation dimension")
    sp.add_argument("--tol", type=float, default=1e-12)

    sp = sub("bv-bound", cmd_bv_bound, help="variation bound for the lacunary semigroup")
    sp.add_argument("--alpha", default="0.25,0.5,1.0")
    sp.add_argument("--tgrid", default="geom:0.01:10:50")
    sp.add_argument("--n", type=int, default=2000)

    sp = sub("bip-check", cmd_bip_check, help="imaginary-power pair inequality")
    family_flags(sp, "power", "power", "powerlog", "constant")
    sp.add_argument("--tgrid", default="0.01,0.1,1,10,100")
    sp.add_argument("--pairs", type=int, default=10000)

    sp = sub("sector-probe", cmd_sector_probe, help="resolvent bounds along rays")
    sp.add_argument("--gamma", default="lacunary")
    sp.add_argument("--angles", default="0.5,1.0,1.5707963267948966")
    sp.add_argument("--radii", default="geom:1:1e6:7")
    sp.add_argument("--p", type=float, default=4.0)
    sp.add_argument("--trials", type=int, default=3)
    sp.add_argument("--n", type=int, default=64, help="truncation dimension")

    sp = sub("rad-norm", cmd_rad_norm, help="exact vs sampled Rademacher norm")
    sp.add_argument("--k", type=int, default=10, help="number of terms")
    sp.add_argument("--blocks", type=int, default=6)
    sp.add_argument("--p", type=float, default=3.0)
    sp.add_argument("--samples", type=int, default=100000)

    sp = sub("rbound-blowup", cmd_rbound_blowup, help="leaked-mass blow-up series")
    family_flags(sp, "powerlog", "lacunary", "power", "powerlog")
    sp.add_argument("--p", type=float, default=4.0)
    sp.add_argument("--blocks", default="100,1000,10000", help="comma list of k")

    sp = sub("diag-norm", cmd_diag_norm, help="diagonal-map norm and extremizer")
    family_flags(sp, "power", "power", "powerlog", "constant", "geometric")
    sp.add_argument("--p", type=float, default=4.0)
    sp.add_argument("--blocks", type=int, default=20)

    sp = sub("interval-certify", cmd_interval_certify,
             help="plan families realizing a regularity interval")
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True, help="number or 'inf'")
    sp.add_argument("--left-closed", action="store_true")
    sp.add_argument("--right-closed", action="store_true")
    sp.add_argument("--grid", type=float, default=0.05)

    sp = sub("dissipativity", cmd_dissipativity, help="sup-block dissipativity witness")
    family_flags(sp, "power", "power", "powerlog", "constant", "geometric")
    sp.add_argument("--block", type=int, default=30)
    sp.add_argument("--onset-max", type=int, default=120)

    sp = sub("uncond-constant", cmd_uncond_constant,
             help="unconditional-constant lower estimate")
    sp.add_argument("--n", type=int, default=12)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--mode", default="exact", choices=["exact", "sampled"])

    sp = sub("selftest", cmd_selftest, help="run the acceptance suite")
    sp.add_argument("--only", default=None, help="comma list of check numbers")
    return parser


def _config_value(action, value):
    """A config entry read the way the flag's parser action reads it."""
    if action.nargs == 0:  # store_true switches take JSON booleans
        if not isinstance(value, bool):
            raise TypeError("switches take true or false")
        return value
    value = (action.type or str)(value)
    if action.choices is not None and value not in action.choices:
        raise ValueError("not one of the choices")
    return value


def main(argv=None) -> int:
    parser = _build_parser(os.environ.get("MRLAB_SEED", "0"))
    args = parser.parse_args(argv)
    try:
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    overrides = json.load(fh)
            except (OSError, ValueError) as exc:
                raise ParameterError(f"cannot read config {args.config}: {exc}") from None
            if not isinstance(overrides, dict):
                raise ParameterError(f"config {args.config} must hold a JSON object of flags")
            actions = {a.dest: a for a in parser._mrlab_subparsers[args.command]._actions}
            for key, value in overrides.items():
                action = actions.get(key.replace("-", "_"))
                if action is None or not hasattr(args, action.dest):
                    raise ParameterError(f"config key {key!r} is not a flag of this subcommand")
                try:
                    setattr(args, action.dest, _config_value(action, value))
                except (TypeError, ValueError):
                    raise ParameterError(f"config key {key!r} cannot take the value "
                                         f"{value!r}") from None
        if getattr(args, "out", None) in ("csv", "json"):
            # the bare format name as a target selects stdout in that format
            args.format = args.out
            args.out = "-"
        if getattr(args, "format", None) is None:
            args.format = "json" if args.command == "interval-certify" else "csv"
        args.seed = _seed(args.seed)
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
