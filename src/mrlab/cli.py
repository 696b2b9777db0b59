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
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .acceptance import run_all
from .blockspace import BlockLayout, triangular_covering_blocks
from .certify import (
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
    bip_pair_ratio_max,
    bv_semigroup_bound,
    positivity_check,
    required_cover,
    sectoriality_probe,
)
from .rademacher import RadSum, blowup_series, rad_norm
from .sequences import (
    MultiplierSeq,
    constant_ratios,
    geometric_ratios,
    ratio_family,
    seq_from_ratios,
    twisted_lacunary,
)
from .twistbasis import EVEN_TWIST, TwistPermutation, build_permutation, unconditional_constant

_LN2 = math.log(2.0)
_ROW_BLOCK = 1024   # table rows converted and written at a time


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
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt_bool(x):
    return "true" if x else "false"


def _fmt_int(x):
    return str(int(x))


def _fmt_float(x):
    return format(float(x), ".17g")


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return _fmt_bool(x)
    if isinstance(x, (int, np.integer)):
        return _fmt_int(x)
    if isinstance(x, (float, np.floating)):
        return _fmt_float(x)
    return str(x)


# _fmt by exact cell type, for the types tables hold; anything else takes _fmt
_CELL_FMT = {float: _fmt_float, np.float64: _fmt_float, int: str, np.int64: _fmt_int,
             bool: _fmt_bool, np.bool_: _fmt_bool, str: str}


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
                print(f"cannot write {self.path}: {exc}", file=sys.stderr)
                raise SystemExit(1)
            self._close = True
        return self.fh

    def __exit__(self, *exc):
        if self._close:
            self.fh.close()


def _config(args):
    return {k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "out", "config") and v is not None}


def _meta(args, command, schema_version=1):
    """The ``meta`` object of a JSON report."""
    return {"tool": f"mrlab {__version__}",
            "schema": f"mrlab/{command}/v{schema_version}",
            "seed": getattr(args, "seed", 0),
            "config": {k: str(v) for k, v in _config(args).items()}}


def _header(fh, command, args, schema_version=1, extra=()):
    cfg = _config(args)
    fh.write(f"# mrlab {__version__}\n")
    fh.write(f"# schema mrlab/{command}/v{schema_version}\n")
    fh.write(f"# seed {getattr(args, 'seed', 0)}\n")
    fh.write("# config " + json.dumps(cfg, sort_keys=True, default=str) + "\n")
    for line in extra:
        fh.write(f"# {line}\n")


def _write_csv(fh, columns, rows):
    fh.write(",".join(columns) + "\n")
    fmt = _CELL_FMT.get
    rows = iter(rows)
    while block := list(itertools.islice(rows, _ROW_BLOCK)):
        fh.write("".join([",".join([fmt(type(x), _fmt)(x) for x in row]) + "\n"
                          for row in block]))


def _emit(args, command, columns, rows, extra=(), schema_version=1):
    """Write a row table as CSV (default) or JSON, per --format."""
    fmt = getattr(args, "format", "csv")
    with _Out(args.out) as fh:
        if fmt == "json":
            payload = {
                "meta": {**_meta(args, command, schema_version), "notes": list(extra)},
                "columns": list(columns),
                "rows": [[(None if isinstance(x, float) and math.isnan(x) else
                           (x if not isinstance(x, (np.integer, np.floating, np.bool_))
                            else x.item())) for x in row] for row in rows],
            }
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        else:
            _header(fh, command, args, schema_version=schema_version, extra=extra)
            _write_csv(fh, columns, rows)


def _parse_grid(text):
    """Comma list of floats, or pow2:a:b for 2^a .. 2^b, or geom:a:b:n."""
    try:
        if text.startswith("pow2:"):
            _, a, b = text.split(":")
            return 2.0 ** np.arange(int(a), int(b) + 1)
        if text.startswith("geom:"):
            _, a, b, n = text.split(":")
            return np.geomspace(float(a), float(b), int(n))
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise ParameterError(f"cannot read grid {text!r}; expected a comma list, "
                             f"pow2:a:b or geom:a:b:n") from None


def _parse_ints(text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ParameterError(f"cannot read {text!r} as a comma list of integers") from None


def _ratios_from_args(args, n_blocks):
    if args.family == "constant":
        return constant_ratios(args.value, n_blocks)
    if args.family == "geometric":
        return geometric_ratios(n_blocks)
    return ratio_family(args.family, args.alpha, n_blocks)


def _seq_from_source(source, length) -> MultiplierSeq:
    """lacunary | power:A | powerlog:A | constant:C"""
    if source == "lacunary":
        return twisted_lacunary(length)
    kind, _, value = source.partition(":")
    try:
        value = float(value)
    except ValueError:
        value = None
    if value is None or kind not in ("power", "powerlog", "constant"):
        raise ParameterError(f"cannot read gamma source {source!r}; expected "
                             f"lacunary, power:A, powerlog:A or constant:C")
    if kind == "constant":
        return seq_from_ratios(np.full(length, value), length=length)
    n_blocks = triangular_covering_blocks(length) + 1
    return seq_from_ratios(ratio_family(kind, value, n_blocks), length=length)


def _make_operator(source, dim):
    layout = BlockLayout.triangular_covering(dim)
    perm = TwistPermutation.covering(2 * layout.dim + 8)
    cover = required_cover(layout, perm, EVEN_TWIST) + 2
    seq = _seq_from_source(source, cover)
    return TwistedMultiplier(seq=seq, perm=perm, variant=EVEN_TWIST, layout=layout)


# -- subcommands --------------------------------------------------------------


def cmd_gen_gamma(args):
    if args.n < 1:
        raise ParameterError("--n must be at least 1")
    if args.family == "lacunary":
        seq = twisted_lacunary(args.n)
        cvals = np.full(args.n, float("nan"))
        cvals[1:] = seq.recovered_ratios()
    else:
        ratios = _ratios_from_args(args, triangular_covering_blocks(args.n) + 1)
        seq = seq_from_ratios(ratios, length=args.n)
        cvals = np.full(args.n, float("nan"))
        cvals[1:] = np.asarray(ratios.value_at(np.arange(2, args.n + 1)))
    with np.errstate(over="ignore"):
        vals = np.exp2(seq.log2)
    rows = [(m + 1, cvals[m], vals[m], seq.log2[m] * _LN2) for m in range(args.n)]
    _emit(args, "gen-gamma", ["m", "c_m", "gamma_m", "log_gamma_m"], rows)
    return 0


def cmd_pi_table(args):
    perm = build_permutation(args.n)
    b_line = " ".join(map(str, perm.b_list[:(args.n - 2) // 4 + 1].tolist()))
    m = np.arange(1, args.n + 1)
    # pi fixes the odds; the inverse table reads 0 where no preimage is <= n
    inverse = np.where(m % 2 == 1, m, perm.inv_even[m // 2])
    rows = _int_rows(m, perm.table[1:], inverse)
    _emit(args, "pi-table", ["m", "pi", "inverse"], rows, extra=[f"b_list {b_line}"])
    return 0


def _int_rows(*columns):
    """Rows of integer columns as Python ints, converted a block at a time."""
    for i in range(0, len(columns[0]), _ROW_BLOCK):
        yield from zip(*(c[i:i + _ROW_BLOCK].tolist() for c in columns))


def cmd_semigroup_check(args):
    op = _make_operator(args.gamma, args.n)
    grid = _parse_grid(args.tgrid)
    rep = positivity_check(op, grid, tol=args.tol)
    rows = [(t, m, m >= -args.tol) for t, m in zip(rep.t_grid, rep.per_t_min)]
    _emit(args, "semigroup-check", ["t", "min_entry", "verdict"], rows, extra=[
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
    rows = []
    violated = False
    for alpha in _parse_grid(args.alpha):
        for t in _parse_grid(args.tgrid):
            computed, closed = bv_semigroup_bound(float(alpha), float(t),
                                                  args.n, check=False)
            ok = computed <= closed
            violated = violated or not ok
            rows.append((alpha, t, computed, closed, ok))
    _emit(args, "bv-bound", ["alpha", "t", "computed", "bound", "ok"], rows)
    return 2 if violated else 0


def cmd_bip_check(args):
    ratios = _ratios_from_args(args, triangular_covering_blocks(2 * args.pairs + 2) + 1)
    seq = seq_from_ratios(ratios, length=2 * args.pairs + 2)
    rows = []
    worst = 0.0
    for t in _parse_grid(args.tgrid):
        r = bip_pair_ratio_max(seq, ratios, [float(t)], args.pairs)
        worst = max(worst, r)
        rows.append((t, r))
    _emit(args, "bip-check", ["t", "worst_ratio"], rows,
          extra=[f"worst_ratio {_fmt(worst)}"])
    return 2 if worst > 1.0 else 0


def cmd_sector_probe(args):
    op = _make_operator(args.gamma, args.n)
    rep = sectoriality_probe(op, _parse_grid(args.angles), _parse_grid(args.radii),
                             p=args.p, trials=args.trials, seed=args.seed)
    rows = []
    for i, theta in enumerate(rep.angles):
        for j, r in enumerate(rep.radii):
            rows.append((theta, r, rep.lower[i, j], rep.bv_upper[i, j]))
    extra = [f"measured_K {_fmt(rep.measured_K)}"]
    for i, theta in enumerate(rep.angles):
        extra.append(f"angle {_fmt(theta)} sup {_fmt(rep.per_angle_sup[i])}")
    if rep.skipped:
        extra.append(f"skipped {len(rep.skipped)} singular parameters")
    _emit(args, "sector-probe", ["angle", "radius", "lower_bound", "bv_norm"],
          rows, extra=extra)
    return 0


def cmd_rad_norm(args):
    rng = np.random.default_rng(args.seed)
    layout = BlockLayout.triangular(args.blocks)
    terms = rng.standard_normal((args.k, layout.dim))
    s = RadSum(terms, layout, args.p)
    exact = rad_norm(s, "exact") if args.k <= 14 else float("nan")
    sampled = rad_norm(s, "sampled", seed=args.seed, samples=args.samples)
    _emit(args, "rad-norm", ["k", "p", "exact", "sampled", "stderr"],
          [(args.k, args.p, exact, sampled.value, sampled.stderr)])
    if args.k <= 14 and abs(sampled.value - exact) > 4.0 * max(sampled.stderr, 1e-15):
        return 2
    return 0


def cmd_rbound_blowup(args):
    series = blowup_series(args.family, args.p, alpha=args.alpha,
                           block_counts=_parse_ints(args.blocks))
    rows = [(int(k), v, series.slope) for k, v in zip(series.ks, series.lower)]
    _emit(args, "rbound-blowup", ["k", "L_k", "fitted_slope"], rows,
          extra=[f"slope {_fmt(series.slope)}"])
    return 0


def cmd_diag_norm(args):
    ratios = _ratios_from_args(args, args.blocks)
    dn = diagonal_norm(ratios, args.p, args.blocks)
    verdict = mr_predicate(ratios, args.p)
    _emit(args, "diag-norm", ["p", "q", "value", "argmax_block"],
          [(dn.p, dn.q, dn.value, dn.block)],
          extra=[f"regular {_fmt(verdict.regular)}"])
    return 0


def cmd_interval_certify(args):
    try:
        left, right = float(args.left), float(args.right)
    except ValueError:
        raise ParameterError("--left and --right take numbers ('inf' on the right)") from None
    if not 0.0 < args.grid <= 1.0:
        raise ParameterError("--grid must lie in (0, 1]")
    spec = IntervalSpec(left, right, args.left_closed, args.right_closed)
    # integer numerators keep grid points at the exact rationals k/inv
    inv = round(1.0 / args.grid)
    grid = np.arange(inv + 1, 8 * inv + 1) / inv
    try:
        plan = plan_interval(spec, grid=grid)
    except InvariantViolation as exc:
        print(str(exc), file=sys.stderr)
        return 2
    per_p = [{"p": float(p), "predicted": bool(plan.predicted(float(p))),
              "member": bool(spec.contains(float(p)))} for p in grid]
    if args.format == "csv":
        rows = [(e["p"], e["predicted"], e["member"]) for e in per_p]
        _emit(args, "interval-certify", ["p", "predicted", "member"], rows,
              extra=[f"interval {spec.describe()}",
                     f"right {plan.right_kind} {plan.right_alpha}",
                     f"left {plan.left_kind} {plan.left_alpha}",
                     "set_equal true"])
        return 0
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
        "per_p": per_p,
        "set_equal": True,
    }
    with _Out(args.out) as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return 0


def cmd_dissipativity(args):
    ratios = _ratios_from_args(args, max(args.block + 2, args.onset_max + 1))
    w = dissipativity_witness(ratios, args.block)
    onset = dissipativity_norm_onset(ratios, k_max=args.onset_max)
    _emit(args, "dissipativity",
          ["block", "pairing", "closed_form", "x_norm_sq", "n_terms"],
          [(w.block, w.pairing, w.closed_form, w.x_norm_sq, w.n_terms)],
          extra=[f"norm_onset_block {onset if onset is not None else 'none'}"])
    if w.pairing <= 0.0 or abs(w.pairing - w.closed_form) > 1e-9 * abs(w.closed_form):
        print("dissipativity pairing disagrees with its closed form", file=sys.stderr)
        return 2
    return 0


def cmd_uncond_constant(args):
    val = unconditional_constant(args.n, args.p, mode=args.mode, seed=args.seed)
    _emit(args, "uncond-constant", ["n", "p", "mode", "estimate"],
          [(args.n, args.p, args.mode, val)])
    return 0


def cmd_selftest(args):
    numbers = set(_parse_ints(args.only)) if args.only else None
    results = run_all(numbers)
    with _Out(args.out) as fh:
        for res in results:
            fh.write(res.line() + "\n")
    return 0 if all(r.passed for r in results) else 2


# -- wiring --------------------------------------------------------------------


def _build_parser():
    parser = _Parser(prog="mrlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mrlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    parser._mrlab_subparsers = {}

    def sub(name, fn, **kwargs):
        sp = subs.add_parser(name, formatter_class=argparse.ArgumentDefaultsHelpFormatter,
                             **kwargs)
        sp.set_defaults(func=fn)
        sp.add_argument("--seed", type=int,
                        default=int(os.environ.get("MRLAB_SEED", "0")),
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

    sp = sub("gen-gamma", cmd_gen_gamma, help="dump a multiplier sequence as CSV")
    sp.add_argument("--family", default="constant",
                    choices=["lacunary", "power", "powerlog", "constant", "geometric"])
    sp.add_argument("--alpha", type=float, default=0.25)
    sp.add_argument("--value", type=float, default=0.1, help="constant family value")
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
    sp.add_argument("--family", default="power", choices=["power", "powerlog", "constant"])
    sp.add_argument("--alpha", type=float, default=0.25)
    sp.add_argument("--value", type=float, default=0.1)
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
    sp.add_argument("--family", default="powerlog",
                    choices=["lacunary", "power", "powerlog"])
    sp.add_argument("--alpha", type=float, default=0.25)
    sp.add_argument("--p", type=float, default=4.0)
    sp.add_argument("--blocks", default="100,1000,10000", help="comma list of k")

    sp = sub("diag-norm", cmd_diag_norm, help="diagonal-map norm and extremizer")
    sp.add_argument("--family", default="power", choices=["power", "powerlog",
                                                          "constant", "geometric"])
    sp.add_argument("--alpha", type=float, default=0.25)
    sp.add_argument("--value", type=float, default=0.1)
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
    sp.add_argument("--family", default="power", choices=["power", "powerlog",
                                                          "constant", "geometric"])
    sp.add_argument("--alpha", type=float, default=0.25)
    sp.add_argument("--value", type=float, default=0.1)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read config {args.config}: {exc}", file=sys.stderr)
            return 1
        actions = {a.dest: a for a in parser._mrlab_subparsers[args.command]._actions}
        for key, value in overrides.items():
            action = actions.get(key.replace("-", "_"))
            if action is None or not hasattr(args, action.dest):
                print(f"config key {key!r} is not a flag of this subcommand",
                      file=sys.stderr)
                return 1
            try:
                setattr(args, action.dest, _config_value(action, value))
            except (TypeError, ValueError):
                print(f"config key {key!r} cannot take the value {value!r}",
                      file=sys.stderr)
                return 1
    if getattr(args, "out", None) in ("csv", "json"):
        # the bare format name as a target selects stdout in that format
        args.format = args.out
        args.out = "-"
    if getattr(args, "format", None) is None:
        args.format = "json" if args.command == "interval-certify" else "csv"
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
