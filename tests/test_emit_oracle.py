"""The columnar emitter and the array predicate against the code they replaced.

``cli._emit`` writes every table from column arrays.  It replaced three
writers, kept here verbatim as oracles: ``_write_csv`` (cells through the
``_CELL_FMT`` type dict), the JSON branch of ``_emit`` (a per-cell lambda,
then ``json.dump``) and the per-point dict plus ``json.dump`` of
``interval-certify``; the rows came from ``_column_rows``.  The emitter must
reproduce their bytes for every golden argv in both formats and for
synthetic tables that hold NaN, +-inf, -0.0, denormals, 2^62, bool and str
columns, one row or none.

Two writers share the work, by table.  A table whose every column is
integer, and a CSV table of ``cli._PLACE_ROWS`` rows or more whose columns
are integer, bool or float, takes the place writer (``cli._place_rows``): it
must give the bytes of str(int), true/false and "%.17g" for int64's ends,
signs, widths, row counts past its blocks and both JSON row shapes, and for
every float64 bit pattern.  Its floats come from float64 arithmetic: each
step is one correctly rounded IEEE operation, the rounding is decided
exactly where 10^s is a float64 and otherwise screened by a derived error
bound, and a cell inside the bound takes Python's own digits; so a
property test over arbitrary bit patterns (NaN payloads of both signs,
subnormals) and an edge table (every 2^k, 10^k and its neighbours, exact
17-digit ties, the %g layout switches) hold it to the oracle.  Every other
table goes through one % row template, JSON floats by repr, as before:
JSON's bytes are unchanged.  A full row block of a JSON float column that
repeats values is formatted once per distinct bit pattern; tables past one
row block and ``gen-gamma`` of every workload family reach that path, and a
spy counts what it formats.

``MRPlan`` and ``IntervalSpec`` now evaluate the plan on the whole grid at
once; the per-point scalar rules are kept here as the oracle of
``grid_predicted`` and ``grid_member``.
"""

import argparse
import contextlib
import copy
import decimal
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

from mrlab import __version__, cli
from mrlab.certify import IntervalSpec, plan_interval
from mrlab.errors import ParameterError
from mrlab.sequences import CONSTANT, GEOMETRIC, POWER, POWERLOG

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


# -- the old writers, verbatim -------------------------------------------------

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

_ROW_BLOCK = 1024


def _meta(args, command, schema_version=1):
    """The ``meta`` object of a JSON report."""
    return {"tool": f"mrlab {__version__}",
            "schema": f"mrlab/{command}/v{schema_version}",
            "seed": getattr(args, "seed", 0),
            "config": {k: str(v) for k, v in cli._config(args).items()}}


def _header(fh, command, args, schema_version=1, extra=()):
    cfg = cli._config(args)
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
    with cli._Out(args.out) as fh:
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


def _column_rows(*columns):
    """Rows of numeric array columns as Python scalars, converted a block at a time."""
    for i in range(0, len(columns[0]), _ROW_BLOCK):
        yield from zip(*(c[i:i + _ROW_BLOCK].tolist() for c in columns))


def oracle_emit(args, command, columns, arrays, extra=(), report=None):
    """The old writers fed the way the subcommands fed them."""
    arrays = [np.atleast_1d(a) for a in arrays]
    if report is None or args.format == "csv":
        _emit(args, command, columns, _column_rows(*arrays), extra=extra)
        return
    # interval-certify's per_p: one dict per grid point, then json.dump
    key = next(k for k, v in report.items() if v == cli._ROWS)
    report = dict(report, **{key: [dict(zip(columns, row)) for row in _column_rows(*arrays)]})
    with cli._Out(args.out) as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


# -- helpers -----------------------------------------------------------------------

def written(emit, args, *call, **kwargs):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        emit(args, *call, **kwargs)
    return buf.getvalue().encode("utf-8")


def emit_calls(argv, monkeypatch):
    """The _emit calls one CLI run makes, each as (args, positional, keyword)."""
    calls = []
    monkeypatch.setattr(cli, "_emit", lambda args, *a, **k: calls.append((args, a, k)))
    cli.main(list(argv))
    monkeypatch.undo()
    return calls


def synthetic_args(fmt):
    return argparse.Namespace(command="synthetic", format=fmt, out="-", seed=7, n=3)


FLOATS = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, 0.1, 1.0 / 3.0, -1e-5, 1e16, 1e17, 123456789.0,
                   2.0 ** 62, -2.5])
INTS = np.array([0, -1, 1, 2 ** 62, -(2 ** 62), 2 ** 63 - 1, -(2 ** 63), 1024, 1025, 7,
                 -7, 10 ** 17, 3, 4, 5, 6], dtype=np.int64)
BOOLS = np.array([True, False] * 8)
STRS = np.array(["exact", "sampled", 'say "x"', "back\\slash", "100%", "%s %d", "é", "",
                 "a,b", "tab\t", "nl\n", "x", "y", "z", "u", "v"])


# -- the emitter ---------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CASES))
def test_every_golden_table_is_written_as_the_old_writers_did(name, monkeypatch):
    monkeypatch.delenv("MRLAB_SEED", raising=False)
    calls = emit_calls(CASES[name]["argv"], monkeypatch)
    assert len(calls) == 1
    args, call, kwargs = calls[0]
    for fmt in ("csv", "json"):
        ns = copy.copy(args)
        ns.format = fmt
        assert written(cli._emit, ns, *call, **kwargs) == written(oracle_emit, ns, *call,
                                                                 **kwargs), fmt


TABLES = {
    "mixed": (["f", "i", "b", "s"], [FLOATS, INTS, BOOLS, STRS]),
    "one-row": (["k", "p", "exact", "mode", "ok"], [14, 3.0, math.nan, "exact", True]),
    "one-column": (["x"], [FLOATS]),
    "empty": (["a", "b"], [np.zeros(0), np.zeros(0, dtype=np.int64)]),
    "bool-only": (["t", "u"], [BOOLS, ~BOOLS]),
    "long": (["m", "x"], [np.arange(2500), np.linspace(-1.0, 1.0, 2500) ** 3]),
    # past _PLACE_ROWS: the place writer's float, integer and bool cells
    "long-mixed": (["b", "f", "i", "g"], [np.resize(BOOLS, 600), np.resize(FLOATS, 600),
                                          np.resize(INTS, 600), np.resize(FLOATS[::-1], 600)]),
}


@pytest.mark.parametrize("block", [1024, 3, 1])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_synthetic_tables_are_written_as_the_old_writers_did(table, fmt, block, monkeypatch):
    monkeypatch.setattr(cli, "_ROW_BLOCK", block)
    columns, arrays = TABLES[table]
    extra = ["note one", "slope 0.25"]
    args = synthetic_args(fmt)
    assert (written(cli._emit, args, "synthetic", columns, arrays, extra=extra)
            == written(oracle_emit, args, "synthetic", columns, arrays, extra=extra))


# bit patterns a value-keyed dedup would merge: signed zeros, NaNs of both
# signs and two payloads; then the infinities and the extreme magnitudes
EDGE_BITS = np.array([0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000,
                      0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000ABC],
                     dtype=np.uint64).view(np.float64)
EDGES = np.concatenate([EDGE_BITS, [math.inf, -math.inf, 5e-324, 1e308, 0.1, -2.5]])


def repeated(rows):
    """A column of the edge values, each repeated over runs and scattered."""
    return np.concatenate([np.repeat(EDGES, 7), EDGES[np.arange(rows) * 5 % len(EDGES)]])[:rows]


DEDUP_TABLES = {
    "repeated": lambda rows: (["m", "c", "g"], [np.arange(rows), repeated(rows),
                                                 np.full(rows, math.inf)]),
    "all-distinct": lambda rows: (["x", "c"], [np.linspace(-1.0, 1.0, rows) ** 3,
                                               repeated(rows)[::-1]]),
}


@pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("table", sorted(DEDUP_TABLES))
def test_full_blocks_that_repeat_values_are_written_as_the_old_writers_did(table, fmt, rows):
    columns, arrays = DEDUP_TABLES[table](rows)
    args = synthetic_args(fmt)
    assert (written(cli._emit, args, "synthetic", columns, arrays)
            == written(oracle_emit, args, "synthetic", columns, arrays))


WORKLOAD_FAMILIES = [["--family", "lacunary"], ["--family", "geometric"],
                     ["--family", "constant", "--value", "0.01"],
                     ["--family", "constant", "--value", "0.1"],
                     *[["--family", kind, "--alpha", alpha] for kind in ("power", "powerlog")
                       for alpha in ("0.1", "0.25", "0.4")]]


@pytest.mark.parametrize("n", ["1500", "20000"])
@pytest.mark.parametrize("family", WORKLOAD_FAMILIES, ids=" ".join)
def test_gen_gamma_past_one_row_block_is_written_as_the_old_writers_did(family, n, monkeypatch):
    """1500 rows cross one row block of the template, 20000 the place
    writer's blocks of 8 row blocks."""
    calls = emit_calls(["gen-gamma", *family, "--n", n], monkeypatch)
    args, call, kwargs = calls[0]
    for fmt in ("csv", "json"):
        ns = copy.copy(args)
        ns.format = fmt
        assert written(cli._emit, ns, *call, **kwargs) == written(oracle_emit, ns, *call,
                                                                 **kwargs), fmt


def test_gen_gamma_writes_the_bytes_of_stdout_to_a_file(tmp_path, monkeypatch):
    monkeypatch.delenv("MRLAB_SEED", raising=False)
    argv, path = ["gen-gamma", "--n", "20000"], tmp_path / "gamma.csv"
    assert cli.main([*argv, "--out", str(path)]) == 0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


def test_each_distinct_bit_pattern_of_a_repeating_block_is_formatted_once(monkeypatch):
    """JSON only: CSV floats of a full row block take the place writer."""
    fmt = "json"
    formatted = []

    def spy(column, fmt):
        if column.dtype.kind == "f":
            formatted.append(column.view(np.int64).copy())
        return cell_values(column, fmt)

    cell_values = cli._cell_values
    monkeypatch.setattr(cli, "_cell_values", spy)
    rows = 2 * cli._ROW_BLOCK
    column = repeated(rows)
    written(cli._emit, synthetic_args(fmt), "synthetic", ["c"], [column])
    bits = column.view(np.int64)
    assert [f.tolist() for f in formatted] == [
        np.unique(bits[i:i + cli._ROW_BLOCK]).tolist() for i in range(0, rows, cli._ROW_BLOCK)]


@pytest.mark.parametrize("block", [1024, 2])
@pytest.mark.parametrize("rows", [0, 1, 5])
def test_reports_write_rows_as_objects_as_json_dump_did(rows, block, monkeypatch):
    """A report's rows as interval-certify wrote them; the old dict path wrote
    NaN as the invalid token NaN, so only finite or infinite floats are compared."""
    monkeypatch.setattr(cli, "_ROW_BLOCK", block)
    args = synthetic_args("json")
    report = {"meta": cli._meta(args, "synthetic"), "interval": "[1.5, 3]",
              "plan": {"right_alpha": None, "notes": ["a % sign", cli._ROWS]},
              "per_p": cli._ROWS, "set_equal": True}
    columns = ["p", "predicted", "100% member"]
    arrays = [FLOATS[1:rows + 1], BOOLS[:rows], INTS[:rows]]
    assert (written(cli._emit, args, "synthetic", columns, arrays, report=report)
            == written(oracle_emit, args, "synthetic", columns, arrays, report=report))


def _widths(rows):
    """Integers of every digit count and sign, int64's ends among them."""
    m = np.arange(rows, dtype=np.int64)
    return np.where(m % 2, -1, 1) * (m * 7919) ** (m % 5) + np.where(m % 97 == 3, -(2 ** 63), 0)


INT_TABLES = {
    "edges": lambda rows: (["i", "j"], [np.resize(INTS, rows), np.resize(INTS[::-1], rows)]),
    "widths": lambda rows: (["m", "w", "narrow"], [np.arange(rows), _widths(rows),
                                                   np.arange(rows, dtype=np.int32) % 3 - 1]),
    "zeros": lambda rows: (["z"], [np.zeros(rows, dtype=np.int64)]),
}


@pytest.mark.parametrize("block", [1024, 3, 1])
@pytest.mark.parametrize("rows", [0, 1, 2, 8 * 1024 + 1, 20_000])
@pytest.mark.parametrize("fmt", ["csv", "json", "report"])
@pytest.mark.parametrize("table", sorted(INT_TABLES))
def test_integer_tables_are_written_as_str_int_did(table, fmt, rows, block, monkeypatch):
    """An all-integer table takes the digit writer in blocks of 8 row blocks;
    rows as lists (CSV, JSON) and as objects (a report)."""
    monkeypatch.setattr(cli, "_ROW_BLOCK", block)
    monkeypatch.setattr(cli, "_block_cells", None)   # the digit writer never calls it
    columns, arrays = INT_TABLES[table](rows)
    args = synthetic_args("csv" if fmt == "csv" else "json")
    report = {"meta": cli._meta(args, "synthetic"), "per_m": cli._ROWS,
              "note": "100% %s"} if fmt == "report" else None
    got = written(cli._emit, args, "synthetic", columns, arrays, extra=["x"], report=report)
    monkeypatch.undo()
    assert got == written(oracle_emit, args, "synthetic", columns, arrays, extra=["x"],
                          report=report)


def test_one_row_of_integer_scalars_is_written_as_str_int_did(monkeypatch):
    row = [np.int64(-(2 ** 63)), 2 ** 63 - 1, 0, np.int8(-7)]
    for fmt in ("csv", "json"):
        args = synthetic_args(fmt)
        assert (written(cli._emit, args, "synthetic", ["a", "b", "c", "d"], row)
                == written(oracle_emit, args, "synthetic", ["a", "b", "c", "d"], row))


def written_as_csv_column(values):
    """One float column as the emitter and the old CSV writer write it."""
    args = synthetic_args("csv")
    return (written(cli._emit, args, "synthetic", ["x"], [values]),
            written(oracle_emit, args, "synthetic", ["x"], [values]))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(hnp.arrays(np.uint64, hs.integers(cli._PLACE_ROWS, 3 * cli._PLACE_ROWS)))
def test_float_bit_patterns_are_written_as_the_old_csv_writer_did(bits):
    """Any uint64 read as float64: NaN payloads of both signs, infinities,
    signed zeros, subnormals and normals of both signs."""
    got, want = written_as_csv_column(bits.view(np.float64))
    assert got == want


def exact_ties():
    """Floats whose exact decimal has 18 significant digits, the last a 5, at
    10^j <= x < 10^(j + 1) for -6 <= j <= 15 (s = 16 - j <= 22): odd
    multiples of 2^(j - 17), rounded to 17 digits as ties."""
    ties = []
    for j in range(-6, 16):
        low = math.ceil(10.0 ** j * 2 ** (17 - j)) | 1
        ties += [m * 2.0 ** (j - 17) for m in (low, low + 2, (low // 3) * 5 | 1)]
    return ties


def edge_floats():
    tens = np.array([10.0 ** k for k in range(-323, 309)])
    near = np.concatenate([np.nextafter(tens, 0.0), tens, np.nextafter(tens, math.inf)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5, 99999999999999984.0])
    values = np.concatenate([2.0 ** np.arange(-1074, 1024), near, exact_ties(),
                             [2.0 ** -25, 3 * 2.0 ** -24], switches,
                             np.nextafter(switches, 0.0), np.nextafter(switches, math.inf)])
    return np.concatenate([values, -values])


def test_edge_floats_are_written_as_the_old_csv_writer_did(monkeypatch):
    """Every 2^k; 10^k and its neighbours (17-digit roundings up to the next
    power among them); exact ties where 10^s is a float64, decided by the
    arithmetic, and the ties at s = 24 and 23, which take Python's digits;
    and the %g switches at 1e-4 and 1e17."""
    screened = []

    def spy(values):
        screened.extend(values.tolist())
        return dtoa_digits(values)

    dtoa_digits = cli._dtoa_digits
    monkeypatch.setattr(cli, "_dtoa_digits", spy)
    values = edge_floats()
    for x in exact_ties():
        digits = format(decimal.Decimal(x), "f").replace(".", "").strip("0")
        assert len(digits) == 18 and digits.endswith("5")
    got, want = written_as_csv_column(values)
    assert got == want
    assert {2.0 ** -25, 3 * 2.0 ** -24} <= set(screened)
    assert not set(screened) & set(exact_ties())


def test_header_values_are_the_one_cell_case_of_the_csv_formatter():
    values = [True, False, np.True_, np.bool_(False), 0, -3, 2 ** 62, np.int64(-(2 ** 62)),
              *FLOATS.tolist(), *FLOATS, np.float32(0.1)]
    assert [cli._fmt(x) for x in values] == [_fmt(x) for x in values]


def test_json_cells_read_back_as_the_values_written():
    args = synthetic_args("json")
    out = written(cli._emit, args, "synthetic", ["f", "i", "b", "s"],
                  [FLOATS, INTS, BOOLS, STRS])
    rows = json.loads(out)["rows"]
    assert [r[1] for r in rows] == INTS.tolist()
    assert [r[2] for r in rows] == BOOLS.tolist()
    assert [r[3] for r in rows] == STRS.tolist()
    back = np.array([math.nan if r[0] is None else r[0] for r in rows])
    np.testing.assert_array_equal(back, FLOATS)
    assert math.copysign(1.0, back[3]) == -1.0


# -- the predicate -------------------------------------------------------------------

def holder_gap(p: float, alpha: float) -> float:
    """(p - 2)/(2 p) - alpha; the sign decides block-norm boundedness."""
    p = float(p)
    return (p - 2.0) / (2.0 * p) - alpha


def _family_regular(kind: str, alpha, p: float) -> bool:
    if kind == POWER:
        return holder_gap(p, alpha) <= 0.0
    if kind == POWERLOG:
        return holder_gap(p, alpha) < 0.0
    if kind == CONSTANT:
        return False
    if kind == GEOMETRIC:
        return True
    raise AssertionError(kind)


def contains(spec, p: float) -> bool:
    p = float(p)
    left_ok = p > spec.left or (spec.left_closed and p == spec.left)
    right_ok = p < spec.right or (spec.right_closed and p == spec.right)
    return left_ok and right_ok


def right_factor(plan, p: float) -> bool:
    p = float(p)
    return p <= 2.0 or _family_regular(plan.right_kind, plan.right_alpha, p)


def left_factor(plan, p: float) -> bool:
    p = float(p)
    if p >= 2.0:
        return True
    return _family_regular(plan.left_kind, plan.left_alpha, p / (p - 1.0))


def predicted(plan, p: float) -> bool:
    return right_factor(plan, p) and left_factor(plan, p)


def specs():
    """Intervals whose ends sit on grid points, off them, at 1, 2 and inf."""
    yield IntervalSpec(1.0, math.inf, False, False)
    yield IntervalSpec(2.0, 2.0, True, True)
    for left, right in [(1.5, 3.0), (4.0 / 3.0, 4.0), (2.0, 5.0), (1.25, 2.0), (1.0, 6.5),
                        (1.875, math.inf), (1.2, 7.0)]:
        for lc, rc in itertools.product([False, True], repeat=2):
            with contextlib.suppress(ParameterError):   # closed at 1 or inf, open at 2
                yield IntervalSpec(left, right, lc, rc)
    rng = np.random.default_rng(11)
    for _ in range(20):
        yield IntervalSpec(float(rng.uniform(1.01, 2.0)), float(rng.uniform(2.0, 7.9)),
                           bool(rng.integers(2)), bool(rng.integers(2)))


@pytest.mark.parametrize("inv", [20, 8, 1000])
def test_plan_grid_verdicts_match_the_per_point_rules(inv):
    grid = np.arange(inv + 1, 8 * inv + 1) / inv
    points = grid.tolist()
    for spec in specs():
        plan = plan_interval(spec, grid=grid)
        want_predicted = np.array([predicted(plan, p) for p in points], dtype=bool)
        want_member = np.array([contains(spec, p) for p in points], dtype=bool)
        np.testing.assert_array_equal(plan.grid_predicted, want_predicted)
        np.testing.assert_array_equal(plan.grid_member, want_member)
        np.testing.assert_array_equal(plan.predicted(grid), want_predicted)
        np.testing.assert_array_equal(spec.contains(grid), want_member)


def test_scalar_predicates_read_one_truth_value():
    for spec in specs():
        plan = plan_interval(spec, np.arange(21, 161) / 20.0)
        for p in (1.05, 1.5, 2.0, 3.0, 3.05, 8.0, spec.left if spec.left > 1.0 else 1.5):
            for got, want in ((plan.predicted(p), predicted(plan, p)),
                              (plan.right_factor(p), right_factor(plan, p)),
                              (plan.left_factor(p), left_factor(plan, p)),
                              (spec.contains(p), contains(spec, p))):
                assert np.ndim(got) == 0 and bool(got) == want
