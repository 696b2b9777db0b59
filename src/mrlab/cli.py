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
import re
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .acceptance import run_all
from .blockspace import (EXACT_TERM_LIMIT, BlockLayout, block_rows, triangular_block_index,
                         triangular_end)
from .certify import (
    IntervalSpec,
    diagonal_norm,
    dissipativity_norm_onset,
    dissipativity_reach,
    dissipativity_witness,
    mr_predicate,
    plan_interval,
)
from .errors import InvariantViolation, LabError, ParameterError
from .multiplier import (
    _PROBE_CELLS,
    TwistedMultiplier,
    bip_pair_ratios,
    bv_semigroup_bound,
    positivity_check,
    scan_times,
    sectoriality_probe,
)
from .rademacher import RadSum, blowup_series, rad_norm
from .sequences import (_LN2, CONSTANT, GEOMETRIC, LACUNARY, POWER, POWERLOG, _geometric_limit,
                        family_ratios, family_seq)
from .twistbasis import SAMPLED_SIGNS, build_permutation, unconditional_constant

_ROW_BLOCK = 1024   # table rows converted and written at a time
# CSV rows from which a numeric table takes _place_rows: its fixed cost, about
# 0.15 ms, matched the % template's cost per float cell at 190 rows of two
# float columns and a bool (semigroup-check's table), 100 of four (bv-bound's)
# and 350 of one
_PLACE_ROWS = 256
_GRID_POINTS = 10 ** 6   # most points a generated grid may hold
_TRUNCATION_DIM = 2 * 10 ** 7   # most coordinates a triangular truncation may hold
_ARRAY_ENTRIES = 10 ** 7   # most entries of the largest array a flag sizes
# a minus sign before what float() reads, alone or first in a comma list;
# argparse's own pattern takes -1 and -.5 but reads -inf, -1e5 and -5,7 as flags
_FLOAT = r"(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf|infinity|nan)"
_NEGATIVE_NUMBER = re.compile(rf"^-{_FLOAT}(?:,[-+]?{_FLOAT})*$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage errors and flag suggestions."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        if "unrecognized arguments" in message:
            bad = message.split(":", 1)[1].strip().split()
            options = set(self._option_string_actions)
            for sub in getattr(self, "_mrlab_subparsers", {}).values():
                options.update(sub._option_string_actions)
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


def _block_cells(column, fmt):
    """The % conversion and the values of one row block of a column.  A JSON
    float block in which _repeats finds repeats comes back as %s of its
    cells' text, each value _repeats leaves formatted once."""
    conversion = _conversion(column, fmt)
    if fmt == "json" and column.dtype.kind == "f":
        values, index = _repeats(column)
        if index is not None:
            text = ("\n".join([conversion] * len(values))
                    % tuple(_cell_values(values, fmt))).split("\n")
            # take, not [index]: over a threshold-series run the indexed
            # object gather left a 0.3 MB higher peak RSS
            return "%s", np.array(text, dtype=object).take(index).tolist()
    return conversion, _cell_values(column, fmt)


# %.17g without dtoa.  A finite nonzero x = m 2^E (np.frexp, 1/2 <= m < 1)
# with k = floor(log10 |x|) has the digits D = round(|x| 10^s), s = 16 - k,
# 10^16 <= D <= 10^17, rounded half to even; a D of 10^17 is 10^16 at k + 1.
# np.log10 only seeds k: |x| >= 10^k exactly when |x| is at least the
# smallest float64 >= 10^k, so one comparison each way against a table of
# those fixes k.  With 10^s = (H + L) 2^b, 1 <= H < 2 and L the rest rounded,
# |10^s 2^-b - H - L| <= 2^-106.  Dekker's two-product m H = P + e, on 26-bit
# halves, is exact, and |x| 10^s = (P + R) 2^q with R = e + m L, q = E + b.
# Each step is one correctly rounded IEEE operation, so the digits are a
# function of x's bits alone.  R's error, in units of 2^q: the table's 2^-106
# times m < 1; |m L| < 2^-53 rounds by 2^-107; |e| <= ulp(P) / 2 <= 2^-53, so
# e + m L rounds by 2^-105: at most 7 2^-107 in all.  P 2^q >= 10^16 > 2^53 is
# an even integer, and 2^q <= 2 (10^17 + 16) < 2^58, so R 2^q is within
# 7 2^-50 < _DIGIT_ERR of the exact rest, and np.rint's half to even rounds
# it as D rounds.  Where 0 <= s <= 22, 10^s is a float64, L = 0 and the rest
# is exact, ties too.  Any other rest within _DIGIT_ERR of a half takes
# Python's digits (_dtoa_digits): 2^-25 and 3 2^-24 tie exactly at s = 24 and
# 23.  No tie exists at s < 0: |x| = (2 D + 1) 5^|s| 2^(|s| - 1) would need an
# odd part above 2^53.
_DIGIT_ERR = 2.0 ** -47
_K_MIN, _K_MAX = -324, 308   # floor(log10 |x|) at float64's extremes
_SPLIT = 2.0 ** 27 + 1.0   # Dekker's splitter: 26-bit halves of a float64
_FLOAT_CHUNK = 4096   # cells _float_words takes at a time; 8192 took 1.8x as long a cell


def _word(text):
    """Up to 8 bytes as a uint64 that holds text[j] in its byte j from the low end."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


# The text of a float cell's digits fills three uint64 words, place 8 i + j in
# byte j of word i.  For v = place - 8 i + 16: the mask of word i's bytes
# before that place, and a point at that place
_LOW_BYTES = np.array([(1 << 8 * min(max(v - 16, 0), 8)) - 1 for v in range(41)], dtype=np.uint64)
_POINT = np.array([_word(b"\0" * (v - 16) + b".") if 16 <= v < 24 else 0 for v in range(41)],
                  dtype=np.uint64)
_NO_POINT = 24   # a place past the three words
_WORD_START = np.array([[0], [8], [16]])
# the digits of nan, inf and 0; the head word holds a sign, none for NaN
_SPECIAL = np.array([_word(b"nan"), _word(b"inf"), _word(b"0")], dtype=np.uint64)


@functools.cache
def _float_tables():
    """The tables of _float_words, built on first use.  Over s = 16 - _K_MAX
    .. 16 - _K_MIN: H, its Dekker halves and L of 10^s = (H + L) 2^b, one
    row each, and b.  Over k = _K_MIN - 1 .. _K_MAX + 1: the smallest
    float64 >= 10^k.  Over k = _K_MIN .. _K_MAX: the word before the digits,
    by the sign bit (a sign, and "0." and zeros for -4 <= k < 0), and e, a sign
    and the exponent (outside -4 <= k < 17) from byte 2 of the last word on."""
    powers, exponents = [], []
    for s in range(16 - _K_MAX, 17 - _K_MIN):
        num, den = 10 ** max(s, 0), 10 ** max(-s, 0)
        b = num.bit_length() - den.bit_length()
        num, den = num << max(-b, 0), den << max(b, 0)
        if num < den:
            b, num = b - 1, 2 * num
        h = num / den   # int / int rounds correctly
        a, c = h.as_integer_ratio()
        t = h * _SPLIT
        powers.append((h, t - (t - h), h - (t - (t - h)), (num * c - a * den) / (den * c)))
        exponents.append(b)
    at_least = []
    for k in range(_K_MIN - 1, _K_MAX + 1):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        value = num / den
        a, c = value.as_integer_ratio()
        at_least.append(math.nextafter(value, math.inf) if a * den < num * c else value)
    ks = range(_K_MIN, _K_MAX + 1)
    head = np.array([[_word(sign + (b"0." + b"0" * (-1 - k) if -4 <= k < 0 else b""))
                      for k in ks] for sign in (b"", b"-")], dtype=np.uint64)
    tail = np.array([_word(b"\0\0" + (b"e%+03d" % k if not -4 <= k < 17 else b""))
                     for k in ks], dtype=np.uint64)
    return (np.array(powers).T.copy(), np.array(exponents), np.array(at_least + [math.inf]),
            head, tail)


def _eight_digits(v):
    """Integers below 10^8 in place as their 8 digits, one a byte, the first
    in the low byte: halves of 4 digits in 32-bit lanes, then pairs in 16-bit
    lanes, then digits in bytes.  A multiply and a shift divide each lane by
    100 or 10 (exactly, below 10^4 and 100), and the masks drop what the lane
    above spills into it."""
    high = v // 10 ** 4
    v -= high * 10 ** 4
    v <<= 32
    v |= high
    high = v * 10486
    high >>= 20
    high &= 0x0000007F0000007F
    v -= high * 100
    v <<= 16
    v |= high
    high = v * 103
    high >>= 10
    high &= 0x000F000F000F000F
    v -= high * 10
    v <<= 8
    v |= high


def _dtoa_digits(values):
    """The digits D and the exponent k of each value as Python writes them,
    for the cells whose rounding _float_words cannot decide (_DIGIT_ERR)."""
    text = [("%.16e" % v).split("e") for v in values.tolist()]
    return [int(m.replace(".", "")) for m, _ in text], [int(e) for _, e in text]


def _decimal(ax):
    """The 17 digits D, as int64, and the exponent k of "%.17g" % x for finite
    positive float64 cells ax (see _DIGIT_ERR)."""
    powers, exponents, at_least = _float_tables()[:3]
    m, q = np.frexp(ax)
    k = np.log10(ax)
    k += 1 - _K_MIN   # positive, so truncation floors it
    k = k.astype(np.intp)   # k - _K_MIN + 1, the index into at_least
    k -= ax < at_least[k]
    k += ax >= at_least[k + 1]
    i = (_K_MAX - _K_MIN + 1) - k   # s - (16 - _K_MAX)
    k += _K_MIN - 1
    h, hh, hl, low = powers.take(i, axis=1)
    q += exponents.take(i)
    t = m * _SPLIT
    mh = t - (t - m)
    ml = m - mh
    p = m * h
    e = mh * hh
    e -= p
    e += mh * hl
    e += ml * hh
    e += ml * hl
    low *= m
    e += low
    rest = np.ldexp(e, q)
    rounded = np.rint(rest)
    digits = np.ldexp(p, q).astype(np.int64)
    digits += rounded.astype(np.int64)
    rest -= rounded
    np.abs(rest, out=rest)
    near = (rest >= 0.5 - _DIGIT_ERR) & ((k < -6) | (k > 16))   # 10^s no float64
    top = digits == 10 ** 17
    np.copyto(digits, 10 ** 16, where=top)
    k += top
    if near.any():
        digits[near], k[near] = _dtoa_digits(ax[near])
    return digits, k


def _digit_bytes(digits, words):
    """The 17 digits of each D into three words, digits 0-7, 8-15 and 16, one
    a byte; and the place of the last digit that is not 0, read from the
    highest nonzero byte (a digit below 10 cannot round the float up past
    its byte)."""
    first = digits // 10 ** 9
    tenth = digits // 10
    words[0] = first
    words[1] = tenth - first * 10 ** 8
    words[2] = digits - tenth * 10
    _eight_digits(words[:2])
    byte = np.frexp(words.astype(np.float64))[1]
    byte -= 1
    byte >>= 3
    return np.where(words[2] > 0, 16, np.where(words[1] > 0, 8 + byte[1], byte[0]))


def _insert_point(words, point):
    """The point into three words of text before the place point (none at
    _NO_POINT): each word keeps its bytes before it, moves the rest up a byte
    and, after the point, takes the top byte of the word before it."""
    at = point + (16 - _WORD_START)
    mask = _LOW_BYTES.take(at)
    carry = words[:-1] >> 56
    carry *= at[1:] < 16
    moved = words & ~mask
    moved <<= 8
    words &= mask
    words |= moved
    words |= _POINT.take(at)
    words[1:] |= carry


def _float_words(x):
    """float64 cells as "%.17g" % x writes them (see _DIGIT_ERR), four words
    each down the cells, NUL where a cell leaves a place unused: a sign with
    "0." and zeros; the 17 digits, the point moving the digits after it up a
    byte; then e and the exponent.  _FLOAT_CHUNK cells at a time."""
    if len(x) > _FLOAT_CHUNK:
        cells = np.empty((4, len(x)), dtype=np.uint64)
        for i in range(0, len(x), _FLOAT_CHUNK):
            cells[:, i:i + _FLOAT_CHUNK] = _float_words(x[i:i + _FLOAT_CHUNK])
        return cells
    ax = np.abs(x)
    special = ~((ax > 0.0) & (ax < math.inf))   # NaN, +-inf and +-0
    np.copyto(ax, 1.0, where=special)
    digits, k = _decimal(ax)
    cells = np.empty((4, len(x)), dtype=np.uint64)
    words = cells[1:]
    last = _digit_bytes(digits, words)
    # the place of the point (before the digit there), and the last digit
    # written: the last that is not 0, or the last before the point
    fixed = (k >= -4) & (k < 17)
    point = np.where(fixed, k + 1, 1)
    keep = np.maximum(last, point - 1)
    point[(point <= 0) | (point > last)] = _NO_POINT
    words |= _word(b"0" * 8)
    words &= _LOW_BYTES.take(keep + (17 - _WORD_START))
    _insert_point(words, point)
    if special.any():
        v = x[special]
        words[:, special] = 0
        words[0, special] = _SPECIAL[np.where(np.isnan(v), 0, np.where(np.isinf(v), 1, 2))]
    head, tail = _float_tables()[3:]
    k -= _K_MIN
    if not fixed.all():
        words[2] |= tail.take(k)
    cells[0] = head[(np.signbit(x) & ~np.isnan(x)).view(np.uint8), k]
    return cells


_MINUS = np.uint64(_word(b"\0" * 7 + b"-"))   # a sign word, before the digits
_ZERO = np.uint64(_word(b"\0" * 7 + b"0"))   # the last digit word of the cell 0
# a bool cell, its first byte NUL
_BOOL_WORDS = np.array([[_word(b"\0false")], [_word(b"\0true")]], dtype=np.uint64)


def _int_words(column):
    """An integer column as str(int) writes it, rows x words: the digits of
    the uint64 magnitudes (so int64's minimum works), 8 a word by
    _eight_digits, in digits // 8 + 1 words so that a cell's first byte is
    NUL, its leading zeros NUL; a sign word before them where a cell is
    negative."""
    column = column.astype(np.int64, copy=False)
    rest = np.abs(column).view(np.uint64)   # abs(-2^63) wraps, read as 2^63
    negative = column < 0
    sign = int(negative.any())
    cell = np.empty((sign + len(str(int(rest.max()))) // 8 + 1, len(column)), dtype=np.uint64)
    digits = cell[sign:]
    for word in digits[:0:-1]:
        high = rest // 10 ** 8
        np.subtract(rest, high * 10 ** 8, out=word)
        rest = high
    digits[0] = rest
    _eight_digits(digits)
    written = np.zeros(len(column), dtype=np.uint64)
    for word in digits:
        written |= -(word & -word)   # each bit from the first digit that is not 0 on
        word |= written & _word(b"0" * 8)
        written = -(written >> 63)   # every bit of the words after
    digits[-1] |= _ZERO & ~written   # the cell 0
    if sign:
        np.multiply(negative, _MINUS, out=cell[0])
    return cell.T


def _repeats(column):
    """A float column of a row block as the values to format and the index
    of each row's value, or None for every row its own.  From _ROW_BLOCK rows
    on, equal bit patterns are formatted once where that halves the values:
    a run of one pattern, or, where runs do not and the first 64 rows repeat,
    each distinct pattern.  Bits keep -0.0 from 0.0 and NaN payloads apart."""
    x = column.astype(np.float64, copy=False)
    if len(x) < _ROW_BLOCK:
        return x, None
    bits = x.view(np.int64)
    new = np.concatenate(([True], bits[1:] != bits[:-1]))
    if 2 * np.count_nonzero(new) <= len(x):
        return bits[new].view(np.float64), np.cumsum(new) - 1
    if 2 * len(set(bits[:64].tolist())) <= 64:
        # with a return flag np.unique leaves numpy.ma unimported
        bits, index = np.unique(bits, return_inverse=True)
        if 2 * len(bits) <= len(x):
            return bits.view(np.float64), index
    return x, None


def _float_blocks(columns):
    """Float columns of a row block as rows of words, rows x words: one
    _float_words call on what _repeats leaves of them; a head word that no
    cell of a column uses is left out."""
    if not columns:
        return []
    values, index = zip(*map(_repeats, columns))
    words = np.split(_float_words(np.concatenate(values)),
                     np.cumsum([len(v) for v in values[:-1]]), axis=1)
    words = [(w if w[0].any() else w[1:]).T for w in words]
    return [w if i is None else np.ascontiguousarray(w)[i] for w, i in zip(words, index)]


def _place_rows(arrays, pieces):
    """Rows of integer, bool and float columns as bytes: pieces[0], the first
    cell, pieces[1], ..., the last cell, pieces[-1]; a cell as str(int),
    true/false or "%.17g" writes it.  Every cell and piece is laid out as
    uint64 words, rows x words, NUL wherever it leaves a place unused:
    integers by _int_words, bools as _BOOL_WORDS, floats by _float_blocks.
    A one-byte piece takes the free last byte of a float cell before it, or
    else the free first byte of an integer or bool cell after it; any other
    piece is words of its own.  Row-major, the words lose their NULs."""
    rows = len(arrays[0])
    floats = iter(_float_blocks([a for a in arrays if a.dtype.kind == "f"]))
    blocks, fold = [], 0
    for j, piece in enumerate(pieces):
        piece = piece.encode()
        kind = arrays[j].dtype.kind if j < len(arrays) else None
        if j and arrays[j - 1].dtype.kind == "f" and len(piece) == 1:
            blocks[-1][:, -1] |= np.uint64(piece[0] << 56)
        elif kind in ("i", "b") and len(piece) == 1:
            fold = piece[0]
        elif piece:
            text = np.frombuffer(piece + b"\0" * (-len(piece) % 8), dtype="<u8")
            blocks.append(np.broadcast_to(text, (rows, text.size)))
        if kind is None:
            break
        blocks.append(next(floats) if kind == "f" else _int_words(arrays[j]) if kind == "i"
                      else _BOOL_WORDS[arrays[j].astype(np.intp)])
        if fold:
            blocks[-1][:, 0] |= np.uint64(fold)
            fold = 0
    table = bytearray(rows * 8 * sum(block.shape[1] for block in blocks))
    np.concatenate(blocks, axis=1, out=np.frombuffer(table, dtype="<u8").reshape(rows, -1))
    del blocks, floats   # not held while the bytes lose their NULs
    return table.translate(None, b"\0")


class _Out:
    """The target of --out: a file, or stdout for None or '-'.  A write,
    flush or close that fails ends as a ParameterError naming the target."""

    def __init__(self, path):
        self.path = path

    def __enter__(self):
        self._close = self.path not in (None, "-")
        try:
            self.fh = (open(self.path, "w", encoding="utf-8", newline="\n") if self._close
                       else sys.stdout)
        except OSError as exc:
            raise ParameterError(f"cannot write {self.path}: {exc}") from None
        return self.fh

    def __exit__(self, kind, exc, tb):
        try:
            if self._close:
                self.fh.close()   # closes the file even when its last flush fails
            else:
                self.fh.flush()
        except OSError as err:
            exc = exc or err
        if isinstance(exc, OSError):
            if not self._close:
                # what stdout still buffers would fail again at interpreter exit
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            target = self.path if self._close else "stdout"
            raise ParameterError(f"cannot write {target}: {exc}") from None


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

    Each cell is written by its column's dtype; a scalar stands for a
    one-row column.  A table whose every column is integer, and a CSV table
    of _PLACE_ROWS rows or more whose columns are integer, bool or float,
    goes through _place_rows, 8 row blocks at a time (4 with a float
    column): the bytes of str(int), true/false and "%.17g" % x, exact for
    every float64 bit pattern (see _DIGIT_ERR).  Any other table (JSON floats, written by repr; str
    columns; shorter tables) goes through one % template per row,
    _ROW_BLOCK rows at a time, and a full row block of a JSON float column
    in which _repeats finds repeats is formatted once per value it leaves
    and written as text (_block_cells).  JSON's
    bytes are as they were.  CSV carries a # header with ``extra``
    as its last lines.  A JSON report is ``report`` dumped with _ROWS where
    the rows go, the rows as objects keyed by column; by default it is meta
    (with ``extra`` as notes), columns and rows, the rows as lists.
    """
    arrays = [np.atleast_1d(a) for a in arrays]
    fmt = args.format
    n = len(arrays[0])
    if fmt == "csv":
        head = "".join([f"# mrlab {__version__}\n", f"# schema mrlab/{command}/v1\n",
                        f"# seed {args.seed}\n",
                        f"# config {json.dumps(_config(args), sort_keys=True, default=str)}\n",
                        *[f"# {line}\n" for line in extra], ",".join(columns) + "\n"])
        keys, start, joiner, end = [""] * len(columns), "", ",", "\n"
        sep, tail = "", ""
    else:
        if report is None:
            report = {"meta": {**_meta(args, command), "notes": list(extra)},
                      "columns": list(columns), "rows": _ROWS}
            keys, ends = [""] * len(columns), "[]"
        else:
            keys, ends = [json.dumps(c).replace("%", "%%") + ": " for c in columns], "{}"
        # the rows sit two levels deep, under a top-level key
        start, joiner, end = f"    {ends[0]}\n      ", ",\n      ", f"\n    {ends[1]}"
        head, _, tail = json.dumps(report, indent=2).rpartition(json.dumps(_ROWS))
        opening, closing = ("[\n", "\n  ]") if n else ("[", "]")   # as json.dump writes []
        head, sep, tail = head + opening, ",\n", closing + tail + "\n"

    @functools.lru_cache(maxsize=None)
    def template(conversions, rows):
        return sep.join([start + joiner.join(map(str.__add__, keys, conversions)) + end] * rows)

    with _Out(args.out) as fh:
        fh.write(head)
        kinds = {a.dtype.kind for a in arrays}
        if kinds == {"i"} or fmt == "csv" and kinds <= set("ibf") and n >= _PLACE_ROWS:
            # every row takes sep first
            row = template(("%s",) * len(arrays), 1) % (("\0",) * len(arrays))
            pieces = (sep + row).split("\0")
            # 4 row blocks with floats keep gen-gamma --n 30000 within the
            # peak memory that tests/test_cli.py allows
            rows = (8 if kinds == {"i"} else 4) * _ROW_BLOCK
            for i in range(0, n, rows):
                text = _place_rows([a[i:i + rows] for a in arrays], pieces).decode()
                fh.write(text if i else text[len(sep):])
                del text   # not held while the next block is laid out
        else:
            for i in range(0, n, _ROW_BLOCK):
                conversions, part = zip(*[_block_cells(a[i:i + _ROW_BLOCK], fmt)
                                          for a in arrays])
                values = tuple(itertools.chain.from_iterable(zip(*part)))   # row-major
                fh.write((sep if i else "") + template(conversions, len(part[0])) % values)
        fh.write(tail)


class _Size(NamedTuple):
    """The problem a subcommand allocates: the coordinates of its truncation,
    the points of its grid (None without one), its random samples, and each
    array its flags size as (the flags a refusal names, entries), in the
    order _admit reads them.  A count below its range states no size, so
    that the range check which follows names it."""
    dim: int = 0
    points: float | None = None
    samples: int = 0
    arrays: tuple = ()


def _admit(size):
    """Refuse a record whose grid, arrays or truncation exceed _GRID_POINTS,
    _ARRAY_ENTRIES or _TRUNCATION_DIM."""
    if size.points is not None and not 1 <= size.points <= _GRID_POINTS:
        raise ParameterError(f"a grid takes 1 to {_GRID_POINTS} points, not {size.points:.7g}")
    for flags, entries in size.arrays:
        if entries > _ARRAY_ENTRIES:
            raise ParameterError(f"{flags} asks for an array of {entries} entries; "
                                 f"at most {_ARRAY_ENTRIES} are allowed")
    if size.dim > _TRUNCATION_DIM:
        raise ParameterError(f"a truncation takes at most {_TRUNCATION_DIM} coordinates, "
                             f"not {size.dim}")


def _at_least_one(flag, value):
    if value < 1:
        raise ParameterError(f"{flag} must be at least 1")
    return value


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
            _admit(_Size(points=b - a + 1))
            if a < -1074 or b > 1023:   # 2^a or 2^b is no float64 number
                raise ValueError(text)
            return 2.0 ** np.arange(a, b + 1)
        if text.startswith("geom:"):
            _, a, b, n = text.split(":")
            a, b, n = float(a), float(b), int(n)
            if (a < 0.0) != (b < 0.0):   # like a zero endpoint, no geometric grid joins them
                raise ValueError(text)
            _admit(_Size(points=n))
            return np.geomspace(a, b, n)
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


def _operator_size(args):
    """The record of _gamma_operator: the smallest triangular layout holding
    --n coordinates, and its covering permutation of at most 2 n + 8 entries."""
    n = _at_least_one("--n", args.n)
    return _Size(dim=triangular_end(triangular_block_index(n)), arrays=((f"--n {n}", 2 * n + 8),))


# -- subcommands --------------------------------------------------------------
# Each is a generator: it yields its _Size record before it builds anything
# and, once main has admitted the record, writes its output; its last yield,
# if any, is the InvariantViolation of a failed invariant or None.


def cmd_gen_gamma(args):
    n = _at_least_one("--n", args.n)
    yield _Size(arrays=((f"--n {n}", n),))
    seq, ratios = family_seq(*_family(args), n)
    cvals = np.full(n, float("nan"))
    cvals[1:] = seq.recovered_ratios() if ratios is None else ratios.values_upto(n)[1:]
    with np.errstate(over="ignore"):
        vals = np.exp2(seq.log2)
    _emit(args, "gen-gamma", ["m", "c_m", "gamma_m", "log_gamma_m"],
          [np.arange(1, n + 1), cvals, vals, seq.log2 * _LN2])


def cmd_pi_table(args):
    yield _Size(arrays=((f"--n {args.n}", args.n + 1),))
    perm = build_permutation(args.n)
    # each b a row " b", its space in the NUL first byte of the integer cell
    b_line = _place_rows([perm.b_list[:(args.n - 2) // 4 + 1]], [" ", ""])[1:].decode()
    m = np.arange(1, args.n + 1)
    # pi fixes the odds; the inverse table reads 0 where no preimage is <= n
    inverse = np.where(m % 2 == 1, m, perm.inv_even[m // 2])
    _emit(args, "pi-table", ["m", "pi", "inverse"], [m, perm.table[1:], inverse],
          extra=[f"b_list {b_line}"])


def cmd_semigroup_check(args):
    grid = _parse_grid(args.tgrid)
    yield _operator_size(args)._replace(points=grid.size)
    op = _gamma_operator(args)
    scan_times(grid)   # a bad grid is the error named before a bad --tol
    if not 0.0 <= args.tol < math.inf:   # --tol sets only the printed verdicts
        raise ParameterError(f"the tolerance must be finite and >= 0, not {args.tol}")
    rep = positivity_check(op, grid)
    extra = [f"verdict {_fmt(rep.min_entry >= -args.tol)}",
             f"monotone_pairs {_fmt(rep.monotone_pairs)}",
             f"min_entry {_fmt(rep.min_entry)} at t {_fmt(rep.argmin_t)} column {rep.argmin_col}"]
    _emit(args, "semigroup-check", ["t", "min_entry", "verdict"],
          [rep.t_grid, rep.per_t_min, rep.per_t_min >= -args.tol], extra=extra)
    yield rep.violation()


def cmd_bv_bound(args):
    alphas, ts = _parse_grid(args.alpha), _parse_grid(args.tgrid)
    yield _Size(points=alphas.size * ts.size, arrays=((f"--n {args.n}", args.n),))
    computed, closed = (part.ravel() for part in bv_semigroup_bound(alphas[:, None], ts, args.n))
    columns = [np.repeat(alphas, ts.size), np.tile(ts, alphas.size), computed, closed]
    ok = computed <= closed
    _emit(args, "bv-bound", ["alpha", "t", "computed", "bound", "ok"], [*columns, ok])
    yield None if ok.all() else InvariantViolation(   # the first failing row
        "variation exceeds its closed-form bound at alpha %s t %s: computed %s, bound %s"
        % tuple(_fmt(c[np.argmin(ok)]) for c in columns))


def cmd_bip_check(args):
    # the pair bound reads the ratios of blocks 2 .. K, K the block of index 2 pairs
    blocks, ts = triangular_block_index(2 * args.pairs), _parse_grid(args.tgrid)
    yield _Size(points=ts.size, arrays=((f"--pairs {args.pairs}", blocks),))
    ratios = family_ratios(*_family(args), blocks)
    per_t = bip_pair_ratios(ratios, ts, args.pairs)
    worst = max(0.0, *per_t.tolist())
    _emit(args, "bip-check", ["t", "worst_ratio"], [ts, per_t],
          extra=[f"worst_ratio {_fmt(worst)}"])
    yield None if worst <= 1.0 else InvariantViolation(
        f"imaginary-power pair ratio above 1: worst_ratio {_fmt(worst)}")


def cmd_sector_probe(args):
    angles, radii = _parse_grid(args.angles), _parse_grid(args.radii)
    size = _operator_size(args)
    trials = _at_least_one("--trials", args.trials)
    rays = angles.size * radii.size
    # a result a trial of each ray, and a batch of _PROBE_CELLS // dim rows of dim coordinates
    yield size._replace(points=rays, samples=trials, arrays=size.arrays + (
        (f"--trials {trials} on {rays} rays", rays * trials),
        (f"--n {args.n}", max(1, _PROBE_CELLS // size.dim) * size.dim)))
    op = _gamma_operator(args)
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


def cmd_rad_norm(args):
    dim = triangular_end(max(args.blocks, 0))
    flags = f"--k {args.k} with --blocks {args.blocks}"
    # the terms, a square a sample, and past the exact limit a row block of signs
    arrays = ((flags, max(args.k, 1) * dim), (f"--samples {args.samples}", max(args.samples, 0)))
    enumerable = args.k <= EXACT_TERM_LIMIT
    if not enumerable and dim:
        arrays += ((flags, block_rows(dim) * args.k),)
    yield _Size(dim=dim, samples=args.samples, arrays=arrays)
    layout = BlockLayout.triangular(args.blocks)
    terms = np.random.default_rng(args.seed).standard_normal((max(args.k, 0), layout.dim))
    s = RadSum(terms, layout, args.p)
    exact = rad_norm(s, "exact") if enumerable else float("nan")
    sampled = rad_norm(s, "sampled", seed=args.seed, samples=args.samples)
    _emit(args, "rad-norm", ["k", "p", "exact", "sampled", "stderr"],
          [args.k, args.p, exact, sampled.value, sampled.stderr])
    yield s.sampled_violation(sampled.value, exact, args.samples, 4) if enumerable else None


def cmd_rbound_blowup(args):
    blocks = _parse_ints(args.blocks)
    yield _Size(arrays=((f"--blocks {max(blocks)}", max(blocks) + 1),))
    series = blowup_series(args.family, args.p, alpha=args.alpha, block_counts=blocks)
    _emit(args, "rbound-blowup", ["k", "L_k", "fitted_slope"],
          [series.ks, series.lower, np.full(series.ks.size, series.slope)],
          extra=[f"slope {_fmt(series.slope)}"])


def cmd_diag_norm(args):
    yield _Size(arrays=((f"--blocks {args.blocks}", max(args.blocks, 0)),))
    ratios = family_ratios(*_family(args), args.blocks)
    dn = diagonal_norm(ratios, args.p, args.blocks)
    _emit(args, "diag-norm", ["p", "q", "value", "argmax_block"],
          [dn.p, dn.q, dn.value, dn.block],
          extra=[f"regular {_fmt(mr_predicate(ratios, args.p))}"])


def cmd_interval_certify(args):
    # required once the config is merged, so an output's own record replays
    missing = [flag for flag in ("--left", "--right") if getattr(args, flag[2:]) is None]
    if missing:
        raise ParameterError(f"the following arguments are required: {', '.join(missing)}")
    try:
        left, right = float(args.left), float(args.right)
    except ValueError:
        raise ParameterError("--left and --right take numbers ('inf' on the right)") from None
    if not 0.0 < args.grid <= 1.0:
        raise ParameterError("--grid must lie in (0, 1]")
    spec = IntervalSpec(left, right, args.left_closed, args.right_closed)
    yield _Size(points=7.0 / args.grid)
    # integer numerators keep grid points at the exact rationals k/inv
    inv = round(1.0 / args.grid)
    grid = np.arange(inv + 1, 8 * inv + 1) / inv
    plan = plan_interval(spec, grid=grid)
    report = {
        "meta": _meta(args, "interval-certify"),
        "interval": spec.describe(),
        "plan": {key: getattr(plan, key) for key in (   # notes, a tuple, dumps as a list
            "right_kind", "right_alpha", "left_kind", "left_alpha", "left_dual_endpoint",
            "external_reference", "notes")},
        "per_p": _ROWS,
        "set_equal": True,
    }
    _emit(args, "interval-certify", ["p", "predicted", "member"],
          [plan.grid, plan.grid_predicted, plan.grid_member],
          extra=[f"interval {spec.describe()}",
                 f"right {plan.right_kind} {plan.right_alpha}",
                 f"left {plan.left_kind} {plan.left_alpha}",
                 "set_equal true"], report=report)


def cmd_dissipativity(args):
    yield _Size(dim=triangular_end(max(args.block, 0)),
                arrays=((f"--onset-max {args.onset_max}", args.onset_max + 1),))
    family, param = _family(args)
    # the witness reads ratio blocks 1..block + 2 and the onset scan blocks
    # 1..onset-max + 1, of which the geometric family has _geometric_limit:
    # past them, refuse in the flag's terms, naming the largest value that
    # runs (dissipativity_witness names the largest block where the values
    # or the pairing pass the float64 range, before it solves past it)
    limit = _geometric_limit(0.125) if family == GEOMETRIC else math.inf
    past = (f"{{}} reads ratios past the {limit} blocks on which the geometric family stays "
            f"positive; the largest {{}} that runs is {{}}")
    if args.onset_max >= limit:
        raise ParameterError(past.format(f"--onset-max {args.onset_max}", "value", limit - 1))
    top = min(args.block, limit - 2)
    ratios = family_ratios(family, param, max(top + 2, args.onset_max + 1))
    if top < args.block:
        raise ParameterError(past.format(f"--block {args.block}", "block",
                                         dissipativity_reach(ratios, top)[0]))
    w = dissipativity_witness(ratios, args.block)
    onset = dissipativity_norm_onset(ratios, k_max=args.onset_max)
    _emit(args, "dissipativity",
          ["block", "pairing", "closed_form", "x_norm_sq", "n_terms"],
          [w.block, w.pairing, w.closed_form, w.x_norm_sq, w.n_terms],
          extra=[f"norm_onset_block {onset if onset is not None else 'none'}"])
    yield w.violation()


def cmd_uncond_constant(args):
    n, size = args.n, _Size()
    # exact mode enumerates at most EXACT_TERM_LIMIT terms; n < 2 is refused below
    if args.mode == "sampled" and n >= 2:
        # the sign products, sign rows x dim; the layout holds the largest
        # head pi(4k + 2) = b_k with 4k + 2 <= n, which lies in block k + 2
        dim = triangular_end(max(triangular_block_index(n), (n - 2) // 4 + 2))
        size = _Size(dim=dim, samples=SAMPLED_SIGNS,
                     arrays=((f"--n {n}", SAMPLED_SIGNS * dim),))
    yield size
    val = unconditional_constant(n, args.p, mode=args.mode, seed=args.seed)
    _emit(args, "uncond-constant", ["n", "p", "mode", "estimate"],
          [n, args.p, args.mode, val])


def cmd_selftest(args):
    yield _Size()
    numbers = set(_parse_ints(args.only)) if args.only else None
    results = run_all(numbers)
    with _Out(args.out) as fh:
        for res in results:
            fh.write(res.line() + "\n")
    failed = [str(r.number) for r in results if not r.passed]
    yield InvariantViolation(f"acceptance checks failed: {','.join(failed)}") if failed else None


# -- wiring --------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _build_parser(env_seed):
    """The argument parser for one value of MRLAB_SEED, the --seed default."""
    parser = _Parser(prog="mrlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mrlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    parser._mrlab_subparsers = subs.choices   # name -> subparser

    def flag(option, default=None, help=None, **kwargs):
        """A flag that reads its default's type; a False default makes a switch."""
        if default is False:
            kwargs["action"] = "store_true"
        elif isinstance(default, (int, float)):
            kwargs["type"] = type(default)
        return option, dict(default=default, help=help, **kwargs)

    def family(default, *choices):
        """--family, --alpha and, where constant is a choice, --value."""
        value = [flag("--value", 0.1, "constant family value")] if CONSTANT in choices else []
        return [flag("--family", default, choices=list(choices)), flag("--alpha", 0.25), *value]

    shared = [flag("--seed", env_seed,   # a string until main applies _seed
                   "RNG seed (default: MRLAB_SEED or 0)"),
              flag("--out", "-", "output path, '-' for stdout"),
              flag("--config", None, "JSON file whose entries override flags"),
              flag("--format", None, "output format (default: csv tables, json reports)",
                   choices=["csv", "json"]),
              flag("--jobs", 1, "worker hint; output does not depend on it")]
    # name, generator, help, and the flags past the shared ones
    for name, fn, text, *flags in [
        ("gen-gamma", cmd_gen_gamma, "dump a multiplier sequence as CSV",
         *family("constant", "lacunary", "power", "powerlog", "constant", "geometric"),
         flag("--n", 64, "sequence length")),
        ("pi-table", cmd_pi_table, "dump the even permutation table",
         flag("--n", 64)),
        ("semigroup-check", cmd_semigroup_check, "positivity scan of the semigroup matrices",
         flag("--gamma", "lacunary", "lacunary | power:A | powerlog:A | constant:C"),
         flag("--tgrid", "pow2:-10:10"),
         flag("--n", 128, "truncation dimension"),
         flag("--tol", 1e-12)),
        ("bv-bound", cmd_bv_bound, "variation bound for the lacunary semigroup",
         flag("--alpha", "0.25,0.5,1.0"),
         flag("--tgrid", "geom:0.01:10:50"),
         flag("--n", 2000)),
        ("bip-check", cmd_bip_check, "imaginary-power pair inequality",
         *family("power", "power", "powerlog", "constant"),
         flag("--tgrid", "0.01,0.1,1,10,100"),
         flag("--pairs", 10000)),
        ("sector-probe", cmd_sector_probe, "resolvent bounds along rays",
         flag("--gamma", "lacunary"),
         flag("--angles", "0.5,1.0,1.5707963267948966"),
         flag("--radii", "geom:1:1e6:7"),
         flag("--p", 4.0),
         flag("--trials", 3),
         flag("--n", 64, "truncation dimension")),
        ("rad-norm", cmd_rad_norm, "exact vs sampled Rademacher norm",
         flag("--k", 10, "number of terms"),
         flag("--blocks", 6),
         flag("--p", 3.0),
         flag("--samples", 100000)),
        ("rbound-blowup", cmd_rbound_blowup, "leaked-mass blow-up series",
         *family("powerlog", "lacunary", "power", "powerlog"),
         flag("--p", 4.0),
         flag("--blocks", "100,1000,10000", "comma list of k")),
        ("diag-norm", cmd_diag_norm, "diagonal-map norm and its winning block",
         *family("power", "power", "powerlog", "constant", "geometric"),
         flag("--p", 4.0),
         flag("--blocks", 20)),
        ("interval-certify", cmd_interval_certify, "plan families realizing a regularity interval",
         flag("--left", None, "number; required"),
         flag("--right", None, "number or 'inf'; required"),
         flag("--left-closed", False),
         flag("--right-closed", False),
         flag("--grid", 0.05)),
        ("dissipativity", cmd_dissipativity, "sup-block dissipativity witness",
         *family("power", "power", "powerlog", "constant", "geometric"),
         flag("--block", 30),
         flag("--onset-max", 120)),
        ("uncond-constant", cmd_uncond_constant, "unconditional-constant lower estimate",
         flag("--n", 12),
         flag("--p", 2.0),
         flag("--mode", "exact", choices=["exact", "sampled"])),
        ("selftest", cmd_selftest, "run the acceptance suite",
         flag("--only", None, "comma list of check numbers")),
    ]:
        sp = subs.add_parser(name, help=text,
                             formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sp.set_defaults(func=fn)
        for option, kwargs in shared + flags:
            sp.add_argument(option, **kwargs)
    return parser


def _config_value(action, value):
    """A config entry read the way the flag's parser action reads it."""
    if action.nargs == 0:  # store_true switches take JSON booleans, or their str
        if value in ("True", "False"):   # as _meta writes them
            return value == "True"
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
                if key == "command":   # an output's own config record names its subcommand
                    if value != args.command:
                        raise ParameterError(f"config {args.config} is for the command "
                                             f"{value!r}, not {args.command!r}")
                    continue
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
        run = args.func(args)
        _admit(next(run))
        if (violation := next(run, None)) is not None:
            raise violation
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
