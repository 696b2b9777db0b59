"""Reference digests of CLI outputs and the comparison against them.

A digest keeps what the comparison needs and little else:

* the exit code, compared exactly;
* the SHA-256 of stdout: equal bytes pass at once;
* a hash of the text skeleton: every line with each floating-point field
  replaced by a marker, so header lines, column names, text fields,
  integers and non-finite values compare exactly;
* the floating-point fields, compared to within ``REL_TOL`` relative.  Up
  to ``MAX_FLOATS`` of them are kept one by one.  Longer outputs keep
  ``MAX_FLOATS`` chunk fingerprints instead: the plain and the
  position-weighted sum of each chunk, scaled by the chunk's largest
  magnitude, with the weighted sum of magnitudes that scales the
  tolerance, so a changed or swapped value still shows.

Which fields are floating point is fixed by the reference: a CSV column
is floating point when any of its reference values has a '.', an
exponent, or is non-finite; in '#' header lines and JSON documents the
decision is made per token.  A candidate is parsed with the reference's
column classes, so a float printed as ``1`` in one output and
``0.99999999999999989`` in another still compares numerically.
"""

from __future__ import annotations

import hashlib
import json
import math

REL_TOL = 1e-9
MAX_FLOATS = 64
_FLOAT_MARK = "\x00f"


def _is_float_text(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return any(c in token for c in ".eEnN")          # 'nan', 'inf' included


def _split(text: str, float_columns=None):
    """Skeleton lines, float values, and the float columns of the CSV body."""
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        skeleton, floats = [], []
        _flatten(json.loads(text), "", skeleton, floats)
        return skeleton, floats, []
    skeleton, floats = [], []
    lines = text.split("\n")
    body = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    rows = [lines[i].split(",") for i in body[1:]]
    if float_columns is None:
        width = max((len(r) for r in rows), default=0)
        float_columns = [c for c in range(width)
                         if any(c < len(r) and _is_float_text(r[c]) for r in rows)]
    float_set = set(float_columns)
    row_of = dict(zip(body[1:], rows))
    for i, line in enumerate(lines):
        if line.startswith("#"):
            tokens = line.split(" ")
            for j, tok in enumerate(tokens):
                if _is_float_text(tok):
                    _take_float(tok, tokens, j, floats)
            skeleton.append(" ".join(tokens))
        elif i in row_of:
            fields = row_of[i]
            for c in float_set:
                if c < len(fields):
                    _take_float(fields[c], fields, c, floats)
            skeleton.append(",".join(fields))
        else:
            skeleton.append(line)
    return skeleton, floats, float_columns


def _take_float(token, container, index, floats):
    try:
        value = float(token)
    except ValueError:
        return
    if math.isfinite(value):
        floats.append(value)
        container[index] = _FLOAT_MARK


def _flatten(node, path, skeleton, floats):
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(value, f"{path}/{key}", skeleton, floats)
    elif isinstance(node, list):
        skeleton.append(f"{path}[{len(node)}]")
        for i, value in enumerate(node):
            _flatten(value, f"{path}/{i}", skeleton, floats)
    elif isinstance(node, float) and math.isfinite(node):
        floats.append(node)
        skeleton.append(f"{path}={_FLOAT_MARK}")
    else:
        skeleton.append(f"{path}={json.dumps(node)}")


def _chunks(floats):
    size = math.ceil(len(floats) / MAX_FLOATS)
    return [floats[i:i + size] for i in range(0, len(floats), size)]


def _fingerprint(chunk, unit):
    """(sum, weighted sum, weighted magnitude) of ``chunk / unit``."""
    xs = [x / unit for x in chunk]
    return [sum(xs), sum((i + 1) * x for i, x in enumerate(xs)),
            sum((i + 1) * abs(x) for i, x in enumerate(xs))]


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def digest(exit_code: int, stdout: str) -> dict:
    """Reference record of one call's result."""
    skeleton, floats, float_columns = _split(stdout)
    ref = {"exit": exit_code, "sha": _sha(stdout),
           "skeleton": _sha("\n".join(skeleton)), "float_columns": float_columns,
           "n_floats": len(floats)}
    if len(floats) <= MAX_FLOATS:
        ref["floats"] = floats
    else:
        # each chunk is scaled by its largest magnitude, so sums cannot overflow
        ref["chunks"] = []
        for chunk in _chunks(floats):
            unit = max(abs(x) for x in chunk) or 1.0
            ref["chunks"].append([unit, *_fingerprint(chunk, unit)])
    return ref


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * scale


def compare(ref: dict, exit_code: int, stdout: str) -> str | None:
    """None when the result matches the reference, else the first difference."""
    if exit_code != ref["exit"]:
        return f"exit code {exit_code}, reference {ref['exit']}"
    if _sha(stdout) == ref["sha"]:
        return None
    try:
        skeleton, floats, _ = _split(stdout, ref["float_columns"])
    except ValueError as exc:
        return f"output does not parse: {exc}"
    if _sha("\n".join(skeleton)) != ref["skeleton"]:
        return "text fields, integers or layout differ"
    if len(floats) != ref["n_floats"]:
        return f"{len(floats)} floating-point fields, reference {ref['n_floats']}"
    if "floats" in ref:
        for i, (a, b) in enumerate(zip(floats, ref["floats"])):
            if not _close(a, b, max(abs(a), abs(b))):
                return f"floating-point field {i}: {a!r}, reference {b!r}"
        return None
    for i, (chunk, (unit, *want)) in enumerate(zip(_chunks(floats), ref["chunks"])):
        got = _fingerprint(chunk, unit)
        scale = max(got[2], want[2])
        if not (_close(got[0], want[0], scale) and _close(got[1], want[1], scale)):
            return f"floating-point chunk {i} of {len(ref['chunks'])} differs"
    return None
