"""Layer sweep: five layer functions timed at a size n and about 4n.

Each function reports ``size_exponent = log(t(4n) / t(n)) / log(4n / n)``:
about 1 for a linear path and about 2 for a quadratic one, even while
the wall time still looks small.  Functions that need an operator are
timed through the CLI with the tracer on, as the span of the function
itself; the others are called directly.  Each time is the best of up to
three runs.
"""

from __future__ import annotations

import contextlib
import io
import math
import time

import numpy as np

from perfbench.tracing import Tracer

# ROADMAP baseline table: 2 CPUs, Python 3.10.12, numpy 2.4.6 (seconds by size)
BASELINE = {
    "positivity_check": {5050: 0.20, 20100: 2.91},
    "blowup_series": {10_000: 0.83},
    "sectoriality_probe": {2000: 0.59},
}


def _best(fn, budget=1.0, reps=3):
    times, spent = [], 0.0
    while len(times) < reps and spent < budget:
        t = fn()
        times.append(t)
        spent += t
    return min(times)


def _span_time(argv, span):
    """Time of the named span inside one in-process CLI call."""
    from mrlab.cli import main

    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return tracer.total(span)


def _timed(fn, *args, **kwargs):
    t = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t


def _positivity(dim):
    return _span_time(["semigroup-check", "--gamma", "constant:0.001", "--n", str(dim)],
                      "multiplier.positivity_check")


def _sector(dim):
    return _span_time(["sector-probe", "--n", str(dim)], "multiplier.sectoriality_probe")


def _blowup(blocks):
    from mrlab.rademacher import blowup_series

    return _timed(blowup_series, "powerlog", 4.0, alpha=0.25, block_counts=(blocks,))


def _rad_norm_exact(patterns):
    from mrlab.blockspace import BlockLayout
    from mrlab.rademacher import RadSum, rad_norm

    k = int(round(math.log2(patterns)))
    layout = BlockLayout.triangular(20)
    terms = np.random.default_rng(0).standard_normal((k, layout.dim))
    return _timed(rad_norm, RadSum(terms, layout, 3.0), "exact")


def _permutation(n):
    from mrlab.twistbasis import build_permutation

    return _timed(build_permutation, n)


# name -> (what the size counts, small size, large size, timer)
CASES = {
    "positivity_check": ("dim, constant:0.001", 5050, 20100, _positivity),
    "blowup_series": ("blocks, powerlog", 2500, 10_000, _blowup),
    "sectoriality_probe": ("dim, 3x7 rays", 500, 2000, _sector),
    "rad_norm": ("sign patterns (k = 12, 14), dim 210", 2 ** 12, 2 ** 14, _rad_norm_exact),
    "build_permutation": ("n", 25_000, 100_000, _permutation),
}


def run_sweep() -> dict:
    """{name: {"sizes", "times", "size_exponent"}} for every case."""
    out = {}
    for name, (unit, small, large, timer) in CASES.items():
        t_small = _best(lambda: timer(small))
        t_large = _best(lambda: timer(large))
        out[name] = {"size": unit, "sizes": [small, large], "times": [t_small, t_large],
                     "size_exponent": math.log(t_large / t_small) / math.log(large / small)}
    return out


def format_table(sweep: dict) -> str:
    lines = [f"{'function':<20} {'size':<38} {'n':>7} {'time_s':>9} {'baseline_s':>10}"
             f" {'4n':>7} {'time_s':>9} {'baseline_s':>10} {'exponent':>8}"]
    for name, row in sweep.items():
        base = BASELINE.get(name, {})
        cells = []
        for size, t in zip(row["sizes"], row["times"]):
            ref = base.get(size)
            cells.append(f"{size:>7} {t:>9.4f} {('-' if ref is None else f'{ref:.2f}'):>10}")
        lines.append(f"{name:<20} {row['size']:<38} {' '.join(cells)} "
                     f"{row['size_exponent']:>8.2f}")
    lines.append("baseline_s: ROADMAP baseline table, 2 CPUs, Python 3.10.12, numpy 2.4.6")
    return "\n".join(lines)
