"""Seeded call streams for the benchmark workloads.

A workload is a mix of ``mrlab`` subcommand calls.  Each kind of call
has a finite set of size levels, log-spaced over the range the workload
exercises, and a finite set of variants (families, exponents, per-call
seeds).  The stream is built from rounds: every round holds a fixed
number of calls of each kind, in a seeded order.  A cycle is
``ROUNDS_PER_CYCLE`` rounds, and each kind has exactly ``per_round x
ROUNDS_PER_CYCLE`` size levels, dealt from a seeded shuffled deck, so
every cycle visits each size level of each kind once.  Variants come
from a second deck per kind.  A timed phase runs whole cycles, so sizes
are log-uniform and every run covers the size range evenly whatever the
seed; the seed picks the order and the pairing of sizes with variants.
Kinds whose variants differ in cost by an order of magnitude (the
lacunary blow-up series) are split, so the pairing cannot move the
cost of a cycle much.  Because every call comes from a finite pool, the
reference output of every call the generator can emit is recorded once
(``run.py --record``) and every call of every run is checked.

Excluded regions (the generator never reaches them, by construction):

* ``powerlog`` with alpha < 0.1: ``_global_raw_max`` scans 4 e^(1/alpha)
  points, 15.5 GB at alpha = 0.05, and overflows below.
* ``rad-norm`` with samples x dim > 4e6: the sampled norm holds a
  samples x dim complex array; the generator caps samples at 4e6 // dim.
* ``dissipativity`` with blocks beyond 50: the witness values reach the
  float64 overflow documented in ``sequences`` and the command exits 1.
  That is a domain limit, not a defect.

Every call also stays under ``MEMORY_BUDGET``, computed from its
arguments by ``largest_array``; ``pool`` raises if one does not.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

MEMORY_BUDGET = 256 * 2**20          # bytes of the largest array one call allocates
RAD_NORM_CELLS = 4_000_000           # cap on samples x dim for rad-norm
COMPLEX = 16                         # bytes per complex128 entry
ROUNDS_PER_CYCLE = 2


def log_levels(lo: float, hi: float, count: int) -> tuple[int, ...]:
    """``count`` integers log-spaced from ``lo`` to ``hi``."""
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return tuple(int(round(lo * ratio ** i)) for i in range(count))


def even_levels(lo: int, hi: int, count: int) -> tuple[int, ...]:
    """``count`` integers evenly spaced from ``lo`` to ``hi``: log-spaced in 2^n."""
    return tuple(int(round(lo + (hi - lo) * i / (count - 1))) for i in range(count))


def tri_dim(blocks: int) -> int:
    return blocks * (blocks + 1) // 2


@dataclass(frozen=True)
class Kind:
    """One kind of call in a workload mix.

    ``sizes`` holds ``per_round x ROUNDS_PER_CYCLE`` levels.
    ``argv(size, variant)`` builds the argument list and
    ``largest_array(size, variant)`` bounds the bytes of the largest array
    the call allocates.
    """

    name: str
    subcommand: str
    per_round: int
    sizes: tuple
    variants: tuple
    argv: Callable[[int, tuple], list]
    largest_array: Callable[[int, tuple], int]

    def __post_init__(self):
        if len(self.sizes) != self.per_round * ROUNDS_PER_CYCLE:
            raise ValueError(f"{self.name}: a cycle needs "
                             f"{self.per_round * ROUNDS_PER_CYCLE} size levels")

    def call(self, size, variant) -> tuple:
        return (self.subcommand, *self.argv(size, variant))


@dataclass(frozen=True)
class Workload:
    """A mix of kinds; ``calls_per_second`` is the seed commit's closed-loop rate.

    A run of ``seconds`` issues ``calls_for(seconds)`` calls: the whole
    cycles the seed commit completes in that time on a 2-CPU machine.  The
    count does not depend on the program under test, so a faster program
    finishes sooner and the tail percentile stays the same across commits.
    """

    name: str
    why: str
    calls_per_second: float
    kinds: tuple

    @property
    def cycle(self) -> int:
        return ROUNDS_PER_CYCLE * sum(k.per_round for k in self.kinds)

    def calls_for(self, seconds: float) -> int:
        return max(1, round(seconds * self.calls_per_second / self.cycle)) * self.cycle


def _family_args(spec: str) -> list:
    """``power:0.25`` -> ``--family power --alpha 0.25``; ``constant:0.1`` -> ``--value``."""
    family, _, value = spec.partition(":")
    if not value:
        return ["--family", family]
    flag = "--value" if family == "constant" else "--alpha"
    return ["--family", family, flag, value]


def _powerlog_horizon(spec: str) -> int:
    family, _, value = spec.partition(":")
    if family != "powerlog":
        return 0
    return 8 * max(16, int(4.0 * math.exp(1.0 / float(value))))


# -- operator-scan --------------------------------------------------------------

GAMMAS = ("lacunary",
          "constant:0.001", "constant:0.004", "constant:0.02", "constant:0.1",
          "power:0.1", "power:0.2", "power:0.3", "power:0.45",
          "powerlog:0.1", "powerlog:0.2", "powerlog:0.3", "powerlog:0.45")

OPERATOR_SCAN = Workload(
    name="operator-scan",
    why="positivity scans and sector probes build operators: multiplier and "
        "twistbasis dominate; no Rademacher or blow-up code runs",
    calls_per_second=10.5,
    kinds=(
        Kind("semigroup-check", "semigroup-check", 8, log_levels(500, 8000, 16),
             tuple((g,) for g in GAMMAS),
             lambda n, v: ["--gamma", v[0], "--n", str(n)],
             lambda n, v: _powerlog_horizon(v[0]) + 8 * 16 * n),
        Kind("sector-probe", "sector-probe", 5, log_levels(64, 2000, 10),
             tuple((p,) for p in ("1.5", "2", "3", "4", "6")),
             lambda n, v: ["--n", str(n), "--p", v[0]],
             lambda n, v: 8 * COMPLEX * n),
        Kind("bip-check", "bip-check", 3, log_levels(10_000, 200_000, 6),
             tuple((f,) for f in ("power:0.1", "power:0.25", "power:0.45",
                                  "powerlog:0.1", "powerlog:0.25", "powerlog:0.45",
                                  "constant:0.01", "constant:0.1")),
             lambda n, v: [*_family_args(v[0]), "--pairs", str(n)],
             lambda n, v: _powerlog_horizon(v[0]) + 8 * (2 * n + 2)),
        Kind("bv-bound", "bv-bound", 2, log_levels(500, 20_000, 4), ((),),
             lambda n, v: ["--n", str(n)],
             lambda n, v: 8 * n),
        Kind("pi-table", "pi-table", 2, log_levels(10_000, 100_000, 4), ((),),
             lambda n, v: ["--n", str(n)],
             lambda n, v: 8 * (n + 1)),
    ),
)

# -- threshold-series -----------------------------------------------------------

RATIO_FAMILIES = ("power:0.1", "power:0.25", "power:0.4",
                  "powerlog:0.1", "powerlog:0.25", "powerlog:0.4")


def _blowup_argv(k_max, v):
    family, p = v
    counts = f"{k_max // 100},{k_max // 10},{k_max}"
    return [*_family_args(family), "--p", p, "--blocks", counts]


def _interval_variants():
    """Intervals that contain 2, with endpoints on a fixed grid of values."""
    out = []
    for left in ("1.1", "1.25", "1.5", "1.75", "2"):
        for right in ("2", "2.5", "3", "4", "6", "inf"):
            if left == right == "2":
                continue
            for left_closed in (False, True):
                for right_closed in (False, True):
                    if (left == "2" and not left_closed) or (right == "2" and not right_closed):
                        continue
                    if right == "inf" and right_closed:
                        continue
                    out.append((left, right, left_closed, right_closed))
    return tuple(out)


def _interval_argv(grid, v):
    left, right, left_closed, right_closed = v
    argv = ["--left", left, "--right", right, "--grid", grid]
    if left_closed:
        argv.append("--left-closed")
    if right_closed:
        argv.append("--right-closed")
    return argv


THRESHOLD_SERIES = Workload(
    name="threshold-series",
    why="closed-form series over many blocks: the rademacher blow-up series "
        "and per-block sequences lookups dominate; no operator is built",
    calls_per_second=11.0,
    kinds=(
        Kind("rbound-blowup", "rbound-blowup", 6, log_levels(1000, 12_000, 12),
             tuple((f, p) for f in RATIO_FAMILIES for p in ("2.5", "4", "8")),
             _blowup_argv,
             lambda k, v: _powerlog_horizon(v[0]) + 8 * (k + 1)),
        # the lacunary series is twenty times cheaper: its own kind keeps the
        # cost of a cycle independent of which sizes it is paired with
        Kind("rbound-blowup-lacunary", "rbound-blowup", 1, (1000, 12_000),
             tuple(("lacunary", p) for p in ("2.5", "4", "8")),
             _blowup_argv,
             lambda k, v: 8 * (k + 1)),
        Kind("diag-norm", "diag-norm", 3, log_levels(20, 5000, 6),
             tuple((f, p) for f in RATIO_FAMILIES + ("constant:0.01", "constant:0.1")
                   for p in ("2.5", "4", "8")),
             lambda b, v: [*_family_args(v[0]), "--p", v[1], "--blocks", str(b)],
             lambda b, v: _powerlog_horizon(v[0]) + COMPLEX * tri_dim(b)),
        Kind("dissipativity", "dissipativity", 3, log_levels(120, 2000, 6),
             tuple((f, str(b)) for f in RATIO_FAMILIES
                   for b in (7, 10, 15, 22, 33, 50)),
             lambda k, v: [*_family_args(v[0]), "--block", v[1], "--onset-max", str(k)],
             lambda k, v: _powerlog_horizon(v[0]) + 8 * tri_dim(max(k, int(v[1])) + 2)),
        Kind("interval-certify", "interval-certify", 3, ("0.05", "0.01") * 3,
             _interval_variants(),
             _interval_argv,
             lambda g, v: 8 * 800),
        Kind("gen-gamma", "gen-gamma", 4, log_levels(1000, 20_000, 8),
             tuple((f,) for f in ("lacunary", "geometric", "constant:0.01",
                                  "constant:0.1") + RATIO_FAMILIES),
             lambda n, v: [*_family_args(v[0]), "--n", str(n)],
             lambda n, v: _powerlog_horizon(v[0]) + 8 * 4 * n),
    ),
)

# -- rademacher-mc --------------------------------------------------------------


def _rad_norm_samples(blocks: int, samples: int) -> int:
    return min(samples, RAD_NORM_CELLS // tri_dim(blocks))


def _rad_norm_argv(k, v):
    blocks, samples, p, seed = v
    return ["--k", str(k), "--blocks", str(blocks), "--p", p,
            "--samples", str(_rad_norm_samples(blocks, samples)), "--seed", seed]


def _rad_norm_bytes(k, v):
    blocks, samples = v[0], v[1]
    dim = tri_dim(blocks)
    return COMPLEX * dim * max(2 ** k, _rad_norm_samples(blocks, samples))


def _uncond_argv(mode):
    return lambda n, v: ["--n", str(n), "--p", v[0], "--mode", mode, "--seed", v[1]]


UNCOND_VARIANTS = tuple((p, s) for p in ("2", "3", "4") for s in ("1", "2"))

RADEMACHER_MC = Workload(
    name="rademacher-mc",
    why="sign enumeration and Monte Carlo over large batches: rademacher and "
        "batched blockspace.mixed_norm dominate, memory grows with patterns x dim",
    calls_per_second=8.5,
    kinds=(
        Kind("rad-norm", "rad-norm", 6, even_levels(6, 14, 12),
             tuple((b, s, p, seed) for b in log_levels(4, 20, 6)
                   for s in log_levels(10_000, 100_000, 4)
                   for p in ("3",) for seed in ("1", "2", "3")),
             _rad_norm_argv, _rad_norm_bytes),
        Kind("uncond-exact", "uncond-constant", 2, even_levels(6, 14, 4), UNCOND_VARIANTS,
             _uncond_argv("exact"),
             lambda n, v: 8 * 2 ** n * (4 * n + 16)),
        Kind("uncond-sampled", "uncond-constant", 2, log_levels(12, 40, 4), UNCOND_VARIANTS,
             _uncond_argv("sampled"),
             lambda n, v: 8 * 2000 * (4 * n + 16)),
    ),
)

WORKLOADS = {w.name: w for w in (OPERATOR_SCAN, THRESHOLD_SERIES, RADEMACHER_MC)}


def pool(workload: Workload) -> list:
    """Every distinct call the workload's generator can emit, in a fixed order."""
    calls = {}
    for kind in workload.kinds:
        for size in kind.sizes:
            for variant in kind.variants:
                need = kind.largest_array(size, variant)
                call = kind.call(size, variant)
                if need > MEMORY_BUDGET:
                    raise ValueError(f"{' '.join(call)} needs {need} bytes, over the "
                                     f"{MEMORY_BUDGET}-byte budget")
                calls.setdefault(call, None)
    return list(calls)


class _Deck:
    """Deals the indices 0..n-1 in seeded shuffled passes."""

    def __init__(self, n: int, rng: random.Random):
        self.n, self.rng, self.cards = n, rng, []

    def deal(self) -> int:
        if not self.cards:
            self.cards = list(range(self.n))
            self.rng.shuffle(self.cards)
        return self.cards.pop()


def deals(workload: Workload, seed: int):
    """Endless deterministic stream of ``(kind, size, variant)`` for ``seed``."""
    rng = random.Random(f"{workload.name}/{seed}")
    decks = {k.name: (_Deck(len(k.sizes), rng), _Deck(len(k.variants), rng))
             for k in workload.kinds}
    order = [k for k in workload.kinds for _ in range(k.per_round)]
    while True:
        rng.shuffle(order)
        for kind in order:
            sizes, variants = decks[kind.name]
            yield kind, kind.sizes[sizes.deal()], kind.variants[variants.deal()]


def stream(workload: Workload, seed: int):
    """Endless deterministic stream of ``(kind name, argv tuple)`` for ``seed``."""
    for kind, size, variant in deals(workload, seed):
        yield kind.name, kind.call(size, variant)
