"""Acceptance suite: the exact identities and thresholds the construction
guarantees, each checked at a pinned tolerance with a runtime budget.

Every check returns a CheckResult; ``run_all`` executes them in order.
The pytest wrapper asserts each one, and the command line exposes the
same list as the ``selftest`` subcommand.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .blockspace import BlockLayout, mixed_norm, triangular_block_index
from .certify import (
    IntervalSpec,
    diagonal_norm,
    dissipativity_norm_onset,
    dissipativity_norm_sq,
    dissipativity_witness,
    mr_predicate,
    plan_interval,
)
from .errors import ParameterError
from .multiplier import (
    TwistedMultiplier,
    bip_pair_ratios,
    bv_semigroup_bound,
    positivity_check,
)
from .rademacher import (
    RadSum,
    associated_operator,
    blowup_series,
    pair_resolvent_coeffs,
    rad_norm,
)
from .sequences import (
    constant_ratios,
    ratio_family,
    seq_from_ratios,
    twisted_lacunary,
)
from .twistbasis import build_permutation, first_even_in_shifted_block

__all__ = ["CheckResult", "CHECKS", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    limit: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.number:2d} {self.name:32s} "
                f"{self.elapsed:7.2f}s (limit {self.limit:g}s)  {self.detail}")


def _result(number, name, limit, started, passed, detail):
    elapsed = time.perf_counter() - started
    return CheckResult(number=number, name=name, passed=bool(passed and elapsed < limit),
                       elapsed=elapsed, limit=limit, detail=detail)


def check_ratio_recurrence_roundtrip(seed: int = 0) -> CheckResult:
    """1000 random ratio vectors of length 500 recovered to 1e-12 relative."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        c = np.clip(rng.uniform(0.0, 0.5, size=500), 1e-14, 0.5 - 1e-14)
        rec = seq_from_ratios(c).recovered_ratios()
        worst = max(worst, float(np.max(np.abs(rec - c) / c)))
    return _result(1, "ratio-recurrence-roundtrip", 1.0, start,
                   worst <= 1e-12, f"worst relative error {worst:.3e}")


def check_lacunary_half_sixth() -> CheckResult:
    """q_m = -2^(2m-1) keeps 1/2 and leaks 1/6, exactly, for m <= 1000."""
    start = time.perf_counter()
    seq = twisted_lacunary(2000)
    ms = np.arange(1, 1001)
    kept, leaked = pair_resolvent_coeffs(seq, 2.0 * ms - 1.0, 2 * ms)
    err = max(float(np.abs(kept - 0.5).max()), float(np.abs(leaked - 1.0 / 6.0).max()))

    # end-to-end through the Rademacher-sum operator on the first 100 terms;
    # odd m maps 2m to a reserved value, even m to a filler below 2m
    head = 100
    reserved_hi = int(first_even_in_shifted_block(np.arange(head // 2)).max())
    op = TwistedMultiplier.covering(max(reserved_hi, 2 * head), "lacunary")
    layout = op.layout
    terms = np.zeros((head, layout.dim))
    cols = op.perm.pi(2 * np.arange(1, head + 1))
    terms[np.arange(head), cols - 1] = 1.0
    out = associated_operator(op, 2.0 * np.arange(1, head + 1) - 1.0,
                              RadSum(terms, layout, 4.0))
    kept_e2e = out.terms[np.arange(head), cols - 1]
    leaked_e2e = out.terms[np.arange(head), 2 * np.arange(1, head + 1) - 2]
    err = max(err, float(np.abs(kept_e2e - 0.5).max()),
              float(np.abs(leaked_e2e - 1.0 / 6.0).max()))
    return _result(2, "lacunary-half-and-sixth", 1.0, start,
                   err <= 1e-12, f"worst absolute error {err:.3e}")


def check_positivity_iff_monotone() -> CheckResult:
    """Positive entries iff the pairs decrease, truncation of 500 coordinates."""
    start = time.perf_counter()
    grid = 2.0 ** np.arange(-10, 11)
    rep_pos = positivity_check(TwistedMultiplier.covering(500, "lacunary"), grid)
    rep_neg = positivity_check(TwistedMultiplier.covering(500, "constant", 0.1), grid)
    ok = (rep_pos.monotone_pairs and not rep_neg.monotone_pairs
          and rep_pos.violation() is None and rep_neg.violation() is None)
    return _result(3, "positivity-iff-monotone", 10.0, start, ok,
                   f"lacunary min {rep_pos.min_entry:.2e}, "
                   f"increasing min {rep_neg.min_entry:.2e}")


def check_variation_bound() -> CheckResult:
    """Semigroup variation under the closed form; 16/e at alpha = 1, t = 1."""
    start = time.perf_counter()
    ok = True
    worst_slack = math.inf
    for alpha in (0.25, 0.5, 1.0):
        computed, closed = bv_semigroup_bound(alpha, np.geomspace(0.01, 10.0, 50), 2000)
        ok = ok and bool(np.all(computed <= closed))
        worst_slack = min(worst_slack, float((closed - computed).min()))
    _, closed_11 = bv_semigroup_bound(1.0, 1.0, 2000)
    ok = ok and abs(closed_11 - 16.0 / math.e) <= 1e-12
    ok = ok and abs(closed_11 - 5.886071058743077) <= 1e-12
    return _result(4, "lacunary-variation-bound", 5.0, start, ok,
                   f"min slack {worst_slack:.3e}, bound(1,1) = {closed_11:.6f}")


def check_diagonal_norm_identity(seed: int = 0) -> CheckResult:
    """Closed form = the value at the laid-out profile; dominates 10^4 random
    sphere points."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    ok = True
    detail = []
    lay = BlockLayout.triangular(20)
    for kind in ("power", "powerlog"):
        fam = ratio_family(kind, 0.25, 20)
        for p in (2.5, 3.0, 4.0, 6.0):
            dn = diagonal_norm(fam, p, lay.n_blocks)
            cvals = fam.values_upto(lay.dim)
            extremizer = np.zeros(lay.dim)
            first = lay.starts[dn.block - 1]
            extremizer[first:first + dn.block] = dn.profile
            attained = mixed_norm(extremizer * cvals, p, lay)
            ok = ok and abs(attained - dn.value) <= 1e-9 * dn.value
            a = rng.standard_normal((10_000, lay.dim))
            a /= np.power(np.power(np.abs(a), p).sum(axis=1), 1.0 / p)[:, None]
            samples = mixed_norm(a * cvals[None, :], p, lay)
            ok = ok and bool(np.all(samples <= dn.value + 1e-9))
            detail.append(f"{kind[:3]}@{p:g}:{dn.value:.4f}")
    return _result(5, "diagonal-norm-identity", 10.0, start, ok, " ".join(detail[:4]))


def check_threshold_families() -> CheckResult:
    """Regularity iff p <= 4 (power) and iff p < 4 (powerlog) at alpha = 1/4."""
    start = time.perf_counter()
    grid = np.arange(21, 61) / 10.0
    power = ratio_family("power", 0.25, 30)
    plog = ratio_family("powerlog", 0.25, 30)
    ok = True
    for p in grid:
        ok = ok and mr_predicate(power, float(p)) == (p <= 4.0)
        ok = ok and mr_predicate(plog, float(p)) == (p < 4.0)
    return _result(6, "threshold-families", 1.0, start, ok,
                   "power: p <= 4, powerlog: p < 4 on p = 2.1 .. 6.0")


def check_blowup_rates() -> CheckResult:
    """Leak growth: powerlog doubles over two decades, power flattens,
    lacunary fits slope 1/4."""
    start = time.perf_counter()
    plog = blowup_series("powerlog", 4.0, alpha=0.25, block_counts=[100, 10_000])
    ratio = float(plog.lower[1] / plog.lower[0])
    ok = abs(ratio - 2.0) <= 0.2

    power = blowup_series("power", 4.0, alpha=0.25,
                          block_counts=np.arange(1000, 10_001, 500))
    increments = np.abs(np.diff(power.lower))
    ok = ok and bool(np.all(increments < 1e-6))

    lac = blowup_series("lacunary", 4.0,
                        block_counts=np.unique(np.geomspace(100, 10_000, 9).astype(int)))
    ok = ok and abs(lac.slope - 0.25) <= 0.03
    return _result(7, "blowup-rates", 60.0, start, ok,
                   f"powerlog ratio {ratio:.3f}, power max increment "
                   f"{increments.max():.1e}, lacunary slope {lac.slope:.4f}")


def check_bip_inequality() -> CheckResult:
    """|y_{2m}^{it} - y_{2m-1}^{it}| <= 8 |t| c_{2m} for both families."""
    start = time.perf_counter()
    worst = 0.0
    for kind in ("power", "powerlog"):
        fam = ratio_family(kind, 0.25, triangular_block_index(20_002) + 1)
        worst = max(worst, *bip_pair_ratios(fam, [0.01, 0.1, 1.0, 10.0, 100.0],
                                            10_000).tolist())
    return _result(8, "bip-pair-inequality", 5.0, start, worst <= 1.0,
                   f"worst ratio {worst:.6f}")


def check_interval_certification() -> CheckResult:
    """Planned regularity sets equal the target intervals on the 0.05 grid."""
    start = time.perf_counter()
    grid = np.arange(21, 161) / 20.0
    cases = [
        IntervalSpec(1.5, 3.0, True, True),
        IntervalSpec(4.0 / 3.0, 4.0, False, True),
        IntervalSpec(2.0, 2.0, True, True),
        IntervalSpec(1.0, math.inf, False, False),
        IntervalSpec(2.0, 5.0, True, False),
    ]
    for spec in cases:   # raises InvariantViolation on a set that differs
        plan_interval(spec, grid=grid)
    return _result(9, "interval-certification", 5.0, start, True,
                   "5 intervals, exact set equality on p = 1.05 .. 8.00")


def check_dissipativity_witness() -> CheckResult:
    """Pairing equals the closed form and stays positive; mass onset reported."""
    start = time.perf_counter()
    witnesses = [dissipativity_witness(constant_ratios(0.1, 45), k) for k in (10, 20, 40)]
    ok = all(w.pairing > 0.0 and w.violation() is None for w in witnesses)
    wide = constant_ratios(0.1, 90)
    k0 = dissipativity_norm_onset(wide, k_max=89)
    ok = ok and k0 is not None
    if k0 is not None:
        ok = ok and dissipativity_norm_sq(wide, k0) > 1.0
        ok = ok and dissipativity_norm_sq(wide, max(k0 - 1, 7)) <= 1.0
        ok = ok and all(dissipativity_norm_sq(wide, k) > 1.0
                        for k in range(k0, min(k0 + 10, 90)))
    return _result(10, "dissipativity-witness", 1.0, start, ok,
                   f"mass exceeds 1 from block {k0}")


def check_rademacher_machinery(seed: int = 0) -> CheckResult:
    """Sampled norms within 3 pattern-table stderr of exact; disjoint exact to 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    lay = BlockLayout.triangular(8)
    misses = 0
    for trial in range(100):
        terms = rng.standard_normal((12, lay.dim))
        s = RadSum(terms, lay, float(rng.uniform(1.5, 6.0)))
        exact = rad_norm(s, "exact")
        est = rad_norm(s, "sampled", seed=seed + trial, samples=20_000)
        misses += s.sampled_violation(est.value, exact, 20_000, 3) is not None
    worst_rel = 0.0
    for trial in range(100):
        groups = np.array_split(rng.permutation(lay.dim), 12)
        terms = np.zeros((12, lay.dim))
        for g, grp in enumerate(groups):
            terms[g, grp] = rng.standard_normal(grp.size)
        s = RadSum(terms, lay, float(rng.uniform(1.5, 6.0)))
        exact = rad_norm(s, "exact")
        disjoint = rad_norm(s, "disjoint")
        worst_rel = max(worst_rel, abs(disjoint - exact) / exact)
    ok = misses == 0 and worst_rel <= 1e-12
    return _result(11, "rademacher-machinery", 30.0, start, ok,
                   f"3-sigma misses {misses}/100, disjoint error {worst_rel:.2e}")


def check_permutation_integrity() -> CheckResult:
    """Bijective on the evens to 1e5; odd fixed points; shifted-block b-list."""
    start = time.perf_counter()
    n = 100_000
    perm = build_permutation(n)
    odds = np.arange(1, n + 1, 2)
    evens = np.arange(2, n + 1, 2)
    image = perm.table[evens]
    ok = bool(np.all(perm.table[odds] == odds))
    ok = ok and bool(np.all(image % 2 == 0)) and np.unique(image).size == evens.size
    # reserved values fill 4k+2; every other even is a filler, in order
    n_b = (n - 2) // 4 + 1
    expect_b = first_even_in_shifted_block(np.arange(n_b))
    ok = ok and bool(np.all(perm.table[4 * np.arange(n_b) + 2] == expect_b))
    # b_k lies in block k + 2, so every b_k <= n has k < the block of n
    fillers = np.setdiff1d(evens, first_even_in_shifted_block(
        np.arange(triangular_block_index(n))))
    n_f = n // 4
    ok = ok and bool(np.all(perm.table[4 * np.arange(1, n_f + 1)] == fillers[:n_f]))
    return _result(12, "permutation-integrity", 1.0, start, ok,
                   f"checked {n} indices, {n_b} reserved values")


CHECKS = [
    check_ratio_recurrence_roundtrip,
    check_lacunary_half_sixth,
    check_positivity_iff_monotone,
    check_variation_bound,
    check_diagonal_norm_identity,
    check_threshold_families,
    check_blowup_rates,
    check_bip_inequality,
    check_interval_certification,
    check_dissipativity_witness,
    check_rademacher_machinery,
    check_permutation_integrity,
]


def run_all(numbers=None):
    """Run the checks numbered in ``numbers`` (1-based, all when None) in order."""
    unknown = sorted(set(numbers or ()) - set(range(1, len(CHECKS) + 1)))
    if unknown:
        raise ParameterError(f"no acceptance check numbered {unknown[0]}; "
                             f"checks run 1..{len(CHECKS)}")
    return [fn() for number, fn in enumerate(CHECKS, 1)
            if numbers is None or number in numbers]
