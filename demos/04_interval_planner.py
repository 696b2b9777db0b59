#!/usr/bin/env python3
"""Planning a prescribed regularity interval.

Any subinterval of (1, inf) containing 2 is realizable: a family on the
space itself pins the right end (power for closed, powerlog for open),
exponent conjugation mirrors the left end, and the intersection of the
two predicted sets is the target interval, endpoint closures included.
"""

import math

import numpy as np

from mrlab import IntervalSpec, plan_interval

cases = [
    IntervalSpec(1.5, 3.0, True, True),
    IntervalSpec(4.0 / 3.0, 4.0, False, True),
    IntervalSpec(2.0, 2.0, True, True),
    IntervalSpec(1.0, math.inf, False, False),
    IntervalSpec(2.0, 5.0, True, False),
]

grid = np.arange(21, 161) / 20.0
for spec in cases:
    plan = plan_interval(spec, grid=grid)
    match = np.array_equal(plan.predicted(grid), spec.contains(grid))
    status = "exact match" if match else "MISMATCH"
    ra = "-" if plan.right_alpha is None else f"{plan.right_alpha:.4f}"
    la = "-" if plan.left_alpha is None else f"{plan.left_alpha:.4f}"
    print(f"{spec.describe():12s} right {plan.right_kind:9s} alpha {ra:7s} "
          f"| left {plan.left_kind:9s} alpha {la:7s} "
          f"(dual endpoint {plan.left_dual_endpoint}) -> {status}")
    if plan.external_reference:
        print("             (endpoint 2 delegates to the constant family)")

plan = plan_interval(cases[0], grid=grid)
print("\npredicted set of [1.5, 3] sampled on the grid:")
on = grid[plan.predicted(grid)]
print(f"  from {on.min():.2f} to {on.max():.2f}, "
      f"{on.size} of {grid.size} grid points")
