#!/usr/bin/env python3
"""Tour of the twisted basis and the positivity dichotomy of its semigroups.

The permutation fixes the odds and shuffles the evens: indices 4k+2 jump
to the first even number of a later triangular block, indices 4k take the
smallest even number still available.  Perturbing the unit vectors along
that permutation produces a Schauder basis whose multiplier semigroups
are positive exactly when the multiplier sequence decreases across each
coupled pair.
"""

import numpy as np

from mrlab import (
    TwistedMultiplier,
    build_permutation,
    positivity_check,
    twisted_analysis,
)
from mrlab.twistbasis import EVEN_TWIST

perm = build_permutation(20)
print("permutation head (m -> pi(m)):")
print("  ", {m: int(perm.table[m]) for m in range(1, 15)})
print("reserved values b_k:", perm.b_list[:6], "\n")

# the operators live on the 8-block triangular layout (dim 36)
lac = TwistedMultiplier.covering(36, "lacunary")
inc = TwistedMultiplier.covering(36, "constant", 0.1)
layout, perm = lac.layout, lac.perm

# the coupled pair: the twisted coordinate expands as a difference
v = np.zeros(layout.dim)
v[perm.pi(2) - 1] = 1.0
coeffs = twisted_analysis(v, perm, EVEN_TWIST)
print("unit vector at the twisted slot of 2 expands as", coeffs[:2],
      "(difference of two basis elements)\n")

grid = 2.0 ** np.arange(-10, 11)
rep = positivity_check(lac, grid)
print("twisted lacunary sequence (pairs decrease):")
print(f"  min semigroup entry over the grid: {rep.min_entry:.3e}")
print(f"  positive = {rep.min_entry >= -1e-12}, pairs monotone = {rep.monotone_pairs}\n")

rep = positivity_check(inc, grid)
print("strictly increasing sequence from the ratio recurrence:")
print(f"  min semigroup entry over the grid: {rep.min_entry:.3e} "
      f"at t = {rep.argmin_t:.4g}, column {rep.argmin_col}")
print(f"  positive = {rep.min_entry >= -1e-12}, pairs monotone = {rep.monotone_pairs}")
