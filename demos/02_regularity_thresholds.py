#!/usr/bin/env python3
"""The diagonal-norm characterization and the two threshold families.

For p > 2 the map a -> (a_m c_m) from ell_p into the block space has norm
sup_k |c|B_k|_q with 1/2 = 1/p + 1/q.  Keeping those block norms bounded
is the regularity criterion, and the two families

    c ~ k^(-alpha)         threshold p <= 2/(1 - 2 alpha)
    c ~ k^(-alpha) log k    threshold p <  2/(1 - 2 alpha)

hit it with a closed and an open right end.
"""

import numpy as np

from mrlab import (
    BlockLayout,
    block_qsup_partials,
    diagonal_norm,
    holder_conjugate,
    mixed_norm,
    mr_predicate,
    ratio_family,
)

alpha = 0.25
power = ratio_family("power", alpha, 2000)
plog = ratio_family("powerlog", alpha, 10_000)

print(f"alpha = {alpha}: threshold exponent 2/(1 - 2 alpha) = 4\n")

lay = BlockLayout.triangular(20)
dn = diagonal_norm(power, 4.0, lay.n_blocks)
cvals = power.values_upto(lay.dim)
extremizer = np.zeros(lay.dim)   # the unit profile on the winning block, zero elsewhere
first = lay.starts[dn.block - 1]
extremizer[first:first + dn.block] = dn.profile
attained = mixed_norm(extremizer * cvals, 4.0, lay)
print("power family at p = 4 (q = 4):")
print(f"  closed-form diagonal norm  {dn.value:.12f}")
print(f"  extremizer evaluation      {attained:.12f}")
print(f"  winning block              {dn.block}\n")

rng = np.random.default_rng(0)
a = rng.standard_normal((5, lay.dim))
a /= np.power(np.power(np.abs(a), 4.0).sum(axis=1), 0.25)[:, None]
print("  five random unit profiles: ",
      np.round(mixed_norm(a * cvals[None, :], 4.0, lay), 6), "all below\n")

for p in (3.9, 4.0, 4.1):
    vp = mr_predicate(power, p)
    vl = mr_predicate(plog, p)
    print(f"p = {p:3.1f}:  power regular = {vp!s:5}  powerlog regular = {vl!s:5}")

print("\nblock-q-norm partial sups (the boundedness surrogate):")
q = holder_conjugate(4.0)
sp = block_qsup_partials(power, q)
sl = block_qsup_partials(plog, q)
print(f"  power   : k = 100 -> {sp[99]:.6f},  k = 2000 -> {sp[-1]:.6f}  (flat)")
print(f"  powerlog: k = 100 -> {sl[99]:.6f},  k = 10000 -> {sl[-1]:.6f}  "
      f"(ratio {sl[-1] / sl[99]:.3f}, the log growth)")
