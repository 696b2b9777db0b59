#!/usr/bin/env python3
"""Imaginary powers, the variation bound, and the sup-block witness.

Two quantitative inequalities anchor the positive side of the theory:
the coupled-pair differences of the imaginary powers stay below
8 |t| c_{2m} whenever the ratio sequence lives in (0, 1/8), and the
variation of the lacunary semigroup sequence stays below an explicit
closed form.  On the sup-block space, a single-block witness makes the
pairing with the normalizing functional strictly positive, which rules
out dissipativity once the witness mass exceeds one.
"""

from mrlab import (
    bip_pair_ratios,
    bv_semigroup_bound,
    constant_ratios,
    dissipativity_norm_onset,
    dissipativity_norm_sq,
    dissipativity_witness,
    ratio_family,
)

fam = ratio_family("power", 0.25, 250)
worst = bip_pair_ratios(fam, [0.01, 0.1, 1.0, 10.0, 100.0], 10_000).max()
print(f"imaginary-power pair ratio, power family, 10^4 pairs: {worst:.6f} <= 1\n")

print("variation of the lacunary semigroup sequence vs the closed form:")
for alpha, t in ((1.0, 1.0), (0.5, 0.1), (0.25, 5.0)):
    computed, closed = bv_semigroup_bound(alpha, t, 2000)
    print(f"  alpha = {alpha:4.2f}, t = {t:4.2f}:  "
          f"variation {computed:.6f} <= bound {closed:.6f}")

print("\nsup-block dissipativity witness, constant ratio 1/10:")
fam = constant_ratios(0.1, 90)
for k in (10, 20, 40):
    w = dissipativity_witness(fam, k)
    print(f"  block {k:2d}: pairing {w.pairing:12.6g} "
          f"(closed form {w.closed_form:12.6g}), mass {w.x_norm_sq:.4f}")

k0 = dissipativity_norm_onset(fam, k_max=89)
print(f"\nwitness mass first exceeds 1 at block {k0} "
      f"(mass {dissipativity_norm_sq(fam, k0):.4f}); from there on the")
print("pairing stays positive against the unique normalizing functional,")
print("so the generated semigroup cannot be contractive.")
