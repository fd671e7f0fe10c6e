"""Haar-unitary experiment for the norm the radius bounds predict.

The operator a * sum_i (U_i (x) 1 + 1 (x) V_i) with independent Haar
unitaries is compared with the free value 2a sqrt(2s-1), the reciprocal of
the radius from the bounds side.  The terms U_i (x) 1 and 1 (x) V_j commute,
so at s >= 2 the operator is not a sum of 2s free unitaries, and the free
value need not be its large-N norm.
Lanczos on T*T computes the norm without forming the N^2 x N^2 matrix; at
s = 1, where T is normal, the eigenvalues of U and V give it directly.
"""

import math

import numpy as np

from leinert import SpectralConfig, estimate_z_inverse, free_limit, two_norm

# identity operands first: A = B = a * I makes T = 2a * I exactly, a
# do-nothing control; every vector is an eigenvector, so Lanczos breaks
# down after one step
eye = 0.5 * np.eye(16, dtype=complex)
control = two_norm(eye, eye, tol=1e-12)
print(f"identity control: norm = {control.norm:.12f} (exactly 2a = 1),"
      f" {control.steps} Lanczos step(s)")

# the experiment: growing N at s = 2, four independent trials each
print("\ns = 2, free limit", f"{free_limit(2):.6f}")
print("  N   mean norm   std       gap to limit")
for N in (10, 25, 50, 75):
    est = estimate_z_inverse(SpectralConfig(s=2, N=N, trials=4, seed=0))
    gap = est.mean - free_limit(2)
    print(f"{N:>4}   {est.mean:.6f}  {est.std:.2e}  {gap:+.4f}")

# s = 1 is exact, a max |lambda_i + mu_j| just below 2a; there the
# triangle-inequality ceiling 2sa coincides with the free limit
est = estimate_z_inverse(SpectralConfig(s=1, N=60, trials=4, seed=0))
print(f"\ns = 1, N = 60: mean {est.mean:.6f} vs limit {free_limit(1):.1f}"
      f" (= the ceiling 2sa here)")

# at s = 2 the norms sit above 2 sqrt(3) and the gap grows with N in the
# table above (+0.040 at N = 10 to +0.141 at N = 75, seed 0): nothing here
# says 2a sqrt(2s-1) is this commuting tensor sum's large-N norm
print("\nfive raw trials at s = 2, N = 40:")
for trial in range(5):
    est = estimate_z_inverse(SpectralConfig(s=2, N=40, trials=1, seed=trial))
    print(f"  seed {trial}: {est.norms[0]:.6f}")
print(f"free limit 2 sqrt(3) = {2 * math.sqrt(3):.6f}")
