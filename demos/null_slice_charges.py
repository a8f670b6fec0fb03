"""Charges of slices reaching null infinity.

Two data sets in the hyperboloid frame:

* the unit hyperboloid in flat spacetime, whose deviations vanish and whose
  sixteen charges must all be numerically zero;
* the asymptotically null slice of the radiating black-hole metric with zero
  news, where the boost combination E_0 - P_{0,1} lands on the mass m even
  though E_0 and P_{0,1} are m/4 and -3m/4 separately.
"""

import numpy as np

from admbondi.bondi import BondiExpansion, induced_slice_data
from admbondi.geometry import hyperboloid_frame, pullback_initial_data, rigidity_residual
from admbondi.ladder import fit_field
from admbondi.nullcharges import (check_pmt_null, decay_orders, deviation,
                                  margin_errors, margins, null_energy_momentum)
from admbondi.spacetimes import hyperboloid_embedding, minkowski
from admbondi.sphere import build_grid

grid = build_grid(48, 96)

print("== unit hyperboloid in flat spacetime")
model = pullback_initial_data(minkowski("polar"), hyperboloid_embedding(),
                              hyperboloid_frame())
a, b = deviation(model, [3.0, 1.1, 0.4])
print(f"   max |a| = {np.max(np.abs(a)):.2e}, max |b| = {np.max(np.abs(b)):.2e}")
charges = null_energy_momentum(model, [0.5, 1.0, 2.0, 4.0], grid=grid)
print(f"   max |E_nu| = {np.max(np.abs(charges.E)):.2e}")
print(f"   max |P_nu,k| = {np.max(np.abs(charges.P)):.2e}")
largest = max(np.max(fit_field(fits, "error"))
              for fits in (charges.energy, charges.momentum))
print(f"   largest error estimate = {largest:.2e}  (roundoff only)")
r1, r2, r3 = rigidity_residual(model, [2.0, 1.2, 0.7])
print(f"   rigidity residuals: {float(r1):.2e} {float(r2):.2e} {float(r3):.2e}")

print()
print("== black-hole slice with zero news, m = 1")


def zero(u, th, ps):
    return 0.0 * u


exp = BondiExpansion(c=zero, d=zero, M=lambda u, th, ps: 1.0 + 0.0 * u,
                     name="schw-bondi")
data = induced_slice_data(exp, u0=0.0, a3=None)
a, b = deviation(data, [20.0, 1.2, 0.4])
print(f"   a_11(r=20) = {a[0, 0]:.6e}  (closed form m/(2 r^3) = {0.5 / 20**3:.6e})")
charges = null_energy_momentum(data, [20.0, 40.0, 80.0, 160.0], grid=grid)
E, P = charges.E, charges.P
print(f"   E_0 = {E[0]:+.6f}, P_0,1 = {P[0, 0]:+.6f}")
print(f"   boost margins E_nu - P_nu,1 = "
      f"{np.array2string(margins(charges), precision=6)}")
print(f"   their error estimates = "
      f"{np.array2string(margin_errors(charges), precision=1)}")
print(f"   positivity margin = {check_pmt_null(charges):.6f} (mass recovered)")
fits = decay_orders(data, [20.0, 40.0, 80.0, 160.0], build_grid(8, 16))
orders = {k: ("exact" if fits[k].exact else f"{fits[k].exponent:.2f}")
          for k in ("a11", "b11", "b22")}
print(f"   fitted decay orders: {orders}")
