"""Total energy-momentum at spatial infinity for the exact-metric catalog.

Builds the t = const slice data of a black hole by pulling the 4-metric back
through the embedding, integrates the surface charges on a radius ladder and
extrapolates r -> infinity.  The static slice of mass m must give E = m with
zero momentum; the rotating exterior gives the same E and a clean zero of P.
"""

import numpy as np

from admbondi.adm import adm_energy_momentum, check_af_decay, check_pmt_flat
from admbondi.geometry import euclidean_frame, pullback_initial_data
from admbondi.ladder import fit_field
from admbondi.spacetimes import KerrParameters, kerr, schwarzschild, t_const_embedding
from admbondi.sphere import build_grid

grid = build_grid(48, 96)
ladder = [10.0, 20.0, 40.0, 80.0]

for label, metric in [
    ("static black hole, m = 1", schwarzschild(1.0, "polar")),
    ("rotating exterior, m = 1, a = 0.5", kerr(KerrParameters(1.0, 0.5))),
]:
    data = pullback_initial_data(metric, t_const_embedding(), euclidean_frame())
    charges = adm_energy_momentum(data, ladder, grid)
    print(f"== {label}")
    for r, s in zip(ladder, fit_field(charges.energy, "samples")):
        print(f"   E(r={r:>5.1f}) = {s:.8f}")
    print(f"   extrapolated E = {charges.E:.8f} +- "
          f"{fit_field(charges.energy, 'error'):.1e}   "
          f"(through all {len(ladder)} rungs)")
    print(f"   P = {np.array2string(charges.P, precision=3)}")
    print(f"   positive-mass margin E - |P| = {check_pmt_flat(charges):.8f}")
    decay = check_af_decay(data, ladder)
    orders = {k: ("exact" if f.exact else f"{f.exponent:.2f}")
              for k, f in decay.items()}
    print(f"   decay orders: {orders}")
    print()
