"""Mass loss under gravitational radiation.

Quadrupole news c = A u sin^2(theta) radiate at the constant rate
F_0 = 8 A^2 / 15, so the energy moment decays linearly while the combined
quantity m_0 - |m| never increases.  The trajectory is written as CSV next to
this script.
"""

import pathlib

import numpy as np

import admbondi.jets as jx
from admbondi.bondi import (BondiExpansion, evolve_energy_momentum,
                            flux_holder_margin, mass_loss_margin,
                            trajectory_csv)
from admbondi.sphere import build_grid

A = 0.1


def c(u, th, ps):
    return A * u * jx.sin(th) ** 2


def d(u, th, ps):
    return 0.0 * u


def M(u, th, ps):
    return 1.0 + 0.0 * u


exp = BondiExpansion(c=c, d=d, M=M, name="quadrupole")
grid = build_grid(48, 96)
traj = evolve_energy_momentum([1.0, 0.0, 0.0, 0.0], exp, 0.0, 10.0, 0.01, grid)

F0 = 8.0 * A * A / 15.0
print(f"constant flux F_0 = {traj.flux[0, 0]:.12f} (closed form {F0:.12f})")
print(f"m_0(10) = {traj.m[-1, 0]:.12f} (closed form {1.0 - 10.0 * F0:.12f})")
print(f"worst d/du (m_0 - |m|) = {mass_loss_margin(traj):.3e}  (<= 0 expected)")
print(f"flux chain margin min(F_0 - |F_vec|) = {flux_holder_margin(traj.flux):.3e}")
print(f"largest step of m_0 = {np.max(np.diff(traj.m[:, 0])):.3e}  "
      "(<= 0 expected)")

out = pathlib.Path(__file__).with_name("mass_loss_trajectory.csv")
out.write_text(trajectory_csv(traj))
print(f"trajectory written to {out}")
