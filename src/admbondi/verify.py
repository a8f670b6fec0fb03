"""The acceptance battery: every displayed formula checked at desk scale.

Each criterion function returns CheckResult records with pinned tolerances;
``run_verification`` executes the whole battery and is what the command-line
``verify`` subcommand and the acceptance test module share.
"""

import time

import numpy as np

from . import jets
from .adm import adm_energy_momentum
from .bondi import (HOLDER_SLACK, MASS_LOSS_SLACK, BondiExpansion,
                    bondi_energy_momentum, evolve_energy_momentum,
                    flux_holder_margin, mass_aspect_field, mass_loss_margin,
                    pullback_slice_data, vanishing_news_scenario)
from .cli import consistency_verdict, slice_verdict
from .geometry import constraint_quantities, rigidity_residual
from .nullcharges import (background_connection, background_connection_fd,
                          decay_orders, estimate_decay_order,
                          null_energy_momentum)
from .ladder import slowest_order
from .reports import CheckResult
from .scenarios import (ScenarioConfig, default_radii, make_a3,
                        make_adm_data, make_expansion, make_grid,
                        make_slice_data)
from .spacetimes import (KerrParameters, bondi_metric, kerr, minkowski,
                         schwarzschild)
from .sphere import build_grid, direction_functions, integrate

__all__ = ["run_verification", "CRITERIA"]


def _adm_charges(cfg):
    """The ADM charges of ``cfg`` on the grid and ladder of an ``adm`` run,
    with that grid and ladder."""
    grid, radii = make_grid(cfg, "adm"), default_radii(cfg, "adm")
    return adm_energy_momentum(make_adm_data(cfg), radii, grid), grid, radii


def criterion_1_schwarzschild_adm():
    t0 = time.perf_counter()
    ch, grid, radii = _adm_charges(
        ScenarioConfig(preset="schwarzschild", mass=1.0))
    dt = time.perf_counter() - t0
    out = [
        CheckResult("c1.schwarzschild_adm_energy", ch.E - 1.0, 1e-3,
                    "abs(value) <= tolerance", f"E={ch.E:.8f}"),
        CheckResult("c1.schwarzschild_adm_momentum", np.max(np.abs(ch.P)),
                    1e-6, "abs(value) <= tolerance"),
        CheckResult("c1.schwarzschild_adm_runtime", dt, 10.0,
                    "value <= tolerance",
                    f"{dt:.2f}s on {grid.n_theta}x{grid.n_psi}, "
                    f"{len(radii)} rungs"),
    ]
    return out


def criterion_2_kerr_adm():
    ch, _, _ = _adm_charges(ScenarioConfig(preset="kerr", mass=1.0, spin=0.5))
    return [
        CheckResult("c2.kerr_adm_energy", ch.E - 1.0, 1e-2,
                    "abs(value) <= tolerance", f"E={ch.E:.8f}"),
        CheckResult("c2.kerr_adm_momentum", np.max(np.abs(ch.P)),
                    1e-4, "abs(value) <= tolerance"),
    ]


def criterion_3_hyperboloid():
    rng = np.random.default_rng(3)
    cfg = ScenarioConfig(preset="minkowski")
    data = make_slice_data(cfg)
    r = rng.uniform(0.2, 10.0, size=100)
    th = rng.uniform(0.3, np.pi - 0.3, size=100)
    ps = rng.uniform(0.0, 2 * np.pi, size=100)
    g, h = data.values([r, th, ps])
    eye = np.eye(3)[:, :, None]
    worst = float(np.max([np.max(np.abs(g - eye)), np.max(np.abs(h - eye))]))
    ch = null_energy_momentum(data, default_radii(cfg, "null"),
                              build_grid(32, 64))
    charge_mag = float(np.max([np.max(np.abs(ch.E)), np.max(np.abs(ch.P))]))
    rr = rigidity_residual(data, [r[:20], th[:20], ps[:20]])
    rig = float(np.max([np.max(x) for x in rr]))
    return [
        CheckResult("c3.hyperboloid_pullback_identity", worst, 1e-10,
                    "abs(value) <= tolerance", "100 random points"),
        CheckResult("c3.hyperboloid_null_charges", charge_mag, 1e-12,
                    "abs(value) <= tolerance"),
        CheckResult("c3.hyperboloid_rigidity", rig, 1e-7,
                    "abs(value) <= tolerance"),
    ]


def criterion_4_constraints():
    rng = np.random.default_rng(4)
    tol = 1e-5
    out = []
    static = make_adm_data(ScenarioConfig(preset="schwarzschild", mass=1.0))
    pts = [rng.uniform(3.0, 25.0, size=8), rng.uniform(0.4, 2.7, size=8),
           rng.uniform(0.0, 6.2, size=8)]
    cq = constraint_quantities(static, pts)
    worst = float(np.max([np.max(np.abs(cq.mu)), np.max(np.abs(cq.varpi)),
                          np.max(np.abs(cq.sigma))]))
    out.append(CheckResult("c4.static_slice_constraints", worst, tol,
                           "abs(value) <= tolerance"))

    cfg = ScenarioConfig(preset="bondi-schwarzschild", mass=1.0)
    # r_min: below this check's own sample radii, 20..80
    pulled = pullback_slice_data(make_expansion(cfg), cfg.u0, make_a3(cfg),
                                 r_min=10.0)
    pts = [np.array([20.0, 30.0, 50.0, 80.0]), np.array([0.9, 1.4, 2.0, 2.5]),
           np.array([0.3, 1.7, 3.4, 5.1])]
    cq = constraint_quantities(pulled, pts)
    worst = float(np.max([np.max(np.abs(cq.mu)), np.max(np.abs(cq.varpi)),
                          np.max(np.abs(cq.sigma))]))
    out.append(CheckResult("c4.bondi_slice_constraints", worst, tol,
                           "abs(value) <= tolerance", "vacuum slice, r >= 20"))
    out.append(CheckResult("c4.symmetric_sigma_exact",
                           np.max(np.abs(cq.sigma)), 0.0,
                           "abs(value) <= tolerance",
                           "identically zero for symmetric p"))
    return out


def criterion_5_bondi_moments():
    cfg = ScenarioConfig(preset="bondi-schwarzschild", mass=1.0)
    m = cfg.mass

    def M(u, th, ps):
        return m * (1.0 + 0.5 * jets.cos(th)) + 0.0 * u
    exp = BondiExpansion(M=M)
    mom = bondi_energy_momentum(mass_aspect_field(exp, 0.0,
                                                  make_grid(cfg, "evolve")))
    err = float(np.max(np.abs(mom - np.array([m, 0.0, 0.0, m / 6.0]))))
    return [CheckResult("c5.mass_aspect_moments", err, 1e-10,
                        "abs(value) <= tolerance",
                        f"m_nu={np.array2string(mom, precision=10)}")]


def criterion_6_mass_loss():
    cfg = ScenarioConfig(preset="bondi-quadrupole", amplitude=0.1,
                         news_zero_u=0.0, u_start=0.0, u_end=10.0, du=0.01)
    exp = make_expansion(cfg)
    traj = evolve_energy_momentum([1.0, 0.0, 0.0, 0.0], exp, cfg.u_start,
                                  cfg.u_end, cfg.du, make_grid(cfg, "evolve"))
    F0_ref = 8.0 * 0.01 / 15.0
    f_err = float(np.max(np.abs(traj.flux[:, 0] - F0_ref)))
    m_err = abs(traj.m[-1, 0] - (1.0 - F0_ref * 10.0))
    dmax = mass_loss_margin(traj)
    holder = flux_holder_margin(traj.flux)
    return [
        CheckResult("c6.flux_constant_value", f_err, 1e-10,
                    "abs(value) <= tolerance"),
        CheckResult("c6.final_mass", m_err, 1e-8,
                    "abs(value) <= tolerance", f"m0(10)={traj.m[-1, 0]:.12f}"),
        CheckResult("c6.margin_derivative_nonpositive", dmax,
                    MASS_LOSS_SLACK, "value <= tolerance"),
        CheckResult("c6.flux_holder_chain", holder, HOLDER_SLACK,
                    "value >= -tolerance",
                    "sqrt(sum F_i^2) <= F_0 at every step"),
    ]


def criterion_7_expansion_consistency():
    t0 = time.perf_counter()
    out = []
    for preset in ("bondi-quadrupole", "bondi-biaxial"):
        cfg = ScenarioConfig(preset=preset, amplitude=0.1, amplitude_d=0.05,
                             a3_amplitude=0.02 if preset == "bondi-biaxial" else 0.0,
                             news_zero_u=0.0 if preset == "bondi-quadrupole" else None)
        _, _, check = consistency_verdict(cfg, f"c7.consistency_{preset}")
        out.append(check)
    dt = time.perf_counter() - t0
    out.append(CheckResult("c7.consistency_runtime", dt, 60.0,
                           "value <= tolerance", f"{dt:.2f}s for both presets"))
    return out


def criterion_8_decay_orders():
    cfg = ScenarioConfig(preset="bondi-schwarzschild")
    data = make_slice_data(cfg)
    fit = estimate_decay_order(data, "a11", default_radii(cfg, "decay"))
    out = [CheckResult("c8.schwarzschild_bondi_a11_order", fit.exponent - 3.0,
                       0.1, "abs(value) <= tolerance",
                       f"tau-hat={fit.exponent:.8f}")]
    cfg = ScenarioConfig(preset="bondi-biaxial", amplitude=0.08,
                         amplitude_d=0.05, news_zero_u=2.0, u0=2.0)
    data = make_slice_data(cfg)
    worst_name, worst = slowest_order(
        decay_orders(data, default_radii(cfg, "decay")))
    out.append(CheckResult("c8.generic_orders_above_gate", worst, 1.9,
                           "value >= tolerance",
                           f"slowest component {worst_name} (gate 3/2)"))
    return out


def criterion_9_vanishing_news():
    cfg = ScenarioConfig(preset="bondi-quadrupole", amplitude=0.05,
                         news_zero_u=10.0, u0=10.0, du=0.02)
    traj = vanishing_news_scenario(make_expansion(cfg), cfg.u0, cfg.u_start,
                                   cfg.du, make_grid(cfg, "evolve"))
    slice_ = slice_verdict(cfg, "c9")
    return [
        CheckResult("c9.mass_dominates_momentum", np.min(traj.margin), 1e-9,
                    "value >= -tolerance", "m_0 >= |m| for u <= u0"),
        *slice_.gate, slice_.pmt,
    ]


def _fd_check_metric(metric, pts):
    """Largest scaled difference between the jet derivatives of the metric
    and central differences (step 1e-5), over all points at once; a NaN is
    kept."""
    h = 1e-5
    x = np.array(pts, dtype=float).T          # (4, number of points)
    dg = metric.first_derivs(x)
    err = np.empty_like(dg)
    for c in range(4):
        up = x.copy(); up[c] += h
        dn = x.copy(); dn[c] -= h
        ref = (metric.components(up) - metric.components(dn)) / (2 * h)
        err[c] = np.abs(dg[c] - ref) / (1.0 + np.abs(dg[c]))
    return float(np.max(err))


def criterion_10_oracles():
    rng = np.random.default_rng(10)
    cfg = ScenarioConfig(preset="bondi-biaxial", amplitude=0.08, amplitude_d=0.05)
    # r_min: below this check's own sample radii, 6..25
    evaluators = [
        minkowski("polar"), schwarzschild(1.0, "polar"),
        schwarzschild(1.0, "retarded"), kerr(KerrParameters(1.0, 0.6)),
        bondi_metric(make_expansion(cfg), r_min=5.0),
    ]
    worst_fd = 0.0
    for ev in evaluators:
        pts = [(rng.uniform(-1, 1), rng.uniform(6.0, 25.0),
                rng.uniform(0.4, 2.7), rng.uniform(0.0, 6.2))
               for _ in range(100)]
        worst_fd = np.maximum(worst_fd, _fd_check_metric(ev, pts))
    out = [CheckResult("c10.jets_vs_finite_differences", worst_fd, 1e-6,
                       "abs(value) <= tolerance", "100 points x 5 evaluators")]

    worst_conn = 0.0
    for _ in range(60):
        r = rng.uniform(0.5, 40.0)
        th = rng.uniform(0.3, np.pi - 0.3)
        worst_conn = np.maximum(worst_conn, np.max(np.abs(
            background_connection(r, th) - background_connection_fd(r, th))))
    out.append(CheckResult("c10.background_connection_oracle", worst_conn,
                           1e-8, "abs(value) <= tolerance"))

    grid = make_grid(cfg, "evolve")
    n = direction_functions(grid)
    got = integrate(grid, n[:, None] * n[None, :]) / (4.0 * np.pi)
    ref = np.diag([1.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
    worst_q = np.max(np.abs(got - ref))
    out.append(CheckResult("c10.quadrature_direction_family", worst_q,
                           1e-12, "abs(value) <= tolerance"))
    return out


CRITERIA = (
    criterion_1_schwarzschild_adm,
    criterion_2_kerr_adm,
    criterion_3_hyperboloid,
    criterion_4_constraints,
    criterion_5_bondi_moments,
    criterion_6_mass_loss,
    criterion_7_expansion_consistency,
    criterion_8_decay_orders,
    criterion_9_vanishing_news,
    criterion_10_oracles,
)


def run_verification():
    """Run the full battery; returns (results, elapsed_seconds)."""
    t0 = time.perf_counter()
    results = [res for crit in CRITERIA for res in crit()]
    elapsed = time.perf_counter() - t0
    results.append(CheckResult("c10.verify_wall_time", elapsed, 300.0,
                               "value <= tolerance",
                               f"{elapsed:.1f}s for the full battery"))
    return results, elapsed
