"""Command-line runner.

Subcommands:
    adm           charges at spatial infinity + decay/DEC/positivity checks
    null          charges of the asymptotically null slice + order gate
    bondi-evolve  mass-loss trajectory (CSV) + monotonicity margins
    bondi-slice   induced slice data: consistency fit + slice charges
    verify        the full acceptance battery
    converge      grid/ladder refinement study

``scenarios`` reads the config file and builds every input of a run from
it; a subcommand here adds its checks.  Flags override config values.  Reports are byte-identical for identical
configs apart from the metadata block.
"""

import argparse
import dataclasses
import sys

import numpy as np

from .errors import ConfigError, DomainError
from .ladder import check_ladder, fit_inverse_powers, slowest_order
from .reports import ChargeReport, CheckResult, write_json
from .scenarios import (ScenarioConfig, default_radii, known_mass, make_a3,
                        make_adm_data, make_expansion, make_grid,
                        make_slice_data, parse_config, parse_floats,
                        scenario_name)


def _exponents(fits):
    """The report's decay_exponents: each fit's exponent, or "exact"."""
    return {k: "exact" if f.exact else f.exponent for k, f in fits.items()}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_adm(cfg):
    from .adm import (AF_DECAY_SLACK, adm_energy_momentum, check_af_decay,
                      check_dec_flat, check_pmt_flat)
    # the decay check fits 4 rungs; reject a shorter ladder before any work
    radii = check_ladder(default_radii(cfg, "adm"), minimum=4)
    data = make_adm_data(cfg)
    ch = adm_energy_momentum(data, radii, make_grid(cfg))
    decay = check_af_decay(data, radii)
    rng = np.random.default_rng(0)
    pts = [rng.uniform(radii[0] / 2.0, radii[-1] / 2.0, size=10),
           rng.uniform(0.4, 2.7, size=10), rng.uniform(0.0, 6.2, size=10)]
    dec = check_dec_flat(data, pts)
    pmt = check_pmt_flat(ch)
    m0 = known_mass(cfg)
    checks = [
        CheckResult("adm.energy_matches_preset_mass", ch.E - m0,
                    max(1e-2 * m0, 1e-9), "abs(value) <= tolerance"),
        CheckResult("adm.momentum_small", np.max(np.abs(ch.P)), 1e-4,
                    "value <= tolerance"),
        CheckResult("adm.decay_orders_ok",
                    min(v["fit"].exponent - v["required"]
                        for v in decay.values()),
                    AF_DECAY_SLACK, "value >= -tolerance"),
        CheckResult("adm.dec_margin", np.min(dec), 1e-5,
                    "value >= -tolerance"),
        CheckResult("adm.pmt_margin", pmt, 1e-6, "value >= -tolerance"),
    ]
    report = ChargeReport(
        scenario=scenario_name(cfg), kind="adm",
        charges={"E": ch.E, "P": list(ch.P)},
        samples={"E": list(ch.energy.samples),
                 "P": [list(m.samples) for m in ch.momentum],
                 "radii": list(radii)},
        residuals={"E": ch.energy.residual,
                   "P": [m.residual for m in ch.momentum]},
        dec_min_margin=float(np.min(dec)), pmt_margin=pmt,
        decay_exponents=_exponents({k: v["fit"] for k, v in decay.items()}),
        checks=tuple(checks))
    return report, None


def cmd_null(cfg):
    from .nullcharges import (TAU_GATE, check_dec_null, check_pmt_null,
                              null_energy_momentum)
    data = make_slice_data(cfg)
    radii = default_radii(cfg, "null")
    ch = null_energy_momentum(data, radii, make_grid(cfg))
    pmt = check_pmt_null(ch)
    pts = [np.array([max(20.0, radii[0]), 1.5 * max(20.0, radii[0])]),
           np.array([1.1, 2.0]), np.array([0.4, 3.2])]
    dec = check_dec_null(data, pts)
    _, slowest = slowest_order(ch.decay_orders)
    checks = [
        CheckResult("null.order_gate", slowest, TAU_GATE,
                    "value >= tolerance", "fitted orders above 3/2 gate"),
        CheckResult("null.not_diverging", ch.diverging(), 0.0,
                    "value <= tolerance"),
        CheckResult("null.dec_margin", np.min(dec), 1e-4,
                    "value >= -tolerance"),
        CheckResult("null.pmt_margin", pmt, 1e-4, "value >= -tolerance"),
    ]
    report = ChargeReport(
        scenario=scenario_name(cfg), kind="null",
        charges={"E": list(ch.E_values()),
                 "P": [list(r) for r in ch.P_values()],
                 "margins": list(ch.margins())},
        samples={"E0": list(ch.E[0].samples), "radii": list(radii)},
        residuals={"E": [f.residual for f in ch.E]},
        dec_min_margin=float(np.min(dec)), pmt_margin=pmt,
        decay_exponents=_exponents(ch.decay_orders),
        checks=tuple(checks))
    return report, None


def cmd_bondi_evolve(cfg):
    from .bondi import (bondi_energy_momentum, evolve_energy_momentum,
                        flux_holder_margin, mass_aspect_field,
                        mass_loss_margin, trajectory_csv)
    exp = make_expansion(cfg)
    grid = make_grid(cfg)
    m0 = bondi_energy_momentum(mass_aspect_field(exp, cfg.u_start, grid))
    traj = evolve_energy_momentum(m0, exp, cfg.u_start, cfg.u_end, cfg.du, grid)
    dmax = mass_loss_margin(traj)
    dm0 = np.max(np.diff(traj.m[:, 0]))
    holder = flux_holder_margin(traj.flux)
    checks = [
        CheckResult("evolve.margin_nonincreasing", dmax, 1e-9,
                    "value <= tolerance"),
        CheckResult("evolve.mass_nonincreasing", dm0, 1e-9,
                    "value <= tolerance"),
        CheckResult("evolve.flux_holder_chain", holder, 1e-12,
                    "value >= -tolerance"),
    ]
    report = ChargeReport(
        scenario=scenario_name(cfg), kind="bondi",
        charges={"m_start": list(traj.m[0]), "m_end": list(traj.m[-1])},
        samples={"u": [float(traj.u[0]), float(traj.u[-1])],
                 "n_samples": len(traj.u)},
        residuals={}, pmt_margin=float(traj.margin[-1]),
        checks=tuple(checks))
    return report, trajectory_csv(traj)


def cmd_bondi_slice(cfg):
    from .bondi import expansion_consistency
    from .nullcharges import check_pmt_null, null_energy_momentum
    # the null order gate fits 4 rungs and --radii sets both ladders; reject
    # a shorter ladder before any work
    radii = check_ladder(default_radii(cfg, "slice"), minimum=4)
    null_radii = check_ladder(default_radii(cfg, "null"), minimum=4)
    rep = expansion_consistency(make_expansion(cfg), u0=cfg.u0,
                                a3=make_a3(cfg), radii=radii)
    worst_name, worst = slowest_order(rep)
    data = make_slice_data(cfg)
    ch = null_energy_momentum(data, null_radii, make_grid(cfg))
    pmt = check_pmt_null(ch)
    checks = [
        CheckResult("slice.expansion_consistency", worst, 3.3,
                    "value >= tolerance", f"slowest component {worst_name}"),
        CheckResult("slice.pmt_margin", pmt, 1e-4, "value >= -tolerance"),
    ]
    report = ChargeReport(
        scenario=scenario_name(cfg), kind="null",
        charges={"E": list(ch.E_values()), "margins": list(ch.margins())},
        samples={"consistency_radii": list(radii)},
        residuals={},
        pmt_margin=pmt,
        decay_exponents=_exponents(rep),
        checks=tuple(checks))
    return report, None


def cmd_verify(cfg):
    from .verify import run_verification
    results, elapsed = run_verification()
    report = ChargeReport(scenario="battery", kind="verify",
                          charges={}, samples={"elapsed_s": elapsed},
                          checks=tuple(results))
    return report, None


def cmd_converge(cfg):
    from .adm import adm_ladder_samples
    from .sphere import build_grid
    # a 3-coefficient fit on 3 rungs has no residual to scale a tolerance by
    radii = check_ladder(default_radii(cfg, "adm"), minimum=4)
    data = make_adm_data(cfg)

    def energies(ladder, grid):
        # the study reports energies only, so no momentum is evaluated
        return adm_ladder_samples(data, ladder, grid, momentum=False)

    # the longer ladder is the coarse one plus one rung; sample it once
    longer_radii = radii + [2.0 * radii[-1]]
    samples = energies(longer_radii, make_grid(cfg))
    coarse = fit_inverse_powers(radii, samples[:-1])
    fine = fit_inverse_powers(
        radii, energies(radii, build_grid(2 * cfg.n_theta, 2 * cfg.n_psi)))
    longer = fit_inverse_powers(longer_radii, samples)
    dg = abs(fine.value - coarse.value)
    dl = abs(longer.value - coarse.value)
    checks = [
        CheckResult("converge.grid_refinement", dg,
                    max(coarse.residual, 1e-12),
                    "value <= tolerance"),
        CheckResult("converge.ladder_extension", dl,
                    max(10.0 * coarse.residual, 1e-10),
                    "value <= tolerance"),
    ]
    rows = ["quantity,coarse,fine,delta",
            f"E,{coarse.value:.17e},{fine.value:.17e},{dg:.17e}",
            f"E_ladder,{coarse.value:.17e},{longer.value:.17e},{dl:.17e}"]
    report = ChargeReport(
        scenario=scenario_name(cfg), kind="adm",
        charges={"E_coarse": coarse.value, "E_fine": fine.value,
                 "E_longer": longer.value},
        samples={"radii": radii}, residuals={"E": coarse.residual},
        checks=tuple(checks))
    return report, "\n".join(rows) + "\n"


_COMMANDS = {
    "adm": cmd_adm,
    "null": cmd_null,
    "bondi-evolve": cmd_bondi_evolve,
    "bondi-slice": cmd_bondi_slice,
    "verify": cmd_verify,
    "converge": cmd_converge,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="admbondi",
        description="energy-momentum charges at spatial and null infinity")
    ap.add_argument("subcommand", choices=sorted(_COMMANDS))
    ap.add_argument("--config", help="path to a nested-section config file")
    ap.add_argument("--out", help="write the JSON report here")
    ap.add_argument("--csv", help="write tabular output (trajectory/study) here")
    ap.add_argument("--preset", help="scenario preset when no config is given")
    ap.add_argument("--ntheta", type=int)
    ap.add_argument("--npsi", type=int)
    ap.add_argument("--radii", help="comma-separated radius ladder")
    ap.add_argument("--u0", type=float,
                    help="slice time; for bondi-evolve, the start time")
    ap.add_argument("--u1", type=float, help="end time of bondi-evolve")
    ap.add_argument("--du", type=float)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            with open(args.config) as f:
                cfg, provenance = parse_config(f.read())
        else:
            cfg, provenance = ScenarioConfig(), {}
        radii = None
        if args.radii is not None:
            try:
                radii = parse_floats(args.radii)
            except ValueError as exc:
                raise ConfigError(f"bad value for --radii: {exc}")
        # --u0 is the start of an evolution, the slice time of every other
        # command
        u0 = "u_start" if args.subcommand == "bondi-evolve" else "u0"
        flags = {"preset": args.preset, "n_theta": args.ntheta,
                 "n_psi": args.npsi, "radii": radii, u0: args.u0,
                 "u_end": args.u1, "du": args.du}
        cfg = dataclasses.replace(
            cfg, **{k: v for k, v in flags.items() if v is not None})
        report, table = _COMMANDS[args.subcommand](cfg)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    body = report.as_dict()
    body["config_provenance"] = {k: v for k, v in sorted(provenance.items())}
    if args.out:
        write_json(args.out, body)
    if args.csv and table is not None:
        with open(args.csv, "w") as f:
            f.write(table)
    elif args.csv:
        print("note: this subcommand produces no tabular output",
              file=sys.stderr)

    for c in report.checks:
        print(c.line())
    failing = [c.name for c in report.checks if not c.passed]
    if failing:
        print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    print(f"all {len(report.checks)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
