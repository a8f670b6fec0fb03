"""Command-line runner.

Subcommands:
    adm           charges at spatial infinity + decay/DEC/positivity checks
    null          charges of the asymptotically null slice + order gate
    bondi-evolve  mass-loss trajectory (CSV) + monotonicity margins
    bondi-slice   induced slice data: consistency fit + charges + order gate
    verify        the full acceptance battery
    converge      grid/ladder refinement study

``scenarios`` reads the config file and builds every input of a run from
it; a subcommand here adds its checks.  ``null``, ``bondi-slice``, c7 and
c9 judge a u0-slice through ``slice_verdict`` and ``consistency_verdict``.
Flags override config values.
Reports are byte-identical for identical configs apart from the metadata block.
"""

import argparse
import collections
import dataclasses
import functools
import sys

import numpy as np

from .errors import ConfigError, DomainError
from .ladder import (fit_field, fit_inverse_powers, slowest_order,
                     unit_samples)
from .reports import ChargeReport, CheckResult, write_json
from .scenarios import (ScenarioConfig, default_radii, known_mass, make_a3,
                        make_adm_data, make_expansion, make_grid,
                        make_slice_data, parse_config, parse_floats,
                        scenario_name)
from .sphere import build_grid


def _exponents(fits):
    """The report's decay_exponents: each fit's exponent, or "exact"."""
    return {k: "exact" if f.exact else f.exponent for k, f in fits.items()}


def _on_failure(check, detail):
    """``check`` with the text ``detail()`` as its detail if it fails; a
    passing check keeps an empty detail."""
    if not check.passed:
        check.detail = detail()
    return check


def _smallest_at(margin, pts):
    """Where the margin at the sample points (r, theta, psi) is smallest; a
    NaN margin counts as the smallest."""
    k = int(np.argmin(margin))
    point = ", ".join(repr(float(c[k])) for c in pts)
    return f"smallest margin at (r, theta, psi) = ({point})"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_adm(cfg):
    from .adm import (AF_DECAY_SLACK, AF_REQUIRED_ORDERS, adm_energy_momentum,
                      check_af_decay, check_dec_flat, check_pmt_flat)
    radii = default_radii(cfg, "adm")
    data = make_adm_data(cfg)
    grid = make_grid(cfg, "adm")
    ch = adm_energy_momentum(data, radii, grid)
    decay = check_af_decay(data, radii)
    rng = np.random.default_rng(0)
    pts = [rng.uniform(radii[0] / 2.0, radii[-1] / 2.0, size=10),
           rng.uniform(0.4, 2.7, size=10), rng.uniform(0.0, 6.2, size=10)]
    dec = check_dec_flat(data, pts)
    pmt = check_pmt_flat(ch)
    m0 = known_mass(cfg)
    margins = {k: f.exponent - AF_REQUIRED_ORDERS[k] for k, f in decay.items()}
    slow = min(margins, key=margins.get)
    checks = [
        CheckResult("adm.energy_matches_preset_mass", ch.E - m0,
                    max(1e-2 * m0, 1e-9), "abs(value) <= tolerance"),
        CheckResult("adm.momentum_small", np.max(np.abs(ch.P)), 1e-4,
                    "value <= tolerance"),
        _on_failure(
            CheckResult("adm.decay_orders_ok", margins[slow], AF_DECAY_SLACK,
                        "value >= -tolerance"),
            lambda: f"slowest class {slow}: exponent "
                    f"{decay[slow].exponent:.6g}, required "
                    f"{AF_REQUIRED_ORDERS[slow]:g}"),
        _on_failure(CheckResult("adm.dec_margin", np.min(dec), 1e-5,
                                "value >= -tolerance"),
                    lambda: _smallest_at(dec, pts)),
        CheckResult("adm.pmt_margin", pmt, 1e-6, "value >= -tolerance"),
    ]
    report = ChargeReport(
        scenario=scenario_name(cfg), kind="adm",
        charges={"E": ch.E, "P": ch.P},
        samples={"E": fit_field(ch.energy, "samples"),
                 "P": fit_field(ch.momentum, "samples"),
                 "radii": list(radii), "grid": list(grid.shape)},
        errors={"E": fit_field(ch.energy, "error"),
                "P": fit_field(ch.momentum, "error")},
        dec_min_margin=float(np.min(dec)), pmt_margin=pmt,
        decay_exponents=_exponents(decay),
        checks=tuple(checks))
    return report, None


SliceVerdict = collections.namedtuple(
    "SliceVerdict", "data radii grid charges decay gate pmt")


def slice_verdict(cfg, prefix):
    """The null charges of the u0-slice data of ``cfg`` on its "null" ladder
    and grid, and the checks that judge them, as a SliceVerdict.  ``gate``
    is the theorem's hypothesis: ``<prefix>.order_gate``, the 12 fits
    ``decay`` over the outer 4 rungs decay faster than TAU_GATE, and
    ``<prefix>.not_diverging``.  ``pmt`` is its conclusion,
    ``<prefix>.pmt_margin``."""
    from .nullcharges import (PMT_NULL_SLACK, TAU_GATE, check_pmt_null,
                              decay_orders, diverging, null_energy_momentum)
    radii = default_radii(cfg, "null")
    data = make_slice_data(cfg)
    grid = make_grid(cfg, "null")
    ch = null_energy_momentum(data, radii, grid)
    decay = decay_orders(data, radii[-4:], build_grid(8, 16))
    slow, slowest = slowest_order(decay)
    drifting = diverging(ch)
    gate = [
        _on_failure(CheckResult(f"{prefix}.order_gate", slowest, TAU_GATE,
                                "value >= tolerance"),
                    lambda: f"slowest component {slow}: order {slowest:.6g}"),
        _on_failure(CheckResult(f"{prefix}.not_diverging", bool(drifting),
                                0.0, "value <= tolerance"),
                    lambda: f"first diverging charge {drifting[0]}"),
    ]
    pmt = CheckResult(f"{prefix}.pmt_margin", check_pmt_null(ch),
                      PMT_NULL_SLACK, "value >= -tolerance")
    return SliceVerdict(data, radii, grid, ch, decay, gate, pmt)


def consistency_verdict(cfg, name):
    """(radii, fits, check): the ``expansion_consistency`` fits of the
    u0-slice of ``cfg`` over its "slice" ladder, and the check ``name``
    that its slowest component decays at CONSISTENCY_ORDER at least."""
    from .bondi import CONSISTENCY_ORDER, expansion_consistency
    radii = default_radii(cfg, "slice")
    fits = expansion_consistency(make_expansion(cfg), radii, u0=cfg.u0,
                                 a3=make_a3(cfg))
    worst_name, worst = slowest_order(fits)
    return radii, fits, CheckResult(name, worst, CONSISTENCY_ORDER,
                                    "value >= tolerance",
                                    f"slowest component {worst_name}")


def cmd_null(cfg):
    from .nullcharges import check_dec_null, margin_errors, margins
    v = slice_verdict(cfg, "null")
    ch, radii = v.charges, v.radii
    pts = [np.array([max(20.0, radii[0]), 1.5 * max(20.0, radii[0])]),
           np.array([1.1, 2.0]), np.array([0.4, 3.2])]
    dec = check_dec_null(v.data, pts)
    checks = v.gate + [
        _on_failure(CheckResult("null.dec_margin", np.min(dec), 1e-4,
                                "value >= -tolerance"),
                    lambda: _smallest_at(dec, pts)),
        v.pmt,
    ]
    report = ChargeReport(
        scenario=scenario_name(cfg), kind="null",
        charges={"E": ch.E, "P": ch.P, "margins": margins(ch)},
        errors={"E": fit_field(ch.energy, "error"),
                "P": fit_field(ch.momentum, "error"),
                "margins": margin_errors(ch)},
        samples={"radii": list(radii), "grid": list(v.grid.shape)},
        fits={"E": ch.energy, "P": ch.momentum, "decay": v.decay},
        dec_min_margin=float(np.min(dec)), pmt_margin=v.pmt.value,
        decay_exponents=_exponents(v.decay),
        checks=tuple(checks))
    return report, None


def cmd_bondi_evolve(cfg):
    from .bondi import (HOLDER_SLACK, MASS_LOSS_SLACK, bondi_energy_momentum,
                        evolve_energy_momentum, flux_holder_margin,
                        mass_aspect_field, mass_loss_margin, trajectory_csv)
    exp = make_expansion(cfg)
    grid = make_grid(cfg, "evolve")
    m0 = bondi_energy_momentum(mass_aspect_field(exp, cfg.u_start, grid))
    traj = evolve_energy_momentum(m0, exp, cfg.u_start, cfg.u_end, cfg.du, grid)
    dmax = mass_loss_margin(traj)
    dm0 = np.max(np.diff(traj.m[:, 0]))
    holder = flux_holder_margin(traj.flux)
    checks = [
        CheckResult("evolve.margin_nonincreasing", dmax, MASS_LOSS_SLACK,
                    "value <= tolerance"),
        CheckResult("evolve.mass_nonincreasing", dm0, 1e-9,
                    "value <= tolerance"),
        CheckResult("evolve.flux_holder_chain", holder, HOLDER_SLACK,
                    "value >= -tolerance"),
    ]
    report = ChargeReport(
        scenario=scenario_name(cfg), kind="bondi",
        charges={"m_start": list(traj.m[0]), "m_end": list(traj.m[-1])},
        samples={"u": [float(traj.u[0]), float(traj.u[-1])],
                 "n_samples": len(traj.u), "grid": list(grid.shape)},
        pmt_margin=float(traj.margin[-1]),
        checks=tuple(checks))
    return report, trajectory_csv(traj)


def cmd_bondi_slice(cfg):
    from .nullcharges import margin_errors, margins
    radii, fits, consistency = consistency_verdict(
        cfg, "slice.expansion_consistency")
    v = slice_verdict(cfg, "slice")
    ch = v.charges
    report = ChargeReport(
        scenario=scenario_name(cfg), kind="null",
        charges={"E": ch.E, "margins": margins(ch)},
        errors={"E": fit_field(ch.energy, "error"),
                "margins": margin_errors(ch)},
        samples={"radii": list(v.radii), "consistency_radii": list(radii),
                 "grid": list(v.grid.shape)},
        pmt_margin=v.pmt.value,
        decay_exponents=_exponents(fits),
        checks=tuple(v.gate + [consistency, v.pmt]))
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
    radii = default_radii(cfg, "adm")
    data = make_adm_data(cfg)

    # the longer ladder is the coarse one plus one rung; sample it once
    longer_radii = radii + [2.0 * radii[-1]]
    grid = make_grid(cfg, "adm")
    fine_grid = build_grid(2 * grid.n_theta, 2 * grid.n_psi)
    # the study reports energies only, so no momentum is evaluated
    samples = adm_ladder_samples(data, longer_radii, grid, momentum=False)
    unit = unit_samples(longer_radii, 2, 16.0 * np.pi)
    coarse = fit_inverse_powers(radii, samples[:-1], unit[:-1])
    fine = fit_inverse_powers(radii, adm_ladder_samples(
        data, radii, fine_grid, momentum=False), unit[:-1])
    longer = fit_inverse_powers(longer_radii, samples, unit)
    dg = abs(fine.value - coarse.value)
    dl = abs(longer.value - coarse.value)
    # the ADM integrands are resolved to roundoff on the default grid, so
    # refining it may move the charge by roundoff only; one more rung moves
    # it by no more than the coarse fit's error estimate
    checks = [
        CheckResult("converge.grid_refinement", dg, 1e-12,
                    "value <= tolerance"),
        CheckResult("converge.ladder_extension", dl, coarse.error,
                    "value <= tolerance"),
    ]
    rows = ["quantity,coarse,fine,delta",
            f"E,{coarse.value:.17e},{fine.value:.17e},{dg:.17e}",
            f"E_ladder,{coarse.value:.17e},{longer.value:.17e},{dl:.17e}"]
    report = ChargeReport(
        scenario=scenario_name(cfg), kind="adm",
        charges={"E_coarse": coarse.value, "E_fine": fine.value,
                 "E_longer": longer.value},
        samples={"radii": radii, "grid": list(grid.shape),
                 "fine_grid": list(fine_grid.shape)},
        errors={"E_coarse": coarse.error, "E_fine": fine.error,
                "E_longer": longer.error},
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


@functools.cache
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
        flags = {k: v for k, v in flags.items() if v is not None}
        cfg = dataclasses.replace(cfg, **flags)
        if provenance:
            provenance.update(dict.fromkeys(flags, "flag"))
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
