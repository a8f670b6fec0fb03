"""Seeded workloads of the admbondi benchmark and their analytic references.

A workload is a fixed list of command-line calls.  Its scenario parameters
are drawn from the seed, written to config files, and those files are all
the command line receives.  After a pass, ``check_pass`` compares every
report against a closed-form answer:

* ``adm``, ``converge``: E = m and P = 0;
* ``null``, ``bondi-slice`` (news vanishing at u0): the boost margins
  E_nu - P_nu,1 equal the mass-aspect moments (m, 0, 0, 0.2 m / 3);
* ``bondi-evolve``: constant flux F = (F_0, 0, 0, 0), with
  F_0 = 8 A^2 / 15 for bondi-quadrupole and (4/15)(A^2/4 + A_d^2/9) for
  bondi-biaxial, and m_nu(u) = m_nu(0) - F_nu u;
* ``verify``: every check passes and the error values of c1, c2, c5 and c6
  stay within their tolerances.

The module imports nothing from admbondi: it only writes inputs and reads
the reports, so it also serves as the gate in the benchmark's tests.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

# Ranges within which every check of every scenario passes.
PARAM_RANGES = {
    "mass": (0.8, 1.25),
    "spin": (0.3, 0.7),
    "amplitude": (0.05, 0.1),
    "amplitude_d": (0.03, 0.06),
}

WHY = {
    "charges": "adm, converge, null and bondi-slice: order-2 nested jets "
               "over 4608- and 18432-node arrays through the numerical "
               "pullback; flux and sphere fields barely run",
    "radiating": "bondi-evolve over 1001 retarded times on two presets: "
                 "order-1 news jets and the sphere layer; geometry never runs",
    "battery": "the 10-criterion verify battery: nested jets at scalar and "
               "8-point leaves, where per-operation interpreter cost "
               "dominates",
}
WORKLOADS = tuple(WHY)

# Relative error below which a quantity counts as exact: the digits of a
# reference quantity are capped at -log10(EPS).
EPS = 2.0 ** -52

# Verify checks whose value and detail are wall times.
_TIMED_CHECKS = ("c1.schwarzschild_adm_runtime", "c7.consistency_runtime",
                 "c10.verify_wall_time")


@dataclass
class Call:
    """One command-line call of a pass.

    ``argv`` lacks the ``--out`` and ``--csv`` paths, which the runner adds
    from ``label``; ``reference`` names the check in ``_REFERENCES``.
    """

    label: str
    argv: list
    csv: bool
    reference: str
    params: dict


def draw_params(seed):
    """Scenario parameters of one seed, uniform within PARAM_RANGES."""
    rng = np.random.default_rng(seed)
    draw = lambda key: float(rng.uniform(*PARAM_RANGES[key]))
    return {
        "schwarzschild": {"mass": draw("mass")},
        "kerr": {"mass": draw("mass"), "spin": draw("spin")},
        "slice": {"mass": draw("mass"), "amplitude": draw("amplitude"),
                  "amplitude_d": draw("amplitude_d")},
        "quadrupole": {"mass": draw("mass"), "amplitude": draw("amplitude")},
        "biaxial": {"mass": draw("mass"), "amplitude": draw("amplitude"),
                    "amplitude_d": draw("amplitude_d")},
    }


def _config_text(preset, params, sections=()):
    def text(v):
        if isinstance(v, str):
            return v
        if isinstance(v, tuple):
            return ", ".join(map(repr, v))
        return repr(v)          # every digit of a float

    def entries(d):
        return [f"{k} = {text(v)}" for k, v in d.items()]

    lines = [f"preset = {preset}", "[parameters]", *entries(params)]
    for name, values in sections:
        lines += [f"[{name}]", *entries(values)]
    return "\n".join(lines) + "\n"


_EVOLUTION = ("evolution", {"u_start": 0.0, "u_end": 10.0, "du": 0.01})


def _adm_ladder(mass):
    """The README ladder 10, 20, 40, 80 in units of the mass.

    The extrapolation error of E / m depends on the rungs only through r / m,
    so the digits against the reference do not drift with the drawn mass.
    """
    return ("ladder", {"radii": tuple(r * mass for r in (10.0, 20.0, 40.0,
                                                          80.0))})


def build_calls(workload, seed, workdir):
    """Write the seed's config files into workdir; return the pass's calls.

    Parameters are drawn for every workload, so a seed names the same
    scenarios wherever they appear; ``battery`` uses none of them.
    """
    p = draw_params(seed)

    def config(name, preset, params, sections=()):
        path = os.path.join(workdir, f"{name}.cfg")
        with open(path, "w") as f:
            f.write(_config_text(preset, params, sections))
        return path

    if workload == "charges":
        schw = config("schwarzschild", "schwarzschild", p["schwarzschild"],
                      [_adm_ladder(p["schwarzschild"]["mass"])])
        kerr = config("kerr", "kerr", p["kerr"],
                      [_adm_ladder(p["kerr"]["mass"])])
        # news vanish at u0 = 2, so the slice charges converge (tau > 3/2)
        sl = config("slice", "bondi-biaxial",
                    {**p["slice"], "news_zero_u": 2.0,
                     "mass_aspect": "tilted"},
                    [("slice", {"u0": 2.0})])
        return [
            Call("adm-schwarzschild", ["adm", "--config", schw], False,
                 "adm", p["schwarzschild"]),
            Call("adm-kerr", ["adm", "--config", kerr], False, "adm",
                 p["kerr"]),
            Call("converge-kerr", ["converge", "--config", kerr], True,
                 "converge", p["kerr"]),
            Call("null-biaxial", ["null", "--config", sl], False,
                 "slice_margins", p["slice"]),
            Call("slice-biaxial", ["bondi-slice", "--config", sl], False,
                 "slice_margins", p["slice"]),
        ]
    if workload == "radiating":
        quad = config("quadrupole", "bondi-quadrupole", p["quadrupole"],
                      [_EVOLUTION])
        biax = config("biaxial", "bondi-biaxial", p["biaxial"], [_EVOLUTION])
        return [
            Call("evolve-quadrupole", ["bondi-evolve", "--config", quad], True,
                 "evolve_quadrupole", p["quadrupole"]),
            Call("evolve-biaxial", ["bondi-evolve", "--config", biax], True,
                 "evolve_biaxial", p["biaxial"]),
        ]
    if workload == "battery":
        return [Call("verify", ["verify"], False, "battery", {})]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# References.  Each returns (quantity, relative error, tolerance) triples.
# ---------------------------------------------------------------------------

def _rel(got, want, scale):
    return float(np.max(np.abs(np.asarray(got, dtype=float) - want))) / scale


def _ref_adm(params, body, table):
    m = params["mass"]
    ch = body["charges"]
    return [("E", _rel(ch["E"], m, m), 5e-3),
            ("P", _rel(ch["P"], 0.0, m), 1e-6)]


def _ref_converge(params, body, table):
    m = params["mass"]
    ch = body["charges"]
    return [(k, _rel(ch[k], m, m), 5e-3)
            for k in ("E_coarse", "E_fine", "E_longer")]


def _ref_slice_margins(params, body, table):
    m = params["mass"]
    moments = [m, 0.0, 0.0, 0.2 * m / 3.0]
    return [("margins", _rel(body["charges"]["margins"], moments, m), 1e-5)]


def _ref_evolve(params, table, F0, m_start):
    rows = np.loadtxt(table.splitlines()[1:], delimiter=",", ndmin=2)
    u, m, F = rows[:, 0], rows[:, 1:5], rows[:, 5:9]
    flux = np.array([F0, 0.0, 0.0, 0.0])
    expected_u = np.linspace(0.0, 10.0, 1001)
    return [
        ("u", _rel(u, expected_u, 10.0) if len(u) == 1001 else math.inf,
         1e-12),
        ("F", _rel(F, flux, F0), 1e-10),
        ("m", _rel(m, np.asarray(m_start) - u[:, None] * flux,
                   params["mass"]), 1e-10),
    ]


def _ref_evolve_quadrupole(params, body, table):
    A, m = params["amplitude"], params["mass"]
    return _ref_evolve(params, table, 8.0 * A * A / 15.0, [m, 0.0, 0.0, 0.0])


def _ref_evolve_biaxial(params, body, table):
    A, Ad, m = params["amplitude"], params["amplitude_d"], params["mass"]
    F0 = (4.0 / 15.0) * (A * A / 4.0 + Ad * Ad / 9.0)
    return _ref_evolve(params, table, F0, [m, 0.0, 0.0, 0.2 * m / 3.0])


# verify checks whose value is an error against an analytic answer, with the
# scale that makes it relative (c6 flux: F_0 = 8 (0.1)^2 / 15)
_BATTERY_ERRORS = {
    "c1.schwarzschild_adm_energy": 1.0,
    "c1.schwarzschild_adm_momentum": 1.0,
    "c2.kerr_adm_energy": 1.0,
    "c2.kerr_adm_momentum": 1.0,
    "c5.mass_aspect_moments": 1.0,
    "c6.flux_constant_value": 8.0 * 0.01 / 15.0,
    "c6.final_mass": 1.0,
}


def _ref_battery(params, body, table):
    checks = {c["name"]: c for c in body["checks"]}
    out = [("all_checks", 0.0 if body["passed"] and
            all(c["passed"] for c in checks.values()) else math.inf, 0.0)]
    for name, scale in _BATTERY_ERRORS.items():
        c = checks.get(name)
        if c is None:
            out.append((name, math.inf, 0.0))
            continue
        out.append((name, abs(float(c["value"])) / scale,
                    float(c["tolerance"]) / scale))
    return out


_REFERENCES = {
    "adm": _ref_adm,
    "converge": _ref_converge,
    "slice_margins": _ref_slice_margins,
    "evolve_quadrupole": _ref_evolve_quadrupole,
    "evolve_biaxial": _ref_evolve_biaxial,
    "battery": _ref_battery,
}


def reference_errors(call, body, table):
    """(quantity, relative error, tolerance) triples of one call's outputs."""
    return _REFERENCES[call.reference](call.params, body, table)


def check_pass(calls, outputs):
    """Gate one pass.

    ``outputs`` maps each call label to (exit code, report body, table).
    Returns (ok, digits, problems): ok is False if any call exited non-zero
    or missed its reference; digits is the smallest -log10 of a relative
    error over the pass.
    """
    problems = []
    digits = math.inf
    for call in calls:
        rc, body, table = outputs[call.label]
        if rc != 0:
            problems.append(f"{call.label}: exit code {rc}")
            continue
        try:
            errors = reference_errors(call, body, table)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{call.label}: unreadable output ({exc!r})")
            continue
        for name, err, tol in errors:
            if not err <= tol:         # also catches NaN
                problems.append(f"{call.label}.{name}: relative error "
                                f"{err:.3e} > {tol:.1e}")
            if math.isfinite(err):
                digits = min(digits, -math.log10(max(err, EPS)))
    return not problems, digits, problems


def report_digest(body, table):
    """sha256 of a report body without metadata and wall times, plus table."""
    body = json.loads(json.dumps(body))
    body.pop("metadata", None)
    if body.get("kind") == "verify":
        body["samples"].pop("elapsed_s", None)
        for c in body["checks"]:
            if c["name"] in _TIMED_CHECKS:
                c["value"] = c["detail"] = None
    text = json.dumps(body, sort_keys=True) + "\n" + (table or "")
    return hashlib.sha256(text.encode()).hexdigest()
