"""News data, energy-momentum moments, mass-loss evolution, and the closed
form of the induced slice data.

The radiating sector is parametrised by news potentials c, d and the
coefficient functions M (mass aspect), N, P (momentum aspects) and C, H
(third-order coefficients), all functions of (u, theta, psi).  Derived
angular fields:

    l    = c_,2 + 2 c cot(theta) + d_,3 csc(theta)
    lbar = d_,2 + 2 d cot(theta) - c_,3 csc(theta)
    p    = 2N + 3(c c_,2 + d d_,2) + 4(c^2+d^2) cot - 2(c_,3 d - c d_,3) csc
    pbar = 2P + 2(c_,2 d - c d_,2) + 3(c c_,3 + d d_,3) csc

The energy-momentum of a u0-slice is m_nu = (1/4pi) int M n^nu dS and it
evolves by the news flux, dm_nu/du = -F_nu with
F_nu = (1/4pi) int ((c_,0)^2 + (d_,0)^2) n^nu dS; the combined quantity
m_0 - |m| is nonincreasing (Hoelder plus Cauchy-Schwarz on the flux).
"""

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import jets
from .errors import ConfigError, DomainError
from .geometry import (InitialData, hyperboloid_frame, pullback_initial_data,
                       _jf, _jd, _jdd)
from .jets import value
from .ladder import check_ladder, fit_decay_exponent
from .sphere import build_grid, project_multipole
from .spacetimes import SliceSpec, bondi_metric, bondi_slice_embedding

log = logging.getLogger(__name__)

__all__ = [
    "BondiExpansion", "EnergyMomentumTrajectory",
    "derived_fields", "bondi_energy_momentum", "news_flux",
    "evolve_energy_momentum", "mass_loss_margin", "flux_holder_margin",
    "induced_slice_data", "expansion_consistency", "vanishing_news_scenario",
    "check_psi_periodicity", "check_polar_news_average", "trajectory_csv",
    "SLICE_COMPONENTS",
]

SLICE_COMPONENTS = ("g11", "g12", "g13", "g22", "g23", "g33",
                    "h11", "h12", "h13", "h22", "h23", "h33")


def _zero(u, th, ps):
    return 0.0 * u


@dataclass
class BondiExpansion:
    """News potentials and subleading coefficients as generic callables.

    Coefficients left as None default to zero; the slice constructor logs a
    notice for each defaulted field.
    """

    c: Callable
    d: Callable
    M: Optional[Callable] = None
    N: Optional[Callable] = None
    P: Optional[Callable] = None
    C: Optional[Callable] = None
    H: Optional[Callable] = None
    name: str = "custom"
    u_range: tuple = (0.0, 10.0)
    defaulted: tuple = field(init=False, default=())

    def __post_init__(self):
        missing = []
        for key in ("M", "N", "P", "C", "H"):
            if getattr(self, key) is None:
                setattr(self, key, _zero)
                missing.append(key)
        self.defaulted = tuple(missing)

    def news_jets(self, u, th, ps, order=2):
        """c and d as jets over (u, theta, psi) at the given point."""
        nu, nth, nps = jets.seed([u, th, ps], order=order)
        return self.c(nu, nth, nps), self.d(nu, nth, nps)

    def sup_news_estimate(self, n_u=9):
        us = np.linspace(self.u_range[0], self.u_range[1], n_u)
        g = build_grid(8, 16)
        T, Ps = g.nodes()
        sc = sd = 0.0
        for u in us:
            cu = value(self.c(np.full_like(T, u), T, Ps)) + 0.0 * T
            du = value(self.d(np.full_like(T, u), T, Ps)) + 0.0 * T
            sc = max(sc, float(np.max(np.abs(cu))))
            sd = max(sd, float(np.max(np.abs(du))))
        return sc, sd


def derived_fields(exp, u, grid):
    """The four derived angular fields (l, lbar, p, pbar) at retarded time u.

    cot and csc factors are evaluated at interior nodes only; a non-finite
    node signals polar irregularity of the news (the polar-average condition
    failing is the usual culprit).
    """
    T, Ps = grid.nodes()
    cj, dj = exp.news_jets(np.full_like(T, float(u)), T, Ps, order=1)
    c, c2, c3 = _jf(cj), _jd(cj, 1), _jd(cj, 2)
    d, d2, d3 = _jf(dj), _jd(dj, 1), _jd(dj, 2)
    ct = np.cos(T) / np.sin(T)
    cs = 1.0 / np.sin(T)
    Nv = value(exp.N(np.full_like(T, float(u)), T, Ps)) + 0.0 * T
    Pv = value(exp.P(np.full_like(T, float(u)), T, Ps)) + 0.0 * T
    l = c2 + 2.0 * c * ct + d3 * cs
    lbar = d2 + 2.0 * d * ct - c3 * cs
    p = 2.0 * Nv + 3.0 * (c * c2 + d * d2) + 4.0 * (c * c + d * d) * ct \
        - 2.0 * (c3 * d - c * d3) * cs
    pbar = 2.0 * Pv + 2.0 * (c2 * d - c * d2) + 3.0 * (c * c3 + d * d3) * cs
    out = []
    for name, arr in (("l", l), ("lbar", lbar), ("p", p), ("pbar", pbar)):
        arr = np.asarray(value(arr) + 0.0 * T)
        if not np.all(np.isfinite(arr)):
            raise DomainError(
                f"derived field {name} is not finite near the poles; "
                "check the polar news average condition")
        out.append(grid.field(arr))
    return tuple(out)


def bondi_energy_momentum(mass_aspect_field, grid=None):
    """Moments m_nu of the mass aspect against the direction functions."""
    f = mass_aspect_field
    return np.array([project_multipole(f, nu) for nu in range(4)])


def mass_aspect_field(exp, u, grid):
    T, Ps = grid.nodes()
    vals = value(exp.M(np.full_like(T, float(u)), T, Ps)) + 0.0 * T
    return grid.field(vals)


def news_flux(exp, u, grid):
    """F_nu = (1/4pi) int ((c_,0)^2 + (d_,0)^2) n^nu dS at retarded time u."""
    T, Ps = grid.nodes()
    cj, dj = exp.news_jets(np.full_like(T, float(u)), T, Ps, order=1)
    c0 = value(_jd(cj, 0)) + 0.0 * T
    d0 = value(_jd(dj, 0)) + 0.0 * T
    dens = grid.field(c0 * c0 + d0 * d0)
    return np.array([project_multipole(dens, nu) for nu in range(4)])


def _cumulative_simpson(y, dx):
    """Cumulative integral on a uniform grid.

    Even indices carry exact composite Simpson sums over pairs of intervals;
    odd indices add the sub-interval integral of the local parabola.  Exact
    for quadratics everywhere.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    out = np.zeros_like(y)
    if n == 1:
        return out
    if n == 2:
        out[1] = 0.5 * dx * (y[0] + y[1])
        return out
    pair = dx / 3.0 * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    out[2::2] = np.cumsum(pair, axis=0)
    # odd index i: left sub-interval of the parabola through (i-1, i, i+1)
    out[1:-1:2] = out[0:-2:2] + dx / 12.0 * (5.0 * y[0:-2:2] + 8.0 * y[1:-1:2]
                                             - y[2::2])
    if n % 2 == 0:
        out[-1] = out[-2] + dx / 12.0 * (-y[-3] + 8.0 * y[-2] + 5.0 * y[-1])
    return out


@dataclass
class EnergyMomentumTrajectory:
    u: np.ndarray              # (n,)
    m: np.ndarray              # (n, 4)
    flux: np.ndarray           # (n, 4)
    margin: np.ndarray         # m_0 - |m|
    dmargin_du: np.ndarray     # discrete derivative, forward differences
    monotone_tol: float = 1e-9

    @property
    def mass_monotone(self):
        return bool(np.all(np.diff(self.m[:, 0]) <= self.monotone_tol))

    @property
    def margin_monotone(self):
        return bool(np.all(np.diff(self.margin) <= self.monotone_tol))


def _margin_series(m):
    return m[:, 0] - np.sqrt(np.sum(m[:, 1:] ** 2, axis=1))


def _u_samples(u_start, u_end, du, end="u_end"):
    """Retarded times u_start, u_start + du, ..., u_end.

    ``du`` must be positive and divide the nonempty range to within rounding,
    so the last sample is ``u_end`` and none lies past it.  ``end`` names the
    end point in error messages.
    """
    if not du > 0:
        raise ConfigError(f"step must be positive, got du={du}")
    if not u_end > u_start:
        raise ConfigError(f"empty range: u_start={u_start}, {end}={u_end}")
    steps = (u_end - u_start) / du
    n = int(round(steps)) if np.isfinite(steps) else 0
    if n < 1 or abs(steps - n) > 1e-9 * n:
        raise ConfigError(f"du={du} does not divide the range from "
                          f"u_start={u_start} to {end}={u_end} "
                          f"({steps:.6g} steps)")
    return u_start + du * np.arange(n + 1)


def evolve_energy_momentum(m_start, exp, u_start, u_end, du, grid=None):
    """Integrate dm_nu/du = -F_nu with cumulative Simpson on a fixed grid."""
    u = _u_samples(u_start, u_end, du)
    grid = grid or build_grid(48, 96)
    F = np.stack([news_flux(exp, ui, grid) for ui in u])
    m = np.asarray(m_start, dtype=float)[None, :] - _cumulative_simpson(F, du)
    margin = _margin_series(m)
    dm = np.empty_like(margin)
    dm[:-1] = np.diff(margin) / du
    dm[-1] = dm[-2] if len(dm) > 1 else 0.0
    return EnergyMomentumTrajectory(u, m, F, margin, dm)


def mass_loss_margin(traj):
    """Worst-case discrete d/du of (m_0 - |m|); <= 0 up to quadrature noise.

    When |m| = 0 the margin series is m_0 itself, so this degenerates to the
    plain mass-loss rate.
    """
    if len(traj.u) < 2:
        raise ConfigError("trajectory needs at least 2 samples")
    return float(np.max(traj.dmargin_du[:-1]))


def flux_holder_margin(F):
    """min over samples of F_0 - sqrt(F_1^2+F_2^2+F_3^2) (>= 0 pointwise)."""
    F = np.atleast_2d(np.asarray(F, dtype=float))
    return float(np.min(F[:, 0] - np.sqrt(np.sum(F[:, 1:] ** 2, axis=1))))


# ---------------------------------------------------------------------------
# Conditions on the expansion
# ---------------------------------------------------------------------------

def check_psi_periodicity(exp, u_samples=None, theta_samples=None, tol=1e-10):
    """Values and derivatives to second order must agree at psi = 0 and 2pi.

    Checked on the news, the coefficient functions and the derived fields.
    Returns the worst mismatch.
    """
    u_samples = [0.0, 1.0] if u_samples is None else u_samples
    theta_samples = [0.7, 1.3, 2.3] if theta_samples is None else theta_samples
    fns = [exp.c, exp.d, exp.M, exp.N, exp.P, exp.C, exp.H]
    worst = 0.0
    for u in u_samples:
        for th in theta_samples:
            for fn in fns:
                a = fn(*jets.seed([u, th, 0.0], order=2))
                b = fn(*jets.seed([u, th, 2.0 * np.pi], order=2))
                worst = max(worst, _jet_mismatch(a, b))
            ga = _derived_at(exp, u, th, 0.0)
            gb = _derived_at(exp, u, th, 2.0 * np.pi)
            for x, y in zip(ga, gb):
                worst = max(worst, _jet_mismatch(x, y))
    return worst


def _derived_at(exp, u, th, ps):
    cj, dj = exp.news_jets(u, th, ps, order=2)
    ct = np.cos(th) / np.sin(th)
    cs = 1.0 / np.sin(th)
    c, c2, c3 = _jf(cj), _jd(cj, 1), _jd(cj, 2)
    d, d2, d3 = _jf(dj), _jd(dj, 1), _jd(dj, 2)
    l = c2 + 2.0 * c * ct + d3 * cs
    lbar = d2 + 2.0 * d * ct - c3 * cs
    p = 3.0 * (c * c2 + d * d2) + 4.0 * (c * c + d * d) * ct \
        - 2.0 * (c3 * d - c * d3) * cs
    pbar = 2.0 * (c2 * d - c * d2) + 3.0 * (c * c3 + d * d3) * cs
    return l, lbar, p, pbar


def _jet_mismatch(a, b):
    worst = abs(float(value(a)) - float(value(b)))
    if isinstance(a, jets.Jet) and isinstance(b, jets.Jet):
        for i in range(len(a.d)):
            worst = max(worst, abs(float(value(a.d[i])) - float(value(b.d[i]))))
            if a.dd is not None:
                for j in range(len(a.d)):
                    worst = max(worst, abs(float(value(a.dd[i][j]))
                                           - float(value(b.dd[i][j]))))
    return worst


def check_polar_news_average(exp, u_samples=None, tol=1e-8, n_psi=64):
    """The psi-average of c must vanish in the limits theta -> 0 and pi.

    Evaluated directly at the pole when the news is finite there, otherwise
    by one-sided polynomial extrapolation from interior latitudes.
    """
    u_samples = [0.0, 0.5, 1.0] if u_samples is None else u_samples
    psis = np.arange(n_psi) * (2.0 * np.pi / n_psi)

    def avg(u, th):
        vals = value(exp.c(np.full_like(psis, u), np.full_like(psis, th), psis))
        return float(np.mean(np.asarray(vals) + 0.0 * psis)) * 2.0 * np.pi

    worst = 0.0
    for u in u_samples:
        for pole in (0.0, np.pi):
            direct = avg(u, pole)
            if np.isfinite(direct):
                worst = max(worst, abs(direct))
                continue
            sgn = 1.0 if pole == 0.0 else -1.0
            hs = np.array([0.02, 0.04, 0.06, 0.08])
            vals = [avg(u, pole + sgn * h) for h in hs]
            coef = np.polyfit(hs, vals, 3)
            worst = max(worst, abs(float(np.polyval(coef, 0.0))))
    return worst


# ---------------------------------------------------------------------------
# Closed-form induced data of the u0-slice
# ---------------------------------------------------------------------------

def induced_slice_data(exp, u0=0.0, a3=None):
    """Frame components of (g, h) on the asymptotically null u0-slice,
    transcribed term by term from the third-order expansions; omitted
    o(1/r^3) remainders are zero.  All coefficient functions are evaluated
    at u = u0 before angular derivatives are taken."""
    for key in exp.defaulted:
        log.info("slice data: coefficient %s not supplied, using 0", key)
    a3fn = a3 if a3 is not None else (lambda th, ps: 0.0 * th)

    def gp(coords):
        r, th, ps = coords
        cj, dj = exp.news_jets(float(u0) if not isinstance(u0, jets.Jet) else u0,
                               th, ps, order=2)
        c = _jf(cj)
        c0, c2, c3 = _jd(cj, 0), _jd(cj, 1), _jd(cj, 2)
        c00, c02, c03 = _jdd(cj, 0, 0), _jdd(cj, 0, 1), _jdd(cj, 0, 2)
        c22, c23, c33 = _jdd(cj, 1, 1), _jdd(cj, 1, 2), _jdd(cj, 2, 2)
        d = _jf(dj)
        d0, d2, d3 = _jd(dj, 0), _jd(dj, 1), _jd(dj, 2)
        d00, d02, d03 = _jdd(dj, 0, 0), _jdd(dj, 0, 1), _jdd(dj, 0, 2)
        d22, d23, d33 = _jdd(dj, 1, 1), _jdd(dj, 1, 2), _jdd(dj, 2, 2)

        ct = jets.cos(th) / jets.sin(th)
        cs = 1.0 / jets.sin(th)
        Mv = exp.M(u0, th, ps)
        Nv = exp.N(u0, th, ps)
        Pv = exp.P(u0, th, ps)
        Cv = exp.C(u0, th, ps)
        Hv = exp.H(u0, th, ps)
        a3v = a3fn(th, ps)

        l = c2 + 2.0 * c * ct + d3 * cs
        lbar = d2 + 2.0 * d * ct - c3 * cs
        l0 = c02 + 2.0 * c0 * ct + d03 * cs
        lbar0 = d02 + 2.0 * d0 * ct - c03 * cs
        l2 = c22 + 2.0 * c2 * ct - 2.0 * c * cs * cs + d23 * cs - d3 * cs * ct
        lbar3 = d23 + 2.0 * d3 * ct - c33 * cs

        q2 = c * c + d * d
        cc0 = c * c0 + d * d0
        r2 = r * r
        r3 = r2 * r

        g11 = 1.0 + (16.0 * a3v + Mv - c * c0 - d * d0) / (2.0 * r3)
        g12 = -0.5 * l / r2 + (12.0 * Nv - 3.0 * l0
                               + 4.0 * (c * c2 + d * d2)) / (12.0 * r3)
        g13 = -0.5 * lbar / r2 + (12.0 * Pv - 3.0 * lbar0
                                  + 4.0 * cs * (c * c3 + d * d3)) / (12.0 * r3)
        g22 = 1.0 + 2.0 * c / r + (2.0 * q2 + c0) / r2 \
            + (c ** 3 + c * d * d + 2.0 * Cv + 2.0 * cc0 + 0.25 * c00) / r3
        g23 = 2.0 * d / r + d0 / r2 \
            + (c * c * d + d ** 3 + 2.0 * Hv + 0.25 * d00) / r3
        g33 = 1.0 - 2.0 * c / r + (2.0 * q2 - c0) / r2 \
            + (-(c ** 3) - c * d * d - 2.0 * Cv + 2.0 * cc0 - 0.25 * c00) / r3

        h11 = 1.0 + q2 / r2 + (16.0 * a3v - Mv) / r3
        h12 = 0.5 * l / r2 + (0.5 / r3) * (
            0.5 * l0 - 2.0 * q2 * ct - 4.0 * Nv
            + (c3 * d - c * d3) * cs - (13.0 / 3.0) * (c * c2 + d * d2))
        h13 = 0.5 * lbar / r2 + (0.5 / r3) * (
            0.5 * lbar0 + c * d2 - c2 * d - 4.0 * Pv
            - (13.0 / 3.0) * (c * c3 + d * d3) * cs)
        h22 = 1.0 + c / r + c0 / r2 + (0.25 / r3) * (
            3.0 * Mv - 16.0 * a3v - 4.0 * Cv - 2.0 * l2
            - 2.0 * c * q2 + 5.0 * cc0 + 1.5 * c00)
        h23 = d / r + d0 / r2 + (0.25 / r3) * (
            -2.0 * d * q2 + 2.0 * d * ct * ct + 2.0 * d * cs * cs
            - 4.0 * c3 * ct * cs - d33 * cs * cs - d2 * ct - d22
            - 4.0 * Hv + 1.5 * d00)
        h33 = 1.0 - c / r - c0 / r2 + (0.25 / r3) * (
            3.0 * Mv - 16.0 * a3v + 4.0 * Cv + 2.0 * c * q2 + 5.0 * cc0
            - 1.5 * c00 - 2.0 * l * ct - 2.0 * lbar3 * cs)

        g = [[g11, g12, g13], [g12, g22, g23], [g13, g23, g33]]
        h = [[h11, h12, h13], [h12, h22, h23], [h13, h23, h33]]
        return g, h

    return InitialData(gp, hyperboloid_frame(), True,
                       name=f"slice[{exp.name};u0={u0}]")


# ---------------------------------------------------------------------------
# Expansion vs numerical pullback
# ---------------------------------------------------------------------------

def expansion_consistency(exp, u0=0.0, a3=None, radii=(50, 100, 200, 400, 800),
                          grid=None, r_min=None, noise_floor=1e-12):
    """Fitted decay exponent of |numerical pullback - closed form| for every
    slice component.

    Consistency means each exponent is at least ~3.3 (the omitted remainders
    are o(1/r^3), in practice O(1/r^4)).  Rungs whose difference is below the
    noise floor are dropped; a component that never rises above it counts as
    exact.
    """
    radii = check_ladder(radii)
    grid = grid or build_grid(20, 40)
    closed = induced_slice_data(exp, u0, a3)
    spec = SliceSpec(u0=u0, a3=a3)
    metric = bondi_metric(exp, r_min=r_min)
    emb = bondi_slice_embedding(spec, exp)
    pulled = pullback_initial_data(metric, emb, hyperboloid_frame())

    T, Ps = grid.nodes()
    sups = {name: [] for name in SLICE_COMPONENTS}
    for r in radii:
        coords = [np.full_like(T, float(r)), T, Ps]
        gn, hn = pulled.values(coords)
        gc, hc = closed.values(coords)
        for name in SLICE_COMPONENTS:
            mats = (gn - gc) if name[0] == "g" else (hn - hc)
            i, j = int(name[1]) - 1, int(name[2]) - 1
            sups[name].append(float(np.max(np.abs(mats[i, j]))))

    report = {}
    for name in SLICE_COMPONENTS:
        fit = fit_decay_exponent(radii, sups[name], zero_floor=noise_floor)
        report[name] = fit
    return report


# ---------------------------------------------------------------------------
# Vanishing-news scenario
# ---------------------------------------------------------------------------

def vanishing_news_scenario(exp, u0, u_start, du=0.01, grid=None,
                            radii=(40.0, 60.0, 90.0, 135.0, 200.0),
                            a3=None, news_tol=1e-10):
    """Positivity scenario at a retarded time u0 where the news vanish.

    Checks c = d = 0 on the sphere at u0, evolves the energy-momentum
    backwards from u0, verifies m_0 >= |m| on every sample, and reports the
    positivity margin and rigidity residuals of the u0-slice data.
    """
    from .nullcharges import check_pmt_null, null_energy_momentum
    from .geometry import rigidity_residual

    u = _u_samples(u_start, u0, du, end="u0")
    grid = grid or build_grid(48, 96)
    T, Ps = grid.nodes()
    uarr = np.full_like(T, float(u0))
    cvals = np.abs(value(exp.c(uarr, T, Ps)) + 0.0 * T)
    dvals = np.abs(value(exp.d(uarr, T, Ps)) + 0.0 * T)
    if cvals.max() > news_tol or dvals.max() > news_tol:
        k = int(np.argmax(np.maximum(cvals, dvals)))
        raise DomainError(
            f"news do not vanish at u0={u0}: |c|={cvals.max():.3e}, "
            f"|d|={dvals.max():.3e} at node theta={T[k]:.4f}, psi={Ps[k]:.4f}")

    m_final = bondi_energy_momentum(mass_aspect_field(exp, u0, grid))

    F = np.stack([news_flux(exp, ui, grid) for ui in u])
    I = _cumulative_simpson(F, du)
    m = m_final[None, :] + (I[-1] - I)
    margin = _margin_series(m)
    dm = np.empty_like(margin)
    dm[:-1] = np.diff(margin) / du
    dm[-1] = dm[-2] if len(dm) > 1 else 0.0
    traj = EnergyMomentumTrajectory(u, m, F, margin, dm)

    data = induced_slice_data(exp, u0, a3)
    charges = null_energy_momentum(data, radii, grid=grid)
    pts = [np.array([30.0, 45.0, 60.0]), np.array([1.2, 1.9, 0.8]),
           np.array([0.3, 2.5, 4.4])]
    r1, r2, r3 = rigidity_residual(data, pts)

    final_margin = float(margin[-1])
    return {
        "trajectory": traj,
        "final_m": m_final,
        "final_margin_nonnegative": bool(final_margin >= -1e-12),
        "mass_dominates": bool(np.all(margin >= -1e-9)),
        "slice_charges": charges,
        "slice_pmt_margin": check_pmt_null(charges),
        "rigidity_residuals": (float(np.max(r1)), float(np.max(r2)),
                               float(np.max(r3))),
    }


# ---------------------------------------------------------------------------
# Trajectory CSV
# ---------------------------------------------------------------------------

_CSV_HEADER = "u,m0,m1,m2,m3,F0,F1,F2,F3,margin,dmargin_du"


def trajectory_csv(traj):
    """Full-precision CSV of the trajectory (header row mandatory)."""
    lines = [_CSV_HEADER]
    for i in range(len(traj.u)):
        row = [traj.u[i], *traj.m[i], *traj.flux[i], traj.margin[i],
               traj.dmargin_du[i]]
        lines.append(",".join(f"{x:.17e}" for x in row))
    return "\n".join(lines) + "\n"
