"""News data, energy-momentum moments, mass-loss evolution, and the closed
form of the induced slice data.

The radiating sector is parametrised by news potentials c, d and the
coefficient functions M (mass aspect), N, P (momentum aspects) and C, H
(third-order coefficients), all functions of (u, theta, psi).  Derived
angular fields, each pair written once in ``spacetimes`` (``l_lbar`` and
``p_pbar``):

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
from .ladder import causal_margin, check_ladder, fit_pair_decay, rung_axes
from .sphere import build_grid, project_multipole
from .spacetimes import bondi_metric, bondi_slice_embedding, l_lbar

log = logging.getLogger(__name__)

__all__ = [
    "BondiExpansion", "EnergyMomentumTrajectory",
    "bondi_energy_momentum", "news_flux",
    "evolve_energy_momentum", "mass_loss_margin", "flux_holder_margin",
    "induced_slice_data", "pullback_slice_data", "expansion_consistency",
    "vanishing_news_scenario", "trajectory_csv", "SLICE_COMPONENTS",
    "MASS_LOSS_SLACK", "HOLDER_SLACK", "CONSISTENCY_ORDER",
]

SLICE_COMPONENTS = ("g11", "g12", "g13", "g22", "g23", "g33",
                    "h11", "h12", "h13", "h22", "h23", "h33")

# quadrature noise allowed by mass_loss_margin <= 0, flux_holder_margin >= 0
MASS_LOSS_SLACK = 1e-9
HOLDER_SLACK = 1e-12
# the decay order every component of expansion_consistency reaches
CONSISTENCY_ORDER = 3.3


def _zero(u, th, ps):
    return 0.0 * u


def _at_nodes(fn, u, T, Ps):
    """fn(u, theta, psi) at the sphere nodes (T, Ps) at retarded time u, as
    an array over the nodes even where fn returns a constant."""
    return value(fn(np.full_like(T, float(u)), T, Ps)) + 0.0 * T


@dataclass
class BondiExpansion:
    """News potentials and subleading coefficients as generic callables.

    News left out are zero.  Coefficients left as None default to zero; the
    slice constructor logs a notice for each defaulted field.
    """

    c: Callable = _zero
    d: Callable = _zero
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

    def news_jets(self, u, th, ps, order):
        """c and d as jets of ``order`` over (u, theta, psi) at the point."""
        nu, nth, nps = jets.seed([u, th, ps], order=order)
        return self.c(nu, nth, nps), self.d(nu, nth, nps)

    def sup_news_estimate(self):
        us = np.linspace(self.u_range[0], self.u_range[1], 9)
        g = build_grid(8, 16)
        T, Ps = g.nodes()
        sc = sd = 0.0
        for u in us:
            cu = _at_nodes(self.c, u, T, Ps)
            du = _at_nodes(self.d, u, T, Ps)
            # np.maximum keeps a NaN; the builtin max would drop it
            sc = np.maximum(sc, np.max(np.abs(cu)))
            sd = np.maximum(sd, np.max(np.abs(du)))
        return float(sc), float(sd)


def bondi_energy_momentum(mass_aspect_field):
    """Moments m_nu of the mass aspect against the direction functions."""
    return np.array([project_multipole(mass_aspect_field, nu)
                     for nu in range(4)])


def mass_aspect_field(exp, u, grid):
    return grid.field(_at_nodes(exp.M, u, *grid.nodes()))


def news_flux(exp, u, grid):
    """F_nu = (1/4pi) int ((c_,0)^2 + (d_,0)^2) n^nu dS at retarded time u.

    Only the u-derivatives of c and d are read, so only u is seeded; the
    angles enter as plain arrays.
    """
    T, Ps = grid.nodes()
    (uj,) = jets.seed([np.full_like(T, float(u))])
    c0 = value(_jd(exp.c(uj, T, Ps), 0)) + 0.0 * T
    d0 = value(_jd(exp.d(uj, T, Ps), 0)) + 0.0 * T
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


def _flux_trajectory(exp, u, du, grid, m_of):
    """Trajectory over the retarded times u from one ``news_flux`` call per
    u; ``m_of(I)`` gives m from the cumulative Simpson integral I of the
    flux."""
    F = np.stack([news_flux(exp, ui, grid) for ui in u])
    m = m_of(_cumulative_simpson(F, du))
    margin = causal_margin(m)
    dm = np.empty_like(margin)
    dm[:-1] = np.diff(margin) / du
    dm[-1] = dm[-2]
    return EnergyMomentumTrajectory(u, m, F, margin, dm)


def evolve_energy_momentum(m_start, exp, u_start, u_end, du, grid):
    """Integrate dm_nu/du = -F_nu with cumulative Simpson, F on ``grid``."""
    u = _u_samples(u_start, u_end, du)
    m_start = np.asarray(m_start, dtype=float)
    return _flux_trajectory(exp, u, du, grid, lambda I: m_start[None, :] - I)


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
    return float(np.min(causal_margin(F)))


# ---------------------------------------------------------------------------
# Closed-form induced data of the u0-slice
# ---------------------------------------------------------------------------

def induced_slice_data(exp, u0, a3):
    """Frame components of (g, h) on the asymptotically null u0-slice of
    ``bondi_slice_embedding(exp, u0, a3)``, transcribed term by term from the
    third-order expansions; omitted o(1/r^3) remainders are zero.  ``a3`` is
    a function of (theta, psi), or None for a3 = 0.  All coefficient
    functions are evaluated at u = u0 before angular derivatives are
    taken."""
    for key in exp.defaulted:
        log.info("slice data: coefficient %s not supplied, using 0", key)
    a3fn = a3 if a3 is not None else (lambda th, ps: 0.0 * th)

    def news_terms(th, ps):
        """The chart-level terms that the g_ij and h_ij expansions share: c
        and d and the derivatives both read, q2 = c^2 + d^2, cc0 = c c_,0 +
        d d_,0, l, lbar and their u-derivatives, cot, csc, the second
        derivatives c_,22, c_,33, d_,22, d_,23, d_,33 that h reads, M, N, P,
        C, H and a3, all at u0.  Only chart-level objects, so that
        ``InitialData`` lowers them one chart order for h."""
        cj, dj = exp.news_jets(float(u0), th, ps, order=2)
        c, d = _jf(cj), _jf(dj)
        c0, c2, c3, c00 = _jd(cj, 0), _jd(cj, 1), _jd(cj, 2), _jdd(cj, 0, 0)
        d0, d2, d3, d00 = _jd(dj, 0), _jd(dj, 1), _jd(dj, 2), _jdd(dj, 0, 0)
        ct = jets.cos(th) / jets.sin(th)
        cs = 1.0 / jets.sin(th)
        l, lbar = l_lbar((c, c2, c3), (d, d2, d3), ct, cs)
        l0, lbar0 = l_lbar((c0, _jdd(cj, 0, 1), _jdd(cj, 0, 2)),
                           (d0, _jdd(dj, 0, 1), _jdd(dj, 0, 2)), ct, cs)
        q2 = c * c + d * d
        cc0 = c * c0 + d * d0
        return [c, c0, c2, c3, c00, d, d0, d2, d3, d00, q2, cc0,
                l, lbar, l0, lbar0, ct, cs,
                _jdd(cj, 1, 1), _jdd(cj, 2, 2),
                _jdd(dj, 1, 1), _jdd(dj, 1, 2), _jdd(dj, 2, 2),
                *(f(u0, th, ps) for f in (exp.M, exp.N, exp.P, exp.C, exp.H)),
                a3fn(th, ps)]

    def g(coords, F):
        r, th, ps = coords
        S = news_terms(th, ps)
        (c, c0, c2, c3, c00, d, d0, d2, d3, d00, q2, cc0,
         l, lbar, l0, lbar0, ct, cs, _, _, _, _, _,
         Mv, Nv, Pv, Cv, Hv, a3v) = S
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
        return [[g11, g12, g13], [g12, g22, g23], [g13, g23, g33]], S

    def h(coords, F, S):
        r = coords[0]
        (c, c0, c2, c3, c00, d, d0, d2, d3, d00, q2, cc0,
         l, lbar, l0, lbar0, ct, cs, c22, c33, d22, d23, d33,
         Mv, Nv, Pv, Cv, Hv, a3v) = S
        l2 = c22 + 2.0 * c2 * ct - 2.0 * c * cs * cs + d23 * cs - d3 * cs * ct
        lbar3 = d23 + 2.0 * d3 * ct - c33 * cs
        r2 = r * r
        r3 = r2 * r
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
        return [[h11, h12, h13], [h12, h22, h23], [h13, h23, h33]]

    return InitialData(g, h, hyperboloid_frame(),
                       name=f"slice[{exp.name};u0={u0}]")


# ---------------------------------------------------------------------------
# Expansion vs numerical pullback
# ---------------------------------------------------------------------------

def pullback_slice_data(exp, u0, a3, r_min=None):
    """The slice data of ``bondi_slice_embedding(exp, u0, a3)`` pulled back
    numerically from ``bondi_metric(exp, r_min)``, in the frame of
    ``induced_slice_data``."""
    return pullback_initial_data(bondi_metric(exp, r_min=r_min),
                                 bondi_slice_embedding(exp, u0, a3),
                                 hyperboloid_frame())


def expansion_consistency(exp, radii, u0, a3, grid=None):
    """Fitted decay exponent of |numerical pullback - closed form| for every
    component of the (u0, a3)-slice over the ladder ``radii``, on ``grid``
    (20 x 40 when None).

    Consistency means each exponent is at least CONSISTENCY_ORDER (the
    omitted remainders are o(1/r^3), in practice O(1/r^4)).  Rungs whose
    difference is below the noise floor 1e-12 are dropped; a component that
    never rises above it counts as exact.
    """
    radii = check_ladder(radii)
    grid = grid or build_grid(20, 40)
    closed = induced_slice_data(exp, u0, a3)
    pulled = pullback_slice_data(exp, u0, a3)

    coords = rung_axes(radii, *grid.axes())
    gn, hn = pulled.values(coords)
    gc, hc = closed.values(coords)
    return fit_pair_decay(radii, (gn - gc, hn - hc), "gh", zero_floor=1e-12)


# ---------------------------------------------------------------------------
# Vanishing-news scenario
# ---------------------------------------------------------------------------

def vanishing_news_scenario(exp, u0, u_start, du, grid):
    """The Bondi side of the positivity scenario at a retarded time u0 where
    the news vanish.

    Checks c = d = 0 (to 1e-10) on the sphere at u0, or raises DomainError
    naming the worst node; news that are not finite fail it.  Returns the
    energy-momentum trajectory evolved backwards from its value at u0, whose
    ``margin`` is m_0 - |m| at every sample.  The charges of the u0-slice
    and their checks are ``cli.slice_verdict``'s.
    """
    u = _u_samples(u_start, u0, du, end="u0")
    T, Ps = grid.nodes()
    cvals = np.abs(_at_nodes(exp.c, u0, T, Ps))
    dvals = np.abs(_at_nodes(exp.d, u0, T, Ps))
    if not (cvals.max() <= 1e-10 and dvals.max() <= 1e-10):
        k = int(np.argmax(np.maximum(cvals, dvals)))
        raise DomainError(
            f"news do not vanish at u0={u0}: |c|={cvals.max():.3e}, "
            f"|d|={dvals.max():.3e} at node theta={T[k]:.4f}, psi={Ps[k]:.4f}")

    m_final = bondi_energy_momentum(mass_aspect_field(exp, u0, grid))
    return _flux_trajectory(exp, u, du, grid,
                            lambda I: m_final[None, :] + (I[-1] - I))


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
