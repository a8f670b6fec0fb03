"""Charges of asymptotically null data modelled on the unit hyperboloid.

The background is the hyperbolic metric with frame
e_1 = sqrt(1+r^2) d_r, e_2 = (1/r) d_theta, e_3 = (1/(r sin theta)) d_psi,
whose frame components are the identity, together with the background second
form equal to the metric.  Deviations a_ij = g_ij - delta_ij and
b_ij = p_ij - delta_ij enter the charge integrands

    E-integrand  = nabla^j a_1j - nabla_1 tr(a) - (a_11 - g_11 tr(a)),
    P_k-integrand = b_k1 - g_k1 tr(b),

where nabla is the background connection, traces are taken with the
background (frame delta), and g_11 = 1 + a_11 is kept literally.  Charges are

    E_nu    = (1/16 pi) lim_r int E-integrand  n^nu r^3 dOmega,
    P_nu,k  = (1/8 pi)  lim_r int P_k-integrand n^nu r^3 dOmega.

Each rung's moments are taken by ``sphere.integrate``, all four n^nu at once.
"""

import functools
import logging
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import ConfigError
from .geometry import _jd, constraint_quantities, frame_entry
from .jets import value
from .ladder import (causal_margin, check_ladder, fit_decay_exponent,
                     fit_inverse_powers, ladder_integrands, ladder_map,
                     rung_axes, rung_sups, slowest_order)
from .sphere import build_grid, direction_functions, integrate

__all__ = [
    "NullCharges", "TAU_GATE", "PMT_NULL_SLACK",
    "background_connection", "background_connection_fd", "deviation",
    "decay_orders", "estimate_decay_order", "charge_integrand",
    "null_energy_momentum", "check_dec_null", "check_pmt_null",
]

_COMPONENTS = tuple(f"{t}{i}{j}" for t in "ab" for i in (1, 2, 3)
                    for j in (1, 2, 3) if i <= j)

# the order gate: slightly above 3/2, where the charges are guaranteed finite
TAU_GATE = 1.55
# the slack of the null positive-mass margin ``check_pmt_null``
PMT_NULL_SLACK = 1e-4


def background_connection(r, th):
    """Closed-form frame connection coefficients Gamma[m][i][j] of the
    background metric (nabla_{e_i} e_j = Gamma[m][i][j] e_m), as nested
    lists whose 21 vanishing entries are the plain float 0.0 (structural
    zeros, see ``jets``).

    Nonzero entries, with lam = sqrt(1+r^2)/r and kap = cot(theta)/r:
    Gamma^2_21 = Gamma^3_31 = lam, Gamma^1_22 = Gamma^1_33 = -lam,
    Gamma^3_32 = kap, Gamma^2_33 = -kap.  lam has the shape of r and kap
    the broadcast shape of r and theta.
    """
    r = np.asarray(r, dtype=float)
    lam = np.sqrt(1.0 + r * r) / r
    kap = 1.0 / (np.tan(th) * r)
    gam = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    gam[1][1][0] = gam[2][2][0] = lam
    gam[0][1][1] = gam[0][2][2] = -lam
    gam[2][2][1] = kap
    gam[1][2][2] = -kap
    return gam


def background_connection_fd(r, th):
    """Structure-equation oracle: the same coefficients with the frame
    commutators computed by central finite differences (step 1e-6)."""
    h = 1e-6

    def frame_at(rr, tt):
        s = np.sqrt(1.0 + rr * rr)
        return np.array([[s, 0.0, 0.0],
                         [0.0, 1.0 / rr, 0.0],
                         [0.0, 0.0, 1.0 / (rr * np.sin(tt))]])

    F = frame_at(r, th)
    dF = np.zeros((3, 3, 3))  # dF[a][i][b] = d_a F[i][b]
    dF[0] = (frame_at(r + h, th) - frame_at(r - h, th)) / (2 * h)
    dF[1] = (frame_at(r, th + h) - frame_at(r, th - h)) / (2 * h)
    Finv = np.linalg.inv(F)
    C = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            com = np.zeros(3)
            for b in range(3):
                com[b] = sum(F[i, a] * dF[a, j, b] - F[j, a] * dF[a, i, b]
                             for a in range(3))
            C[i, j] = com @ Finv
    gam = np.zeros((3, 3, 3))
    for m in range(3):
        for i in range(3):
            for j in range(3):
                gam[m, i, j] = 0.5 * (C[i, j, m] - C[i, m, j] - C[j, m, i])
    return gam


def _require_hyperboloid(data):
    if data.frame.kind != "hyperboloid":
        raise ConfigError(
            "null-infinity charges need data in the hyperboloid frame; "
            f"got frame kind {data.frame.kind!r}")


def deviation(data, coords3):
    """Frame deviations (a_ij, b_ij) of the data from the background."""
    _require_hyperboloid(data)
    g, p = data.values(coords3)
    eye = np.eye(3).reshape((3, 3) + (1,) * (g.ndim - 2))
    return g - eye, p - eye


def decay_orders(data, radii, grid=None):
    """Fitted decay orders tau-hat of every deviation component over >= 4
    radii, from one evaluation of the data over all rungs of ``grid`` (12 x 24
    when None)."""
    radii = check_ladder(radii, minimum=4)
    grid = grid or build_grid(12, 24)
    coords = rung_axes(radii, *grid.axes())
    sups = rung_sups(np.stack(deviation(data, coords)))
    return {c: fit_decay_exponent(
                radii, sups["ab".index(c[0]), int(c[1]) - 1, int(c[2]) - 1])
            for c in _COMPONENTS}


def estimate_decay_order(data, component, radii):
    """Fitted decay order tau-hat of one deviation component over >= 4 radii.

    ``component`` is one of a11..a33, b11..b33 (upper triangle).
    """
    if component not in _COMPONENTS:
        raise ConfigError(
            f"unknown component {component!r}; use one of {_COMPONENTS}")
    return decay_orders(data, radii)[component]


def charge_integrand(data, coords3):
    """Pointwise (E-integrand, P_k-integrand) of the data at plain chart
    points; derivatives of the deviations come from the data jets and the
    background connection enters in closed form.

    The coordinates are scalars or arrays that broadcast together, and both
    integrands take their broadcast shape.  Radii, theta rows and psi on
    three axes, ``[r[:, None, None], theta[:, None], psi[None, :]]``, give
    one (theta, psi) grid per radius while the data evaluate each term once
    per combination of the axes it depends on.  Only the entries
    the integrands read are built: structural zeros of the frame and of the
    connection are skipped.
    """
    _require_hyperboloid(data)
    r, th, _ = coords3
    G, P, F = data.jets(coords3, order=1)
    Fv = [[value(x) for x in row] for row in F]
    zero = np.zeros(np.broadcast_shapes(*map(np.shape, coords3)))
    eye = np.eye(3)

    @functools.cache
    def gv(i, j):
        return value(G[i][j]) + zero

    @functools.cache
    def a(i, j):
        return gv(i, j) - eye[i, j]

    @functools.cache
    def b(i, j):
        return value(P[i][j]) + zero - eye[i, j]

    gam = background_connection(r, th)

    def nabla_a(k):
        """nabla_k a_1k = e_k a_1k - Gamma^m_k1 a_mk - Gamma^m_kk a_1m.

        A skipped term would subtract +-0 from e, which starts as a sum
        from 0 and so is never -0.0: every bit of e is the same."""
        e = frame_entry(Fv, G[0][k], k)
        for m in range(3):
            if not jets._zero(gam[m][k][0]):
                e = e - gam[m][k][0] * a(m, k)
            if not jets._zero(gam[m][k][k]):
                e = e - gam[m][k][k] * a(0, m)
        return e

    tra = a(0, 0) + a(1, 1) + a(2, 2)
    trb = b(0, 0) + b(1, 1) + b(2, 2)
    div_a = nabla_a(0) + nabla_a(1) + nabla_a(2)   # nabla^j a_1j
    grad_tr = sum(
        Fv[0][c] * (value(_jd(G[0][0], c)) + value(_jd(G[1][1], c))
                    + value(_jd(G[2][2], c)))
        for c in range(3) if not jets._zero(Fv[0][c]))
    e_int = div_a - grad_tr - (a(0, 0) - gv(0, 0) * tra)
    p_int = np.stack([b(k, 0) - gv(k, 0) * trb for k in range(3)])
    return e_int, p_int


@dataclass
class NullCharges:
    """All sixteen charges with per-radius diagnostics."""

    E: tuple                   # four LadderFits, nu = 0..3
    P: tuple                   # 4 x 3 LadderFits [nu][k]
    decay_orders: dict         # component -> DecayFit

    def E_values(self):
        return np.array([f.value for f in self.E])

    def P_values(self):
        return np.array([[f.value for f in row] for row in self.P])

    def margins(self):
        """The four boost margins E_nu - P_nu,1."""
        return self.E_values() - self.P_values()[:, 0]

    def diverging(self):
        return any(f.diverging for f in self.E) \
            or any(f.diverging for row in self.P for f in row)


def null_energy_momentum(data, radii, grid, check_decay=True):
    """E_nu and P_nu,k on ``grid`` over the radius ladder, with the order gate.

    The integrands are evaluated for all rungs at once, in the blocks of
    ``ladder_integrands``; each rung then integrates its own, times n^nu.

    Components whose fitted decay order falls below ``TAU_GATE`` make the
    charges unreliable; the per-component fits are always reported so the
    caller can judge.  The fits take the last 4 rungs, so with
    ``check_decay`` a shorter ladder raises ConfigError: with no fits the
    gate would pass vacuously.
    """
    _require_hyperboloid(data)
    radii = check_ladder(radii, minimum=4 if check_decay else 3)
    n = direction_functions(grid)

    decay = {}
    if check_decay:
        decay = decay_orders(data, radii[-4:], build_grid(8, 16))
        _, slowest = slowest_order(decay)
        if slowest < TAU_GATE:
            logging.getLogger(__name__).warning(
                "slowest deviation order %.3f is below the gate %.2f; "
                "charges may not be limits", slowest, TAU_GATE)

    def integrands(coords):
        e, p = charge_integrand(data, coords)
        return e, np.moveaxis(p, 0, 1)       # rung first

    e_int, p_int = ladder_integrands(radii, grid, integrands)

    def samples_at(rung):
        """E_nu and P_nu,k of one rung: w * (x * n^nu) summed over the nodes."""
        r3 = radii[rung] ** 3
        return (integrate(grid, e_int[rung] * n) * r3 / (16.0 * np.pi),
                integrate(grid, n[:, None] * p_int[rung]) * r3 / (8.0 * np.pi))

    rows = ladder_map(samples_at, range(len(radii)))
    E = tuple(fit_inverse_powers(radii, [row[0][nu] for row in rows])
              for nu in range(4))
    P = tuple(tuple(fit_inverse_powers(radii, [row[1][nu][k] for row in rows])
                    for k in range(3)) for nu in range(4))
    return NullCharges(E, P, decay)


def check_dec_null(data, points):
    """Margin mu - max(|varpi|, |varpi + sigma|) at the sample points."""
    cq = constraint_quantities(data, points)
    n1 = np.sqrt(np.sum(cq.varpi ** 2, axis=0))
    n2 = np.sqrt(np.sum((cq.varpi + cq.sigma) ** 2, axis=0))
    return cq.mu - np.maximum(n1, n2)


def check_pmt_null(charges):
    """(E_0 - P_0,1) - sqrt(sum_i (E_i - P_i,1)^2) of NullCharges: the null
    positive-mass margin."""
    return float(causal_margin(charges.margins()))
