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

Each rung's moments are taken by ``sphere.integrate``, all four n^nu at once,
into a ``ladder.Charges`` record that ``margins`` and ``diverging`` read.
"""

import functools

import numpy as np

from . import jets
from .errors import ConfigError
from .geometry import _jd, constraint_quantities, frame_entry
from .jets import value
from .ladder import (EXACT_ZERO_FLOOR, Charges, causal_margin, check_ladder,
                     fit_field, fit_ladder, fit_pair_decay, ladder_integrands,
                     rung_axes, unit_samples)
from .sphere import build_grid, direction_functions, integrate

__all__ = [
    "TAU_GATE", "PMT_NULL_SLACK",
    "background_connection", "background_connection_fd", "deviation",
    "decay_orders", "estimate_decay_order", "charge_integrand",
    "null_energy_momentum", "margins", "margin_errors", "named_fits",
    "diverging", "check_dec_null", "check_pmt_null",
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
    pair = deviation(data, rung_axes(radii, *grid.axes()))
    return fit_pair_decay(radii, pair, "ab", EXACT_ZERO_FLOOR)


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


def null_energy_momentum(data, radii, grid):
    """E_nu and P_nu,k on ``grid`` over the radius ladder of >= 3 rungs.

    The integrands are evaluated for all rungs at once, in the blocks of
    ``ladder_integrands``; each rung then integrates its own, times n^nu.

    They are limits only if every deviation decays faster than
    ``TAU_GATE``: that is the caller's order gate, on ``decay_orders``.
    """
    _require_hyperboloid(data)
    radii = check_ladder(radii)
    n = direction_functions(grid)

    def integrands(coords):
        e, p = charge_integrand(data, coords)
        return e, np.moveaxis(p, 0, 1)       # rung first

    e_int, p_int = ladder_integrands(radii, grid, integrands)

    energy = np.array([integrate(grid, e * n) * r ** 3 / (16.0 * np.pi)
                       for e, r in zip(e_int, radii)])
    momentum = np.array([integrate(grid, n[:, None] * p) * r ** 3
                         / (8.0 * np.pi) for p, r in zip(p_int, radii)])
    return Charges(
        fit_ladder(radii, energy, unit_samples(radii, 3, 16.0 * np.pi)),
        fit_ladder(radii, momentum, unit_samples(radii, 3, 8.0 * np.pi)))


def margins(charges):
    """The four boost margins E_nu - P_nu,1 of the null Charges."""
    return charges.E - charges.P[:, 0]


def margin_errors(charges):
    """Error estimates of the margins: those of E_nu and P_nu,1 added."""
    return fit_field(charges.energy, "error") \
        + fit_field(charges.momentum, "error")[:, 0]


def named_fits(charges):
    """The null Charges' LadderFits by name: E_nu, then P_nu,k, k = 1..3."""
    return {**{f"E_{nu}": f for nu, f in enumerate(charges.energy)},
            **{f"P_{nu},{k + 1}": f for nu, row in enumerate(charges.momentum)
               for k, f in enumerate(row)}}


def diverging(charges):
    """Names of the charges whose samples still drift (``named_fits``)."""
    return [name for name, f in named_fits(charges).items() if f.diverging]


def check_dec_null(data, points):
    """Margin mu - max(|varpi|, |varpi + sigma|) at the sample points."""
    cq = constraint_quantities(data, points)
    n1 = np.sqrt(np.sum(cq.varpi ** 2, axis=0))
    n2 = np.sqrt(np.sum((cq.varpi + cq.sigma) ** 2, axis=0))
    return cq.mu - np.maximum(n1, n2)


def check_pmt_null(charges):
    """(E_0 - P_0,1) - sqrt(sum_i (E_i - P_i,1)^2) of the null Charges: the
    null positive-mass margin."""
    return float(causal_margin(margins(charges)))
