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
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import InitialData, _grad, frame_entry, hyperboloid_frame
from .jets import value
from .ladder import (DecayFit, LadderFit, fit_decay_exponent,
                     fit_inverse_powers, ladder_map, rung_max, stacked_rungs)
from .sphere import build_grid, direction_functions

__all__ = [
    "HyperbolicBackground", "NullCharges", "hyperbolic_background",
    "background_connection", "background_connection_fd", "deviation",
    "decay_orders", "estimate_decay_order", "charge_integrand",
    "null_energy_momentum", "check_dec_null", "check_pmt_null",
]

_COMPONENTS = tuple(f"{t}{i}{j}" for t in "ab" for i in (1, 2, 3)
                    for j in (1, 2, 3) if i <= j)


def hyperbolic_background():
    """InitialData of the model: identity frame components for both tensors."""
    def gp(coords):
        eye = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        return eye, eye
    return InitialData(gp, hyperboloid_frame(), "hyperbolic-background")


def _hyperboloid_coframe(coords):
    """Dual coframe components w[i][a] with w^i(e_j) = delta^i_j, i.e.
    w^1 = dr/sqrt(1+r^2), w^2 = r dtheta, w^3 = r sin(theta) dpsi."""
    from . import jets as jx
    r, th, _ = coords
    return [
        [1.0 / jx.sqrt(1.0 + r * r), 0.0, 0.0],
        [0.0, r, 0.0],
        [0.0, 0.0, r * jx.sin(th)],
    ]


def background_connection(r, th):
    """Closed-form frame connection coefficients Gamma[m][i][j] of the
    background metric (nabla_{e_i} e_j = Gamma[m][i][j] e_m).

    Nonzero entries, with lam = sqrt(1+r^2)/r and kap = cot(theta)/r:
    Gamma^2_21 = Gamma^3_31 = lam, Gamma^1_22 = Gamma^1_33 = -lam,
    Gamma^3_32 = kap, Gamma^2_33 = -kap.
    """
    r = np.asarray(r, dtype=float)
    lam = np.sqrt(1.0 + r * r) / r
    kap = 1.0 / (np.tan(th) * r)
    z = np.zeros(np.broadcast_shapes(np.shape(r), np.shape(th)))
    lam, kap = lam + z, kap + z
    gam = np.zeros((3, 3, 3) + z.shape)
    gam[1, 1, 0] = lam
    gam[2, 2, 0] = lam
    gam[0, 1, 1] = -lam
    gam[0, 2, 2] = -lam
    gam[2, 2, 1] = kap
    gam[1, 2, 2] = -kap
    return gam


def background_connection_fd(r, th, h=1e-6):
    """Structure-equation oracle: the same coefficients with the frame
    commutators computed by central finite differences on the chart."""
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


@dataclass
class HyperbolicBackground:
    """The model geometry: metric and second-form evaluators (equal by
    construction), the orthonormal frame and its dual coframe, and the
    closed-form frame connection."""

    data: InitialData
    frame: object
    coframe: object = _hyperboloid_coframe
    connection: object = background_connection

    @staticmethod
    def build():
        d = hyperbolic_background()
        return HyperbolicBackground(d, d.frame)


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


def decay_orders(data, radii, grid=None, components=_COMPONENTS):
    """Fitted decay orders tau-hat of deviation components over >= 4 radii,
    from one evaluation of the data over all rungs of the small grid."""
    for c in components:
        if c not in _COMPONENTS:
            raise ConfigError(f"unknown component {c!r}; use one of {_COMPONENTS}")
    radii = list(radii)
    if len(radii) < 4:
        raise ConfigError("decay-order fit needs at least 4 radii")
    grid = grid or build_grid(12, 24)
    coords = stacked_rungs(grid, radii)
    sups = rung_max(np.stack(deviation(data, coords)), len(radii))
    return {c: fit_decay_exponent(
                radii, sups["ab".index(c[0]), int(c[1]) - 1, int(c[2]) - 1])
            for c in components}


def estimate_decay_order(data, component, radii, grid=None):
    """Fitted decay order tau-hat of one deviation component over >= 4 radii.

    ``component`` is one of a11..a33, b11..b33 (upper triangle).
    """
    return decay_orders(data, radii, grid, (component,))[component]


def charge_integrand(data, coords3):
    """Pointwise (E-integrand, P_k-integrand) of the data at plain chart
    points (scalars or arrays); derivatives of the deviations come from the
    data jets and the background connection enters in closed form."""
    _require_hyperboloid(data)
    r, th, ps = coords3
    G, P = data.jets(coords3, order=1)
    F = data.frame.components(coords3)
    leaf = np.shape(np.asarray(r, dtype=float))
    Fv = np.array([[value(F[i][a]) + np.zeros(leaf) for a in range(3)]
                   for i in range(3)])
    gv = np.array([[value(G[i][j]) + np.zeros(leaf) for j in range(3)]
                   for i in range(3)])
    pv = np.array([[value(P[i][j]) + np.zeros(leaf) for j in range(3)]
                   for i in range(3)])
    eye = np.eye(3).reshape((3, 3) + (1,) * len(leaf))
    a = gv - eye
    b = pv - eye
    gam = background_connection(np.asarray(r, dtype=float), np.asarray(th))

    def nabla_a(k):
        """nabla_k a_1k = e_k a_1k - Gamma^m_k1 a_mk - Gamma^m_kk a_1m."""
        e = frame_entry(Fv, G[0][k], k)
        for m in range(3):
            e = e - gam[m, k, 0] * a[m, k] - gam[m, k, k] * a[0, m]
        return e

    tra = a[0, 0] + a[1, 1] + a[2, 2]
    trb = b[0, 0] + b[1, 1] + b[2, 2]
    div_a = nabla_a(0) + nabla_a(1) + nabla_a(2)   # nabla^j a_1j
    grad_tr = sum(Fv[0][aa] * (_grad(G[0][0], aa) + _grad(G[1][1], aa)
                               + _grad(G[2][2], aa)) for aa in range(3))
    e_int = div_a - grad_tr - (a[0, 0] - gv[0, 0] * tra)
    p_int = np.stack([b[k, 0] - gv[k, 0] * trb for k in range(3)])
    return e_int, p_int


@dataclass
class NullCharges:
    """All sixteen charges with per-radius diagnostics."""

    E: tuple                   # four LadderFits, nu = 0..3
    P: tuple                   # 4 x 3 LadderFits [nu][k]
    decay_orders: dict         # component -> DecayFit
    tau_gate: float

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

    def as_dict(self):
        return {
            "E": [f.as_dict() for f in self.E],
            "P": [[f.as_dict() for f in row] for row in self.P],
            "margins": list(self.margins()),
            "decay_orders": {k: v.as_dict() for k, v in self.decay_orders.items()},
            "tau_gate": self.tau_gate,
            "diverging": self.diverging(),
        }


def null_energy_momentum(data, radii, grid=None, tau_gate=1.55,
                         check_decay=True):
    """E_nu and P_nu,k over the radius ladder, with the order gate.

    Components whose fitted decay order falls below the gate (slightly above
    3/2, where finiteness is guaranteed) make the charges unreliable; the
    per-component fits are always reported so the caller can judge.
    """
    _require_hyperboloid(data)
    grid = grid or build_grid(48, 96)
    ndir = direction_functions(grid)
    nvals = [ndir.n[nu].values.ravel() for nu in range(4)]
    w = grid.weights.ravel()

    decay = {}
    if check_decay and len(list(radii)) >= 4:
        dradii = list(radii)[-4:]
        decay = decay_orders(data, dradii, build_grid(8, 16))
        finite = [f.exponent for f in decay.values() if not f.exact]
        if finite and min(finite) < tau_gate:
            import logging
            logging.getLogger(__name__).warning(
                "slowest deviation order %.3f is below the gate %.2f; "
                "charges may not be limits", min(finite), tau_gate)

    def samples_at(r):
        T, Ps = grid.nodes()
        coords = [np.full_like(T, float(r)), T, Ps]
        e_int, p_int = charge_integrand(data, coords)
        r3 = float(r) ** 3
        es = [np.sum(w * e_int * nvals[nu]) * r3 / (16.0 * np.pi)
              for nu in range(4)]
        ps = [[np.sum(w * p_int[k] * nvals[nu]) * r3 / (8.0 * np.pi)
               for k in range(3)] for nu in range(4)]
        return es, ps

    rows = ladder_map(samples_at, radii)
    E = tuple(fit_inverse_powers(radii, [row[0][nu] for row in rows])
              for nu in range(4))
    P = tuple(tuple(fit_inverse_powers(radii, [row[1][nu][k] for row in rows])
                    for k in range(3)) for nu in range(4))
    return NullCharges(E, P, decay, tau_gate)


def check_dec_null(data, points):
    """Margin mu - max(|varpi|, |varpi + sigma|) at the sample points."""
    from .geometry import constraint_quantities
    cq = constraint_quantities(data, points)
    n1 = np.sqrt(np.sum(cq.varpi ** 2, axis=0))
    n2 = np.sqrt(np.sum((cq.varpi + cq.sigma) ** 2, axis=0))
    return cq.mu - np.maximum(n1, n2)


def check_pmt_null(charges):
    """(E_0 - P_0,1) - sqrt(sum_i (E_i - P_i,1)^2): the null positive-mass
    margin."""
    if isinstance(charges, NullCharges):
        m = charges.margins()
    else:
        m = np.asarray(charges, dtype=float)
    return float(m[0] - np.sqrt(m[1] ** 2 + m[2] ** 2 + m[3] ** 2))
