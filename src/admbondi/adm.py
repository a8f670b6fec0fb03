"""Total energy-momentum at spatial infinity and the flat-case checks.

The charges of asymptotically flat data (Euclidean frame, single end) are

    E   = (1/16 pi) lim_r  int_{S_r} (d_j g_ij - d_i g_jj) n^i r^2 dOmega,
    P_k = (1/8 pi)  lim_r  int_{S_r} (h_ki - g_ki h_jj) n^i r^2 dOmega,

with outward orientation (this is the sign that makes a static black hole
carry E = +m).  Partial derivatives are frame-directional derivatives of the
Euclidean-frame components, which coincide with Cartesian partials.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import InitialData, _grad
from .jets import value
from .ladder import LadderFit, fit_decay_exponent, fit_inverse_powers, ladder_map
from .sphere import build_grid, direction_functions

__all__ = ["AdmCharges", "adm_energy_momentum", "check_af_decay",
           "check_dec_flat", "check_pmt_flat", "rotated_data"]


@dataclass
class AdmCharges:
    energy: LadderFit
    momentum: tuple           # three LadderFits

    @property
    def E(self):
        return self.energy.value

    @property
    def P(self):
        return np.array([m.value for m in self.momentum])

    def as_dict(self):
        return {"E": self.energy.as_dict(),
                "P": [m.as_dict() for m in self.momentum]}


def _require_euclidean(data):
    if data.frame.kind != "euclidean":
        raise ConfigError(
            "spatial-infinity charges need data in the Euclidean frame; "
            f"got frame kind {data.frame.kind!r}")


def _node_arrays(grid, r):
    T, P = grid.nodes()
    return [np.full_like(T, float(r)), T, P]


def adm_energy_momentum(data, radii, grid=None):
    """Charges of a single end, extrapolated over the radius ladder."""
    _require_euclidean(data)
    grid = grid or build_grid(48, 96)
    ndir = direction_functions(grid)
    nvec = np.stack([ndir.n[k].values.ravel() for k in (1, 2, 3)])
    w = grid.weights.ravel()

    def samples_at(r):
        coords = _node_arrays(grid, r)
        G, P = data.jets(coords, order=1)
        F = data.frame.components(coords)
        Fv = np.array([[value(F[i][a]) + np.zeros_like(coords[1])
                        for a in range(3)] for i in range(3)])
        # frame-directional derivatives D_k g_ij (Cartesian partials)
        Dg = np.empty((3, 3, 3) + coords[1].shape)
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    Dg[k, i, j] = sum(Fv[k][a] * _grad(G[i][j], a)
                                      for a in range(3))
        gv = np.array([[value(G[i][j]) + np.zeros_like(coords[1])
                        for j in range(3)] for i in range(3)])
        hv = np.array([[value(P[i][j]) + np.zeros_like(coords[1])
                        for j in range(3)] for i in range(3)])
        e_int = np.einsum("jiju->iu", Dg) - np.einsum("ijju->iu", Dg)
        energy = np.sum(w * np.einsum("iu,iu->u", e_int, nvec)) \
            * r * r / (16.0 * np.pi)
        trh = np.einsum("jju->u", hv)
        p_int = hv - np.einsum("kiu,u->kiu", gv, trh)
        mom = [np.sum(w * np.einsum("iu,iu->u", p_int[k], nvec))
               * r * r / (8.0 * np.pi) for k in range(3)]
        return energy, mom

    rows = ladder_map(samples_at, radii)
    e_samples = [row[0] for row in rows]
    p_samples = [[row[1][k] for row in rows] for k in range(3)]
    energy = fit_inverse_powers(radii, e_samples)
    momentum = tuple(fit_inverse_powers(radii, p_samples[k]) for k in range(3))
    return AdmCharges(energy, momentum)


_REQUIRED_ORDERS = {"g": 1.0, "dg": 2.0, "ddg": 3.0, "h": 2.0, "dh": 3.0}


def check_af_decay(data, radii, grid=None, slack=0.3):
    """Fitted decay exponents of (g - delta), dg, ddg, h, dh sup-norms.

    Exponents may come out 'exact' when a class vanishes identically (e.g.
    h of a time-symmetric slice).  A component is flagged when it decays
    slower than its required order minus ``slack``.
    """
    _require_euclidean(data)
    if len(list(radii)) < 4:
        raise ConfigError("decay check needs at least 4 radii")
    grid = grid or build_grid(12, 24)

    from . import jets as jx

    sups = {k: [] for k in _REQUIRED_ORDERS}
    for r in radii:
        coords = _node_arrays(grid, r)
        cj = jx.seed(coords, order=2)
        G, P = data.gp(cj)
        F = data.frame.components(cj)
        Fv = np.array([[value(F[i][a]) + np.zeros_like(coords[1])
                        for a in range(3)] for i in range(3)])
        dF = np.array([[[_grad(F[i][b], a) + np.zeros_like(coords[1])
                         for b in range(3)] for i in range(3)]
                       for a in range(3)])

        def dk(X, k):
            return sum(Fv[k][a] * _grad(X, a) for a in range(3))

        def ddkl(X, k, l):
            # e_k(e_l X) = F_k^a (d_a F_l^b) d_b X + F_k^a F_l^b d_a d_b X
            out = 0.0
            for a in range(3):
                for b in range(3):
                    dd = value(X.dd[a][b]) if isinstance(X, jx.Jet) else 0.0
                    out = out + Fv[k][a] * (dF[a][l][b] * _grad(X, b)
                                            + Fv[l][b] * dd)
            return out

        gdev = hsup = dgs = ddgs = dhs = 0.0
        for i in range(3):
            for j in range(3):
                gv = value(G[i][j])
                hv = value(P[i][j])
                # np.maximum keeps a NaN; the builtin max would drop it
                gdev = np.maximum(gdev, np.max(np.abs(gv - (1.0 if i == j else 0.0))))
                hsup = np.maximum(hsup, np.max(np.abs(hv)))
                for k in range(3):
                    dgs = np.maximum(dgs, np.max(np.abs(dk(G[i][j], k))))
                    dhs = np.maximum(dhs, np.max(np.abs(dk(P[i][j], k))))
                    for l in range(3):
                        ddgs = np.maximum(ddgs, np.max(np.abs(
                            ddkl(G[i][j], k, l))))
        sups["g"].append(gdev)
        sups["dg"].append(dgs)
        sups["ddg"].append(ddgs)
        sups["h"].append(hsup)
        sups["dh"].append(dhs)

    out = {}
    for key, req in _REQUIRED_ORDERS.items():
        fit = fit_decay_exponent(radii, sups[key])
        ok = fit.exact or fit.exponent >= req - slack
        out[key] = {"fit": fit, "required": req, "ok": bool(ok)}
    return out


def check_dec_flat(data, points):
    """Margin mu - |varpi| at the sample points; nonnegative iff the dominant
    energy condition holds there."""
    from .geometry import constraint_quantities
    cq = constraint_quantities(data, points)
    return cq.mu - np.sqrt(np.sum(cq.varpi ** 2, axis=0))


def check_pmt_flat(charges):
    """E - |P|: the spatial-infinity positive-mass margin."""
    if isinstance(charges, AdmCharges):
        E, P = charges.E, charges.P
    else:
        E, P = charges
    return float(E - np.sqrt(np.sum(np.asarray(P, dtype=float) ** 2)))


def rotated_data(data, Q):
    """The same physical data expressed in a rotated Cartesian chart x' = Qx.

    Frame components transform as g' = Q g Q^T evaluated at the pre-image
    point; charges computed from the rotated data satisfy E' = E, P' = Q P.
    """
    _require_euclidean(data)
    Q = np.asarray(Q, dtype=float)
    Qi = Q.T  # inverse of a rotation

    def gp(coords):
        from . import jets as jx
        r, th, ps = coords
        st, ct = jx.sin(th), jx.cos(th)
        n = [st * jx.cos(ps), st * jx.sin(ps), ct]
        m = [sum(Qi[a][b] * n[b] for b in range(3)) for a in range(3)]
        th0 = jx.arccos(m[2])
        ps0 = jx.arctan2(m[1], m[0])
        G, P = data.gp([r, th0, ps0])
        Gp = [[sum(Q[i][a] * Q[j][b] * G[a][b] for a in range(3)
                   for b in range(3)) for j in range(3)] for i in range(3)]
        Pp = [[sum(Q[i][a] * Q[j][b] * P[a][b] for a in range(3)
                   for b in range(3)) for j in range(3)] for i in range(3)]
        return Gp, Pp

    return InitialData(gp, data.frame, data.symmetric_p,
                       name=f"rotated[{data.name}]")
