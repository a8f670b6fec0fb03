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
from . import jets
from .geometry import (_chart_gradient, _coords_leaf, _first_order,
                       _frame_apply, _leaf_array, _product,
                       constraint_quantities, frame_derivative, frame_entry)
from .jets import value
from .ladder import (LadderFit, causal_margin, check_ladder,
                     fit_decay_exponent, fit_inverse_powers, ladder_map,
                     rung_axes, rung_sups)
from .sphere import build_grid, direction_functions

__all__ = ["AdmCharges", "adm_energy_momentum", "adm_ladder_samples",
           "fit_adm_charges", "check_af_decay", "AF_DECAY_SLACK",
           "check_dec_flat", "check_pmt_flat"]


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


def _require_euclidean(data):
    if data.frame.kind != "euclidean":
        raise ConfigError(
            "spatial-infinity charges need data in the Euclidean frame; "
            f"got frame kind {data.frame.kind!r}")


def adm_ladder_samples(data, radii, grid, momentum=True):
    """Surface integrals (E, [P_1, P_2, P_3]) at each rung, one row per
    radius; a rung's row depends on nothing but its radius.  Without
    ``momentum`` a row is E alone, and P is left out of the evaluation of
    the data too (``InitialData.jets``).

    Each rung is evaluated alone, as a one-rung ``rung_axes`` ladder; its
    integrands are raveled, so every sum runs over the node-ordered array
    as on flat nodes."""
    _require_euclidean(data)
    ndir = direction_functions(grid)
    nvec = np.stack([ndir[k].values.ravel() for k in (1, 2, 3)])
    w = grid.weights.ravel()

    def surface(x, r, c):
        """r^2 int x_i n^i dOmega / c of a raveled vector x_i."""
        return np.sum(w * np.einsum("iu,iu->u", x, nvec)) * r * r / c

    def samples_at(r):
        coords = rung_axes([r], *grid.axes())
        G, P = data.jets(coords, order=1, momentum=momentum)
        Fv = _leaf_array(data.frame.components(coords), value, grid.shape)
        # d_j g_ij - d_i g_jj, from only the frame-directional derivatives
        # D_k g_ij (Cartesian partials) that the two sums read
        e_int = np.empty((3,) + grid.shape)
        for i in range(3):
            div_g = sum(frame_entry(Fv, G[i][j], j) for j in range(3))
            grad_tr = sum(frame_entry(Fv, G[j][j], i) for j in range(3))
            e_int[i] = div_g - grad_tr
        energy = surface(e_int.reshape(3, -1), r, 16.0 * np.pi)
        if not momentum:
            return energy
        gv = _leaf_array(G, value, grid.shape).reshape(3, 3, -1)
        hv = _leaf_array(P, value, grid.shape).reshape(3, 3, -1)
        trh = np.einsum("jju->u", hv)
        p_int = hv - np.einsum("kiu,u->kiu", gv, trh)
        return energy, [surface(p_int[k], r, 8.0 * np.pi) for k in range(3)]

    return ladder_map(samples_at, radii)


def fit_adm_charges(radii, rows):
    """Charges extrapolated from the rows of ``adm_ladder_samples``."""
    energy = fit_inverse_powers(radii, [row[0] for row in rows])
    momentum = tuple(fit_inverse_powers(radii, [row[1][k] for row in rows])
                     for k in range(3))
    return AdmCharges(energy, momentum)


def adm_energy_momentum(data, radii, grid=None):
    """Charges of a single end, extrapolated over the radius ladder."""
    grid = grid or build_grid(48, 96)
    return fit_adm_charges(radii, adm_ladder_samples(data, radii, grid))


_REQUIRED_ORDERS = {"g": 1.0, "dg": 2.0, "ddg": 3.0, "h": 2.0, "dh": 3.0}
AF_DECAY_SLACK = 0.3


def _decay_sups(data, coords):
    """Sup-norms of (g - delta), dg, ddg, h, dh over every component at each
    rung of ``rung_axes`` points."""
    leaf = _coords_leaf(coords)
    G, P = data.jets(coords, order=2)
    # the frame as an array jet: e_l e_k g needs no second derivative of F
    Fj = data.frame.components(jets.seed(coords, order=1))
    F = np.concatenate([_leaf_array(Fj, value, leaf)[None],
                        _chart_gradient(Fj, leaf)])
    g, dg = _first_order(G, leaf)
    # e_k g_ij as an array jet, so e_l(e_k g_ij) is e_l of its chart gradient
    Dg = _product("ka...,aij...->kij...", F, dg)

    def sup(x):
        return np.max(rung_sups(x).reshape(-1, leaf[0]), axis=0)

    return {
        "g": sup(g[0] - np.eye(3).reshape((3, 3) + (1,) * len(leaf))),
        "dg": sup(Dg[0]),
        "ddg": sup(_frame_apply(F[0], Dg[1:])),
        "h": sup(_leaf_array(P, value, leaf)),
        "dh": sup(frame_derivative(F[0], P)),
    }


def check_af_decay(data, radii, grid=None):
    """Fitted decay exponents of (g - delta), dg, ddg, h, dh sup-norms.

    Exponents may come out 'exact' (inf) when a class vanishes identically
    (e.g. h of a time-symmetric slice).  A component decays fast enough when
    its exponent minus its ``required`` order is at least -AF_DECAY_SLACK.
    """
    _require_euclidean(data)
    radii = check_ladder(radii, minimum=4)
    grid = grid or build_grid(12, 24)

    sups = _decay_sups(data, rung_axes(radii, *grid.axes()))
    out = {}
    for key, req in _REQUIRED_ORDERS.items():
        out[key] = {"fit": fit_decay_exponent(radii, sups[key]),
                    "required": req}
    return out


def check_dec_flat(data, points):
    """Margin mu - |varpi| at the sample points; nonnegative iff the dominant
    energy condition holds there."""
    cq = constraint_quantities(data, points)
    return cq.mu - np.sqrt(np.sum(cq.varpi ** 2, axis=0))


def check_pmt_flat(charges):
    """E - |P| of AdmCharges: the spatial-infinity positive-mass margin."""
    return float(causal_margin(np.append(charges.E, charges.P)))

