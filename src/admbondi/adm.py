"""Total energy-momentum at spatial infinity and the flat-case checks.

The charges of asymptotically flat data (Euclidean frame, single end) are

    E   = (1/16 pi) lim_r  int_{S_r} (d_j g_ij - d_i g_jj) n^i r^2 dOmega,
    P_k = (1/8 pi)  lim_r  int_{S_r} (h_ki - g_ki h_jj) n^i r^2 dOmega,

with outward orientation (this is the sign that makes a static black hole
carry E = +m).  Partial derivatives are frame-directional derivatives of the
Euclidean-frame components, which coincide with Cartesian partials.  Each
rung's integral of x_i n^i is one ``sphere.integrate`` over its nodes.

The decay check reads each class of the asymptotic-flatness hypotheses
(g - delta, dg, ddg, h, dh) as a sup-norm per rung as soon as the class is
formed, e_k g and e_l e_k g one frame direction k at a time: it never holds
all 81 e_l e_k g_ij.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import (_chart_gradient, _chart_hessian, _coords_leaf,
                       _frame_apply, _leaf_array, constraint_quantities,
                       frame_derivative, frame_entry)
from .jets import value
from .ladder import (LadderFit, causal_margin, check_ladder,
                     fit_decay_exponent, fit_inverse_powers, ladder_integrands,
                     ladder_map, rung_axes, rung_sups)
from .sphere import build_grid, direction_functions, integrate

__all__ = ["AdmCharges", "adm_energy_momentum", "adm_ladder_samples",
           "unit_samples", "check_af_decay", "AF_DECAY_SLACK",
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

    The data are evaluated for all rungs at once, in the blocks of
    ``ladder_integrands``; each rung then integrates its own vector
    integrands x_i, contracted with n^i first."""
    _require_euclidean(data)
    n = direction_functions(grid)[1:]

    def integrands(coords):
        """E's vector integrand and, with ``momentum``, g_ij and h_ij."""
        leaf = _coords_leaf(coords)
        G, P, F = data.jets(coords, order=1, momentum=momentum)
        Fv = _leaf_array(F, value, leaf)
        e_int = np.empty(leaf[:1] + (3,) + leaf[1:])
        # d_j g_ij - d_i g_jj, from only the frame-directional derivatives
        # D_k g_ij (Cartesian partials) that the two sums read
        for i in range(3):
            div_g = sum(frame_entry(Fv, G[i][j], j) for j in range(3))
            grad_tr = sum(frame_entry(Fv, G[j][j], i) for j in range(3))
            e_int[:, i] = div_g - grad_tr
        if not momentum:
            return (e_int,)
        return (e_int,) + tuple(np.moveaxis(_leaf_array(X, value, leaf), 2, 0)
                                for X in (G, P))

    e_int, *gh = ladder_integrands(radii, grid, integrands)

    def surface(x, r, c):
        """r^2 int x_i n^i dOmega / c, the index i just before the grid's."""
        return integrate(grid, np.einsum("...iab,iab->...ab", x, n)) \
            * r * r / c

    def samples_at(rung):
        r = radii[rung]
        energy = surface(e_int[rung], r, 16.0 * np.pi)
        if not momentum:
            return energy
        g, h = (x[rung] for x in gh)
        trh = np.einsum("jj...->...", h)
        p_int = h - np.einsum("ki...,...->ki...", g, trh)
        return energy, list(surface(p_int, r, 8.0 * np.pi))

    return ladder_map(samples_at, range(len(radii)))


def adm_energy_momentum(data, radii, grid):
    """Charges of a single end on ``grid``, extrapolated over the ladder."""
    rows = adm_ladder_samples(data, radii, grid)
    energy = fit_inverse_powers(radii, [row[0] for row in rows],
                                unit_samples(radii, 16.0 * np.pi))
    momentum = tuple(fit_inverse_powers(radii, [row[1][k] for row in rows],
                                        unit_samples(radii, 8.0 * np.pi))
                     for k in range(3))
    return AdmCharges(energy, momentum)


def unit_samples(radii, c):
    """4 pi r^2 / c at each rung: the sample of a unit integrand.  The
    integrands cancel terms of order 1, the flat metric's, so their
    rounding scales with it."""
    return 4.0 * np.pi * np.asarray(radii, dtype=float) ** 2 / c


_REQUIRED_ORDERS = {"g": 1.0, "dg": 2.0, "ddg": 3.0, "h": 2.0, "dh": 3.0}
AF_DECAY_SLACK = 0.3


def _decay_sups(data, coords):
    """Sup-norms of (g - delta), dg, ddg, h, dh over every component at each
    rung of ``rung_axes`` points.

    Each class is reduced as soon as it is formed, and the jets are dropped
    once read: h and e_k h first, then g from the leaf values, chart
    gradient and chart Hessian of G, then e_k g and e_l e_k g one frame
    direction k at a time, so at most the 27 e_l e_k g_ij of one k exist
    at once.  A sup over every component is a max, so it does not depend
    on that order."""
    leaf = _coords_leaf(coords)
    G, P, F = data.jets(coords, order=2)

    def sup(x):
        return np.max(rung_sups(x).reshape(-1, leaf[0]), axis=0)

    # e_l e_k g needs no second derivative of the frame
    Fv, dF = _leaf_array(F, value, leaf), _chart_gradient(F, leaf)
    out = {"h": sup(_leaf_array(P, value, leaf)),
           "dh": sup(frame_derivative(Fv, P))}
    del P, F
    out["g"] = sup(_leaf_array(G, value, leaf)
                   - np.eye(3).reshape((3, 3) + (1,) * len(leaf)))
    dg, ddg = _chart_gradient(G, leaf), _chart_hessian(G, leaf)
    del G
    sups = []
    for k in range(3):
        # e_k g_ij = F_k^a d_a g_ij and its chart gradient, by the product
        # rule d_c(e_k g_ij) = (d_c F_k^a) d_a g_ij + F_k^a d_c d_a g_ij;
        # e_l(e_k g_ij) is e_l of that gradient
        dDg = np.einsum("ca...,aij...->cij...", dF[:, k], dg)
        dDg += np.einsum("a...,caij...->cij...", Fv[k], ddg)
        sups.append((sup(np.einsum("a...,aij...->ij...", Fv[k], dg)),
                     sup(_frame_apply(Fv, dDg))))
        del dDg
    out["dg"], out["ddg"] = (np.max(s, axis=0) for s in zip(*sups))
    return out


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

