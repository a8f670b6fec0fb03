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

import numpy as np

from .errors import ConfigError
from .geometry import (_chart_gradient, _chart_hessian, _coords_leaf,
                       _frame_apply, _leaf_array, constraint_quantities,
                       frame_derivative, frame_entry)
from .jets import value
from .ladder import (Charges, causal_margin, check_ladder,
                     fit_decay_exponent, fit_ladder, ladder_integrands,
                     rung_axes, rung_sups, unit_samples)
from .sphere import build_grid, direction_functions, integrate

__all__ = ["adm_energy_momentum", "adm_ladder_samples", "check_af_decay",
           "AF_REQUIRED_ORDERS", "AF_DECAY_SLACK", "check_dec_flat",
           "check_pmt_flat"]


def _require_euclidean(data):
    if data.frame.kind != "euclidean":
        raise ConfigError(
            "spatial-infinity charges need data in the Euclidean frame; "
            f"got frame kind {data.frame.kind!r}")


def adm_ladder_samples(data, radii, grid, momentum=True):
    """Surface integrals (E, P) at each rung, rung axis first: E of shape
    (n_r,) and P_k of shape (n_r, 3); a rung's samples depend on nothing but
    its radius.  Without ``momentum`` the samples are E alone, and P is left
    out of the evaluation of the data too (``InitialData.jets``).

    The integrands are formed for all rungs at once, in the blocks of
    ``ladder_integrands`` (P_k's, h_ki - g_ki tr h, once the jets are
    dropped); each rung then integrates its own, contracted with n^i first."""
    _require_euclidean(data)
    n = direction_functions(grid)[1:]

    def integrands(coords):
        """The vector integrands of E and, with ``momentum``, of P_k."""
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
        g, h = (_leaf_array(X, value, leaf) for X in (G, P))
        del G, P, F, Fv
        p_int = h - np.einsum("ki...,...->ki...", g, np.einsum("jj...", h))
        return e_int, np.moveaxis(p_int, 2, 0)

    e_int, *p_int = ladder_integrands(radii, grid, integrands)

    def surface(x, r, c):
        """r^2 int x_i n^i dOmega / c, the index i just before the grid's."""
        return integrate(grid, np.einsum("...iab,iab->...ab", x, n)) \
            * r * r / c

    energy = np.array([surface(x, r, 16.0 * np.pi)
                       for x, r in zip(e_int, radii)])
    if not momentum:
        return energy
    return energy, np.array([surface(p, r, 8.0 * np.pi)
                             for p, r in zip(p_int[0], radii)])


def adm_energy_momentum(data, radii, grid):
    """Charges of a single end on ``grid``, extrapolated over the ladder."""
    energy, momentum = adm_ladder_samples(data, radii, grid)
    return Charges(
        fit_ladder(radii, energy, unit_samples(radii, 2, 16.0 * np.pi)),
        fit_ladder(radii, momentum, unit_samples(radii, 2, 8.0 * np.pi)))


AF_REQUIRED_ORDERS = {"g": 1.0, "dg": 2.0, "ddg": 3.0, "h": 2.0, "dh": 3.0}
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
    """DecayFit of the sup-norms of each class (g - delta), dg, ddg, h, dh.

    Exponents may come out 'exact' (inf) when a class vanishes identically
    (e.g. h of a time-symmetric slice).  A class decays fast enough when
    its exponent minus AF_REQUIRED_ORDERS[class] is >= -AF_DECAY_SLACK.
    """
    _require_euclidean(data)
    radii = check_ladder(radii, minimum=4)
    grid = grid or build_grid(12, 24)

    sups = _decay_sups(data, rung_axes(radii, *grid.axes()))
    return {key: fit_decay_exponent(radii, sups[key])
            for key in AF_REQUIRED_ORDERS}


def check_dec_flat(data, points):
    """Margin mu - |varpi| at the sample points; nonnegative iff the dominant
    energy condition holds there."""
    cq = constraint_quantities(data, points)
    return cq.mu - np.sqrt(np.sum(cq.varpi ** 2, axis=0))


def check_pmt_flat(charges):
    """E - |P| of ADM Charges: the spatial-infinity positive-mass margin."""
    return float(causal_margin(np.append(charges.E, charges.P)))

