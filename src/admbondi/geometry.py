"""Pointwise 4-metric evaluation, hypersurface pullback, and 3-data geometry.

Conventions fixed here and inherited everywhere else:

* metric signature (-, +, +, +); coordinate 0 is the time-like chart
  coordinate (t or u) and future orientation means n_0 < 0 for the covariant
  unit normal;
* the second fundamental form of a slice with embedding Phi and future unit
  normal n is  h_ab = -n_alpha (d_a d_b Phi^alpha
  + Gamma^alpha_{beta gamma} d_a Phi^beta d_b Phi^gamma),
  which makes the unit hyperboloid t = sqrt(1 + r^2) in flat spacetime carry
  h = +g in the associated orthonormal frame;
* frame components of curvature are stored as
  riem[i][j][k][l] = < e_i, R(e_k, e_l) e_j >  with
  R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y],
  so constant curvature -1 gives riem = -(g_ik g_jl - g_il g_jk).

Frame vectors live on the 3-chart (r, theta, psi) as F[i][a] with
e_i = F[i][a] d_a; the pullback lifts them through the embedding differential.
It has one contraction, C_ij = A_i^a A_j^b T_ab of a symmetric T: the
induced metric (A = d phi, T = g_ab), the Christoffel term of h (A = d phi,
T = Gamma^a) and the frame components of g and h (A = F).
Connection and curvature of 3-data are computed in frame components via the
Koszul formula with structure coefficients rather than chart Christoffels.
"""

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .errors import DomainError
from .jets import Jet, add, inv3, inv4, mul, prod, sub, value

__all__ = [
    "Metric4Evaluator", "Embedding", "FrameField",
    "InitialData", "ConstraintQuantities",
    "euclidean_frame", "hyperboloid_frame",
    "ricci_tensor", "pullback_initial_data",
    "constraint_quantities", "rigidity_residual",
    "frame_geometry", "frame_derivative", "frame_entry",
]


def _perms4():
    out = []
    for p in itertools.permutations(range(4)):
        sign = 1
        q = list(p)
        for i in range(4):
            while q[i] != i:
                j = q[i]
                q[i], q[j] = q[j], q[i]
                sign = -sign
        out.append((p, float(sign)))
    return out


_PERM4 = _perms4()


def _nested_shape(X):
    """Lengths of the nested lists of X, outermost first."""
    shape = []
    while isinstance(X, list):
        shape.append(len(X))
        X = X[0]
    return tuple(shape)


def _leaf_array(X, entry, leaf):
    """entry(x) for each x of the nested list X, broadcast to the leaf shape:
    an array indexed [<indices of X>, <leaf>]."""
    shape = _nested_shape(X)
    out = np.empty(shape + tuple(leaf))
    for idx in np.ndindex(*shape):
        x = X
        for i in idx:
            x = x[i]
        out[idx] = entry(x)
    return out


def _chart_gradient(X, leaf):
    """Leaf values of d_a X, indexed [a, <indices of X>, <leaf>], for X
    a nested list over as many chart variables as its first index."""
    return np.stack([_leaf_array(X, lambda x: value(_jd(x, a)), leaf)
                     for a in range(len(X))])


def _chart_hessian(X, leaf):
    """Leaf values of d_a d_b X, indexed [a, b, <indices of X>, <leaf>],
    written into one array entry (a, b) at a time: besides the result, only
    one entry's leaf array is held."""
    n = len(X)
    out = np.empty((n, n) + _nested_shape(X) + tuple(leaf))
    for a, b in np.ndindex(n, n):
        out[a, b] = _leaf_array(X, lambda x: value(_jdd(x, a, b)), leaf)
    return out


# An array jet is indexed [s, <indices>, <leaf>]: s = 0 holds the leaf
# values and s = 1 + c the chart derivatives d_c (forward-mode derivatives in
# vector mode).  Connection and curvature are einsums of array jets.

def _product(spec, A, B):
    """einsum(spec) of two first-order array jets with the product rule; the
    result is one again."""
    ins, out = spec.split("->")
    a, b = ins.split(",")
    grad = np.einsum(f"z{a},{b}->z{out}", A[1:], B[0]) \
        + np.einsum(f"{a},z{b}->z{out}", A[0], B[1:])
    return np.concatenate([np.einsum(spec, A[0], B[0])[None], grad])


def _inverse(M):
    """Array jet of the inverse of a 3x3 or 4x4 array jet,
    d(M^-1) = -M^-1 dM M^-1; the values are those of ``inv3`` or ``inv4``."""
    inv = np.array((inv3 if len(M[0]) == 3 else inv4)(M[0]))
    dinv = -np.einsum("zab...,bc...->zac...",
                      np.einsum("ab...,zbc...->zac...", inv, M[1:]), inv)
    return np.concatenate([inv[None], dinv])


def _first_order(X, leaf):
    """The array jets of an n x n nested list X of order-2 jets over n
    variables (or constants) and of its chart gradient d_a X, indexed
    [s, i, j, <leaf>] and [s, a, i, j, <leaf>]."""
    grad = _chart_gradient(X, leaf)
    return (np.concatenate([_leaf_array(X, value, leaf)[None], grad]),
            np.concatenate([grad[None], _chart_hessian(X, leaf)]))


def _dot(xs, ys):
    """sum_k xs[k] ys[k], summed over k in order, with the terms of
    structural zeros skipped: the one implementation of the pullback's
    contractions and of e_k x = F_k^a d_a x."""
    acc = 0.0
    for x, y in zip(xs, ys):
        acc = add(acc, mul(x, y))
    return acc


def frame_entry(Fv, x, k):
    """Leaf value of e_k x = F_k^a d_a x for one jet (or constant) x.

    ``Fv`` holds the frame components at the leaf, indexed [k][a], either
    as one array [k, a, <leaf>] or as nested lists of values that broadcast
    to the leaf, with plain-float structural zeros.
    """
    return _dot(Fv[k], [value(_jd(x, a)) for a in range(3)])


def _frame_apply(Fv, dX):
    """e_k X from the chart gradient dX, indexed [a, <indices>, <leaf>]."""
    leaf = np.shape(Fv)[2:]
    Fk = np.reshape(Fv, (3, 3) + (1,) * (dX.ndim - 1 - len(leaf)) + leaf)
    return _dot(np.swapaxes(Fk, 0, 1), dX)


def frame_derivative(Fv, X):
    """Leaf values of e_k X for each jet of the nested list X, indexed
    [k, <indices of X>, <leaf>]; every entry equals ``frame_entry(Fv, x, k)``
    bit for bit, computed here over whole arrays.

    It builds every entry: a caller that reads only a trace or a divergence
    calls ``frame_entry`` for those entries instead.
    """
    return _frame_apply(Fv, _chart_gradient(X, np.shape(Fv)[2:]))


def _jf(x):
    """Jet value one level down (identity on plain numbers)."""
    return x.f if isinstance(x, Jet) else x


def _jd(x, a):
    """Raw a-th first-derivative entry (0 for plain numbers)."""
    return x.d[a] if isinstance(x, Jet) else 0.0


def _jdd(x, a, b):
    return x.dd[a][b] if isinstance(x, Jet) else 0.0


def _coords_leaf(coords):
    """Broadcast shape of a list of plain coordinates."""
    return np.broadcast_shapes(*map(np.shape, coords))


def _reject(bad, coords, names, message):
    """Raise DomainError naming the first point where the mask ``bad`` holds.

    ``bad`` and the plain coordinates broadcast together; the point is the
    first in C order, given as (<names>) = (<its coordinates>).
    """
    if not np.any(bad):
        return
    shape = np.broadcast_shapes(np.shape(bad), *map(np.shape, coords))
    idx = np.unravel_index(np.argmax(np.broadcast_to(bad, shape)), shape)
    point = ", ".join(repr(float(np.broadcast_to(c, shape)[idx]))
                      for c in coords)
    raise DomainError(f"{message} at ({names}) = ({point})")


def _reject_non_finite(coords, names):
    """DomainError naming the first point with a non-finite coordinate."""
    finite = np.all(np.isfinite(np.broadcast_arrays(*coords)), axis=0)
    _reject(np.logical_not(finite), coords, names, "coordinate is not finite")


@dataclass
class Metric4Evaluator:
    """Pure map from chart coordinates to the symmetric matrix g_{ab}.

    ``fn`` must be written in generic arithmetic (operators plus the
    admbondi.jets elementary functions) so that jet seeding yields exact
    first and second coordinate derivatives.

    The chart is (t|u, r, theta, psi), with u in the ``retarded`` chart.  It
    holds for finite coordinates with r > ``r_min``: any other point raises
    DomainError naming the first one, with the message ``domain`` if r fails.

    A point is four coordinates; each coordinate may be a number or an
    array, so a (4, n) array is n points evaluated at once.  ``components``
    and ``first_derivs`` return arrays indexed [<component indices>, <leaf>],
    with plain-number entries (constant components, structural zeros)
    broadcast to the leaf shape; ``jets`` gives exact derivatives to second
    order.
    """

    fn: Callable
    chart: str
    name: str
    r_min: float = 0.0
    domain: str = "r must be positive"

    def _check(self, coords):
        at = [value(c) for c in coords]
        names = f"{'u' if self.chart == 'retarded' else 't'}, r, theta, psi"
        _reject_non_finite(at, names)
        # written so that a NaN bound (from a NaN mass) rejects every point
        _reject(np.logical_not(at[1] > self.r_min), at, names, self.domain)

    def components(self, point):
        coords = list(point)
        self._check(coords)
        return _leaf_array(self.fn(coords), value, _coords_leaf(coords))

    def jets(self, coords, order):
        """4x4 nested list of Jets of ``order`` over the chart coordinates."""
        coords = list(coords)
        self._check(coords)
        return self.fn(jets.seed(coords, order=order))

    def first_derivs(self, point):
        """dg[c][a][b] = d_c g_{ab} at the point."""
        coords = list(point)
        return _chart_gradient(self.jets(coords, order=1),
                               _coords_leaf(coords))


@dataclass
class Embedding:
    """Map ``fn`` from the 3-chart (r, theta, psi) into a spacetime chart,
    generic over jet level; ``InitialData`` rejects non-finite points."""

    fn: Callable
    chart: str
    name: str


@dataclass
class FrameField:
    """Three vector fields on the 3-chart: e_i = components(c)[i][a] d_a."""

    components: Callable
    kind: str


def euclidean_frame():
    """The Cartesian coordinate frame d/dx^i written in polar coordinates."""
    def comp(c):
        r, th, ps = c
        st, ct = jets.sin(th), jets.cos(th)
        sp, cp = jets.sin(ps), jets.cos(ps)
        return [
            [st * cp, ct * cp / r, -1.0 * sp / (r * st)],
            [st * sp, ct * sp / r, cp / (r * st)],
            [ct, -1.0 * st / r, 0.0],
        ]
    return FrameField(comp, "euclidean")


def hyperboloid_frame():
    """Orthonormal frame of the hyperbolic background metric."""
    def comp(c):
        r, th, _ = c
        return [
            [jets.sqrt(1.0 + r * r), 0.0, 0.0],
            [0.0, 1.0 / r, 0.0],
            [0.0, 0.0, 1.0 / (r * jets.sin(th))],
        ]
    return FrameField(comp, "hyperboloid")


@dataclass
class ConstraintQuantities:
    mu: np.ndarray          # energy density
    varpi: np.ndarray       # momentum density, shape (3, ...)
    sigma: np.ndarray       # antisymmetry current, shape (3, ...)


def _lower(x):
    """x, or each entry of nested lists x, one chart-derivative order lower:
    Jet(f, d) of an order-2 jet, f of an order-1 jet, a number as it is."""
    if isinstance(x, list):
        return [_lower(e) for e in x]
    if isinstance(x, Jet):
        return x.f if x.dd is None else Jet(x.f, x.d)
    return x


@dataclass
class InitialData:
    """Evaluators of frame components g(e_i, e_j), p(e_i, e_j) on the 3-chart.

    ``g(coords3, F)``, F the frame at the jet level of the coordinates,
    returns (G, S): G the 3x3 nested list of g and S the chart-level
    intermediates that p also reads, or None.  ``p(coords3, F, S)`` returns
    the 3x3 nested list of p, which need not be symmetric.  Both must be
    generic over jet level.  ``values`` and ``jets`` reject a coordinate
    that is not finite, then evaluate the frame once and ``g`` before ``p``,
    so ``p`` may rely on the domain checks that ``g`` makes.

    ``jets(coords3, order)`` returns (G, P, F): G and F with ``order`` chart
    derivatives, P with ``order - 1`` (plain values at order 1) from the
    ``_lower`` coordinates, F and S, bit for bit those one order lower, as a
    jet's f and d never read dd.  ``values`` hands p the S of g unchanged.
    The charges read dg and p, the constraints ddg and dp.
    ``momentum=False`` leaves p out: P is None.
    """

    g: Callable
    p: Callable
    frame: FrameField
    name: str = "data"

    def values(self, coords3):
        """Leaf values of G and P, each indexed [i, j, <leaf>]; plain-number
        entries are broadcast to the leaf shape of the coordinates."""
        _reject_non_finite(coords3, "r, theta, psi")
        leaf = _coords_leaf(coords3)
        F = self.frame.components(coords3)
        G, S = self.g(coords3, F)
        return (_leaf_array(G, value, leaf),
                _leaf_array(self.p(coords3, F, S), value, leaf))

    def jets(self, coords3, order, momentum=True):
        _reject_non_finite(coords3, "r, theta, psi")
        c = jets.seed(coords3, order=order)
        F = self.frame.components(c)
        G, S = self.g(c, F)
        if not momentum:
            return G, None, F
        return G, self.p(_lower(c), _lower(F), _lower(S)), F


# ---------------------------------------------------------------------------
# 4D Christoffel symbols and curvature
# ---------------------------------------------------------------------------

def _christoffel_from(ginv, dg, rows):
    """Gamma^a_{bc} from the inverse metric and dg[c][a][b] = d_c g_{ab},
    for the upper indices a in ``rows`` (the other rows are left None)."""
    gam = [[[None] * 4 for _ in range(4)] for _ in range(4)]
    for b in range(4):
        for c in range(b, 4):
            col = [sub(add(dg[b][d][c], dg[c][d][b]), dg[d][b][c])
                   for d in range(4)]
            for a in rows:
                acc = 0.0
                for d in range(4):
                    acc = add(acc, mul(ginv[a][d], col[d]))
                e = mul(0.5, acc)
                gam[a][b][c] = e
                gam[a][c][b] = e
    return gam


def ricci_tensor(metric, point):
    """Ricci tensor from exact second derivatives of the metric.

    Gamma^a_bc = g^ad (d_b g_dc + d_c g_db - d_d g_bc) / 2 is one einsum of
    array jets (values and the four chart derivatives) with the product rule,
    and R_bc = d_a Gamma^a_bc - d_c Gamma^a_ab + Gamma^a_ad Gamma^d_bc
    - Gamma^a_cd Gamma^d_ab is four einsums of that jet.
    """
    coords = list(point)
    g, dg = _first_order(metric.jets(coords, order=2), _coords_leaf(coords))
    col = np.einsum("sbdc...->sdbc...", dg) \
        + np.einsum("scdb...->sdbc...", dg) - dg
    gam = 0.5 * _product("ad...,dbc...->abc...", _inverse(g), col)
    gv = gam[0]
    return np.einsum("aabc...->bc...", gam[1:]) \
        - np.einsum("caab...->bc...", gam[1:]) \
        + np.einsum("aad...,dbc...->bc...", gv, gv) \
        - np.einsum("acd...,dab...->bc...", gv, gv)


# ---------------------------------------------------------------------------
# Pullback of (g, h) to a spacelike slice
# ---------------------------------------------------------------------------

def _congruence(A, T):
    """C_ij = A_i^a A_j^b T_ab of a symmetric T, contracted one index at a
    time: U_ib = A_i^a T_ab summed over a, then C_ij = U_ib A_j^b summed
    over b for j >= i, mirrored."""
    U = [[_dot(Ai, [Ta[b] for Ta in T]) for b in range(len(T))] for Ai in A]
    C = [[None] * len(A) for _ in A]
    for i in range(len(A)):
        for j in range(i, len(A)):
            C[i][j] = C[j][i] = _dot(U[i], A[j])
    return C


def _second_form(n, rows, gam, dphi, ddphi):
    """h_ij = -n_a hess^a_ij summed over the rows a, with the covariant
    Hessian hess^a_ij = dd_ij phi^a + Gamma^a_bc d_i phi^b d_j phi^c."""
    hess = {a: _congruence(dphi, gam[a]) for a in rows}
    h3 = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            h3[i][j] = h3[j][i] = 0.0 - _dot(
                [n[a] for a in rows],
                [add(ddphi[a][i][j], hess[a][i][j]) for a in rows])
    return h3


def _normal_rows(n):
    """Indices a whose normal component n_a is not a structural zero."""
    return [a for a in range(4) if not jets._zero(n[a])]


def _tangents(ej):
    """The tangent vectors d_i phi^a of the embedding jets ej, as rows
    indexed [i][a]."""
    return [[_jd(e, i) for e in ej] for i in range(3)]


def _conormal(g4, dphi):
    """g^ab, the conormal N_a = eps_abcd d_r phi^b d_theta phi^c d_psi phi^d
    (the signed cross product of the coordinate tangents) and its norm
    g^ab N_a N_b."""
    ginv = inv4(g4)
    N = [0.0, 0.0, 0.0, 0.0]
    for (a, b, c, d), s in _PERM4:
        N[a] = add(N[a], prod(s, dphi[0][b], dphi[1][c], dphi[2][d]))
    nn = 0.0
    for a in range(4):
        for b in range(4):
            nn = add(nn, prod(ginv[a][b], N[a], N[b]))
    return ginv, N, nn


def _on_slice(metric, coords3, ej):
    """The induced metric g_ij = g_ab d_i phi^a d_j phi^b of a slice,
    between the pullback's domain checks.

    ``ej`` are the embedding jets at the slice points ``coords3``, whose
    finiteness ``InitialData`` has checked; the metric is evaluated at
    phi = ej unseeded.  Three checks run, each once, on leaf values:

    * phi lies in the metric's chart domain
      (``Metric4Evaluator._check``, before the metric runs);
    * the slice is spacelike: its conormal N_a is timelike;
    * the induced metric is positive definite.

    Each raises DomainError naming the first failing point; a NaN fails
    every one of them.
    """
    phi = [_jf(e) for e in ej]
    dphi = _tangents(ej)
    metric._check(phi)
    g4 = metric.fn(phi)
    nn = _conormal([[value(x) for x in row] for row in g4],
                   [[value(x) for x in row] for row in dphi])[2]
    at = [value(c) for c in coords3]
    # written so that a NaN is rejected too
    _reject(np.logical_not(nn < 0.0), at, "r, theta, psi",
            "slice is not spacelike (conormal fails to be timelike)")
    g3 = _congruence(dphi, g4)
    m = [[value(g3[i][j]) for j in range(3)] for i in range(3)]
    d1 = m[0][0]
    d2 = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    d3 = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
          - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
          + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    _reject(np.logical_not((d1 > 0) & (d2 > 0) & (d3 > 0)), at,
            "r, theta, psi", "induced metric is not positive definite")
    return g3


def pullback_initial_data(metric, emb, frame):
    """Induced metric and second fundamental form of an embedded slice.

    Returns an InitialData whose two evaluators run the chain (embedding
    jets, metric at phi, and for h the metric jets, normal and covariant
    Hessian, then the frame F they are handed) in generic arithmetic, so
    chart derivatives of the produced frame components are again exact.
    ``g`` raises DomainError, naming the first such point, where phi leaves
    the metric's chart domain, the slice is not spacelike or the induced
    metric is not positive definite (``_on_slice``).  ``p`` makes none of
    these checks: ``InitialData`` evaluates ``g`` on the same points first.
    ``g`` hands ``p`` no intermediates (S is None).
    """
    if emb.chart != metric.chart:
        raise DomainError(
            f"embedding targets chart {emb.chart!r} but metric uses {metric.chart!r}")

    def g(coords3, F):
        # g_ab d_i phi^a d_j phi^b needs only first derivatives of phi and no
        # derivative of g_ab
        g3 = _on_slice(metric, coords3, emb.fn(jets.seed(coords3, order=1)))
        return _congruence(F, g3), None

    def p(coords3, F, S):
        ej = emb.fn(jets.seed(coords3, order=2))
        dphi = _tangents(ej)
        ddphi = [[[_jdd(ej[a], i, j) for j in range(3)] for i in range(3)]
                 for a in range(4)]
        gj = metric.fn(jets.seed([_jf(e) for e in ej], order=1))
        ginv, N, nn = _conormal([[_jf(x) for x in row] for row in gj], dphi)
        dg4 = [[[_jd(gj[a][b], c) for b in range(4)] for a in range(4)]
               for c in range(4)]
        scale = 1.0 / jets.sqrt(0.0 - nn)
        flip = np.where(value(N[0]) > 0.0, -1.0, 1.0)  # future: n_0 < 0
        n = [prod(N[a], scale, flip) for a in range(4)]

        # covariant Hessian in chart directions; a row a of Gamma and of the
        # Hessian only enters through n_a, so the rows where n_a is a
        # structural zero are not built
        rows = _normal_rows(n)
        gam = _christoffel_from(ginv, dg4, rows)
        return _congruence(F, _second_form(n, rows, gam, dphi, ddphi))

    return InitialData(g, p, frame, f"pullback[{metric.name};{emb.name}]")


# ---------------------------------------------------------------------------
# Frame geometry of 3-data: connection, curvature, constraints
# ---------------------------------------------------------------------------

def frame_geometry(data, coords3):
    """Connection, curvature and covariant derivatives of (g, p) in the frame.

    Koszul formula in the (generally non-holonomic) frame:
    2 g(nabla_i e_j, e_l) = e_i g_jl + e_j g_il - e_l g_ij
    + g([e_i,e_j], e_l) - g([e_i,e_l], e_j) - g([e_j,e_l], e_i).

    The frame F and the metric G are read once, as array jets of their
    values and first and second chart derivatives (``_first_order``).  Each
    formula below is then one einsum of array jets with the product rule,
    with d(M^-1) = -M^-1 dM M^-1 for the inverses of F and g:

    * structure coefficients [e_i, e_j] = C^k_ij e_k, and e_k g_ij;
    * the lowered connection omega_lij = g(nabla_i e_j, e_l) and
      omega^m_ij = g^ml omega_lij;
    * (nabla_k p)_ij = e_k p_ij - omega^m_ki p_mj - omega^m_kj p_im;
    * R(e_i, e_j) e_q = Rup^l_qij e_l with
      Rup^l_qij = A^l_qij - A^l_qji - C^m_ij omega^l_mq and
      A^l_qij = e_i omega^l_jq + omega^l_im omega^m_jq, where e_i omega
      comes from the chart derivatives of the omega jet.
    """
    G, P, F = data.jets(coords3, order=2)
    leaf = _coords_leaf(coords3)
    F, dF = _first_order(F, leaf)
    Fv = F[0]

    # [e_i, e_j]^b = F_i^a d_a F_j^b - F_j^a d_a F_i^b, then C^k_ij
    com = _product("ia...,ajb...->ijb...", F, dF)
    com = com - np.swapaxes(com, 1, 2)
    C = _product("ijb...,bk...->ijk...", com, _inverse(F))

    g, dg = _first_order(G, leaf)
    Dg = _product("ka...,aij...->kij...", F, dg)     # e_k g_ij
    CG = _product("ijk...,kl...->ijl...", C, g)      # g([e_i, e_j], e_l)
    om_low = 0.5 * (np.einsum("sijl...->slij...", Dg)
                    + np.einsum("sjil...->slij...", Dg) - Dg
                    + np.einsum("sijl...->slij...", CG)
                    - np.einsum("silj...->slij...", CG)
                    - np.einsum("sjli...->slij...", CG))
    ginv = _inverse(g)
    om = _product("ml...,lij...->mij...", ginv, om_low)

    omv, Cv, gv, ginv_v = om[0], C[0], g[0], ginv[0]
    pv = _leaf_array(P, value, leaf)

    nabla_p = frame_derivative(Fv, P) \
        - np.einsum("mki...,mj...->kij...", omv, pv) \
        - np.einsum("mkj...,im...->kij...", omv, pv)
    A = np.einsum("iljq...->lqij...", _frame_apply(Fv, om[1:])) \
        + np.einsum("lim...,mjq...->lqij...", omv, omv)
    Rup = A - np.swapaxes(A, 2, 3) \
        - np.einsum("ijm...,lmq...->lqij...", Cv, omv)
    riem = np.einsum("pl...,lqij...->pqij...", gv, Rup)
    scalar = np.einsum("ik...,jl...,ijkl...->...", ginv_v, ginv_v, riem)

    return {
        "g": gv, "p": pv, "ginv": ginv_v, "F": Fv,
        "C": Cv, "omega": omv, "nabla_p": nabla_p,
        "riem": riem, "scalar": scalar,
    }


def constraint_quantities(data, coords3):
    """Energy density mu, momentum density varpi_j, antisymmetry current
    sigma_j, built with the Levi-Civita connection of g."""
    b = frame_geometry(data, coords3)
    gi, p, np_ = b["ginv"], b["p"], b["nabla_p"]
    trp = np.einsum("ij...,ij...->...", gi, p)
    pupup = np.einsum("ia...,jb...,ij...,ab...->...", gi, gi, p, p)
    mu = 0.5 * (b["scalar"] + trp * trp - pupup)
    varpi = np.einsum("ai...,aji...->j...", gi, np_) \
        - np.einsum("ab...,jab...->j...", gi, np_)
    q = np_ - np.swapaxes(np_, 1, 2)
    sigma = 2.0 * np.einsum("aj...,aji...->i...", gi, q)
    return ConstraintQuantities(mu, varpi, sigma)


def rigidity_residual(data, coords3):
    """Norms of the three equality-case identities: the Gauss-type curvature
    identity, the Codazzi-type first-derivative identity, and the divergence
    of the antisymmetric part of p."""
    b = frame_geometry(data, coords3)
    p, gi, np_ = b["p"], b["ginv"], b["nabla_p"]
    t1 = b["riem"] + np.einsum("ik...,jl...->ijkl...", p, p) \
        - np.einsum("il...,jk...->ijkl...", p, p)
    r1 = np.sqrt(np.sum(t1 * t1, axis=(0, 1, 2, 3)))
    t2 = np_ - np.swapaxes(np_, 0, 1)
    r2 = np.sqrt(np.sum(t2 * t2, axis=(0, 1, 2)))
    q = np_ - np.swapaxes(np_, 1, 2)
    t3 = np.einsum("aj...,aji...->i...", gi, q)
    r3 = np.sqrt(np.sum(t3 * t3, axis=0))
    return r1, r2, r3
