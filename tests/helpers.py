"""Test-only constructions shared by several test modules."""

import numpy as np

from admbondi import jets
from admbondi.geometry import InitialData
from admbondi.jets import Jet


def same_bits(x, y):
    """Equal values with equal signs of zero."""
    return np.array_equal(x, y) and np.array_equal(np.signbit(x),
                                                   np.signbit(y))


# The jet rules below call the structural-zero helpers as attributes of
# ``jets``, so the ``dense_arithmetic`` fixture reaches them too.

def arccos(x):
    return jets._dispatch(x, np.arccos, _arccos_jet)


def _arccos_jet(j):
    v = j.f
    w = 1.0 - v * v
    f1 = -(w ** -0.5)
    return j._chain(arccos(v), f1, None if j.dd is None else v * f1 / w)


def arctan2(y, x):
    """Two-argument arctangent; correct away from the branch cut."""
    jy, jx = isinstance(y, Jet), isinstance(x, Jet)
    if not jy and not jx:
        return np.arctan2(y, x)
    if jy and not jx:
        k = len(y.d)
        x = Jet(x, [0.0] * k, None if y.dd is None else [[0.0] * k for _ in range(k)])
    elif jx and not jy:
        k = len(x.d)
        y = Jet(y, [0.0] * k, None if x.dd is None else [[0.0] * k for _ in range(k)])
    add, sub, mul, div = jets.add, jets.sub, jets.mul, jets.div
    fy, fx = y.f, x.f
    h = fx * fx + fy * fy
    k = len(y.d)
    d = [div(sub(mul(fx, y.d[i]), mul(fy, x.d[i])), h) for i in range(k)]
    dd = None
    if y.dd is not None:
        fx2, fy2 = 2.0 * fx, 2.0 * fy

        def entry(i, j):
            dN = sub(sub(add(mul(x.d[j], y.d[i]), mul(fx, y.dd[i][j])),
                         mul(y.d[j], x.d[i])), mul(fy, x.dd[i][j]))
            dh = add(mul(fx2, x.d[j]), mul(fy2, y.d[j]))
            return div(sub(dN, mul(d[i], dh)), h)
        dd = jets._sym2(entry, k)
    return Jet(arctan2(fy, fx), d, dd)


def from_gp(gp, frame, name="data"):
    """InitialData from one closed-form evaluator of the pair (g, p); the
    evaluators ignore the frame that ``InitialData`` hands them, and g hands
    p no intermediates."""
    return InitialData(lambda c, F: (gp(c)[0], None),
                       lambda c, F, S: gp(c)[1], frame, name)


def rotated_data(data, Q):
    """The same physical data expressed in a rotated Cartesian chart x' = Qx.

    Frame components transform as g' = Q g Q^T evaluated at the pre-image
    point, with the frame there; charges computed from the rotated data
    satisfy E' = E, P' = Q P.
    """
    assert data.frame.kind == "euclidean"
    Q = np.asarray(Q, dtype=float)
    Qi = Q.T  # inverse of a rotation

    def at_preimage(evaluator, coords, *S):
        """The evaluator at the pre-image of coords, with the frame there."""
        r, th, ps = coords
        st, ct = jets.sin(th), jets.cos(th)
        n = [st * jets.cos(ps), st * jets.sin(ps), ct]
        m = [sum(Qi[a][b] * n[b] for b in range(3)) for a in range(3)]
        pre = [r, arccos(m[2]), arctan2(m[1], m[0])]
        return evaluator(pre, data.frame.components(pre), *S)

    def rotate(T):
        return [[sum(Q[i][a] * Q[j][b] * T[a][b] for a in range(3)
                     for b in range(3)) for j in range(3)] for i in range(3)]

    def g(coords, F):
        G, S = at_preimage(data.g, coords)
        return rotate(G), S

    def p(coords, F, S):
        return rotate(at_preimage(data.p, coords, S))

    return InitialData(g, p, data.frame, name=f"rotated[{data.name}]")
