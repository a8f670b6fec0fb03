"""Test-only constructions shared by several test modules."""

import numpy as np

from admbondi import jets
from admbondi.geometry import InitialData


def rotated_data(data, Q):
    """The same physical data expressed in a rotated Cartesian chart x' = Qx.

    Frame components transform as g' = Q g Q^T evaluated at the pre-image
    point; charges computed from the rotated data satisfy E' = E, P' = Q P.
    """
    assert data.frame.kind == "euclidean"
    Q = np.asarray(Q, dtype=float)
    Qi = Q.T  # inverse of a rotation

    def gp(coords):
        r, th, ps = coords
        st, ct = jets.sin(th), jets.cos(th)
        n = [st * jets.cos(ps), st * jets.sin(ps), ct]
        m = [sum(Qi[a][b] * n[b] for b in range(3)) for a in range(3)]
        th0 = jets.arccos(m[2])
        ps0 = jets.arctan2(m[1], m[0])
        G, P = data.gp([r, th0, ps0])
        Gp = [[sum(Q[i][a] * Q[j][b] * G[a][b] for a in range(3)
                   for b in range(3)) for j in range(3)] for i in range(3)]
        Pp = [[sum(Q[i][a] * Q[j][b] * P[a][b] for a in range(3)
                   for b in range(3)) for j in range(3)] for i in range(3)]
        return Gp, Pp

    return InitialData(gp, data.frame, name=f"rotated[{data.name}]")
