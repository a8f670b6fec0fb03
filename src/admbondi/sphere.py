"""Sampling and quadrature on the unit sphere.

Nodes are a tensor product of Gauss-Legendre points in cos(theta) with a
uniform grid in psi.  Both pole rows are excluded by construction, which keeps
cot(theta) and csc(theta) factors of downstream angular fields finite at every
node.  The quadrature integrates cos^k(theta) cos(m psi) and
cos^k(theta) sin(m psi) exactly for k <= 2 n_theta - 1 and m < n_psi, hence
products of spherical polynomials up to degree n_theta - 1 in cos(theta) and
Fourier modes up to n_psi/2 - 1.

A field that depends on theta or psi alone can be evaluated on the grid's
axes (``SphereGrid.axes``), once per latitude or per meridian, and broadcast
to the nodes.  Every command of a process shares one grid per resolution;
the direction functions are still built per call (until ROADMAP item 2).
Every charge is a moment against them, taken by ``integrate``.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "SphereGrid", "SphereField",
    "build_grid", "integrate", "project_multipole", "direction_functions",
]


@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature grid on S^2, shared process-wide per resolution."""

    n_theta: int
    n_psi: int
    theta: np.ndarray          # (n_theta,), strictly inside (0, pi), increasing
    psi: np.ndarray            # (n_psi,), uniform on [0, 2*pi)
    weights: np.ndarray        # (n_theta, n_psi), sums to 4*pi

    def axes(self):
        """theta as an (n_theta, 1) column and psi as a (1, n_psi) row.

        They broadcast to ``shape``, whose C order is the node order of
        ``nodes``: a field of the two axes, raveled, is the field at the
        nodes."""
        return self.theta[:, None], self.psi[None, :]

    def nodes(self):
        """Flattened (theta, psi) arrays over all nodes, C-ordered."""
        T, P = np.meshgrid(self.theta, self.psi, indexing="ij")
        return T.ravel(), P.ravel()

    @property
    def shape(self):
        return (self.n_theta, self.n_psi)

    def field(self, values):
        """The samples at every node, flat in node order or shaped like the
        grid, as a SphereField.  This is where samples are checked: a
        non-finite one raises DomainError naming its node."""
        values = np.asarray(values, dtype=float).reshape(self.shape)
        bad = ~np.isfinite(values)
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), self.shape)
            raise DomainError(
                f"sphere field sample {values[i, j]} is not finite at node "
                f"theta={self.theta[i]:.6g}, psi={self.psi[j]:.6g}")
        return SphereField(self, values)


def build_grid(n_theta, n_psi):
    """The Gauss-Legendre x uniform-psi product grid for n_theta >= 2 and
    even n_psi >= 4, checked on every call.  Every command of a process
    shares one grid per resolution (48 and np.int64(48) alike), so its node
    and weight arrays are read-only."""
    if not (isinstance(n_theta, (int, np.integer)) and n_theta >= 2):
        raise ConfigError(f"n_theta must be an integer >= 2, got {n_theta!r}")
    if not (isinstance(n_psi, (int, np.integer)) and n_psi >= 4 and n_psi % 2 == 0):
        raise ConfigError(f"n_psi must be an even integer >= 4, got {n_psi!r}")
    return _shared_grid(int(n_theta), int(n_psi))


@functools.cache
def _gauss_legendre_rows(n_theta):
    """The theta nodes, increasing, and their Gauss-Legendre weights in
    cos theta, computed once per n_theta for every grid of that many rows."""
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    return np.arccos(x)[::-1].copy(), wx[::-1]


@functools.cache
def _shared_grid(n_theta, n_psi):
    theta, wx = _gauss_legendre_rows(n_theta)
    psi = np.arange(n_psi) * (2.0 * np.pi / n_psi)
    weights = np.outer(wx, np.full(n_psi, 2.0 * np.pi / n_psi))
    # one grid is shared by every command of a process: none may write to it
    for a in (theta, psi, weights):
        a.flags.writeable = False
    return SphereGrid(n_theta, n_psi, theta, psi, weights)


class SphereField:
    """Real scalar samples on a SphereGrid, as an array of the grid's shape.

    Build one with ``grid.field``, which checks the samples; the constructor
    only stores what it is given.
    """

    def __init__(self, grid, values):
        self.grid = grid
        self.values = values


def direction_functions(grid):
    """The four direction functions n^0..n^3 on the grid as one
    (4, n_theta, n_psi) array: n^0 = 1, n^1 = sin(theta) cos(psi),
    n^2 = sin(theta) sin(psi), n^3 = cos(theta)."""
    T, P = np.meshgrid(grid.theta, grid.psi, indexing="ij")
    st = np.sin(T)
    n = np.empty((4,) + grid.shape)
    n[0] = 1.0
    np.multiply(st, np.cos(P), out=n[1])
    np.multiply(st, np.sin(P), out=n[2])
    np.cos(T, out=n[3])
    return n


def integrate(grid, values):
    """Quadrature over S^2 (weights include sin(theta)) of samples whose
    last two axes are the grid's (theta, psi), over any leading axes (rungs,
    components, nu); each slice is summed bit for bit as on its own."""
    return np.sum(grid.weights * values, axis=(-2, -1))


def project_multipole(f, nu):
    """(1/4pi) * integral of the SphereField f times n^nu over the sphere."""
    if nu not in (0, 1, 2, 3):
        raise ValueError(f"multipole index must be 0..3, got {nu!r}")
    n = direction_functions(f.grid)[nu]
    return integrate(f.grid, f.values * n) / (4.0 * np.pi)
