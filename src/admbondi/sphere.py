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
to the nodes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "SphereGrid", "SphereField",
    "build_grid", "integrate", "project_multipole", "direction_functions",
]


@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature grid on S^2; immutable and shareable."""

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
    """Build the Gauss-Legendre x uniform-psi product grid.

    Requires n_theta >= 2 and even n_psi >= 4.  The node and weight arrays
    are read-only.
    """
    if not (isinstance(n_theta, (int, np.integer)) and n_theta >= 2):
        raise ConfigError(f"n_theta must be an integer >= 2, got {n_theta!r}")
    if not (isinstance(n_psi, (int, np.integer)) and n_psi >= 4 and n_psi % 2 == 0):
        raise ConfigError(f"n_psi must be an even integer >= 4, got {n_psi!r}")
    x, wx = np.polynomial.legendre.leggauss(int(n_theta))
    theta = np.arccos(x)[::-1].copy()          # increasing in theta
    w_theta = wx[::-1].copy()
    psi = np.arange(n_psi) * (2.0 * np.pi / n_psi)
    weights = np.outer(w_theta, np.full(n_psi, 2.0 * np.pi / n_psi))
    # one grid is shared by every check of a run: no caller may write to it
    for a in (theta, psi, weights):
        a.flags.writeable = False
    return SphereGrid(int(n_theta), int(n_psi), theta, psi, weights)


class SphereField:
    """Real scalar samples on a SphereGrid, as an array of the grid's shape.

    Build one with ``grid.field``, which checks the samples; the constructor
    and the arithmetic only store what they are given.
    """

    def __init__(self, grid, values):
        self.grid = grid
        self.values = values

    def __add__(self, o):
        v = o.values if isinstance(o, SphereField) else o
        return SphereField(self.grid, self.values + v)

    def __mul__(self, o):
        v = o.values if isinstance(o, SphereField) else o
        return SphereField(self.grid, self.values * v)

    __rmul__ = __mul__


def direction_functions(grid):
    """The four direction functions n^0..n^3 as SphereFields on the grid:
    n^0 = 1, n^1 = sin(theta) cos(psi), n^2 = sin(theta) sin(psi),
    n^3 = cos(theta)."""
    T, P = np.meshgrid(grid.theta, grid.psi, indexing="ij")
    st = np.sin(T)
    return (
        SphereField(grid, np.ones_like(T)),
        SphereField(grid, st * np.cos(P)),
        SphereField(grid, st * np.sin(P)),
        SphereField(grid, np.cos(T)),
    )


def integrate(f):
    """Quadrature of a SphereField over S^2 (weight includes sin(theta))."""
    return float(np.sum(f.grid.weights * f.values))


def project_multipole(f, nu):
    """(1/4pi) * integral of f * n^nu over the sphere."""
    if nu not in (0, 1, 2, 3):
        raise ValueError(f"multipole index must be 0..3, got {nu!r}")
    n = direction_functions(f.grid)[nu]
    return integrate(f * n) / (4.0 * np.pi)
