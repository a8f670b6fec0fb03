"""Sampling, quadrature and angular differentiation on the unit sphere.

Nodes are a tensor product of Gauss-Legendre points in cos(theta) with a
uniform grid in psi.  Both pole rows are excluded by construction, which keeps
cot(theta) and csc(theta) factors of downstream angular fields finite at every
node.  The quadrature integrates cos^k(theta) cos(m psi) and
cos^k(theta) sin(m psi) exactly for k <= 2 n_theta - 1 and m < n_psi, hence
products of spherical polynomials up to degree n_theta - 1 in cos(theta) and
Fourier modes up to n_psi/2 - 1.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "SphereGrid", "SphereField",
    "build_grid", "integrate", "project_multipole", "angular_derivative",
    "direction_functions",
]

_STENCIL = 9  # 8th-order local polynomial fit for theta derivatives


def _fd_weights(x, x0, m):
    """Fornberg weights for the m-th derivative at x0 on arbitrary nodes x."""
    n = len(x)
    w = np.zeros((m + 1, n))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = ((x[i] - x0) * w[k, j] - k * w[k - 1, j]) / c3
            w[0, j] = (x[i] - x0) * w[0, j] / c3
        c1 = c2
    return w[m]


@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature grid on S^2; immutable and shareable."""

    n_theta: int
    n_psi: int
    theta: np.ndarray          # (n_theta,), strictly inside (0, pi), increasing
    psi: np.ndarray            # (n_psi,), uniform on [0, 2*pi)
    weights: np.ndarray        # (n_theta, n_psi), sums to 4*pi

    def nodes(self):
        """Flattened (theta, psi) arrays over all nodes, C-ordered."""
        T, P = np.meshgrid(self.theta, self.psi, indexing="ij")
        return T.ravel(), P.ravel()

    @cached_property
    def _dtheta(self):
        """theta-derivative matrix, built on the first angular_derivative."""
        return _theta_derivative_matrix(self.theta)

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

    Requires n_theta >= 2 and even n_psi >= 4.
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
    return SphereGrid(int(n_theta), int(n_psi), theta, psi, weights)


def _theta_derivative_matrix(theta):
    n = len(theta)
    width = min(_STENCIL, n)
    D = np.zeros((n, n))
    for i in range(n):
        lo = min(max(0, i - width // 2), n - width)
        idx = np.arange(lo, lo + width)
        D[i, idx] = _fd_weights(theta[idx], theta[i], 1)
    return D


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

    def __sub__(self, o):
        v = o.values if isinstance(o, SphereField) else o
        return SphereField(self.grid, self.values - v)

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


def angular_derivative(f, axis):
    """Differentiate a field in theta (local 8th-order fit) or psi (spectral)."""
    if axis in ("theta", 2):
        return SphereField(f.grid, f.grid._dtheta @ f.values)
    if axis in ("psi", 3):
        n_psi = f.grid.n_psi
        spec = np.fft.rfft(f.values, axis=1)
        m = np.arange(spec.shape[1])
        fac = 1j * m
        if n_psi % 2 == 0:
            fac[-1] = 0.0  # Nyquist mode has no well-defined odd derivative
        return SphereField(f.grid, np.fft.irfft(spec * fac, n=n_psi, axis=1))
    raise ValueError(f"axis must be 'theta' or 'psi', got {axis!r}")
