"""Radius-ladder extrapolation and decay-order fits.

Limit-defining surface integrals are sampled on an increasing finite ladder
of radii and extrapolated to infinity through every rung: the polynomial in
1/r of degree n - 1 through the n samples, evaluated at 1/r = 0 (Richardson
extrapolation), with an error estimate; decay orders are log-log slope fits
of sup-norms.  A sample that is not finite stops either fit with DomainError
naming its radius.  The extrapolated energy-momenta are judged by one causal
margin.

The charges at spatial and at null infinity share one path: ``fit_ladder``
fits rung-first samples, rounded relative to ``unit_samples``, into the
LadderFits of a ``Charges`` record, which ``fit_field`` reads as arrays.

A whole ladder is evaluated in one layout, ``rung_axes``: r on the leading
axis against the sphere grid's theta column and psi row, in the blocks of
theta rows that ``rung_blocks`` gives (``ladder_integrands`` is that loop);
``rung_sups`` reduces it to one sup-norm per rung.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

__all__ = ["LadderFit", "DecayFit", "Charges", "extrapolation_weights",
           "fit_inverse_powers", "fit_ladder", "fit_field", "unit_samples",
           "fit_decay_exponent", "fit_pair_decay", "slowest_order",
           "ladder_map", "check_ladder", "rung_axes", "rung_blocks",
           "ladder_integrands", "rung_sups", "causal_margin"]

EXACT_ZERO_FLOOR = 1e-13
EPS = np.finfo(float).eps
# chart points per ladder evaluation: one rung of the 48 x 96 grid
RUNG_BLOCK_POINTS = 48 * 96


@dataclass
class LadderFit:
    """Extrapolated limit of per-radius samples with diagnostics."""

    value: float
    samples: tuple
    error: float              # estimate of |value - limit|
    diverging: bool           # samples still drifting at the largest rungs


@dataclass
class DecayFit:
    """Log-log slope of sup-norms over a radius ladder."""

    exponent: float           # inf means identically zero on the ladder
    residual: float
    exact: bool               # exactly when exponent is inf
    sups: tuple = field(default=())


@dataclass
class Charges:
    """Energy and momentum LadderFits, nested like the trailing axes of
    their samples (``fit_ladder``); E and P are their values."""

    energy: object            # a LadderFit, or a tuple of them
    momentum: tuple

    @property
    def E(self):
        return fit_field(self.energy, "value")

    @property
    def P(self):
        return fit_field(self.momentum, "value")


def check_ladder(radii, minimum=3):
    radii = [float(r) for r in radii]
    if len(radii) < minimum:
        raise ConfigError(f"radius ladder {radii} needs >= {minimum} rungs, "
                          f"got {len(radii)}")
    if not all(0.0 < r < np.inf for r in radii):
        raise ConfigError(f"radius ladder {radii}: every rung must be finite "
                          f"and positive")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError(f"radius ladder must be strictly increasing: {radii}")
    return radii


def causal_margin(x):
    """x_0 - |x_vec| over the last axis of the 4-vectors x: nonnegative iff x
    is future-directed causal (or zero); a NaN component gives NaN."""
    x = np.asarray(x, dtype=float)
    return x[..., 0] - np.sqrt(np.sum(x[..., 1:] ** 2, axis=-1))


def _finite(radii, samples, what):
    """The samples as floats; DomainError at the radius of the first one that
    is not finite, which no fit may read as converging or as exact zero."""
    s = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(s)):
        k = int(np.argmin(np.isfinite(s)))
        raise DomainError(f"non-finite {what} {s[k]} at radius {radii[k]:g}")
    return s


@functools.cache
def extrapolation_weights(radii):
    """The weights w_k of the samples y_k whose sum w . y is the polynomial
    in 1/r through every rung of the ladder ``radii`` (a tuple), evaluated
    at 1/r = 0: the Lagrange weights prod_{j != k} r_k / (r_k - r_j).
    One read-only array per ladder."""
    w = np.array([np.prod([rk / (rk - rj) for rj in radii if rj != rk])
                  for rk in radii])
    w.flags.writeable = False
    return w


def fit_inverse_powers(radii, samples, scale):
    """Extrapolation of samples y_k at the n rungs r_k through all of them:
    A = w . y, the polynomial in 1/r of degree n - 1 through the samples at
    1/r = 0, with an error estimate, the sum of two terms:

    * truncation: |A - A'|, A' the extrapolation through every rung but the
      innermost.  That is the truncation error of A', which bounds the one
      of A while the 1/r series converges on the ladder.  Samples whose
      successive differences more than double along the ladder, by more
      than their rounding, show no limit; their truncation term is
      sum_k |w_k y_k|, which bounds |A|.
    * rounding: n eps sum_k |w_k| s_k, a dot product's bound with s_k =
      max(|y_k|, scale_k).  ``scale``, one magnitude per rung, is what a
      sample is rounded relative to when it cancels below it: the sample
      that an integrand of unit size gives, for integrands that cancel
      terms of order 1; 0 for samples rounded relative to themselves.

    Flags divergence on those same samples, whose differences grow by more
    than n eps max_k s_k, the rounding of the largest of them."""
    radii = tuple(check_ladder(radii))
    y = _finite(radii, samples, "sample")
    w = extrapolation_weights(radii)
    value = math.fsum(w * y)
    s = np.maximum(np.abs(y), scale)
    rounding = len(y) * EPS * float(np.abs(w) @ s)
    # converging samples have shrinking successive differences on an
    # increasing ladder; growing tail differences mean no limit is in sight
    d = np.abs(np.diff(y))
    diverging = bool(d[-1] > 2.0 * d[0] + len(y) * EPS * np.max(s))
    if diverging:
        truncation = float(np.abs(w) @ np.abs(y))
    else:
        truncation = abs(value - math.fsum(extrapolation_weights(radii[1:])
                                           * y[1:]))
    return LadderFit(value, tuple(y), truncation + rounding, diverging)


def fit_ladder(radii, samples, scale):
    """``fit_inverse_powers`` of each component of the rung-first
    ``samples``, as LadderFits nested in tuples like ``samples.shape[1:]``."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        return fit_inverse_powers(radii, samples, scale)
    return tuple(fit_ladder(radii, s, scale) for s in samples.swapaxes(0, 1))


def fit_field(fits, name):
    """The field ``name`` of nested LadderFits as an array of the nesting's
    shape, with one more axis for the samples."""
    if isinstance(fits, LadderFit):
        return np.asarray(getattr(fits, name))[()]
    return np.array([fit_field(f, name) for f in fits])


def unit_samples(radii, power, c):
    """4 pi r^power / c at each rung: the sample of a unit integrand, which
    sets the rounding of integrands that cancel the background's terms."""
    return 4.0 * np.pi * np.asarray(radii, dtype=float) ** power / c


def fit_decay_exponent(radii, sups, zero_floor=EXACT_ZERO_FLOOR):
    """tau-hat from sup-norm samples; reports exact zero below the floor.

    A non-finite sample raises DomainError: it is not below the floor, and
    counting it as an exact zero would pass a decay check vacuously.
    """
    radii = np.asarray(check_ladder(radii, minimum=2), dtype=float)
    s = _finite(radii, sups, "sup-norm")
    keep = s > zero_floor
    if keep.sum() < 2:
        return DecayFit(np.inf, 0.0, True, tuple(s))
    lr, ls = np.log(radii[keep]), np.log(s[keep])
    slope, intercept = np.polyfit(lr, ls, 1)
    resid = float(np.max(np.abs(slope * lr + intercept - ls)))
    return DecayFit(float(-slope), resid, False, tuple(s))


def slowest_order(fits):
    """(name, exponent) of the first slowest-decaying of the named DecayFits;
    ("exact", inf) when every fit is exact or there are none."""
    return min([("exact", np.inf)] + [(k, f.exponent) for k, f in fits.items()],
               key=lambda item: item[1])


def fit_pair_decay(radii, pair, letters, zero_floor):
    """``fit_decay_exponent`` of each component <letter><i><j>, i <= j, of a
    pair of symmetric tensors on ``rung_axes`` points, in ``letters`` order."""
    sups = rung_sups(np.stack(pair))
    return {f"{t}{i + 1}{j + 1}": fit_decay_exponent(radii, sups[a, i, j],
                                                     zero_floor)
            for a, t in enumerate(letters) for i in range(3)
            for j in range(i, 3)}


def ladder_map(fn, radii):
    """Evaluate fn(r) for each rung, in ladder order."""
    return [fn(r) for r in radii]


def rung_axes(radii, theta, psi):
    """Chart points (r, theta, psi) of a whole ladder in one leaf: the radii
    on a leading axis against the theta column and psi row of ``grid.axes()``
    (or a block of its rows), so work on the angles alone runs once for all
    rungs.  Leaf index [k], raveled, is rung k at the nodes in node order."""
    return [np.asarray(radii, dtype=float)[:, None, None], theta, psi]


def rung_blocks(n_rungs, grid):
    """Consecutive slices of the grid's theta rows, each evaluated for all
    ``n_rungs`` rungs at once on ``rung_axes(radii, theta[rows], psi)``.

    They are the fewest blocks that hold RUNG_BLOCK_POINTS chart points
    (rungs x rows x n_psi) on average, split as evenly as whole rows allow,
    with at least one row each: a block of several rows holds less than
    RUNG_BLOCK_POINTS plus one row.  Five rungs of 48 x 24 give two
    blocks of 24 rows, four or five rungs of 24 x 24 one block, and five
    rungs of 48 x 96 five blocks of 9-10 rows."""
    total = n_rungs * grid.n_theta * grid.n_psi
    n = min(grid.n_theta, -(-total // RUNG_BLOCK_POINTS))
    return [slice(int(b[0]), int(b[-1]) + 1)
            for b in np.array_split(np.arange(grid.n_theta), n)]


def ladder_integrands(radii, grid, integrands):
    """The rung-first arrays that ``integrands(rung_axes(radii, theta[rows],
    psi))`` returns for each block of ``rung_blocks``, assembled over the
    grid; a block's arrays are freed before the next block is evaluated."""
    theta, psi = grid.axes()
    out = []
    for rows in rung_blocks(len(radii), grid):
        block = integrands(rung_axes(radii, theta[rows], psi))
        out = out or [np.empty(b.shape[:-2] + grid.shape) for b in block]
        for whole, part in zip(out, block):
            whole[..., rows, :] = part
        del block, part
    return out


def rung_sups(x):
    """max |x| over the (theta, psi) nodes, the last two axes of x; the
    result ends in one axis per rung.  np.max keeps a NaN, which the builtin
    max would drop."""
    return np.max(np.abs(x), axis=(-2, -1))
