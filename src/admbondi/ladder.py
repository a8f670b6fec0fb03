"""Radius-ladder extrapolation and decay-order fits.

Limit-defining surface integrals are sampled on an increasing finite ladder
of radii and extrapolated to infinity with a least-squares fit of
A + B/r + C/r^2; decay orders are log-log slope fits of sup-norms.  The
extrapolated energy-momenta are judged by one causal margin.

A whole ladder is evaluated in one layout, ``rung_axes``: r on the leading
axis against the sphere grid's theta column and psi row, in the blocks of
theta rows that ``rung_blocks`` gives (``ladder_integrands`` is that loop);
``rung_sups`` reduces it to one sup-norm per rung.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

__all__ = ["LadderFit", "DecayFit", "fit_inverse_powers", "fit_decay_exponent",
           "slowest_order", "ladder_map", "check_ladder", "rung_axes",
           "rung_blocks", "ladder_integrands", "rung_sups", "causal_margin"]

EXACT_ZERO_FLOOR = 1e-13
# chart points per ladder evaluation: one rung of the 48 x 96 grid
RUNG_BLOCK_POINTS = 48 * 96


@dataclass
class LadderFit:
    """Extrapolated limit of per-radius samples with diagnostics."""

    value: float
    radii: tuple
    samples: tuple
    coefficients: tuple       # (A, B, C, ...)
    residual: float           # rms misfit of the model on the rungs
    diverging: bool           # samples still drifting at the largest rungs


@dataclass
class DecayFit:
    """Log-log slope of sup-norms over a radius ladder."""

    exponent: float           # inf means identically zero on the ladder
    residual: float
    exact: bool               # exactly when exponent is inf
    sups: tuple = field(default=())


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


def fit_inverse_powers(radii, samples):
    """Least-squares fit of samples(r) ~ A + B/r + C/r^2; returns A with
    diagnostics.  Flags divergence when the tail of the samples is still
    moving away from the fitted limit."""
    radii = np.asarray(check_ladder(radii), dtype=float)
    y = np.asarray(samples, dtype=float)
    cols = [radii ** (-k) for k in range(3)]
    M = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(M, y, rcond=None)
    fitted = M @ coef
    resid = float(np.sqrt(np.mean((fitted - y) ** 2)))
    # converging samples have shrinking successive differences on an
    # increasing ladder; growing tail differences mean no limit is in sight
    d = np.abs(np.diff(y))
    diverging = bool(d[-1] > 2.0 * d[0] + 1e-13 and d[-1] > 1e-12)
    return LadderFit(float(coef[0]), tuple(radii), tuple(y), tuple(coef),
                     resid, diverging)


def fit_decay_exponent(radii, sups, zero_floor=EXACT_ZERO_FLOOR):
    """tau-hat from sup-norm samples; reports exact zero below the floor.

    A non-finite sample raises DomainError: it is not below the floor, and
    counting it as an exact zero would pass a decay check vacuously.
    """
    radii = np.asarray(check_ladder(radii, minimum=2), dtype=float)
    s = np.asarray(sups, dtype=float)
    bad = ~np.isfinite(s)
    if bad.any():
        k = int(np.argmax(bad))
        raise DomainError(f"non-finite sup-norm {s[k]} at radius {radii[k]:g}")
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
    RUNG_BLOCK_POINTS plus one row.  Five rungs of 48 x 96 give five
    blocks of 9-10 rows, four rungs of 24 x 48 one block."""
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
