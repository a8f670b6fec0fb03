"""Radius-ladder extrapolation and decay-order fits.

Limit-defining surface integrals are sampled on an increasing finite ladder
of radii and extrapolated to infinity with a least-squares fit of
A + B/r + C/r^2; decay orders are log-log slope fits of sup-norms.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

__all__ = ["LadderFit", "DecayFit", "fit_inverse_powers", "fit_decay_exponent",
           "ladder_map", "check_ladder"]

EXACT_ZERO_FLOOR = 1e-13


@dataclass
class LadderFit:
    """Extrapolated limit of per-radius samples with diagnostics."""

    value: float
    radii: tuple
    samples: tuple
    coefficients: tuple       # (A, B, C, ...)
    residual: float           # rms misfit of the model on the rungs
    diverging: bool           # samples still drifting at the largest rungs

    def as_dict(self):
        return {
            "value": self.value,
            "radii": list(self.radii),
            "samples": list(self.samples),
            "coefficients": list(self.coefficients),
            "residual": self.residual,
            "diverging": self.diverging,
        }


@dataclass
class DecayFit:
    """Log-log slope of sup-norms over a radius ladder."""

    exponent: float           # inf means identically zero on the ladder
    residual: float
    exact: bool
    sups: tuple = field(default=())

    def as_dict(self):
        return {"exponent": self.exponent, "residual": self.residual,
                "exact": self.exact, "sups": list(self.sups)}


def check_ladder(radii, minimum=3):
    radii = [float(r) for r in radii]
    if len(radii) < minimum:
        raise ConfigError(f"radius ladder needs >= {minimum} rungs, got {len(radii)}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError(f"radius ladder must be strictly increasing: {radii}")
    return radii


def fit_inverse_powers(radii, samples, n_terms=3):
    """Least-squares fit of samples(r) ~ A + B/r + C/r^2; returns A with
    diagnostics.  Flags divergence when the tail of the samples is still
    moving away from the fitted limit."""
    radii = np.asarray(check_ladder(radii), dtype=float)
    y = np.asarray(samples, dtype=float)
    cols = [radii ** (-k) for k in range(n_terms)]
    M = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(M, y, rcond=None)
    fitted = M @ coef
    resid = float(np.sqrt(np.mean((fitted - y) ** 2)))
    # converging samples have shrinking successive differences on an
    # increasing ladder; growing tail differences mean no limit is in sight
    d = np.abs(np.diff(y))
    diverging = bool(len(y) >= 3 and d[-1] > 2.0 * d[0] + 1e-13
                     and d[-1] > 1e-12)
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


def ladder_map(fn, radii):
    """Evaluate fn(r) for each rung; optionally threaded via CHARGES_THREADS.

    Results are always assembled in ladder order, so the reduction is
    deterministic regardless of the thread count.
    """
    radii = list(radii)
    workers = int(os.environ.get("CHARGES_THREADS", "1") or "1")
    if workers <= 1 or len(radii) <= 1:
        return [fn(r) for r in radii]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, radii))
