"""Named scenario presets and the configuration record driving them.

Preset names addressable from the command line: "minkowski",
"schwarzschild", "kerr", "bondi-schwarzschild", "bondi-quadrupole"
(c = A u sin^2 theta, d = 0) and "bondi-biaxial" (both news on,
psi-dependent, with all subleading coefficients exercised).

News can also be given as a table of real harmonic coefficients on a u-grid.
The m = 0 basis functions are differences P_{l-2} - P_l of Legendre
polynomials, which vanish at both poles, so the polar-average condition
holds for every table by construction; m != 0 modes average to zero in psi.
"""

from dataclasses import dataclass, field as dfield
from typing import Optional

import numpy as np

from . import jets
from .bondi import BondiExpansion
from .errors import ConfigError
from .geometry import euclidean_frame, pullback_initial_data
from .spacetimes import (KerrParameters, kerr, minkowski, schwarzschild,
                         t_const_embedding)

__all__ = ["ScenarioConfig", "PRESETS", "make_expansion", "make_metric",
           "make_adm_data", "harmonic_basis", "harmonic_news", "make_a3"]

PRESETS = ("minkowski", "schwarzschild", "kerr", "bondi-schwarzschild",
           "bondi-quadrupole", "bondi-biaxial")

ADM_PRESETS = ("minkowski", "schwarzschild", "kerr")
BONDI_PRESETS = ("bondi-schwarzschild", "bondi-quadrupole", "bondi-biaxial")


@dataclass
class ScenarioConfig:
    preset: str = "schwarzschild"
    mass: float = 1.0
    spin: float = 0.5
    amplitude: float = 0.1
    amplitude_d: float = 0.05
    news_zero_u: Optional[float] = None
    mass_aspect: str = "constant"       # "constant" | "tilted"
    a3_amplitude: float = 0.0
    n_theta: int = 48
    n_psi: int = 96
    radii: tuple = ()
    u0: float = 0.0
    u_start: float = 0.0
    u_end: float = 10.0
    du: float = 0.01
    tolerance_scale: float = 1.0
    strict: bool = True
    news_table: Optional[dict] = None   # {"u_grid": array, (l, m): array}
    defaulted_fields: tuple = dfield(default=())

    def validate(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; choose from {PRESETS}")
        if self.mass_aspect not in ("constant", "tilted"):
            raise ConfigError(f"unknown mass_aspect {self.mass_aspect!r}")
        for name in ("mass", "spin", "amplitude", "amplitude_d"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.tolerance_scale <= 0:
            raise ConfigError("tolerance_scale must be positive")
        if self.radii:
            if list(self.radii) != sorted(set(self.radii)):
                raise ConfigError(f"radius ladder must be strictly increasing: "
                                  f"{list(self.radii)}")
        return self


# ---------------------------------------------------------------------------
# Harmonic basis for news tables
# ---------------------------------------------------------------------------

def _legendre(l, x):
    if l == 0:
        return 1.0 + 0.0 * x
    if l == 1:
        return x
    if l == 2:
        return 1.5 * x * x - 0.5
    if l == 3:
        return 2.5 * x ** 3 - 1.5 * x
    if l == 4:
        return (35.0 * x ** 4 - 30.0 * x * x + 3.0) / 8.0
    raise ConfigError(f"harmonic degree l = {l} not supported (max 4)")


def _assoc_legendre(l, m, x, s):
    """P_l^m(cos theta) without the Condon-Shortley sign, s = sin theta."""
    key = (l, m)
    table = {
        (1, 1): lambda: s,
        (2, 1): lambda: 3.0 * s * x,
        (2, 2): lambda: 3.0 * s * s,
        (3, 1): lambda: 1.5 * s * (5.0 * x * x - 1.0),
        (3, 2): lambda: 15.0 * s * s * x,
        (3, 3): lambda: 15.0 * s ** 3,
        (4, 1): lambda: 2.5 * s * (7.0 * x ** 3 - 3.0 * x),
        (4, 2): lambda: 7.5 * s * s * (7.0 * x * x - 1.0),
        (4, 3): lambda: 105.0 * s ** 3 * x,
        (4, 4): lambda: 105.0 * s ** 4,
    }
    if key not in table:
        raise ConfigError(f"harmonic mode (l={l}, m={m}) not supported")
    return table[key]()


def harmonic_basis(l, m, th, ps):
    """Pole-regular real harmonic basis element for news tables."""
    x = jets.cos(th)
    s = jets.sin(th)
    if m == 0:
        if l < 2:
            raise ConfigError("m = 0 news modes need l >= 2")
        return _legendre(l - 2, x) - _legendre(l, x)
    if m > 0:
        return _assoc_legendre(l, m, x, s) * jets.cos(m * ps)
    return _assoc_legendre(l, -m, x, s) * jets.sin(-m * ps)


def _lagrange_window(u, u_grid, table):
    """Local cubic Lagrange interpolation of a coefficient table, generic
    in u (per-node windows chosen on the leaf values)."""
    uv = np.asarray(jets.value(u), dtype=float)
    n = len(u_grid)
    if n == 1:
        return table[0] + 0.0 * u
    width = min(4, n)
    k = np.clip(np.searchsorted(u_grid, uv) - width // 2, 0, n - width)
    xs = [u_grid[k + j] for j in range(width)]
    ys = [table[k + j] for j in range(width)]
    total = 0.0
    for j in range(width):
        term = ys[j]
        for i in range(width):
            if i != j:
                term = term * ((u - xs[i]) / (xs[j] - xs[i]))
        total = total + term
    return total


def harmonic_news(news_table):
    """Callable (u, theta, psi) from a harmonic coefficient table.

    ``news_table`` maps "u_grid" to the sample times and (l, m) pairs to
    coefficient arrays of the same length; u-dependence is a local cubic
    fit, so jets in u differentiate the interpolant.
    """
    u_grid = np.asarray(news_table["u_grid"], dtype=float)
    modes = [(lm, np.asarray(v, dtype=float)) for lm, v in news_table.items()
             if lm != "u_grid"]
    if any(len(v) != len(u_grid) for _, v in modes):
        raise ConfigError("harmonic table rows must match the u_grid length")

    def fn(u, th, ps):
        out = 0.0 * u + 0.0 * th
        for (l, m), coeffs in modes:
            amp = _lagrange_window(u, u_grid, coeffs)
            out = out + amp * harmonic_basis(l, m, th, ps)
        return out

    return fn


# ---------------------------------------------------------------------------
# Preset builders
# ---------------------------------------------------------------------------

def _mass_aspect(cfg):
    m = cfg.mass
    if cfg.mass_aspect == "tilted":
        def M(u, th, ps):
            return m * (1.0 + 0.2 * jets.cos(th)) + 0.0 * u
    else:
        def M(u, th, ps):
            return m + 0.0 * u
    return M


def make_a3(cfg):
    amp = cfg.a3_amplitude
    if amp == 0.0:
        return None

    def a3(th, ps):
        return amp * jets.sin(th) ** 2 * jets.sin(ps)

    return a3


def make_expansion(cfg):
    """BondiExpansion for the radiating presets (or a news table)."""
    cfg.validate()
    if cfg.news_table is not None:
        c = harmonic_news(cfg.news_table)

        def d(u, th, ps):
            return 0.0 * u
        return BondiExpansion(c=c, d=d, M=_mass_aspect(cfg),
                              name=f"{cfg.preset}-table",
                              u_range=(cfg.u_start, max(cfg.u_end, cfg.u0)))

    name = cfg.preset
    urange = (cfg.u_start, max(cfg.u_end, cfg.u0, cfg.u_start + 1.0))
    if name in ("bondi-schwarzschild", "minkowski", "schwarzschild", "kerr"):
        def zero(u, th, ps):
            return 0.0 * u
        M = _mass_aspect(cfg) if name != "minkowski" else zero
        return BondiExpansion(c=zero, d=zero, M=M,
                              name="bondi-schwarzschild", u_range=urange)
    if name == "bondi-quadrupole":
        A = cfg.amplitude
        z = cfg.news_zero_u if cfg.news_zero_u is not None else 0.0

        def c(u, th, ps):
            return A * (u - z) * jets.sin(th) ** 2

        def d(u, th, ps):
            return 0.0 * u
        return BondiExpansion(c=c, d=d, M=_mass_aspect(cfg),
                              name="bondi-quadrupole", u_range=urange)
    if name == "bondi-biaxial":
        Ac, Ad, m = cfg.amplitude, cfg.amplitude_d, cfg.mass
        z = cfg.news_zero_u

        def fc(u):
            return (u - z) if z is not None else (1.0 + 0.5 * u)

        def fd_(u):
            return (u - z) if z is not None else (1.0 - u / 3.0)

        def c(u, th, ps):
            return Ac * jets.sin(th) ** 2 * jets.cos(ps) * fc(u)

        def d(u, th, ps):
            return Ad * jets.sin(th) ** 2 * jets.sin(ps) * fd_(u)

        def N(u, th, ps):
            return 0.1 * Ac * jets.sin(th) ** 2 * jets.cos(th) * jets.cos(ps) \
                + 0.0 * u

        def P(u, th, ps):
            return 0.07 * Ad * jets.sin(th) ** 2 * jets.cos(th) * jets.sin(ps) \
                + 0.0 * u

        def C(u, th, ps):
            return 0.05 * Ac * jets.sin(th) ** 2 * jets.cos(ps) + 0.0 * u

        def H(u, th, ps):
            return 0.05 * Ad * jets.sin(th) ** 2 * jets.sin(ps) + 0.0 * u

        def M(u, th, ps):
            return m * (1.0 + 0.2 * jets.cos(th)) + 0.0 * u

        return BondiExpansion(c=c, d=d, M=M, N=N, P=P, C=C, H=H,
                              name="bondi-biaxial", u_range=urange)
    raise ConfigError(f"preset {cfg.preset!r} has no radiating expansion")


def make_metric(cfg):
    """Exact metric of the spatial-infinity presets."""
    cfg.validate()
    if cfg.preset == "minkowski":
        return minkowski("polar")
    if cfg.preset == "schwarzschild":
        return schwarzschild(cfg.mass, "static")
    if cfg.preset == "kerr":
        return kerr(KerrParameters(cfg.mass, cfg.spin))
    raise ConfigError(
        f"preset {cfg.preset!r} is not asymptotically flat at spatial "
        "infinity; use one of {ADM_PRESETS} for the adm subcommand")


def make_adm_data(cfg):
    return pullback_initial_data(make_metric(cfg), t_const_embedding(),
                                 euclidean_frame())
