"""Named scenario presets and the configuration record driving them.

Preset names addressable from the command line: "minkowski",
"schwarzschild", "kerr", "bondi-schwarzschild", "bondi-quadrupole"
(c = A u sin^2 theta, d = 0) and "bondi-biaxial" (both news on,
psi-dependent, with all subleading coefficients exercised).  The
``mass_aspect`` key sets M for "bondi-schwarzschild", "bondi-quadrupole"
and news tables; "bondi-biaxial" ignores it and always uses the tilted
M = m (1 + 0.2 cos theta), so ``mass_aspect = constant`` changes nothing
there.

Configuration is nested-section key-value text::

    preset = schwarzschild
    [parameters]
    mass = 1.0
    [grid]
    n_theta = 48
    n_psi = 96
    [ladder]
    radii = 10, 20, 40, 80

Where the config leaves the grid or the ladder unset (``n_theta`` and
``n_psi`` are None, ``radii`` is empty), the kind of run fills it in.
``make_grid`` gives 24 x 24 to the ADM charges of ``adm`` and ``converge``,
48 x 24 to the null charges of ``null`` and ``bondi-slice``, and 48 x 96 to
the flux of evolve runs, not yet sized to fewer nodes.  The uniform rule in
psi converges exponentially on the periodic charge integrands, so 24
meridians hold every charge at roundoff.  Gauss-Legendre in cos theta
converges only algebraically on the null momenta, and the theta rows set
the quadrature error: the ADM charges agree with 96 x 192 to roundoff on 24
rows, and the null charges take 48 rows, on which P_3,2 of bondi-quadrupole
is still 1.8e-7 from its value on 192 rows.
``default_radii`` gives each kind its ladder, and stops a configured ladder
of fewer than the 4 rungs that the decay fits read.  A field set by the
config or a flag wins.  This module decides the grid, ladder and step of
every subcommand and ``verify`` criterion; the charge functions take them.

``parse_config`` reads it into a ``ScenarioConfig``; unknown sections or
keys are rejected with the offending line.  A ``ScenarioConfig`` checks its
values when it is built, so a config read from a file, changed by a
command-line flag or written in code passes the same checks.

News can also be given as a table of real harmonic coefficients on a u-grid,
in a [news_table] section of rows ``u_grid = ...`` and ``c_<l>_<m> = ...``
under a bondi-* preset.  The m = 0 basis functions are differences
P_{l-2} - P_l of Legendre polynomials, which vanish at both poles, so the
polar-average condition holds for every table by construction; m != 0 modes
average to zero in psi.
"""

import logging
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import jets
from .bondi import BondiExpansion, _zero, induced_slice_data
from .errors import ConfigError
from .geometry import euclidean_frame, hyperboloid_frame, pullback_initial_data
from .ladder import check_ladder
from .spacetimes import (KerrParameters, hyperboloid_embedding, kerr, minkowski,
                         schwarzschild, t_const_embedding)
from .sphere import build_grid

__all__ = ["ScenarioConfig", "CONFIG_SCHEMA", "parse_config", "parse_floats",
           "PRESETS", "scenario_name", "make_grid", "default_radii",
           "known_mass", "make_expansion", "make_metric", "make_adm_data",
           "make_slice_data", "check_news_table", "harmonic_basis",
           "harmonic_news", "make_a3"]

log = logging.getLogger(__name__)

PRESETS = ("minkowski", "schwarzschild", "kerr", "bondi-schwarzschild",
           "bondi-quadrupole", "bondi-biaxial")

ADM_PRESETS = ("minkowski", "schwarzschild", "kerr")
BONDI_PRESETS = ("bondi-schwarzschild", "bondi-quadrupole", "bondi-biaxial")


def parse_floats(text):
    """A comma- or space-separated list of floats, as a tuple; ValueError
    when the text holds none, which no ladder or table row may be."""
    words = text.replace(",", " ").split()
    if not words:
        raise ValueError(f"no numbers in {text!r}")
    return tuple(float(x) for x in words)


# The config file format: section -> key -> parser.  Each key sets the
# ScenarioConfig field of the same name; "" is the top level, before any
# section header.  [news_table] rows are parsed separately.
CONFIG_SCHEMA = {
    "": {"preset": str.strip},
    "parameters": {"mass": float, "spin": float, "amplitude": float,
                   "amplitude_d": float, "news_zero_u": float,
                   "mass_aspect": str.strip, "a3_amplitude": float},
    "grid": {"n_theta": int, "n_psi": int},
    "ladder": {"radii": parse_floats},
    "slice": {"u0": float},
    "evolution": {"u_start": float, "u_end": float, "du": float},
}


@dataclass(frozen=True)
class ScenarioConfig:
    preset: str = "schwarzschild"
    mass: float = 1.0
    spin: float = 0.5
    amplitude: float = 0.1
    amplitude_d: float = 0.05
    news_zero_u: Optional[float] = None
    mass_aspect: str = "constant"       # "constant" | "tilted"
    a3_amplitude: float = 0.0
    n_theta: Optional[int] = None       # None: the default of the run's kind
    n_psi: Optional[int] = None
    radii: tuple = ()
    u0: float = 0.0
    u_start: float = 0.0
    u_end: float = 10.0
    du: float = 0.01
    news_table: Optional[dict] = None   # {"u_grid": array, (l, m): array}

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; choose from {PRESETS}")
        if self.mass_aspect not in ("constant", "tilted"):
            raise ConfigError(f"unknown mass_aspect {self.mass_aspect!r}")
        # news_zero_u may also be None (unset)
        for name in (key for keys in CONFIG_SCHEMA.values()
                     for key, parse in keys.items() if parse is float):
            x = getattr(self, name)
            if x is not None and not np.isfinite(x):
                raise ConfigError(f"{name} must be finite, got {x}")
        if self.radii:
            check_ladder(self.radii, minimum=1)
        if self.news_table is not None:
            check_news_table(self.news_table)


def parse_config(text):
    """Parse nested-section key-value text into a ScenarioConfig.

    Returns (config, provenance) where provenance records, per field, whether
    it came from the file or from a default.  A key set twice stops the
    parse, as do two news_table keys of one mode (c_2_0 and c_02_0).
    """
    values = {}
    table = {}
    first_line = {}         # (section, field or mode) -> line that set it
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in CONFIG_SCHEMA and section != "news_table":
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if section == "news_table":
            name = key if key == "u_grid" else _table_mode(key, lineno)
            target, parse, what = table, parse_floats, "news_table row"
        else:
            name, parse = key, CONFIG_SCHEMA[section].get(key)
            target, what = values, "bad value for"
            if parse is None:
                raise ConfigError(f"line {lineno}: unknown key {key!r} in "
                                  f"section [{section or 'top level'}]")
        first = first_line.setdefault((section, name), lineno)
        if first != lineno:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line "
                              f"{first}")
        try:
            target[name] = parse(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {what} {key}: {exc}")

    if table:
        values["news_table"] = table
    cfg = ScenarioConfig(**values)
    provenance = {f.name: ("config" if f.name in values else "default")
                  for f in fields(ScenarioConfig)}
    for f, src in provenance.items():
        if src == "default":
            log.debug("config: %s defaulted", f)
    return cfg, provenance


def _table_mode(key, lineno):
    """(l, m) of a news_table key c_<l>_<m> on line ``lineno``."""
    parts = key.split("_")
    if len(parts) == 3 and parts[0] == "c":
        try:
            return int(parts[1]), int(parts[2])
        except ValueError:
            pass
    raise ConfigError(f"line {lineno}: news_table keys look like c_<l>_<m>, "
                      f"got {key!r}")


def check_news_table(table):
    """Stop with ConfigError unless ``table`` is a news table that
    ``harmonic_news`` evaluates: a nonempty, finite, strictly increasing
    u_grid, and finite rows of its length for modes ``harmonic_basis``
    supports."""
    if len(table.get("u_grid", ())) == 0:
        raise ConfigError("news_table needs a u_grid row")
    u_grid = np.asarray(table["u_grid"], dtype=float)
    if not (np.all(np.isfinite(u_grid)) and np.all(np.diff(u_grid) > 0.0)):
        raise ConfigError("news_table row u_grid must be finite and strictly "
                          f"increasing: {u_grid.tolist()}")
    for lm, row in table.items():
        if lm == "u_grid":
            continue
        key = "c_{}_{}".format(*lm)
        if lm not in _HARMONIC_MODES:
            raise ConfigError(f"news_table row {key}: {_MODE_RULE}")
        row = np.asarray(row, dtype=float)
        if not np.all(np.isfinite(row)):
            raise ConfigError(f"news_table row {key} must be finite: "
                              f"{row.tolist()}")
        if len(row) != len(u_grid):
            raise ConfigError(f"news_table row {key} length mismatch")


# ---------------------------------------------------------------------------
# Harmonic basis for news tables
# ---------------------------------------------------------------------------

# Legendre polynomials P_l(x), l <= 4
_LEGENDRE = (
    lambda x: 1.0 + 0.0 * x,
    lambda x: x,
    lambda x: 1.5 * x * x - 0.5,
    lambda x: 2.5 * x ** 3 - 1.5 * x,
    lambda x: (35.0 * x ** 4 - 30.0 * x * x + 3.0) / 8.0,
)

# P_l^m(cos theta) without the Condon-Shortley sign, 0 < m <= l <= 4, in
# x = cos theta and s = sin theta
_ASSOC_LEGENDRE = {
    (1, 1): lambda x, s: s,
    (2, 1): lambda x, s: 3.0 * s * x,
    (2, 2): lambda x, s: 3.0 * s * s,
    (3, 1): lambda x, s: 1.5 * s * (5.0 * x * x - 1.0),
    (3, 2): lambda x, s: 15.0 * s * s * x,
    (3, 3): lambda x, s: 15.0 * s ** 3,
    (4, 1): lambda x, s: 2.5 * s * (7.0 * x ** 3 - 3.0 * x),
    (4, 2): lambda x, s: 7.5 * s * s * (7.0 * x * x - 1.0),
    (4, 3): lambda x, s: 105.0 * s ** 3 * x,
    (4, 4): lambda x, s: 105.0 * s ** 4,
}

# every (l, m) harmonic_basis supports, m < 0 standing for sin(|m| psi)
_HARMONIC_MODES = frozenset(
    [(l, 0) for l in range(2, len(_LEGENDRE))]
    + [(l, sign * m) for l, m in _ASSOC_LEGENDRE for sign in (1, -1)])
_MODE_RULE = ("supported modes are l <= 4 and |m| <= l, and m = 0 needs "
              "l >= 2")


def harmonic_basis(l, m, th, ps):
    """Pole-regular real harmonic basis element for news tables."""
    if (l, m) not in _HARMONIC_MODES:
        raise ConfigError(f"harmonic mode (l={l}, m={m}) not supported; "
                          f"{_MODE_RULE}")
    x = jets.cos(th)
    if m == 0:
        return _LEGENDRE[l - 2](x) - _LEGENDRE[l](x)
    p = _ASSOC_LEGENDRE[l, abs(m)](x, jets.sin(th))
    if m > 0:
        return p * jets.cos(m * ps)
    return p * jets.sin(-m * ps)


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
    check_news_table(news_table)
    u_grid = np.asarray(news_table["u_grid"], dtype=float)
    modes = [(lm, np.asarray(v, dtype=float)) for lm, v in news_table.items()
             if lm != "u_grid"]

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

def scenario_name(cfg):
    """The name a run reports: the preset, or ``<preset>-table`` when a news
    table replaces the preset's news."""
    return cfg.preset if cfg.news_table is None else f"{cfg.preset}-table"


# (n_theta, n_psi) of each kind of run where [grid] leaves it unset; the
# module docstring gives the reason for the charges' 24 meridians
_DEFAULT_GRIDS = {"adm": (24, 24), "null": (48, 24), "evolve": (48, 96)}


def make_grid(cfg, kind):
    """The sphere grid of a run of ``kind``: "adm", "null" or "evolve".
    Each of n_theta and n_psi is the configured one, or the default of
    ``kind``."""
    n_theta, n_psi = _DEFAULT_GRIDS[kind]
    return build_grid(n_theta if cfg.n_theta is None else cfg.n_theta,
                      n_psi if cfg.n_psi is None else cfg.n_psi)


def default_radii(cfg, kind):
    """The configured radius ladder, or the default one of ``kind``: "adm",
    "null", "slice" or "decay" (the battery's decay-order fits), as a list.
    A configured ladder needs the 4 rungs that the decay fits read."""
    if cfg.radii:
        return check_ladder(cfg.radii, minimum=4)
    if kind == "null" and cfg.preset == "minkowski":
        # deviations are exactly zero; small radii keep the roundoff floor
        # (which grows like r^2) below the exact-zero threshold
        return [0.5, 1.0, 2.0, 4.0]
    return {"adm": [10.0, 20.0, 40.0, 80.0],
            "null": [30.0, 45.0, 70.0, 110.0, 170.0],
            "slice": [50.0, 100.0, 200.0, 400.0, 800.0],
            "decay": [20.0, 40.0, 80.0, 160.0]}[kind]


def known_mass(cfg):
    """The ADM energy of a spatial-infinity preset."""
    return 0.0 if cfg.preset == "minkowski" else cfg.mass


def _tilted_mass_aspect(m):
    """M = m (1 + 0.2 cos(theta))."""
    def M(u, th, ps):
        return m * (1.0 + 0.2 * jets.cos(th)) + 0.0 * u
    return M


def _mass_aspect(cfg):
    m = cfg.mass
    if cfg.mass_aspect == "tilted":
        return _tilted_mass_aspect(m)

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
    """BondiExpansion for the radiating presets (or a news table).

    minkowski and schwarzschild map onto the zero-news expansion.  kerr has
    no expansion here, since that one would drop its spin, so it raises
    ConfigError.  A news table replaces the news of a bondi-* preset; with
    any other preset it raises ConfigError."""
    _check_table_preset(cfg)
    name = cfg.preset
    if cfg.news_table is not None:
        return BondiExpansion(c=harmonic_news(cfg.news_table),
                              M=_mass_aspect(cfg), name=scenario_name(cfg),
                              u_range=(cfg.u_start, max(cfg.u_end, cfg.u0)))

    urange = (cfg.u_start, max(cfg.u_end, cfg.u0, cfg.u_start + 1.0))
    if name in ("bondi-schwarzschild", "minkowski", "schwarzschild"):
        M = _mass_aspect(cfg) if name != "minkowski" else _zero
        return BondiExpansion(M=M, name="bondi-schwarzschild", u_range=urange)
    if name == "bondi-quadrupole":
        A = cfg.amplitude
        z = cfg.news_zero_u if cfg.news_zero_u is not None else 0.0

        def c(u, th, ps):
            return A * (u - z) * jets.sin(th) ** 2
        return BondiExpansion(c=c, M=_mass_aspect(cfg),
                              name="bondi-quadrupole", u_range=urange)
    if name == "bondi-biaxial":
        Ac, Ad = cfg.amplitude, cfg.amplitude_d
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

        return BondiExpansion(c=c, d=d, M=_tilted_mass_aspect(cfg.mass),
                              N=N, P=P, C=C, H=H,
                              name="bondi-biaxial", u_range=urange)
    raise ConfigError(f"preset {cfg.preset!r} has no radiating expansion")


def _check_table_preset(cfg):
    if cfg.news_table is not None and cfg.preset not in BONDI_PRESETS:
        raise ConfigError(f"preset {cfg.preset!r} takes no [news_table]; a "
                          f"news table needs one of {BONDI_PRESETS}")


def make_metric(cfg):
    """Exact metric of the spatial-infinity presets."""
    _check_table_preset(cfg)
    if cfg.preset == "minkowski":
        return minkowski("polar")
    if cfg.preset == "schwarzschild":
        return schwarzschild(cfg.mass, "polar")
    if cfg.preset == "kerr":
        return kerr(KerrParameters(cfg.mass, cfg.spin))
    raise ConfigError(
        f"preset {cfg.preset!r} is not asymptotically flat at spatial "
        f"infinity; use one of {ADM_PRESETS} for the adm and converge "
        "subcommands")


def make_adm_data(cfg):
    """The t = 0 slice of a spatial-infinity preset, in the Cartesian frame."""
    return pullback_initial_data(make_metric(cfg), t_const_embedding(),
                                 euclidean_frame())


def make_slice_data(cfg):
    """The u0-slice data of a preset: the unit hyperboloid of flat space for
    minkowski, the closed-form induced data of its expansion otherwise."""
    # built for minkowski too, so a news table under it stops here
    exp = make_expansion(cfg)
    if cfg.preset == "minkowski":
        return pullback_initial_data(minkowski("polar"),
                                     hyperboloid_embedding(),
                                     hyperboloid_frame())
    return induced_slice_data(exp, cfg.u0, make_a3(cfg))
