"""Catalog of exact metrics, the truncated radiating metric, and slice
embeddings.

Every metric is written in the chart (t|u, r, theta, psi), with u in the
retarded chart.  It holds for finite coordinates with r > ``r_min``: 0, 2m,
the Kerr r_+, or the radius that guards the truncation of the radiating
metric's asymptotic series after their last displayed term.  All component
functions are written in generic arithmetic so they can be evaluated on jets.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import Embedding, Metric4Evaluator, _jd, _jf, ricci_tensor
from .jets import cos, cosh, exp as gexp, sin, sinh, sqrt

__all__ = [
    "KerrParameters",
    "minkowski", "schwarzschild", "kerr", "bondi_metric",
    "hyperboloid_embedding", "bondi_slice_embedding", "t_const_embedding",
    "ricci_residual", "l_lbar", "p_pbar",
]


def _check_mass(m):
    if not 0 < m < np.inf:
        raise DomainError(f"mass must be positive and finite, got {m}")


@dataclass(frozen=True)
class KerrParameters:
    """Mass and angular momentum per unit mass, geometric units."""

    m: float
    a: float

    def __post_init__(self):
        _check_mass(self.m)
        if not np.isfinite(self.a):
            raise DomainError(f"spin must be finite, got {self.a}")


def _sym4(entries):
    """Fill a symmetric 4x4 nested list from a dict of upper-triangle parts."""
    g = [[0.0] * 4 for _ in range(4)]
    for (a, b), v in entries.items():
        g[a][b] = v
        if a != b:
            g[b][a] = v
    return g


def _spherical(f, chart, name, **domain):
    """-f dt^2 + dr^2/f + r^2 dOmega^2 in the polar chart, or
    -f du^2 - 2 du dr + r^2 dOmega^2 in the retarded chart."""
    if chart not in ("polar", "retarded"):
        raise DomainError(f"unknown chart {chart!r} for {name}")

    def fn(c):
        _, r, th, _ = c
        fr, r2 = f(r), r * r
        g = {(0, 0): -1.0 * fr, (2, 2): r2, (3, 3): r2 * sin(th) ** 2}
        g.update({(1, 1): 1.0 / fr} if chart == "polar" else {(0, 1): -1.0})
        return _sym4(g)
    return Metric4Evaluator(fn, chart, name, **domain)


def minkowski(chart):
    """Flat spacetime in the ``chart`` "polar" or "retarded"."""
    return _spherical(lambda r: 1.0, chart, f"minkowski-{chart}")


def schwarzschild(m, chart):
    """Vacuum black-hole exterior in the ``chart`` "polar" or "retarded";
    requires r > 2m."""
    _check_mass(m)
    suffix = "" if chart == "polar" else f"-{chart}"
    return _spherical(lambda r: 1.0 - 2.0 * m / r, chart,
                      f"schwarzschild{suffix}(m={m})", r_min=2.0 * m,
                      domain=f"r must exceed 2m = {2.0 * m}")


def kerr(params):
    """Rotating vacuum exterior in Boyer-Lindquist-type coordinates.

    Components: Sigma = r^2 + a^2 cos^2(theta), Delta = r^2 - 2 m r + a^2,
    g_tt = -(1 - 2mr/Sigma), g_tpsi = -2 m a r sin^2(theta)/Sigma,
    g_rr = Sigma/Delta, g_thth = Sigma,
    g_psipsi = (r^2 + a^2 + 2 m r a^2 sin^2(theta)/Sigma) sin^2(theta);
    requires r > r_+.
    """
    m, a = params.m, params.a
    # r_+ = m + sqrt(m^2 - a^2); with a^2 > m^2, Delta > 0 at every r > 0
    r_plus = 0.0 if a * a > m * m else m + np.sqrt(m * m - a * a)

    def fn(c):
        _, r, th, _ = c
        st2 = sin(th) ** 2
        sigma = r * r + a * a * cos(th) ** 2
        delta = r * r - 2.0 * m * r + a * a
        return _sym4({
            (0, 0): -1.0 * (1.0 - 2.0 * m * r / sigma),
            (0, 3): -2.0 * m * a * r * st2 / sigma,
            (1, 1): sigma / delta,
            (2, 2): sigma,
            (3, 3): (r * r + a * a + 2.0 * m * r * a * a * st2 / sigma) * st2,
        })

    return Metric4Evaluator(fn, "polar", f"kerr(m={m},a={a})", r_plus,
                            "point outside the exterior region (Delta <= 0)")


# ---------------------------------------------------------------------------
# Truncated radiating metric
# ---------------------------------------------------------------------------

def l_lbar(cn, dn, ct, cs):
    """l = c_,2 + 2 c cot + d_,3 csc and lbar = d_,2 + 2 d cot - c_,3 csc.

    ``cn = (c, c_,2, c_,3)`` and ``dn = (d, d_,2, d_,3)``; ``ct``, ``cs`` are
    cot(theta) and csc(theta).  Generic over numbers, arrays and jets.
    """
    (c, c2, c3), (d, d2, d3) = cn, dn
    return c2 + 2.0 * c * ct + d3 * cs, d2 + 2.0 * d * ct - c3 * cs


def p_pbar(Nv, Pv, cn, dn, ct, cs):
    """p = 2N + 3(c c_,2 + d d_,2) + 4(c^2+d^2) cot - 2(c_,3 d - c d_,3) csc
    and pbar = 2P + 2(c_,2 d - c d_,2) + 3(c c_,3 + d d_,3) csc, with the
    arguments of ``l_lbar`` and the momentum aspects N, P."""
    (c, c2, c3), (d, d2, d3) = cn, dn
    p = 2.0 * Nv + 3.0 * (c * c2 + d * d2) + 4.0 * (c * c + d * d) * ct \
        - 2.0 * (c3 * d - c * d3) * cs
    pbar = 2.0 * Pv + 2.0 * (c2 * d - c * d2) + 3.0 * (c * c3 + d * d3) * cs
    return p, pbar


def _assemble_six(exp, u, r, th, ps):
    """The six metric functions at (u, r, theta, psi), truncated."""
    # the news with their angular first derivatives, via inner jets
    cn, dn = ((_jf(x), _jd(x, 1), _jd(x, 2))
              for x in exp.news_jets(u, th, ps, order=1))
    c, d = cn[0], dn[0]
    ct = cos(th) / sin(th)
    cs = 1.0 / sin(th)
    l, lbar = l_lbar(cn, dn, ct, cs)
    p, pbar = p_pbar(exp.N(u, th, ps), exp.P(u, th, ps), cn, dn, ct, cs)
    r2 = r * r
    r3 = r2 * r
    gam = c / r + (exp.C(u, th, ps) - c ** 3 / 6.0 - 1.5 * c * d * d) / r3
    dlt = d / r + (exp.H(u, th, ps) + 0.5 * c * c * d - d ** 3 / 6.0) / r3
    beta = -0.25 * (c * c + d * d) / r2
    U = -1.0 * l / r2 + p / r3
    W = -1.0 * lbar / r2 + pbar / r3
    V = -1.0 * r + 2.0 * exp.M(u, th, ps)
    return beta, gam, dlt, U, V, W


def default_r_min(exp):
    sc, sd = exp.sup_news_estimate()
    # np.max keeps a NaN; the builtin max would drop it
    r_min = 5.0 * float(np.max([1.0, sc, sd]))
    if not np.isfinite(r_min):
        raise DomainError(f"news sup-norm estimate is not finite: |c| <= {sc}, "
                          f"|d| <= {sd}")
    return r_min


def bondi_metric(exp, r_min=None):
    """Radiating metric assembled from the truncated expansions.

    With vanishing news and constant mass aspect it reduces exactly to the
    retarded black-hole metric.  Evaluation at r <= r_min is rejected: the
    truncated series only represent the asymptotic regime.
    """
    rmin = default_r_min(exp) if r_min is None else float(r_min)

    def fn(c):
        u, r, th, ps = c
        beta, gam, dlt, U, V, W = _assemble_six(exp, u, r, th, ps)
        e2b = gexp(2.0 * beta)
        e2g = gexp(2.0 * gam)
        ch = cosh(2.0 * dlt)
        sh = sinh(2.0 * dlt)
        st = sin(th)
        r2 = r * r
        guu = (V / r) * e2b + r2 * ch * (e2g * U * U + W * W / e2g) \
            + 2.0 * r2 * U * W * sh
        return _sym4({
            (0, 0): guu,
            (0, 1): -1.0 * e2b,
            (0, 2): -1.0 * r2 * (e2g * U * ch + W * sh),
            (0, 3): -1.0 * r2 * (W * ch / e2g + U * sh) * st,
            (2, 2): r2 * e2g * ch,
            (2, 3): r2 * sh * st,
            (3, 3): r2 * ch * st * st / e2g,
        })

    name = f"bondi[{getattr(exp, 'name', 'expansion')}]"
    return Metric4Evaluator(fn, "retarded", name, rmin,
                            f"r below r_min = {rmin} for the truncated metric")


# ---------------------------------------------------------------------------
# Slice embeddings
# ---------------------------------------------------------------------------

def t_const_embedding():
    """The time-symmetric slice t = 0 of a static polar chart."""
    def fn(c):
        r, th, ps = c
        return [0.0 + 0.0 * r, r, th, ps]
    return Embedding(fn, "polar", "t=0.0")


def hyperboloid_embedding():
    """The unit hyperboloid t = sqrt(1 + r^2) in a static polar chart."""
    def fn(c):
        r, th, ps = c
        return [sqrt(1.0 + r * r), r, th, ps]
    return Embedding(fn, "polar", "hyperboloid")


def bondi_slice_embedding(exp, u0, a3):
    """Asymptotically null slice of the retarded chart of ``exp``:

    u = u0 + sqrt(1+r^2) - r + (c^2+d^2)|_{u0} / (12 r^3) + a3(theta,psi)/r^4,

    with a3 generic in (theta, psi), or None for a3 = 0.  The difference
    sqrt(1+r^2) - r is evaluated as 1/(sqrt(1+r^2) + r) to avoid
    catastrophic cancellation at large radius.
    """
    u0 = float(u0)

    def fn(c):
        r, th, ps = c
        cu = exp.c(u0, th, ps)
        du = exp.d(u0, th, ps)
        corr = (cu * cu + du * du) / (12.0 * r ** 3)
        if a3 is not None:
            corr = corr + a3(th, ps) / r ** 4
        u = u0 + 1.0 / (sqrt(1.0 + r * r) + r) + corr
        return [u, r, th, ps]

    return Embedding(fn, "retarded", f"null-slice(u0={u0})")


# ---------------------------------------------------------------------------
# Vacuum sanity gate
# ---------------------------------------------------------------------------

def ricci_residual(metric, point):
    """Frobenius norm of the Ricci tensor in unit-coordinate scaling.

    Components are normalised by sqrt(|g_aa| |g_bb|) so the residual is
    comparable across charts with r^2-scaled angular coordinates.
    """
    ric = ricci_tensor(metric, point)
    g = metric.components(point)
    s = np.sqrt(np.abs(np.diag(g)))
    s = np.where(s == 0.0, 1.0, s)
    hat = ric / np.outer(s, s)
    return float(np.sqrt(np.sum(hat * hat)))
