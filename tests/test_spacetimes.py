"""Catalog metrics: displayed components, degenerations, vacuum residuals."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from admbondi.bondi import BondiExpansion
from admbondi.errors import DomainError
from admbondi.geometry import (Embedding, _jdd, euclidean_frame,
                               pullback_initial_data, ricci_tensor)
from admbondi.jets import seed, value
from admbondi.spacetimes import (KerrParameters, _assemble_six,
                                 bondi_metric, bondi_slice_embedding,
                                 hyperboloid_embedding, kerr, minkowski,
                                 ricci_residual, schwarzschild,
                                 t_const_embedding)


class StaticNews:
    """Minimal expansion stub: constant news, constant aspects."""

    name = "stub"

    def __init__(self, c=0.0, d=0.0, M=0.0, N=0.0, P=0.0, C=0.0, H=0.0):
        self._c, self._d = c, d
        self._M, self._N, self._P, self._C, self._H = M, N, P, C, H

    def c(self, u, th, ps):
        import admbondi.jets as jx
        return self._c * jx.sin(th) ** 2 + 0.0 * u

    def d(self, u, th, ps):
        return self._d + 0.0 * u

    def M(self, u, th, ps):
        return self._M + 0.0 * u

    def N(self, u, th, ps):
        return self._N + 0.0 * u

    def P(self, u, th, ps):
        return self._P + 0.0 * u

    def C(self, u, th, ps):
        return self._C + 0.0 * u

    def H(self, u, th, ps):
        return self._H + 0.0 * u

    def sup_news_estimate(self):
        return abs(self._c), abs(self._d)

    # c and d as jets, the way the metric reads them
    news_jets = BondiExpansion.news_jets


def lorentzian(g):
    """True when the 4x4 components g, indexed [a, b, <leaf>], have
    signature (-, +, +, +) at every point of the leaf."""
    ev = np.linalg.eigvalsh(np.moveaxis(g, (0, 1), (-2, -1)))
    return bool(np.all(ev[..., 0] < 0) and np.all(ev[..., 1:] > 0))


def rand_points(rng, n, rlo, rhi):
    return [(0.3, rng.uniform(rlo, rhi), rng.uniform(0.4, 2.7),
             rng.uniform(0.0, 6.2)) for _ in range(n)]


def test_minkowski_polar_display():
    g = minkowski("polar")
    r, th = 3.2, 1.1
    m = g.components([0.0, r, th, 2.0])
    assert m[0, 0] == -1.0 and m[1, 1] == 1.0
    assert m[2, 2] == pytest.approx(r * r)
    assert m[3, 3] == pytest.approx(r * r * np.sin(th) ** 2)


def test_minkowski_retarded_display():
    g = minkowski("retarded")
    m = g.components([0.0, 2.0, 1.0, 0.0])
    assert m[0, 0] == -1.0 and m[0, 1] == -1.0 and m[1, 1] == 0.0


def test_minkowski_flat_everywhere(rng):
    for chart in ("polar", "retarded"):
        g = minkowski(chart)
        for pt in rand_points(rng, 5, 1.0, 10.0):
            assert ricci_residual(g, list(pt)) <= 1e-9


def test_schwarzschild_static_display():
    m = 1.3
    g = schwarzschild(m, "polar")
    r = 7.0
    comp = g.components([0.0, r, 1.0, 0.0])
    assert comp[0, 0] == pytest.approx(-(1 - 2 * m / r))
    assert comp[1, 1] == pytest.approx(1.0 / (1 - 2 * m / r))


def test_schwarzschild_retarded_display():
    g = schwarzschild(1.0, "retarded")
    comp = g.components([0.0, 9.0, 1.2, 0.1])
    assert comp[0, 1] == -1.0
    assert comp[0, 0] == pytest.approx(-(1 - 2.0 / 9.0))


def test_schwarzschild_vacuum(rng):
    g = schwarzschild(1.0, "polar")
    for pt in rand_points(rng, 8, 3.0, 40.0):
        assert ricci_residual(g, list(pt)) <= 1e-8
    gr = schwarzschild(1.0, "retarded")
    for pt in rand_points(rng, 8, 3.0, 40.0):
        assert ricci_residual(gr, list(pt)) <= 1e-8


def test_schwarzschild_horizon_rejected():
    g = schwarzschild(1.0, "polar")
    with pytest.raises(DomainError):
        g.components([0.0, 1.9, 1.0, 0.0])


def test_schwarzschild_mass_to_zero_is_minkowski(rng):
    g = schwarzschild(1e-14, "polar")
    flat = minkowski("polar")
    for pt in rand_points(rng, 5, 1.0, 10.0):
        assert np.allclose(g.components(list(pt)), flat.components(list(pt)),
                           atol=1e-12)


def test_kerr_reduces_to_schwarzschild(rng):
    g0 = kerr(KerrParameters(1.0, 0.0))
    gs = schwarzschild(1.0, "polar")
    for pt in rand_points(rng, 8, 3.0, 30.0):
        assert np.allclose(g0.components(list(pt)), gs.components(list(pt)),
                           atol=1e-14)


def test_kerr_cross_term_value():
    m, a = 1.0, 0.7
    g = kerr(KerrParameters(m, a))
    r, th = 10.0, np.pi / 2
    comp = g.components([0.0, r, th, 0.3])
    sigma = r * r
    assert comp[0, 3] == pytest.approx(-2 * m * a * r / sigma, rel=1e-14)


def test_kerr_vacuum(rng):
    g = kerr(KerrParameters(1.0, 0.5))
    for pt in rand_points(rng, 6, 4.0, 25.0):
        assert ricci_residual(g, list(pt)) <= 1e-6


def test_kerr_interior_rejected():
    g = kerr(KerrParameters(1.0, 0.5))
    with pytest.raises(DomainError):
        g.components([0.0, 1.0, 1.0, 0.0])
    # inside r_- = 0.2, where Delta = 0.17 > 0: not the exterior either
    with pytest.raises(DomainError, match="exterior region"):
        kerr(KerrParameters(1.0, 0.6)).components([0.0, 0.1, 1.0, 0.0])
    # a^2 > m^2 has no horizon: Delta > 0 at every r > 0
    assert lorentzian(kerr(KerrParameters(1.0, 1.2)).components(
        [0.0, 0.5, 1.0, 0.0]))
    # a mass that is not positive and finite, or a spin that is not finite,
    # stops at construction, named, not later at every point's domain check
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(DomainError, match=f"mass must be .*, got {bad}"):
            KerrParameters(bad, 0.2)
        with pytest.raises(DomainError, match=f"mass must be .*, got {bad}"):
            schwarzschild(bad, "polar")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match=f"spin must be finite, got {bad}"):
            kerr(KerrParameters(1.0, bad))


def test_kerr_lorentzian_signature(rng):
    g = kerr(KerrParameters(1.0, 0.9))
    for pt in rand_points(rng, 6, 3.0, 20.0):
        assert lorentzian(g.components(list(pt)))


def test_bondi_reduces_to_schwarzschild_retarded(rng):
    exp = StaticNews(M=1.0)
    gb = bondi_metric(exp, r_min=4.0)
    gs = schwarzschild(1.0, "retarded")
    for pt in rand_points(rng, 8, 5.0, 60.0):
        assert np.allclose(gb.components(list(pt)), gs.components(list(pt)),
                           atol=1e-12)
    comp = gb.components([0.0, 10.0, 1.0, 0.0])
    assert comp[0, 0] == pytest.approx(-(1 - 2.0 / 10.0), rel=1e-14)


def test_bondi_r_min_guard():
    exp = StaticNews(c=0.3, M=1.0)
    gb = bondi_metric(exp)
    assert gb.r_min == pytest.approx(5.0)
    with pytest.raises(DomainError):
        gb.components([0.0, 2.0, 1.0, 0.0])
    with pytest.raises(DomainError, match="r below r_min"):
        gb.components([0.0, gb.r_min, 1.0, 0.0])


def test_bondi_theta_coefficient_leading_order():
    # g_thth = r^2 (1 + 2c/r + O(1/r^2))
    exp = StaticNews(c=0.2, M=1.0)
    gb = bondi_metric(exp, r_min=4.0)
    th, ps = 1.1, 0.4
    c = 0.2 * np.sin(th) ** 2
    rem = []
    for r in (50.0, 100.0, 200.0, 400.0):
        comp = gb.components([0.0, r, th, ps])
        rem.append(abs(comp[2, 2] / r ** 2 - 1.0 - 2 * c / r))
    slope = np.polyfit(np.log([50, 100, 200, 400]), np.log(rem), 1)[0]
    assert slope <= -1.9


def test_bondi_dudtheta_coefficient_leading_order():
    # coefficient of du dtheta tends to l = c_,2 + 2 c cot + d_,3 csc
    exp = StaticNews(c=0.2, M=1.0)
    gb = bondi_metric(exp, r_min=4.0)
    th, ps = 1.1, 0.4
    c2 = 0.2 * 2 * np.sin(th) * np.cos(th)
    l = c2 + 2 * (0.2 * np.sin(th) ** 2) / np.tan(th)
    rem = []
    for r in (50.0, 100.0, 200.0, 400.0):
        comp = gb.components([0.0, r, th, ps])
        rem.append(abs(comp[0, 2] - l))
    slope = np.polyfit(np.log([50, 100, 200, 400]), np.log(rem), 1)[0]
    assert slope <= -0.9
    assert rem[-1] <= abs(l)  # leading value is l itself


def test_bondi_static_news_vacuum_decay(rng):
    # static news, constant aspects: the only Einstein violation is the
    # series truncation, which decays at least like r^-3.5 in the scaled norm
    exp = StaticNews(c=0.25, d=0.0, M=1.0)
    gb = bondi_metric(exp, r_min=4.0)
    radii = np.array([30.0, 60.0, 120.0, 240.0])
    th, ps = 1.2, 0.7
    res = np.array([ricci_residual(gb, [0.0, r, th, ps]) for r in radii])
    slope = np.polyfit(np.log(radii), np.log(res), 1)[0]
    assert slope <= -3.5


def test_bondi_functions_truncation():
    exp = StaticNews(c=0.1, M=2.0)
    beta, gam, dlt, U, V, W = _assemble_six(exp, 0.0, 10.0, np.pi / 2, 0.0)
    c = 0.1
    assert gam == pytest.approx(c / 10.0 + (-c**3 / 6.0) / 1000.0, rel=1e-13)
    assert beta == pytest.approx(-c * c / 400.0, rel=1e-13)
    assert V == pytest.approx(-10.0 + 4.0)
    assert dlt == 0.0 and W == 0.0


def test_hyperboloid_embedding_origin_limit():
    emb = hyperboloid_embedding()
    t, r, th, ps = emb.fn([1e-8, 1.0, 0.0])
    assert t == pytest.approx(1.0, abs=1e-12)


def test_bondi_slice_embedding_values():
    exp = StaticNews(c=0.0, M=1.0)
    emb = bondi_slice_embedding(exp, 3.0, None)
    u, r, th, ps = emb.fn([10.0, 1.0, 0.5])
    assert u == pytest.approx(3.0 + np.sqrt(101.0) - 10.0, rel=1e-12)

    class UnitNews(StaticNews):
        def c(self, u, th, ps):
            return 1.0 + 0.0 * u
    emb2 = bondi_slice_embedding(UnitNews(), 0.0, None)
    u2 = emb2.fn([10.0, 1.0, 0.5])[0]
    base = np.sqrt(101.0) - 10.0
    assert u2 - base == pytest.approx(1.0 / 12000.0, rel=1e-10)


def test_catalog_metrics_symmetric_and_lorentzian(rng):
    metrics = [minkowski("polar"), schwarzschild(1.0, "polar"),
               kerr(KerrParameters(1.0, 0.5)),
               bondi_metric(StaticNews(c=0.1, M=1.0), r_min=4.0)]
    for g in metrics:
        for pt in rand_points(rng, 3, 6.0, 20.0):
            comp = g.components(list(pt))
            assert np.allclose(comp, comp.T)
            assert lorentzian(comp)


def test_metric_first_derivs_match_fd(rng):
    # dual-number first derivatives vs central differences
    metrics = [minkowski("polar"), schwarzschild(1.0, "polar"),
               schwarzschild(1.0, "retarded"), kerr(KerrParameters(1.0, 0.6)),
               bondi_metric(StaticNews(c=0.15, M=1.0), r_min=4.0)]
    h = 1e-5
    for g in metrics:
        for pt in rand_points(rng, 4, 6.0, 20.0):
            pt = list(pt)
            dg = g.first_derivs(pt)
            for c in range(4):
                up = list(pt); up[c] += h
                dn = list(pt); dn[c] -= h
                ref = (g.components(up) - g.components(dn)) / (2 * h)
                scale = 1.0 + np.abs(dg[c])
                assert np.max(np.abs(dg[c] - ref) / scale) <= 1e-6, (g.name, c)


def test_embedding_first_derivs_match_fd(rng):
    exp = StaticNews(c=0.2, M=1.0)
    embs = [hyperboloid_embedding(),
            bondi_slice_embedding(exp, 1.0, None)]
    h = 1e-6
    for emb in embs:
        for _ in range(25):
            pt = [rng.uniform(3.0, 40.0), rng.uniform(0.4, 2.7),
                  rng.uniform(0.0, 6.2)]
            ej = emb.fn(seed(pt, order=2))
            for a in range(3):
                up = list(pt); up[a] += h
                dn = list(pt); dn[a] -= h
                ref = (np.array(emb.fn(up)) - np.array(emb.fn(dn))) / (2 * h)
                got = np.array([ej[i].d[a] if hasattr(ej[i], "d") else 0.0
                                for i in range(4)])
                scale = 1.0 + np.abs(got)
                assert np.max(np.abs(got - ref) / scale) <= 1e-6, emb.name


def test_metric_second_derivs_match_fd(rng):
    g = schwarzschild(1.0, "polar")
    h = 1e-4
    for _ in range(5):
        pt = [0.0, rng.uniform(5.0, 20.0), rng.uniform(0.5, 2.6),
              rng.uniform(0.0, 6.2)]
        gj = g.jets(pt, order=2)
        dd = np.array([[[[value(_jdd(gj[a][b], c, e)) for b in range(4)]
                         for a in range(4)] for e in range(4)]
                       for c in range(4)])
        for c in range(4):
            for e in range(4):
                up = list(pt); up[c] += h; up[e] += h
                um = list(pt); um[c] += h; um[e] -= h
                dm = list(pt); dm[c] -= h; dm[e] += h
                dd2 = list(pt); dd2[c] -= h; dd2[e] -= h
                ref = (g.components(up) - g.components(um)
                       - g.components(dm) + g.components(dd2)) / (4 * h * h)
                scale = 1.0 + np.abs(dd[c][e])
                assert np.max(np.abs(dd[c][e] - ref) / scale) <= 1e-5, (c, e)


# -- array points ----------------------------------------------------------------

def _oracle_metrics():
    """The five evaluators of the battery's finite-difference oracle."""
    from admbondi.scenarios import ScenarioConfig, make_expansion
    cfg = ScenarioConfig(preset="bondi-biaxial", amplitude=0.08,
                         amplitude_d=0.05)
    return [minkowski("polar"), schwarzschild(1.0, "polar"),
            schwarzschild(1.0, "retarded"), kerr(KerrParameters(1.0, 0.6)),
            bondi_metric(make_expansion(cfg), r_min=5.0)]


@pytest.mark.parametrize("index", range(5))
def test_array_points_match_per_point_evaluation(index, rng):
    """components and first_derivs over a (4, n) point array equal the
    per-point results column by column, bit for bit."""
    g = _oracle_metrics()[index]
    x = np.array([rng.uniform(-1, 1, 6), rng.uniform(6.0, 25.0, 6),
                  rng.uniform(0.4, 2.7, 6), rng.uniform(0.0, 6.2, 6)])
    for method, shape in (("components", (4, 4)), ("first_derivs", (4, 4, 4))):
        got = getattr(g, method)(x)
        assert got.shape == shape + (6,), (g.name, method)
        for k in range(6):
            ref = getattr(g, method)([float(v) for v in x[:, k]])
            assert ref.shape == shape
            assert np.array_equal(got[..., k], ref), (g.name, method, k)
    assert lorentzian(g.components(x))


@pytest.mark.parametrize("metric, r_bad, text", [
    (minkowski("polar"), -1.0, r"r must be positive at \(t, r, theta, psi\)"),
    (minkowski("retarded"), 0.0, r"r must be positive at \(u, r, theta, psi\)"),
    (schwarzschild(1.0, "polar"), 1.5, r"exceed 2m = 2.0 at \(t, r,"),
    (schwarzschild(1.0, "retarded"), 2.0, r"exceed 2m = 2.0 at \(u, r,"),
    (kerr(KerrParameters(1.0, 0.6)), 1.0, r"Delta <= 0\) at \(t, r,"),
    (bondi_metric(StaticNews(c=0.1, M=1.0), r_min=4.0), 3.5,
     r"r_min = 4.0 for the truncated metric at \(u, r,"),
])
def test_domain_error_names_the_first_bad_point(metric, r_bad, text):
    r = np.array([9.0, 8.0, r_bad, 7.0, r_bad])
    x = [np.array([0.1, 0.2, 0.3, 0.4, 0.5]), r,
         np.array([1.0, 1.1, 1.2, 1.3, 1.4]), 0.25]
    point = rf"\(0.3, {r_bad}, 1.2, 0.25\)"
    for method in ("components", "first_derivs"):
        with pytest.raises(DomainError, match=text + r".*= " + point):
            getattr(metric, method)(x)
    with pytest.raises(DomainError, match=point):
        metric.components([0.3, r_bad, 1.2, 0.25])


# -- non-finite coordinates ------------------------------------------------------

_CATALOG = _oracle_metrics() + [minkowski("retarded")]


def _t0_slice(chart):
    """The slice t = 0: u = t - r = -r in a retarded chart."""
    if chart == "polar":
        return t_const_embedding()
    return Embedding(lambda c: [0.0 - c[0], c[0], c[1], c[2]], chart, "t=0")


def _poisoned_points(n, coord, k, bad):
    """Points inside every catalog chart, as (4, n) arrays or, for n = 0,
    one scalar point, with ``bad`` at coordinate ``coord`` of point ``k``;
    returns the points and the coordinates of point ``k``."""
    x = np.array([np.linspace(-0.5, 0.5, max(n, 1)),
                  np.linspace(7.0, 20.0, max(n, 1)),
                  np.linspace(0.5, 2.5, max(n, 1)),
                  np.linspace(0.1, 6.0, max(n, 1))])
    k = k % max(n, 1)
    x[coord, k] = bad
    return (list(x) if n else [float(v) for v in x[:, 0]]), list(x[:, k])


def _named(names, point):
    """The end of the DomainError message that names ``point``."""
    return re.escape(f"({names}) = (" + ", ".join(repr(float(v)) for v in point)
                     + ")")


_NON_FINITE = dict(index=st.integers(0, len(_CATALOG) - 1),
                   bad=st.sampled_from([np.nan, np.inf, -np.inf]),
                   n=st.sampled_from([0, 1, 4]), k=st.integers(0, 3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coord=st.integers(0, 3), **_NON_FINITE)
def test_non_finite_coordinate_is_rejected(index, coord, bad, n, k):
    """A NaN or +-inf in any coordinate of a catalog metric's point raises
    DomainError naming that point, through every evaluation, which takes
    the same points finite."""
    g = _CATALOG[index]
    pt, point = _poisoned_points(n, coord, k, bad)
    ok, _ = _poisoned_points(n, coord, k, 9.0 if coord == 1 else 1.0)
    time = "u" if g.chart == "retarded" else "t"
    text = "coordinate is not finite at " + _named(f"{time}, r, theta, psi",
                                                   point)
    for evaluate in (g.components, g.first_derivs,
                     lambda p: g.jets(p, order=1), lambda p: g.jets(p, order=2),
                     lambda p: ricci_tensor(g, p)):
        evaluate(ok)
        with pytest.raises(DomainError, match=text):
            evaluate(pt)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(coord=st.integers(1, 3), **_NON_FINITE)
def test_non_finite_slice_coordinate_is_rejected(index, coord, bad, n, k):
    """The t = 0 slice of a catalog metric rejects a NaN or +-inf slice
    coordinate, naming the point, and takes the same points finite."""
    g = _CATALOG[index]
    data = pullback_initial_data(g, _t0_slice(g.chart), euclidean_frame())
    pt, point = _poisoned_points(n, coord, k, bad)
    ok, _ = _poisoned_points(n, coord, k, 9.0 if coord == 1 else 1.0)
    data.values(ok[1:])
    with pytest.raises(DomainError, match="coordinate is not finite at "
                       + _named("r, theta, psi", point[1:])):
        data.values(pt[1:])
