"""Null-infinity background, deviations, integrands and charges."""

import numpy as np
import pytest

from admbondi import jets
from admbondi.bondi import BondiExpansion, induced_slice_data
from admbondi.errors import ConfigError
from admbondi.geometry import hyperboloid_frame, pullback_initial_data
from admbondi.ladder import fit_field
from admbondi.nullcharges import (background_connection, background_connection_fd,
                                  charge_integrand, check_dec_null,
                                  check_pmt_null, decay_orders, deviation,
                                  diverging, estimate_decay_order, margins,
                                  named_fits, null_energy_momentum)
from admbondi.spacetimes import hyperboloid_embedding, minkowski
from admbondi.sphere import build_grid
from helpers import from_gp


def _zero(u, th, ps):
    return 0.0 * u


def schw_bondi_expansion(m=1.0):
    def M(u, th, ps):
        return m + 0.0 * u
    return BondiExpansion(c=_zero, d=_zero, M=M, name="schw-bondi")


@pytest.fixture(scope="module")
def schw_slice():
    return induced_slice_data(schw_bondi_expansion(), u0=0.0, a3=None)


@pytest.fixture(scope="module")
def hyperboloid_pullback():
    return pullback_initial_data(minkowski("polar"), hyperboloid_embedding(),
                                 hyperboloid_frame())


# -- background connection ---------------------------------------------------

def test_background_connection_against_fd(rng):
    for _ in range(50):
        r = rng.uniform(0.5, 30.0)
        th = rng.uniform(0.3, np.pi - 0.3)
        closed = background_connection(r, th)
        fd = background_connection_fd(r, th)
        assert np.max(np.abs(closed - fd)) <= 1e-8


def test_background_connection_metric_compatible_and_torsion_free(rng):
    # with constant frame components of the metric, compatibility reads
    # Gamma[i,k,j] + Gamma[j,k,i] = 0 in the lowered (delta) index
    for _ in range(20):
        r = rng.uniform(0.5, 20.0)
        th = rng.uniform(0.3, np.pi - 0.3)
        gam = background_connection(r, th)
        sym = gam + np.swapaxes(gam, 0, 2)  # Gamma^m_{ki} + Gamma^i_{km}
        assert np.max(np.abs(sym)) <= 1e-10
        # torsion: nabla_i e_j - nabla_j e_i = [e_i, e_j]
        fd = background_connection_fd(r, th)
        assert np.max(np.abs(fd - gam)) <= 1e-8


def test_background_curvature_is_hyperbolic(hyperbolic_background):
    from admbondi.geometry import frame_geometry
    R = frame_geometry(hyperbolic_background, [2.5, 1.1, 0.4])["scalar"]
    assert float(R) == pytest.approx(-6.0, abs=1e-10)


# -- deviations ---------------------------------------------------------------

def test_hyperboloid_deviation_zero(hyperboloid_pullback):
    a, b = deviation(hyperboloid_pullback, [3.0, 1.0, 0.5])
    assert np.max(np.abs(a)) <= 1e-12
    assert np.max(np.abs(b)) <= 1e-12


def test_values_broadcast_plain_zero_entries():
    # off-diagonal entries are the plain float 0.0, the diagonal per node
    def gp(c):
        d = 1.0 + 1.0 / (c[0] * c[0])
        m = [[d, 0.0, 0.0], [0.0, d, 0.0], [0.0, 0.0, d]]
        return m, m
    data = from_gp(gp, hyperboloid_frame(), "diagonal")
    r = np.array([2.0, 4.0])
    pts = [r, np.array([1.0, 1.5]), np.array([0.5, 2.0])]
    g, p = data.values(pts)
    assert g.shape == p.shape == (3, 3, 2)
    assert np.array_equal(g, np.eye(3)[:, :, None] * (1.0 + 1.0 / r ** 2))
    a, b = deviation(data, pts)
    assert np.array_equal(a, np.eye(3)[:, :, None] / r ** 2)
    assert np.array_equal(b, a)
    fits = decay_orders(data, [10.0, 20.0, 40.0, 80.0], build_grid(4, 8))
    assert fits["a11"].exponent == pytest.approx(2.0, abs=1e-9)
    assert fits["b33"].exponent == pytest.approx(2.0, abs=1e-9)
    assert fits["a12"].exact and fits["b23"].exact


def test_schw_bondi_deviation_a11(schw_slice):
    for r in (10.0, 40.0):
        a, b = deviation(schw_slice, [r, 1.2, 0.4])
        assert a[0, 0] == pytest.approx(0.5 / r ** 3, rel=1e-12)
        assert b[0, 0] == pytest.approx(-1.0 / r ** 3, rel=1e-12)


def test_news_slice_deviation_leading_orders():
    def c(u, th, ps):
        return 0.2 * u * jets.sin(th) ** 2
    exp = BondiExpansion(c=c, d=_zero, M=lambda u, th, ps: 1.0 + 0.0 * u,
                         name="q")
    data = induced_slice_data(exp, u0=1.0, a3=None)
    r, th = 30.0, 1.2
    a, _ = deviation(data, [r, th, 0.3])
    c_of_th = 0.2 * 1.0 * np.sin(th) ** 2
    c0 = 0.2 * np.sin(th) ** 2
    # a22 = 2c/r + (2(c^2+d^2)+c_,0)/r^2 + O(r^-3)
    lead = 2 * c_of_th / r + (2 * c_of_th ** 2 + c0) / r ** 2
    assert a[1, 1] == pytest.approx(lead, abs=5e-5)


def test_decay_orders(schw_slice):
    fit = estimate_decay_order(schw_slice, "a11", [20.0, 40.0, 80.0, 160.0])
    assert fit.exponent == pytest.approx(3.0, abs=0.1)
    fit22 = estimate_decay_order(schw_slice, "a22", [20.0, 40.0, 80.0, 160.0])
    assert fit22.exact


def test_decay_orders_with_news_at_tau_two():
    def c(u, th, ps):
        return 0.1 * (u - 2.0) * jets.sin(th) ** 2
    exp = BondiExpansion(c=c, d=_zero, M=lambda u, th, ps: 1.0 + 0.0 * u)
    data = induced_slice_data(exp, u0=2.0, a3=None)   # c = 0, c_,0 != 0 there
    fit = estimate_decay_order(data, "a22", [20.0, 40.0, 80.0, 160.0])
    assert fit.exponent == pytest.approx(2.0, abs=0.1)
    for comp in ("a11", "a12", "b11", "b22"):
        f = estimate_decay_order(data, comp, [20.0, 40.0, 80.0, 160.0])
        assert f.exact or f.exponent >= 1.9, comp


def test_unknown_component_rejected(schw_slice):
    # a ladder the decay fit accepts, so only the component can be at fault
    with pytest.raises(ConfigError, match="unknown component 'a41'"):
        estimate_decay_order(schw_slice, "a41", [10.0, 20.0, 40.0, 80.0])


def test_hyperboloid_exact_zero_order(hyperboloid_pullback):
    fit = estimate_decay_order(hyperboloid_pullback, "a11", [1.0, 2.0, 3.0, 4.0])
    assert fit.exact


# -- integrands ---------------------------------------------------------------

def test_integrand_vanishes_on_background(hyperbolic_background):
    e, p = charge_integrand(hyperbolic_background, [4.0, 1.1, 0.3])
    assert abs(float(e)) <= 1e-14
    assert np.max(np.abs(p)) <= 1e-14


def test_integrand_conformal_against_fd():
    # a = phi(r) * delta: compare the energy integrand with a finite
    # difference evaluation of the background covariant divergence
    def gp(c):
        r, th, ps = c
        phi = 0.01 / (1.0 + r * r)
        g = [[1.0 + phi, 0.0, 0.0], [0.0, 1.0 + phi, 0.0], [0.0, 0.0, 1.0 + phi]]
        return g, g
    data = from_gp(gp, hyperboloid_frame(), "conformal")
    r, th, ps = 3.0, 1.2, 0.4
    e, _ = charge_integrand(data, [r, th, ps])

    def phi(rr):
        return 0.01 / (1.0 + rr * rr)

    h = 1e-6
    dphi = np.sqrt(1.0 + r * r) * (phi(r + h) - phi(r - h)) / (2 * h)
    gam = background_connection(r, th)
    pv = phi(r)
    # nabla^j a_1j = e_1 a_11 - sum Gamma-terms; a = pv * I
    div = dphi
    for k in range(3):
        for mz in range(3):
            div -= gam[mz][k][0] * (pv if mz == k else 0.0)
            div -= gam[mz][k][k] * (pv if mz == 0 else 0.0)
    ref = div - 3.0 * dphi - (pv - (1.0 + pv) * 3.0 * pv)
    assert float(e) == pytest.approx(ref, abs=1e-8)


def test_momentum_integrand_direct_substitution():
    # b = background (so p data doubles it): P_k = b_k1 - g_k1 tr(b)
    def gp(c):
        eye = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        two = [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]
        return eye, two
    data = from_gp(gp, hyperboloid_frame(), "b-eq-g")
    _, p = charge_integrand(data, [5.0, 1.0, 1.0])
    # b = delta: tr b = 3, so P_1 = 1 - 1*3 = -2, P_2 = P_3 = 0
    assert p[0] == pytest.approx(-2.0)
    assert abs(p[1]) <= 1e-14 and abs(p[2]) <= 1e-14


def test_integrand_linearity_in_small_amplitude():
    def make(eps):
        def gp(c):
            r, th, ps = c
            w = eps * jets.sin(th) ** 2 / (1.0 + r ** 3)
            g = [[1.0 + w, 0.5 * w, 0.0], [0.5 * w, 1.0 - w, 0.0],
                 [0.0, 0.0, 1.0]]
            p = [[1.0 + 2.0 * w, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0 - w]]
            return g, p
        return from_gp(gp, hyperboloid_frame(), f"eps={eps}")

    pt = [2.0, 1.1, 0.7]
    eps = 1e-4
    e1, p1 = charge_integrand(make(eps), pt)
    e2, p2 = charge_integrand(make(2 * eps), pt)
    # linear up to the quadratic a_11 tr(a) correction from the literal g_11
    assert abs(float(e2) - 2 * float(e1)) <= 50.0 * eps ** 2
    assert np.max(np.abs(p2 - 2 * p1)) <= 50.0 * eps ** 2


# -- charges ------------------------------------------------------------------

def test_hyperboloid_charges_tiny(hyperboloid_pullback):
    ch = null_energy_momentum(hyperboloid_pullback, [0.5, 1.0, 2.0, 4.0],
                              grid=build_grid(32, 64))
    assert np.max(np.abs(ch.E)) <= 1e-12
    assert np.max(np.abs(ch.P)) <= 1e-12
    # roundoff is the only error here, and the estimates cover it
    assert all(abs(f.value) <= f.error for f in named_fits(ch).values())


def test_schw_bondi_charges(schw_slice):
    grid = build_grid(32, 64)
    ch = null_energy_momentum(schw_slice, [20.0, 40.0, 80.0, 160.0], grid=grid)
    m = margins(ch)
    assert m[0] == pytest.approx(1.0, abs=1e-4)
    assert np.max(np.abs(m[1:])) <= 1e-10
    assert check_pmt_null(ch) == pytest.approx(1.0, abs=1e-4)
    # self-convergence: double the resolution and compare
    ch2 = null_energy_momentum(schw_slice, [20.0, 40.0, 80.0, 160.0],
                               grid=build_grid(64, 128))
    assert abs(check_pmt_null(ch2) - check_pmt_null(ch)) <= 1e-4


def test_charges_with_fd_connection_agree(schw_slice):
    # swap the closed-form background connection for the finite-difference
    # oracle inside the integrand and compare the resulting charges; the
    # oracle is called once per block of theta rows, at every radius of the
    # ladder
    import admbondi.nullcharges as nc
    grid = build_grid(16, 32)
    ladder = [20.0, 40.0, 80.0]
    base = null_energy_momentum(schw_slice, ladder, grid=grid)
    orig = nc.background_connection
    calls = []
    try:
        def fd_conn(r, th):
            r, th = np.broadcast_arrays(np.asarray(r, dtype=float),
                                        np.asarray(th, dtype=float))
            calls.append(r.shape)
            out = np.zeros((3, 3, 3) + r.shape)
            for idx in np.ndindex(r.shape):
                out[(Ellipsis,) + idx] = background_connection_fd(
                    float(r[idx]), float(th[idx]))
            return out
        nc.background_connection = fd_conn
        alt = null_energy_momentum(schw_slice, ladder, grid=grid)
    finally:
        nc.background_connection = orig
    # three rungs of 16 theta rows: one block (``rung_blocks``)
    assert calls == [(3, 16, 1)]
    assert np.max(np.abs(base.E - alt.E)) <= 1e-8
    assert np.max(np.abs(base.P - alt.P)) <= 1e-8


def test_charge_samples_cauchy(schw_slice):
    ch = null_energy_momentum(schw_slice, [20.0, 30.0, 45.0, 70.0, 110.0],
                              grid=build_grid(16, 32))
    s = fit_field(ch.energy[0], "samples")
    early = np.max(np.abs(np.diff(s[:3])))
    late = np.max(np.abs(np.diff(s[-2:])))
    assert late < early


def test_doubling_a_roughly_doubles_energy_charges():
    def make(scale):
        def gp(c):
            r, th, ps = c
            w = scale * 1e-3 * jets.sin(th) ** 2 / r ** 3
            g = [[1.0 + w, 0.0, 0.0], [0.0, 1.0 + 0.5 * w, 0.0],
                 [0.0, 0.0, 1.0 - 0.2 * w]]
            eye = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
            return g, eye
        return from_gp(gp, hyperboloid_frame(), "scaled")
    grid = build_grid(16, 32)
    c1 = null_energy_momentum(make(1.0), [20.0, 40.0, 80.0], grid=grid)
    c2 = null_energy_momentum(make(2.0), [20.0, 40.0, 80.0], grid=grid)
    assert np.allclose(c2.E, 2.0 * c1.E, atol=1e-9)


# -- inequalities -------------------------------------------------------------

def test_dec_margin_hyperboloid(hyperbolic_background):
    m = check_dec_null(hyperbolic_background, [3.0, 1.2, 0.4])
    assert abs(float(m)) <= 1e-7


def test_dec_margin_schw_bondi_vacuum():
    data = pullback_initial_data(
        __import__("admbondi.spacetimes", fromlist=["x"]).schwarzschild(1.0, "retarded"),
        __import__("admbondi.spacetimes", fromlist=["x"]).bondi_slice_embedding(
            schw_bondi_expansion(), 0.0, None),
        hyperboloid_frame())
    pts = [np.array([20.0, 30.0, 50.0]), np.array([1.0, 1.6, 2.2]),
           np.array([0.2, 2.1, 4.0])]
    m = check_dec_null(data, pts)
    assert np.max(np.abs(m)) <= 1e-4


def test_symmetric_p_margin_arms_coincide(hyperbolic_background):
    cq_margin = check_dec_null(hyperbolic_background, [2.0, 1.0, 0.5])
    assert abs(float(cq_margin)) <= 1e-7


def test_divergent_ladder_flagged():
    # a slice with c != 0 at u0 has deviations of order 1; the energy ladder
    # grows with r and must carry the divergence flag
    def c(u, th, ps):
        return 0.2 * jets.sin(th) ** 2 * (1.0 + 0.1 * u)
    exp = BondiExpansion(c=c, d=_zero, M=lambda u, th, ps: 1.0 + 0.0 * u)
    data = induced_slice_data(exp, u0=0.0, a3=None)
    ch = null_energy_momentum(data, [30.0, 60.0, 120.0, 240.0],
                              grid=build_grid(16, 32))
    assert ch.energy[0].diverging
    assert diverging(ch)


def test_decay_order_needs_four_radii(schw_slice):
    message = r"radius ladder \[20.0, 40.0, 80.0\] needs >= 4 rungs, got 3"
    with pytest.raises(ConfigError, match=message):
        estimate_decay_order(schw_slice, "a11", [20.0, 40.0, 80.0])
