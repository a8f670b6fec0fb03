"""Spatial-infinity charges, decay checks and flat-case inequalities."""

import numpy as np
import pytest

from admbondi import jets
from admbondi.adm import (adm_energy_momentum, check_af_decay,
                          check_dec_flat, check_pmt_flat, rotated_data)
from admbondi.errors import ConfigError, DomainError
from admbondi.geometry import (InitialData, euclidean_frame, hyperboloid_frame,
                               pullback_initial_data)
from admbondi.ladder import fit_decay_exponent, fit_inverse_powers
from admbondi.spacetimes import (KerrParameters, kerr, minkowski, schwarzschild,
                                 t_const_embedding)
from admbondi.sphere import build_grid

LADDER = [10.0, 20.0, 40.0, 80.0]


@pytest.fixture(scope="module")
def grid():
    return build_grid(32, 64)


@pytest.fixture(scope="module")
def schw_data():
    return pullback_initial_data(schwarzschild(1.0, "static"),
                                 t_const_embedding(), euclidean_frame())


def test_minkowski_charges_vanish(grid):
    data = pullback_initial_data(minkowski("polar"), t_const_embedding(),
                                 euclidean_frame())
    ch = adm_energy_momentum(data, LADDER, grid)
    assert abs(ch.E) <= 1e-12
    assert np.max(np.abs(ch.P)) <= 1e-12


def test_schwarzschild_energy(schw_data, grid):
    ch = adm_energy_momentum(schw_data, LADDER, grid)
    assert abs(ch.E - 1.0) <= 1e-3
    assert np.max(np.abs(ch.P)) <= 1e-6
    # per-radius samples follow m / (1 - 2m/r)
    for r, s in zip(ch.energy.radii, ch.energy.samples):
        assert s == pytest.approx(1.0 / (1.0 - 2.0 / r), rel=1e-9)


def test_kerr_energy(grid):
    data = pullback_initial_data(kerr(KerrParameters(1.0, 0.5)),
                                 t_const_embedding(), euclidean_frame())
    ch = adm_energy_momentum(data, LADDER, grid)
    assert abs(ch.E - 1.0) <= 1e-2
    assert np.max(np.abs(ch.P)) <= 1e-4


def test_time_symmetric_momentum_identically_zero(schw_data, grid):
    ch = adm_energy_momentum(schw_data, LADDER, grid)
    assert all(s == 0.0 for m in ch.momentum for s in m.samples)


def test_wrong_frame_rejected():
    data = InitialData(lambda c: ([[1.0] * 3] * 3, [[0.0] * 3] * 3),
                       hyperboloid_frame(), True)
    with pytest.raises(ConfigError):
        adm_energy_momentum(data, LADDER)


def test_ladder_validation(schw_data):
    with pytest.raises(ConfigError):
        adm_energy_momentum(schw_data, [80.0, 40.0])
    with pytest.raises(ConfigError):
        fit_inverse_powers([10.0, 10.0, 20.0], [1.0, 1.0, 1.0])


def synthetic_momentum_data(w):
    """g = delta, h = (w otimes n + n otimes w)/r^2: P = w/3 in closed form."""
    def gp(c):
        r, th, ps = c
        st, ct = jets.sin(th), jets.cos(th)
        n = [st * jets.cos(ps), st * jets.sin(ps), ct]
        eye = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        h = [[(w[i] * n[j] + n[i] * w[j]) / (r * r) for j in range(3)]
             for i in range(3)]
        return eye, h
    return InitialData(gp, euclidean_frame(), True, "boost-like")


def test_synthetic_momentum_closed_form(grid):
    w = np.array([0.9, -0.3, 0.45])
    ch = adm_energy_momentum(synthetic_momentum_data(w), LADDER, grid)
    assert np.allclose(ch.P, w / 3.0, atol=1e-10)
    assert abs(ch.E) <= 1e-10


def test_rotation_covariance(grid):
    w = np.array([0.9, -0.3, 0.45])
    data = synthetic_momentum_data(w)
    th = 0.7
    Q = np.array([[np.cos(th), -np.sin(th), 0.0],
                  [np.sin(th), np.cos(th), 0.0],
                  [0.0, 0.0, 1.0]])
    ch0 = adm_energy_momentum(data, LADDER, grid)
    ch1 = adm_energy_momentum(rotated_data(data, Q), LADDER, grid)
    assert abs(ch1.E - ch0.E) <= 1e-9 * (1.0 + abs(ch0.E))
    assert np.allclose(ch1.P, Q @ ch0.P, atol=1e-9)


def test_grid_refinement_within_residual(schw_data):
    coarse = adm_energy_momentum(schw_data, LADDER, build_grid(24, 48))
    fine = adm_energy_momentum(schw_data, LADDER, build_grid(48, 96))
    assert abs(fine.E - coarse.E) <= max(coarse.energy.residual, 1e-12)


def test_af_decay_schwarzschild(schw_data):
    out = check_af_decay(schw_data, [10.0, 20.0, 40.0, 80.0])
    # exponents ~ (1, 2, 3); subleading tails may steepen the finite-ladder fit
    assert 0.9 <= out["g"]["fit"].exponent <= 1.4
    assert 1.9 <= out["dg"]["fit"].exponent <= 2.5
    assert 2.9 <= out["ddg"]["fit"].exponent <= 3.6
    assert out["h"]["fit"].exact and out["dh"]["fit"].exact
    assert all(v["ok"] for v in out.values())


def test_af_decay_minkowski_exact():
    data = pullback_initial_data(minkowski("polar"), t_const_embedding(),
                                 euclidean_frame())
    out = check_af_decay(data, [10.0, 20.0, 40.0, 80.0])
    assert all(v["fit"].exact for v in out.values())


def test_decay_fit_rejects_non_finite_samples():
    # NaN is not below the exact-zero floor, so it must not read as "exact"
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="radius 20"):
            fit_decay_exponent(LADDER, [1e-3, bad, 1e-5, 1e-6])


def test_af_decay_nan_mass_raises():
    data = pullback_initial_data(schwarzschild(float("nan"), "static"),
                                 t_const_embedding(), euclidean_frame())
    with pytest.raises(DomainError):
        check_af_decay(data, LADDER)


def test_af_decay_kerr_h():
    data = pullback_initial_data(kerr(KerrParameters(1.0, 0.5)),
                                 t_const_embedding(), euclidean_frame())
    out = check_af_decay(data, [10.0, 20.0, 40.0, 80.0])
    assert out["h"]["fit"].exact or out["h"]["fit"].exponent >= 2.0
    assert all(v["ok"] for v in out.values())


def test_dec_margin_vacuum(schw_data, rng):
    pts = [rng.uniform(4.0, 20.0, size=6), rng.uniform(0.5, 2.6, size=6),
           rng.uniform(0.0, 6.2, size=6)]
    margin = check_dec_flat(schw_data, pts)
    assert np.max(np.abs(margin)) <= 1e-7


def test_dec_margin_kerr(rng):
    data = pullback_initial_data(kerr(KerrParameters(1.0, 0.5)),
                                 t_const_embedding(), euclidean_frame())
    pts = [rng.uniform(5.0, 20.0, size=4), rng.uniform(0.6, 2.5, size=4),
           rng.uniform(0.0, 6.2, size=4)]
    margin = check_dec_flat(data, pts)
    assert np.max(np.abs(margin)) <= 1e-5


def test_pmt_margin_arithmetic():
    assert check_pmt_flat((2.0, (1.0, 0.0, 0.0))) == pytest.approx(1.0)
    assert check_pmt_flat((0.0, (0.0, 0.0, 0.0))) == 0.0


def test_pmt_margin_schwarzschild(schw_data, grid):
    ch = adm_energy_momentum(schw_data, LADDER, grid)
    assert check_pmt_flat(ch) == pytest.approx(1.0, abs=1e-3)
