"""Spatial-infinity charges, decay checks and flat-case inequalities."""

import functools

import numpy as np
import pytest

from admbondi import adm, jets
from admbondi.adm import (AF_DECAY_SLACK, AF_REQUIRED_ORDERS,
                          adm_energy_momentum, check_af_decay, check_dec_flat,
                          check_pmt_flat)
from admbondi.errors import ConfigError, DomainError
from admbondi.geometry import (Embedding, InitialData, _chart_gradient,
                               _chart_hessian, _leaf_array, euclidean_frame,
                               hyperboloid_frame, pullback_initial_data)
from admbondi.ladder import fit_decay_exponent, fit_inverse_powers
from admbondi.spacetimes import (KerrParameters, kerr, minkowski, schwarzschild,
                                 t_const_embedding)
from admbondi.scenarios import ScenarioConfig, make_adm_data, make_grid
from helpers import arccos, from_gp, rotated_data
from admbondi.sphere import build_grid

LADDER = [10.0, 20.0, 40.0, 80.0]


@pytest.fixture(scope="module")
def grid():
    return build_grid(32, 64)


@pytest.fixture(scope="module")
def schw_data():
    return pullback_initial_data(schwarzschild(1.0, "polar"),
                                 t_const_embedding(), euclidean_frame())


def test_minkowski_charges_vanish(grid):
    data = pullback_initial_data(minkowski("polar"), t_const_embedding(),
                                 euclidean_frame())
    ch = adm_energy_momentum(data, LADDER, grid)
    assert abs(ch.E) <= 1e-12
    assert np.max(np.abs(ch.P)) <= 1e-12


def assert_errors_cover(ch, exact):
    """Each charge of ``ch`` is within its error estimate of ``exact``, the
    closed-form (E, P)."""
    for fit, x in zip((ch.energy, *ch.momentum), exact, strict=True):
        assert abs(fit.value - x) <= fit.error, (fit, x)


def test_schwarzschild_energy(schw_data, grid):
    ch = adm_energy_momentum(schw_data, LADDER, grid)
    assert abs(ch.E - 1.0) <= 1e-4
    assert np.max(np.abs(ch.P)) <= 1e-6
    assert_errors_cover(ch, [1.0, 0.0, 0.0, 0.0])
    # per-radius samples follow m / (1 - 2m/r)
    for r, s in zip(LADDER, ch.energy.samples):
        assert s == pytest.approx(1.0 / (1.0 - 2.0 / r), rel=1e-9)


def test_kerr_energy(grid):
    data = pullback_initial_data(kerr(KerrParameters(1.0, 0.5)),
                                 t_const_embedding(), euclidean_frame())
    ch = adm_energy_momentum(data, LADDER, grid)
    assert abs(ch.E - 1.0) <= 1e-4
    assert np.max(np.abs(ch.P)) <= 1e-4
    assert_errors_cover(ch, [1.0, 0.0, 0.0, 0.0])


def test_time_symmetric_momentum_identically_zero(schw_data, grid):
    ch = adm_energy_momentum(schw_data, LADDER, grid)
    assert all(s == 0.0 for m in ch.momentum for s in m.samples)


def test_wrong_frame_rejected():
    data = from_gp(lambda c: ([[1.0] * 3] * 3, [[0.0] * 3] * 3),
                       hyperboloid_frame())
    with pytest.raises(ConfigError):
        adm_energy_momentum(data, LADDER, build_grid(48, 96))


def test_ladder_validation(schw_data):
    with pytest.raises(ConfigError):
        adm_energy_momentum(schw_data, [80.0, 40.0], build_grid(48, 96))
    with pytest.raises(ConfigError):
        fit_inverse_powers([10.0, 10.0, 20.0], [1.0, 1.0, 1.0], 0.0)


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
    return from_gp(gp, euclidean_frame(), "boost-like")


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


def boosted_embedding(beta):
    """The t' = 0 slice of the frame moving with velocity beta along z: in
    slice coordinates z' = r' cos(theta') and rho = r' sin(theta'), it is
    t = gamma beta z', z = gamma z', r = sqrt(rho^2 + z^2),
    theta = arccos(z / r), psi = psi'."""
    gamma = 1.0 / np.sqrt(1.0 - beta * beta)

    def fn(c):
        r, th, ps = c
        z, rho = gamma * r * jets.cos(th), r * jets.sin(th)
        rr = jets.sqrt(rho * rho + z * z)
        return [beta * z, rr, arccos(z / rr), ps]
    return Embedding(fn, "polar", f"boost(beta={beta})")


# The extrapolation of the static E through the 4 rungs of LADDER is within
# 1e-4 m (test_schwarzschild_energy); a boost scales the charges by gamma.
_BOOST_TOL = 1e-4


@pytest.mark.parametrize("metric", [schwarzschild(1.0, "polar"),
                                    kerr(KerrParameters(1.0, 0.5))],
                         ids=["schwarzschild", "kerr-0.5"])
@pytest.mark.parametrize("beta", [0.6, -0.6, 0.3])
def test_boosted_slice_carries_the_boosted_momentum(metric, beta):
    """The ADM 4-momentum of a boosted slice of a mass-1 black hole is
    (gamma, 0, 0, gamma beta) and its positive-mass margin
    gamma (1 - |beta|); the same slice with h negated fails P_z."""
    gamma = 1.0 / np.sqrt(1.0 - beta * beta)
    data = pullback_initial_data(metric, boosted_embedding(beta),
                                 euclidean_frame())
    grid = build_grid(24, 48)
    tol = _BOOST_TOL * gamma
    ch = adm_energy_momentum(data, LADDER, grid)
    assert abs(ch.E - gamma) <= tol
    assert abs(ch.P[2] - gamma * beta) <= tol
    assert np.max(np.abs(ch.P[:2])) <= 1e-12
    assert abs(check_pmt_flat(ch) - gamma * (1.0 - abs(beta))) <= 2.0 * tol
    assert_errors_cover(ch, [gamma, 0.0, 0.0, gamma * beta])

    def flipped(c, F, S):
        return [[0.0 - x for x in row] for row in data.p(c, F, S)]
    flip = adm_energy_momentum(
        InitialData(data.g, flipped, data.frame, "h flipped"), LADDER, grid)
    assert abs(flip.E - gamma) <= tol
    assert abs(flip.P[2] - gamma * beta) > tol


def test_boost_along_a_generic_axis_rotates_the_momentum():
    """The beta = 0.6 boost along z, seen in a chart rotated by Q that takes
    z to a generic direction, is a boost along Q z: the same E, P rotated to
    Q P, and still the boosted 4-momentum (gamma, Q (0, 0, gamma beta))."""
    beta = 0.6
    gamma = 1.0 / np.sqrt(1.0 - beta * beta)
    a, b = 0.9, 0.4
    Rz = np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0],
                   [0.0, 0.0, 1.0]])
    Ry = np.array([[np.cos(b), 0.0, np.sin(b)], [0.0, 1.0, 0.0],
                   [-np.sin(b), 0.0, np.cos(b)]])
    Q = Rz @ Ry
    assert np.min(np.abs(Q[:, 2])) > 0.1        # Q z has no zero component
    data = pullback_initial_data(schwarzschild(1.0, "polar"),
                                 boosted_embedding(beta), euclidean_frame())
    grid = build_grid(24, 48)
    ch = adm_energy_momentum(data, LADDER, grid)
    rot = adm_energy_momentum(rotated_data(data, Q), LADDER, grid)
    assert abs(rot.E - ch.E) <= 1e-12
    assert np.max(np.abs(rot.P - Q @ ch.P)) <= 1e-12
    tol = _BOOST_TOL * gamma
    assert abs(rot.E - gamma) <= tol
    assert np.max(np.abs(rot.P - Q @ [0.0, 0.0, gamma * beta])) <= tol


_BLOCKED_DATA = {
    "schwarzschild": (schwarzschild(1.0, "polar"), t_const_embedding()),
    "kerr-0.5": (kerr(KerrParameters(1.0, 0.5)), t_const_embedding()),
    "boosted": (schwarzschild(1.0, "polar"), boosted_embedding(0.6)),
}


@pytest.mark.parametrize("momentum", [True, False])
@pytest.mark.parametrize("ladder", [LADDER, LADDER + [160.0]],
                         ids=["4 rungs", "5 rungs"])
@pytest.mark.parametrize("shape", [(24, 48), (48, 96)])
@pytest.mark.parametrize("case", sorted(_BLOCKED_DATA))
def test_blocked_ladder_samples_equal_the_rung_by_rung_ones(case, shape,
                                                             ladder, momentum):
    """Every sample of a ladder evaluated in ``rung_blocks`` (one block of
    4 rungs on 24 x 48, two of 5; four and five blocks on 48 x 96) equals
    the sample of its rung evaluated alone, bit for bit with zero signs."""
    metric, emb = _BLOCKED_DATA[case]
    data = pullback_initial_data(metric, emb, euclidean_frame())
    grid = build_grid(*shape)

    def rows(ladder):
        """One row per rung: E, then P_k with ``momentum``."""
        samples = adm.adm_ladder_samples(data, ladder, grid, momentum)
        return np.column_stack(samples if momentum else [samples])

    got = rows(ladder)
    ref = np.vstack([rows([r]) for r in ladder])
    assert np.array_equal(got, ref), (case, shape)
    assert np.array_equal(np.signbit(got), np.signbit(ref)), (case, shape)


def test_grid_refinement_within_roundoff(schw_data):
    coarse = adm_energy_momentum(schw_data, LADDER, build_grid(24, 48))
    fine = adm_energy_momentum(schw_data, LADDER, build_grid(48, 96))
    assert abs(fine.E - coarse.E) <= 1e-12


# The default ADM grid against 96 x 192: the README ladder and one four
# times closer in, where the Kerr integrands carry more angular structure.
_RESOLUTION_LADDERS = ((10.0, 20.0, 40.0, 80.0), (2.5, 5.0, 10.0, 20.0))
_RESOLUTION_BOUND = 1e-13


@functools.cache
def _adm_charges(preset, spin, radii, shape):
    """(E, P_1, P_2, P_3) of a preset on the grid of ``shape``."""
    cfg = ScenarioConfig(preset=preset, spin=spin)
    ch = adm_energy_momentum(make_adm_data(cfg), radii, build_grid(*shape))
    return np.append(ch.E, ch.P)


def _resolution_deviation(preset, spin, radii, shape):
    """max |(E, P) on ``shape`` - (E, P) on 96 x 192|."""
    return np.max(np.abs(_adm_charges(preset, spin, radii, shape)
                         - _adm_charges(preset, spin, radii, (96, 192))))


@pytest.mark.parametrize("radii", _RESOLUTION_LADDERS)
@pytest.mark.parametrize("preset, spin", [("schwarzschild", 0.5),
                                          ("kerr", 0.5), ("kerr", 0.95),
                                          ("minkowski", 0.5)])
def test_default_adm_grid_matches_96x192(preset, spin, radii):
    shape = make_grid(ScenarioConfig(preset=preset), "adm").shape
    assert _resolution_deviation(preset, spin, radii, shape) \
        <= _RESOLUTION_BOUND


def test_coarse_adm_grid_fails_the_resolution_bound():
    """The negative control: on 2 x 4 the Kerr a = 0.95 charges are off by
    about 2e-6, so the comparison above can fail."""
    assert _resolution_deviation("kerr", 0.95, _RESOLUTION_LADDERS[0],
                                 (2, 4)) > _RESOLUTION_BOUND


def test_af_decay_schwarzschild(schw_data):
    out = check_af_decay(schw_data, [10.0, 20.0, 40.0, 80.0])
    # exponents ~ (1, 2, 3); subleading tails may steepen the finite-ladder fit
    assert 0.9 <= out["g"].exponent <= 1.4
    assert 1.9 <= out["dg"].exponent <= 2.5
    assert 2.9 <= out["ddg"].exponent <= 3.6
    assert out["h"].exact and out["dh"].exact
    assert all(f.exponent - AF_REQUIRED_ORDERS[k] >= -AF_DECAY_SLACK
               for k, f in out.items())


def test_second_frame_derivative_matches_index_loops(rng):
    # e_k(e_l g_ij) = F_k^a (d_a F_l^b) d_b g_ij + F_k^a F_l^b d_a d_b g_ij,
    # term by term over the chart indices, against the sup that the decay
    # check fits
    data = pullback_initial_data(kerr(KerrParameters(1.0, 0.6)),
                                 t_const_embedding(), euclidean_frame())
    coords = [rng.uniform(5.0, 40.0, 20).reshape(1, 4, 5),
              rng.uniform(0.4, 2.7, 20).reshape(1, 4, 5),
              rng.uniform(0.0, 6.2, 20).reshape(1, 4, 5)]
    leaf = coords[1].shape
    G, _, _ = data.jets(coords, order=2)
    F = data.frame.components(jets.seed(coords, order=1))
    Fv = _leaf_array(F, jets.value, leaf)
    dF = _chart_gradient(F, leaf)
    dG = _chart_gradient(G, leaf)
    hG = _chart_hessian(G, leaf)
    ddG = 0.0
    for a in range(3):
        for b in range(3):
            ddG = ddG + Fv[:, a, None, None, None] * (
                dF[a, :, b, None, None] * dG[b]
                + Fv[:, b, None, None] * hG[a, b])
    want = np.max(np.abs(ddG))
    assert want > 1e-4
    got = adm._decay_sups(data, coords)["ddg"]
    assert got == pytest.approx([want], rel=1e-13)


def test_af_decay_minkowski_exact():
    data = pullback_initial_data(minkowski("polar"), t_const_embedding(),
                                 euclidean_frame())
    out = check_af_decay(data, [10.0, 20.0, 40.0, 80.0])
    assert all(f.exact for f in out.values())


def test_decay_fit_rejects_non_finite_samples():
    # NaN is not below the exact-zero floor, so it must not read as "exact"
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="radius 20"):
            fit_decay_exponent(LADDER, [1e-3, bad, 1e-5, 1e-6])


def test_af_decay_nan_mass_raises():
    with pytest.raises(DomainError, match="mass"):
        data = pullback_initial_data(schwarzschild(float("nan"), "polar"),
                                     t_const_embedding(), euclidean_frame())
        check_af_decay(data, LADDER)


def test_af_decay_kerr_h():
    data = pullback_initial_data(kerr(KerrParameters(1.0, 0.5)),
                                 t_const_embedding(), euclidean_frame())
    out = check_af_decay(data, [10.0, 20.0, 40.0, 80.0])
    assert out["h"].exact or out["h"].exponent >= 2.0
    assert all(f.exponent - AF_REQUIRED_ORDERS[k] >= -AF_DECAY_SLACK
               for k, f in out.items())


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


def test_pmt_margin_schwarzschild(schw_data, grid):
    ch = adm_energy_momentum(schw_data, LADDER, grid)
    assert check_pmt_flat(ch) == pytest.approx(1.0, abs=1e-3)
