"""News fields, mass-loss evolution, induced slice data, and consistency."""

import numpy as np
import pytest

from admbondi import jets
from admbondi.bondi import (BondiExpansion, bondi_energy_momentum,
                            check_polar_news_average, check_psi_periodicity,
                            derived_fields, evolve_energy_momentum,
                            expansion_consistency, flux_holder_margin,
                            induced_slice_data, mass_aspect_field,
                            mass_loss_margin, news_flux, trajectory_csv,
                            vanishing_news_scenario, _cumulative_simpson)
from admbondi.errors import ConfigError, DomainError
from admbondi.sphere import build_grid


def _zero(u, th, ps):
    return 0.0 * u


def const_M(m):
    def M(u, th, ps):
        return m + 0.0 * u
    return M


def quadrupole(A=0.1, u_zero=0.0, m=1.0):
    def c(u, th, ps):
        return A * (u - u_zero) * jets.sin(th) ** 2
    return BondiExpansion(c=c, d=_zero, M=const_M(m), name="quadrupole")


@pytest.fixture(scope="module")
def grid():
    return build_grid(48, 96)


# -- derived fields -----------------------------------------------------------

def test_derived_l_closed_form(grid):
    def c(u, th, ps):
        return jets.sin(th) ** 2 + 0.0 * u
    exp = BondiExpansion(c=c, d=_zero, M=const_M(1.0))
    l, lbar, p, pbar = derived_fields(exp, 0.0, grid)
    T, _ = grid.nodes()
    ref = (4.0 * np.sin(T) * np.cos(T)).reshape(grid.shape)
    assert np.max(np.abs(l.values - ref)) <= 1e-12
    assert np.max(np.abs(lbar.values)) <= 1e-13
    # p = 3 c c_,2 + 4 c^2 cot with d = N = 0
    st, ct = np.sin(T), np.cos(T)
    pref = (3 * st**2 * 2 * st * ct + 4 * st**4 * ct / st).reshape(grid.shape)
    assert np.max(np.abs(p.values - pref)) <= 1e-11


def test_derived_zero_news(grid):
    exp = BondiExpansion(c=_zero, d=_zero, M=const_M(1.0))
    l, lbar, p, pbar = derived_fields(exp, 0.3, grid)
    for f in (l, lbar, p, pbar):
        assert np.max(np.abs(f.values)) == 0.0


# -- energy-momentum moments ---------------------------------------------------

def test_moments_constant_aspect(grid):
    exp = BondiExpansion(c=_zero, d=_zero, M=const_M(2.5))
    m = bondi_energy_momentum(mass_aspect_field(exp, 0.0, grid))
    assert m[0] == pytest.approx(2.5, abs=1e-12)
    assert np.max(np.abs(m[1:])) <= 1e-13


def test_moments_tilted_aspect(grid):
    mval = 1.7

    def M(u, th, ps):
        return mval * (1.0 + 0.5 * jets.cos(th)) + 0.0 * u
    exp = BondiExpansion(c=_zero, d=_zero, M=M)
    m = bondi_energy_momentum(mass_aspect_field(exp, 0.0, grid))
    assert m[0] == pytest.approx(mval, abs=1e-10)
    assert m[3] == pytest.approx(mval / 6.0, abs=1e-10)
    assert abs(m[1]) <= 1e-12 and abs(m[2]) <= 1e-12


def test_moments_zero_aspect(grid):
    exp = BondiExpansion(c=_zero, d=_zero, M=_zero)
    m = bondi_energy_momentum(mass_aspect_field(exp, 0.0, grid))
    assert np.max(np.abs(m)) == 0.0


# -- flux ----------------------------------------------------------------------

def test_flux_quadrupole_closed_form(grid):
    A = 0.3
    exp = quadrupole(A=A)
    for u in (0.0, 1.7, 5.0):
        F = news_flux(exp, u, grid)
        assert F[0] == pytest.approx(8.0 * A * A / 15.0, abs=1e-12)
        assert np.max(np.abs(F[1:])) <= 1e-13


def test_flux_static_news_zero(grid):
    def c(u, th, ps):
        return 0.4 * jets.sin(th) ** 2 + 0.0 * u
    exp = BondiExpansion(c=c, d=_zero, M=const_M(1.0))
    assert np.max(np.abs(news_flux(exp, 1.0, grid))) == 0.0


def test_flux_symmetric_under_cd_exchange(grid):
    def f1(u, th, ps):
        return 0.2 * u * jets.sin(th) ** 2 * jets.cos(ps)

    def f2(u, th, ps):
        return 0.1 * u * jets.sin(th) ** 2 * jets.sin(ps)
    a = BondiExpansion(c=f1, d=f2, M=const_M(1.0))
    b = BondiExpansion(c=f2, d=f1, M=const_M(1.0))
    Fa = news_flux(a, 0.8, grid)
    Fb = news_flux(b, 0.8, grid)
    assert np.allclose(Fa, Fb, atol=1e-15)


def test_flux_holder_chain(grid):
    def c(u, th, ps):
        return 0.2 * u * jets.sin(th) ** 2 * (1.0 + 0.5 * jets.cos(ps))
    exp = BondiExpansion(c=c, d=_zero, M=const_M(1.0))
    F = np.stack([news_flux(exp, u, grid) for u in np.linspace(0, 2, 9)])
    assert flux_holder_margin(F) >= -1e-12
    assert np.all(F[:, 0] >= 0.0)


# -- cumulative Simpson ----------------------------------------------------------

def test_cumulative_simpson_exact_for_quadratics():
    dx = 0.1
    x = dx * np.arange(11)
    y = 3.0 * x ** 2 - 2.0 * x + 1.0
    I = _cumulative_simpson(y, dx)
    ref = x ** 3 - x ** 2 + x
    assert np.max(np.abs(I - ref)) <= 1e-13


def test_cumulative_simpson_matches_simpson_on_pairs():
    dx = 0.05
    x = dx * np.arange(9)
    y = np.sin(x)
    I = _cumulative_simpson(y, dx)
    ref = (1.0 - np.cos(x[-1]))
    assert I[-1] == pytest.approx(ref, abs=1e-8)


# -- evolution -------------------------------------------------------------------

def test_zero_news_constant_trajectory(grid):
    exp = BondiExpansion(c=_zero, d=_zero, M=const_M(1.0))
    traj = evolve_energy_momentum([1.0, 0.0, 0.0, 0.0], exp, 0.0, 2.0, 0.1, grid)
    assert np.max(np.abs(traj.m - np.array([1.0, 0, 0, 0]))) == 0.0
    assert mass_loss_margin(traj) == 0.0


def test_quadrupole_mass_loss_closed_form(grid):
    A = 0.1
    exp = quadrupole(A=A)
    traj = evolve_energy_momentum([1.0, 0.0, 0.0, 0.0], exp, 0.0, 10.0, 0.05,
                                  grid)
    F0 = 8.0 * A * A / 15.0
    assert traj.m[-1, 0] == pytest.approx(1.0 - F0 * 10.0, abs=1e-10)
    assert traj.mass_monotone and traj.margin_monotone
    assert mass_loss_margin(traj) == pytest.approx(-F0, abs=1e-12)


def test_margin_with_tilted_initial_aspect(grid):
    # |m| = m/6 constant with zero news: margin 5m/6 for all u
    mval = 1.2

    def M(u, th, ps):
        return mval * (1.0 + 0.5 * jets.cos(th)) + 0.0 * u
    exp = BondiExpansion(c=_zero, d=_zero, M=M)
    m0 = bondi_energy_momentum(mass_aspect_field(exp, 0.0, build_grid(48, 96)))
    traj = evolve_energy_momentum(m0, exp, 0.0, 1.0, 0.05, grid)
    assert np.allclose(traj.margin, 5.0 * mval / 6.0, atol=1e-10)
    assert mass_loss_margin(traj) == pytest.approx(0.0, abs=1e-12)


def test_evolution_rejects_bad_steps(grid):
    exp = quadrupole()
    with pytest.raises(ConfigError):
        evolve_energy_momentum([1, 0, 0, 0], exp, 0.0, 1.0, -0.1, grid)
    with pytest.raises(ConfigError):
        evolve_energy_momentum([1, 0, 0, 0], exp, 1.0, 1.0, 0.1, grid)


@pytest.mark.parametrize("u_end", [0.015, 0.014])
def test_evolution_rejects_step_not_dividing_range(grid, u_end):
    # 0.015 used to sample up to 0.02, past u_end; 0.014 stopped at 0.01
    with pytest.raises(ConfigError, match=f"du=0.01 .*u_end={u_end}"):
        evolve_energy_momentum([1, 0, 0, 0], quadrupole(), 0.0, u_end, 0.01,
                               grid)


def test_evolution_rejects_non_finite_step(grid):
    with pytest.raises(ConfigError, match="du=nan"):
        evolve_energy_momentum([1, 0, 0, 0], quadrupole(), 0.0, 1.0,
                               float("nan"), grid)


def test_vanishing_news_rejects_step_not_dividing_range(grid):
    # 0.3 steps from 0 end at 0.9, which would be labelled with m(u0 = 1)
    exp = BondiExpansion(c=_zero, d=_zero, M=const_M(1.0))
    with pytest.raises(ConfigError, match="du=0.3 .*u0=1.0"):
        vanishing_news_scenario(exp, u0=1.0, u_start=0.0, du=0.3, grid=grid)


def test_vanishing_news_rejects_bad_step_and_empty_range(grid):
    exp = BondiExpansion(c=_zero, d=_zero, M=const_M(1.0))
    with pytest.raises(ConfigError, match="du=-0.1"):
        vanishing_news_scenario(exp, u0=1.0, u_start=0.0, du=-0.1, grid=grid)
    with pytest.raises(ConfigError, match="u_start=2.0, u0=1.0"):
        vanishing_news_scenario(exp, u0=1.0, u_start=2.0, du=0.1, grid=grid)


def test_trajectory_csv_format(grid):
    exp = quadrupole()
    traj = evolve_energy_momentum([1.0, 0, 0, 0], exp, 0.0, 0.2, 0.1, grid)
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "u,m0,m1,m2,m3,F0,F1,F2,F3,margin,dmargin_du"
    assert len(lines) == 4
    row = lines[1].split(",")
    assert len(row) == 11
    assert "e" in row[0]  # scientific notation


# -- conditions -------------------------------------------------------------------

def test_periodicity_holds_for_presets():
    def c(u, th, ps):
        return 0.1 * jets.sin(th) ** 2 * jets.cos(ps) * (1.0 + u)
    exp = BondiExpansion(c=c, d=_zero, M=const_M(1.0))
    assert check_psi_periodicity(exp) <= 1e-10


def test_periodicity_detects_violation():
    def c(u, th, ps):
        return 0.1 * jets.sin(th) ** 2 * (ps / (2 * np.pi)) + 0.0 * u
    exp = BondiExpansion(c=c, d=_zero, M=const_M(1.0))
    assert check_psi_periodicity(exp) > 1e-3


def test_polar_average_condition():
    exp = quadrupole(A=0.2)
    assert check_polar_news_average(exp) <= 1e-8

    def bad_c(u, th, ps):
        return 0.1 + 0.0 * u  # psi-average nonzero at the poles
    bad = BondiExpansion(c=bad_c, d=_zero, M=const_M(1.0))
    assert check_polar_news_average(bad) > 0.1


# -- induced slice data -------------------------------------------------------------

def test_slice_reduces_to_background_when_trivial():
    exp = BondiExpansion(c=_zero, d=_zero, M=_zero)
    data = induced_slice_data(exp, u0=0.0)
    g, h = data.values([7.0, 1.0, 0.5])
    assert np.array_equal(g, np.eye(3))
    assert np.array_equal(h, np.eye(3))


def test_slice_schwarzschild_values():
    exp = BondiExpansion(c=_zero, d=_zero, M=const_M(1.0), name="schw")
    data = induced_slice_data(exp, u0=0.0)
    r = 12.0
    g, h = data.values([r, 1.1, 0.2])
    assert g[0, 0] == pytest.approx(1.0 + 0.5 / r ** 3, rel=1e-14)
    assert h[0, 0] == pytest.approx(1.0 - 1.0 / r ** 3, rel=1e-14)


def test_slice_defaults_logged(caplog):
    import logging
    exp = BondiExpansion(c=_zero, d=_zero, M=const_M(1.0))
    with caplog.at_level(logging.INFO, logger="admbondi.bondi"):
        induced_slice_data(exp, u0=0.0)
    assert any("not supplied" in r.message for r in caplog.records)


# -- expansion consistency ------------------------------------------------------------

def biaxial(m=1.0, Ac=0.08, Ad=0.05, u_zero=None):
    def fc(u):
        return (u - u_zero) if u_zero is not None else (1.0 + 0.5 * u)

    def fd_(u):
        return (u - u_zero) if u_zero is not None else (1.0 - u / 3.0)

    def c(u, th, ps):
        return Ac * jets.sin(th) ** 2 * jets.cos(ps) * fc(u)

    def d(u, th, ps):
        return Ad * jets.sin(th) ** 2 * jets.sin(ps) * fd_(u)

    def M(u, th, ps):
        return m * (1.0 + 0.2 * jets.cos(th)) + 0.0 * u

    def N(u, th, ps):
        return 0.1 * Ac * jets.sin(th) ** 2 * jets.cos(th) * jets.cos(ps) + 0.0 * u

    def P(u, th, ps):
        return 0.07 * Ad * jets.sin(th) ** 2 * jets.cos(th) * jets.sin(ps) + 0.0 * u

    def C(u, th, ps):
        return 0.05 * Ac * jets.sin(th) ** 2 * jets.cos(ps) + 0.0 * u

    def H(u, th, ps):
        return 0.05 * Ad * jets.sin(th) ** 2 * jets.sin(ps) + 0.0 * u

    return BondiExpansion(c=c, d=d, M=M, N=N, P=P, C=C, H=H, name="biaxial")


def a3_fn(th, ps):
    return 0.02 * jets.sin(th) ** 2 * jets.sin(ps)


def test_expansion_consistency_minkowski_reduction():
    exp = BondiExpansion(c=_zero, d=_zero, M=_zero, name="flat")
    rep = expansion_consistency(exp, radii=(10.0, 20.0, 40.0), grid=build_grid(8, 16),
                                r_min=4.0)
    for name, fit in rep.items():
        assert fit.exact or max(fit.sups) <= 1e-11, name


def test_expansion_consistency_biaxial_all_components():
    rep = expansion_consistency(biaxial(), u0=0.0, a3=a3_fn,
                                radii=(50.0, 100.0, 200.0, 400.0, 800.0))
    for name, fit in rep.items():
        assert fit.exact or fit.exponent >= 3.3, (name, fit.exponent)
        assert not fit.exact  # every coefficient is on: nothing is trivial


# -- vanishing-news scenario ------------------------------------------------------------

def test_vanishing_news_scenario_runs(grid):
    exp = quadrupole(A=0.05, u_zero=4.0)
    rep = vanishing_news_scenario(exp, u0=4.0, u_start=0.0, du=0.05, grid=grid,
                                  radii=(30.0, 45.0, 70.0, 110.0))
    traj = rep["trajectory"]
    assert rep["final_margin_nonnegative"]
    assert rep["mass_dominates"]
    assert np.all(traj.margin >= -1e-9)
    assert rep["slice_pmt_margin"] >= -1e-4
    assert traj.m[-1, 0] == pytest.approx(1.0, abs=1e-12)
    # mass increases into the past while news are on
    assert traj.m[0, 0] > traj.m[-1, 0]


def test_vanishing_news_precondition_checked(grid):
    exp = quadrupole(A=0.05, u_zero=4.0)
    with pytest.raises(DomainError):
        vanishing_news_scenario(exp, u0=3.0, u_start=0.0, grid=grid)


def test_zero_mass_scenario_stays_zero(grid):
    exp = BondiExpansion(c=_zero, d=_zero, M=_zero)
    rep = vanishing_news_scenario(exp, u0=1.0, u_start=0.0, du=0.1, grid=grid,
                                  radii=(30.0, 45.0, 70.0))
    traj = rep["trajectory"]
    assert np.max(np.abs(traj.m)) == 0.0
    assert np.max(np.abs(traj.margin)) == 0.0


def test_margin_strictly_negative_with_momentum(grid):
    # F_0 > 0 and |m| > 0: the margin rate must be strictly negative and the
    # flux chain sqrt(sum F_i^2) <= F_0 must hold at every step
    mval = 1.0

    def M(u, th, ps):
        return mval * (1.0 + 0.5 * jets.cos(th)) + 0.0 * u

    def c(u, th, ps):
        return 0.1 * u * jets.sin(th) ** 2
    exp = BondiExpansion(c=c, d=_zero, M=M)
    m0 = bondi_energy_momentum(mass_aspect_field(exp, 0.0, grid))
    assert np.sqrt(np.sum(m0[1:] ** 2)) > 0.0
    traj = evolve_energy_momentum(m0, exp, 0.0, 2.0, 0.05, grid)
    assert mass_loss_margin(traj) < -1e-4
    assert flux_holder_margin(traj.flux) >= -1e-12


def test_expansion_consistency_schw_bondi():
    # with zero news the assembled metric is exact, so the difference is the
    # omitted o(1/r^3) remainder of the closed forms alone
    exp = BondiExpansion(c=_zero, d=_zero, M=const_M(1.0), name="schw")
    rep = expansion_consistency(exp, radii=(50.0, 100.0, 200.0, 400.0, 800.0),
                                r_min=10.0)
    for name, fit in rep.items():
        assert fit.exact or fit.exponent >= 3.3, (name, fit.exponent)


def test_vanishing_news_scenario_static(grid):
    exp = BondiExpansion(c=_zero, d=_zero, M=const_M(1.0))
    rep = vanishing_news_scenario(exp, u0=2.0, u_start=0.0, du=0.1, grid=grid,
                                  radii=(30.0, 45.0, 70.0))
    traj = rep["trajectory"]
    assert np.allclose(traj.m[:, 0], 1.0)
    assert np.min(traj.margin) >= 0.0
    assert rep["slice_pmt_margin"] == pytest.approx(1.0, abs=1e-3)


def test_derived_fields_nan_news_rejected(grid):
    def bad(u, th, ps):
        return 0.0 * u + float("nan")
    exp = BondiExpansion(c=bad, d=_zero, M=const_M(1.0))
    with pytest.raises(DomainError, match="poles"):
        derived_fields(exp, 0.0, grid)
