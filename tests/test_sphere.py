"""Quadrature exactness and multipole projection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from admbondi.errors import ConfigError, DomainError
from admbondi.sphere import (build_grid, direction_functions, integrate,
                             project_multipole)

FOUR_PI = 4.0 * np.pi


def sample(grid, fn):
    """The field of fn(theta, psi) over all nodes of the grid."""
    T, P = grid.nodes()
    return grid.field(np.asarray(fn(T, P)) + np.zeros_like(T))


def test_weights_normalise_to_sphere_area():
    for nt, npsi in ((2, 4), (8, 16), (48, 96)):
        g = build_grid(nt, npsi)
        assert np.sum(g.weights) == pytest.approx(FOUR_PI, rel=1e-12)
        assert g.weights.size == nt * npsi
    g = build_grid(2, 4)
    assert g.weights.size == 8


@pytest.mark.parametrize("name", ["theta", "psi", "weights"])
def test_grid_arrays_are_read_only(name):
    """A grid is shared by every check of a run, so an in-place write to
    its nodes or weights raises instead of changing the checks after it."""
    a = getattr(build_grid(4, 8), name)
    before = a.copy()
    with pytest.raises(ValueError, match="read-only"):
        a[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        a *= 2.0
    np.testing.assert_array_equal(a, before)


def _integral(grid, k, m, trig):
    T, P = grid.nodes()
    return integrate(grid.field(np.cos(T) ** k * trig(m * P)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n_theta=st.integers(2, 40), half_psi=st.integers(2, 32),
       trig=st.sampled_from([np.cos, np.sin]), data=st.data())
def test_quadrature_exact_up_to_the_stated_degrees(n_theta, half_psi, trig,
                                                   data):
    """cos^k(theta) cos(m psi) and cos^k(theta) sin(m psi) integrate to the
    closed form up to roundoff for k <= 2 n_theta - 1 and m < n_psi, and
    the first degree past either bound is visibly not exact."""
    n_psi = 2 * half_psi
    k = data.draw(st.integers(0, 2 * n_theta - 1), label="k")
    m = data.draw(st.integers(0, n_psi - 1), label="m")
    grid = build_grid(n_theta, n_psi)
    polar = 2.0 / (k + 1) if k % 2 == 0 else 0.0
    azimuthal = 2.0 * np.pi if m == 0 and trig is np.cos else 0.0
    assert abs(_integral(grid, k, m, trig) - polar * azimuthal) \
        <= 64.0 * np.finfo(float).eps * FOUR_PI
    # past the bounds: cos(n_psi psi) is 1 at every node, and the
    # Gauss-Legendre error of cos^(2 n_theta) is far above roundoff on
    # small grids
    assert abs(_integral(grid, 0, n_psi, np.cos)) > 1.0
    if n_theta <= 10:
        exact = 2.0 / (2 * n_theta + 1) * 2.0 * np.pi
        assert abs(_integral(grid, 2 * n_theta, 0, np.cos) - exact) > 1e-8


def test_nodes_strictly_interior():
    g = build_grid(16, 32)
    assert np.all(g.theta > 0.0) and np.all(g.theta < np.pi)


def test_bad_sizes_rejected():
    with pytest.raises(ConfigError):
        build_grid(1, 8)
    with pytest.raises(ConfigError):
        build_grid(8, 7)
    with pytest.raises(ConfigError):
        build_grid(8, 2)


def test_constant_integrates_to_area():
    g = build_grid(8, 16)
    assert integrate(sample(g, lambda T, P: 1.0)) == pytest.approx(FOUR_PI, rel=1e-13)


def test_cos2_integral():
    # closed form: int cos^2(theta) dOmega = 4 pi / 3
    g = build_grid(8, 16)
    f = sample(g, lambda T, P: np.cos(T) ** 2)
    assert integrate(f) == pytest.approx(FOUR_PI / 3.0, abs=1e-12)


def test_odd_function_integrates_to_zero():
    g = build_grid(8, 16)
    f = sample(g, lambda T, P: np.cos(T))
    assert integrate(f) == pytest.approx(0.0, abs=1e-13)


def test_sin4_integral():
    # int_0^pi sin^5 = 16/15, so (1/4pi) int sin^4 dOmega = 8/15
    g = build_grid(8, 16)
    f = sample(g, lambda T, P: np.sin(T) ** 4)
    assert integrate(f) / FOUR_PI == pytest.approx(8.0 / 15.0, abs=1e-13)


def test_direction_functions_unit_norm():
    g = build_grid(12, 24)
    n = direction_functions(g)
    s = n[1].values ** 2 + n[2].values ** 2 + n[3].values ** 2
    assert np.max(np.abs(s - 1.0)) <= 1e-14


def test_multipole_projections():
    g = build_grid(8, 16)
    one = sample(g, lambda T, P: 1.0)
    assert project_multipole(one, 0) == pytest.approx(1.0, abs=1e-13)
    cz = sample(g, lambda T, P: np.cos(T))
    assert project_multipole(cz, 3) == pytest.approx(1.0 / 3.0, abs=1e-13)
    assert project_multipole(cz, 1) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        project_multipole(one, 4)


def test_pairwise_direction_products_exact():
    # quadrature vs closed forms on the full n^mu n^nu family
    g = build_grid(8, 16)
    n = direction_functions(g)
    for mu in range(4):
        for nu in range(4):
            got = integrate(n[mu] * n[nu]) / FOUR_PI
            if mu == 0 and nu == 0:
                ref = 1.0
            elif mu == 0 or nu == 0:
                ref = 0.0
            else:
                ref = (1.0 / 3.0) if mu == nu else 0.0
            assert got == pytest.approx(ref, abs=1e-12), (mu, nu)


def test_integrate_is_linear(rng):
    g = build_grid(10, 20)
    a = g.field(rng.normal(size=g.shape))
    b = g.field(rng.normal(size=g.shape))
    al, be = 1.7, -0.4
    lhs = integrate(a * al + b * be)
    rhs = al * integrate(a) + be * integrate(b)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_nonfinite_samples_rejected():
    g = build_grid(4, 8)
    bad = np.ones(g.shape)
    bad[0, 0] = np.nan
    with pytest.raises(DomainError, match=f"theta={g.theta[0]:.6g}, "
                                          f"psi={g.psi[0]:.6g}"):
        g.field(bad)


def test_quadrature_exact_high_degree_product():
    # P_3(cos t)^2 cos^2(7 psi) on (8, 16): int P_3^2 dx = 2/7, psi part pi
    g = build_grid(8, 16)

    def p3(x):
        return 2.5 * x ** 3 - 1.5 * x

    f = sample(g, lambda T, P: p3(np.cos(T)) ** 2 * np.cos(7 * P) ** 2)
    assert integrate(f) == pytest.approx(2.0 * np.pi / 7.0, abs=1e-12)
