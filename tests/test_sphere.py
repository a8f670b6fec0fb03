"""Quadrature exactness, multipole projection and the shared grids."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from admbondi import sphere
from admbondi.errors import ConfigError, DomainError
from admbondi.sphere import (build_grid, direction_functions, integrate,
                             project_multipole)
from admbondi.verify import run_verification
from helpers import same_bits

FOUR_PI = 4.0 * np.pi


def sample(grid, fn):
    """fn(theta, psi) at every node of the grid, shaped like the grid."""
    T, P = grid.nodes()
    return (np.asarray(fn(T, P)) + np.zeros_like(T)).reshape(grid.shape)


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
    return integrate(grid, sample(grid, lambda T, P: np.cos(T) ** k
                                  * trig(m * P)))


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


@pytest.mark.parametrize("sizes", [(1, 96), (48, 5), (48.0, 96), (48, 96.0),
                                   ([48], 96)])
def test_bad_sizes_rejected_on_every_call(sizes):
    """The checks run before the shared grid is looked up: a bad size is a
    ConfigError on a first and on a second call, never a cached grid or a
    TypeError from an unhashable key."""
    for _ in range(2):
        with pytest.raises(ConfigError):
            build_grid(*sizes)


def test_one_shared_grid_per_resolution():
    g = build_grid(48, 96)
    assert g is build_grid(np.int64(48), 96) is build_grid(48, np.int64(96))
    assert type(g.n_theta) is int and type(g.n_psi) is int
    assert build_grid(24, 48) is not g
    # every caller holds the same arrays, so none of them may write to them
    for a in (g.theta, g.psi, g.weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_verification_builds_each_grid_once(monkeypatch):
    """One battery computes the Gauss-Legendre nodes at most once per
    n_theta, however many of its checks ask for that grid."""
    leggauss = np.polynomial.legendre.leggauss
    calls = collections.Counter()

    def counted(n):
        calls[n] += 1
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    # grids built by earlier tests would hide repeated builds
    sphere._shared_grid.cache_clear()
    sphere._gauss_legendre_rows.cache_clear()
    run_verification()
    assert calls and max(calls.values()) == 1, calls


def test_constant_integrates_to_area():
    g = build_grid(8, 16)
    assert integrate(g, sample(g, lambda T, P: 1.0)) == pytest.approx(
        FOUR_PI, rel=1e-13)


def test_cos2_integral():
    # closed form: int cos^2(theta) dOmega = 4 pi / 3
    g = build_grid(8, 16)
    f = sample(g, lambda T, P: np.cos(T) ** 2)
    assert integrate(g, f) == pytest.approx(FOUR_PI / 3.0, abs=1e-12)


def test_odd_function_integrates_to_zero():
    g = build_grid(8, 16)
    f = sample(g, lambda T, P: np.cos(T))
    assert integrate(g, f) == pytest.approx(0.0, abs=1e-13)


def test_sin4_integral():
    # int_0^pi sin^5 = 16/15, so (1/4pi) int sin^4 dOmega = 8/15
    g = build_grid(8, 16)
    f = sample(g, lambda T, P: np.sin(T) ** 4)
    assert integrate(g, f) / FOUR_PI == pytest.approx(8.0 / 15.0, abs=1e-13)


def test_direction_functions_unit_norm():
    g = build_grid(12, 24)
    n = direction_functions(g)
    assert n.shape == (4,) + g.shape
    s = n[1] ** 2 + n[2] ** 2 + n[3] ** 2
    assert np.max(np.abs(s - 1.0)) <= 1e-14


@pytest.mark.parametrize("shape", [(2, 4), (8, 16), (48, 96)])
def test_direction_functions_and_projection_bit_for_bit(shape, rng):
    """Each row of direction_functions is its closed form at the nodes,
    and project_multipole is the quadrature of the field times that row,
    bit for bit: the Bondi moments and the news flux rest on both."""
    g = build_grid(*shape)
    T, P = g.nodes()
    closed = [np.ones_like(T), np.sin(T) * np.cos(P), np.sin(T) * np.sin(P),
              np.cos(T)]
    n = direction_functions(g)
    f = g.field(rng.normal(size=g.shape))
    for nu in range(4):
        assert same_bits(n[nu].ravel(), closed[nu]), nu
        assert same_bits(project_multipole(f, nu),
                          integrate(g, f.values * n[nu]) / FOUR_PI), nu


def test_multipole_projections():
    g = build_grid(8, 16)
    one = g.field(sample(g, lambda T, P: 1.0))
    assert project_multipole(one, 0) == pytest.approx(1.0, abs=1e-13)
    cz = g.field(sample(g, lambda T, P: np.cos(T)))
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
            got = integrate(g, n[mu] * n[nu]) / FOUR_PI
            if mu == 0 and nu == 0:
                ref = 1.0
            elif mu == 0 or nu == 0:
                ref = 0.0
            else:
                ref = (1.0 / 3.0) if mu == nu else 0.0
            assert got == pytest.approx(ref, abs=1e-12), (mu, nu)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_theta=st.integers(2, 24), half_psi=st.integers(2, 24),
       lead=st.lists(st.integers(1, 4), max_size=3),
       coef=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_integrate_over_leading_axes(n_theta, half_psi, lead, coef, seed):
    """integrate keeps the leading axes and sums every slice bit for bit as
    the raveled weighted sum of that slice alone; it is linear to roundoff;
    and the Gram matrix of the direction functions, integrated in one call,
    is diag(1, 1/3, 1/3, 1/3)."""
    g = build_grid(n_theta, 2 * half_psi)
    lead = tuple(lead)
    a, b = np.random.default_rng(seed).normal(size=(2,) + lead + g.shape)
    got = integrate(g, a)
    assert np.shape(got) == lead
    for idx in np.ndindex(*lead):
        assert same_bits(got[idx], np.sum(g.weights.ravel() * a[idx].ravel()))
    al, be = coef
    lhs = integrate(g, al * a + be * b)
    rhs = al * got + be * integrate(g, b)
    scale = integrate(g, np.abs(al * a) + np.abs(be * b))
    assert np.all(np.abs(lhs - rhs) <= 1e-13 * scale)
    n = direction_functions(g)
    gram = integrate(g, n[:, None] * n[None, :]) / FOUR_PI
    assert np.max(np.abs(gram - np.diag([1.0, 1.0 / 3.0, 1.0 / 3.0,
                                         1.0 / 3.0]))) <= 1e-12


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
    assert integrate(g, f) == pytest.approx(2.0 * np.pi / 7.0, abs=1e-12)
