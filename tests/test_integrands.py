"""The ADM and null charge integrands read only the frame-derivative entries
they need; they must equal the integrands built from every entry, bit for
bit, and must not build rank-3 arrays over the nodes.  The sups of the decay
check, reduced one frame direction at a time, must equal those of the
classes formed whole.  The null ladder, evaluated radius by latitude, must
equal the ladder evaluated rung by rung."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from admbondi.adm import _decay_sups, adm_ladder_samples, check_af_decay
from admbondi.geometry import (_chart_gradient, _first_order, _frame_apply,
                               _jd, _leaf_array, _product, frame_derivative)
from admbondi.jets import value
from admbondi.ladder import fit_field, rung_axes
from admbondi.nullcharges import (background_connection, charge_integrand,
                                  null_energy_momentum)
from admbondi.scenarios import ScenarioConfig, make_adm_data, make_slice_data
from admbondi.sphere import build_grid, direction_functions
from helpers import rotated_data, same_bits


def _rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return rz @ rx


def _slice(preset, u0):
    return make_slice_data(ScenarioConfig(
        preset=preset, amplitude=0.08, amplitude_d=0.05, mass_aspect="tilted",
        a3_amplitude=0.02, u0=u0))


_KERR = make_adm_data(ScenarioConfig(preset="kerr", mass=1.0, spin=0.6))
_ADM = {
    "schwarzschild": make_adm_data(ScenarioConfig(preset="schwarzschild")),
    "kerr": _KERR,
    "rotated-kerr": rotated_data(_KERR, _rotation(0.7)),
}
_NULL = {
    "hyperboloid": make_slice_data(ScenarioConfig(preset="minkowski")),
    "bondi-schwarzschild": _slice("bondi-schwarzschild", 0.0),
    "bondi-quadrupole": _slice("bondi-quadrupole", 0.5),
    "bondi-biaxial": _slice("bondi-biaxial", 2.0),
}


def _all_entries(Fv, X):
    """Every e_k X entry, summed as F_k^0 d_0 X + F_k^1 d_1 X + F_k^2 d_2 X
    over whole arrays, indexed [k, <indices of X>, <leaf>]."""
    leaf = np.shape(Fv)[2:]
    dX = _chart_gradient(X, leaf)
    Fk = np.reshape(Fv, (3, 3) + (1,) * (dX.ndim - 1 - len(leaf)) + leaf)
    out = sum(Fk[:, a] * dX[a] for a in range(3))
    assert np.array_equal(frame_derivative(Fv, X), out)
    return out


def _adm_reference(data, grid, r):
    """(E, [P_k]) of one rung from all 27 D_k g_ij and their traces."""
    nvec = direction_functions(grid)[1:].reshape(3, -1)
    w = grid.weights.ravel()
    T, Ps = grid.nodes()
    coords = [np.full_like(T, r), T, Ps]
    G, P, _ = data.jets(coords, order=1)
    F = data.frame.components(coords)

    def leaf(X):
        return np.array([[value(X[i][j]) + np.zeros_like(coords[1])
                          for j in range(3)] for i in range(3)])
    Fv, gv, hv = leaf(F), leaf(G), leaf(P)
    Dg = _all_entries(Fv, G)
    e_int = np.einsum("jiju->iu", Dg) - np.einsum("ijju->iu", Dg)
    energy = np.sum(w * np.einsum("iu,iu->u", e_int, nvec)) \
        * r * r / (16.0 * np.pi)
    trh = np.einsum("jju->u", hv)
    p_int = hv - np.einsum("kiu,u->kiu", gv, trh)
    mom = [np.sum(w * np.einsum("iu,iu->u", p_int[k], nvec))
           * r * r / (8.0 * np.pi) for k in range(3)]
    return energy, mom


def _null_reference(data, coords3):
    """(E-integrand, P_k-integrand) from all 27 nabla_k a_ij."""
    r, th, _ = coords3
    G, P, _ = data.jets(coords3, order=1)
    F = data.frame.components(coords3)
    leaf = np.shape(np.asarray(r, dtype=float))
    Fv, gv, pv = (np.array([[value(X[i][j]) + np.zeros(leaf) for j in range(3)]
                            for i in range(3)]) for X in (F, G, P))
    eye = np.eye(3).reshape((3, 3) + (1,) * len(leaf))
    a, b = gv - eye, pv - eye
    gam = background_connection(np.asarray(r, dtype=float), np.asarray(th))
    DG = _all_entries(Fv, G)
    Da = np.zeros((3, 3, 3) + leaf)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                e = DG[k, i, j]
                for m in range(3):
                    e = e - gam[m][k][i] * a[m, j] - gam[m][k][j] * a[i, m]
                Da[k, i, j] = e
    tra = a[0, 0] + a[1, 1] + a[2, 2]
    trb = b[0, 0] + b[1, 1] + b[2, 2]
    div_a = Da[0, 0, 0] + Da[1, 0, 1] + Da[2, 0, 2]
    grad_tr = sum(Fv[0][c] * (value(_jd(G[0][0], c)) + value(_jd(G[1][1], c))
                              + value(_jd(G[2][2], c))) for c in range(3))
    e_int = div_a - grad_tr - (a[0, 0] - gv[0, 0] * tra)
    p_int = np.stack([b[k, 0] - gv[k, 0] * trb for k in range(3)])
    return e_int, p_int


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(sorted(_ADM)), r=st.floats(3.0, 200.0),
       shape=st.sampled_from([(2, 4), (3, 6), (5, 10)]))
def test_adm_rung_equals_full_frame_derivative(case, r, shape):
    """A rung's (E, P_k) from the contracted divergence and trace gradient
    equals the rung built from every D_k g_ij, bit for bit."""
    data, grid = _ADM[case], build_grid(*shape)
    [energy], [mom] = adm_ladder_samples(data, [r], grid)
    ref_energy, ref_mom = _adm_reference(data, grid, r)
    assert same_bits(energy, ref_energy), case
    assert same_bits(mom, ref_mom), case


_SPANS = {"hyperboloid": (0.2, 40.0), "bondi-schwarzschild": (6.0, 200.0),
          "bondi-quadrupole": (6.0, 200.0), "bondi-biaxial": (6.0, 200.0)}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(sorted(_NULL)), n=st.sampled_from([0, 1, 7]),
       t=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_null_integrand_equals_full_frame_derivative(case, n, t):
    """charge_integrand, which builds only the three nabla_k a_1k it reads,
    equals the integrand built from every nabla_k a_ij, bit for bit, at a
    plain scalar point (n = 0) and at arrays of points."""
    rlo, rhi = _SPANS[case]
    spread = np.linspace(0.0, 1.0, n) if n else 0.0
    pts = [rlo + (rhi - rlo) * ((t[0] + spread) % 1.0),
           0.3 + 2.5 * ((t[1] + spread / 3.0) % 1.0),
           6.2 * ((t[2] + spread / 5.0) % 1.0)]
    if not n:
        pts = [float(x) for x in pts]
    got = charge_integrand(_NULL[case], pts)
    ref = _null_reference(_NULL[case], pts)
    for x, y in zip(got, ref):
        assert np.shape(x) == np.shape(y), case
        assert same_bits(x, y), case


def _traced_peak(fn):
    """Peak of the memory traced while fn runs, above what was held before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_adm_rung_memory_stays_near_the_pullback_peak():
    """One 96x192 Kerr rung needs at most 32 node-sized arrays beyond the
    peak of its own pullback on the grid's axes; building the 27 D_k g_ij as
    one rank-3 array took 58."""
    grid = build_grid(96, 192)
    r = 40.0
    adm_ladder_samples(_KERR, [r], grid)      # the grid's lazy fields
    coords = rung_axes([r], *grid.axes())
    pullback = _traced_peak(lambda: _KERR.jets(coords, order=1))
    rung = _traced_peak(lambda: adm_ladder_samples(_KERR, [r], grid))
    leaf = grid.weights.nbytes
    assert (rung - pullback) / leaf <= 32.0


def test_af_decay_memory_stays_near_the_data_jets_peak():
    """The decay check of a 12x24 four-rung Kerr ladder needs at most 100
    node-sized arrays beyond the peak of the data's own order-2 jets.  It
    measures 82: e_k h while the jets are alive sets the peak.  Holding one
    more 27-entry array there would exceed the bound; forming all 81
    e_l e_k g_ij with the whole Hessian jet at once took 424."""
    grid = build_grid(12, 24)
    radii = [10.0, 20.0, 40.0, 80.0]
    check_af_decay(_KERR, radii, grid)
    coords = rung_axes(radii, *grid.axes())
    jets2 = _traced_peak(lambda: _KERR.jets(coords, order=2))
    check = _traced_peak(lambda: check_af_decay(_KERR, radii, grid))
    node = len(radii) * grid.weights.nbytes
    assert (check - jets2) / node <= 100.0


def _decay_sups_whole(data, coords):
    """The decay sups with e_k g_ij and its chart gradient formed as one
    array jet, and all 81 e_l e_k g_ij as one array."""
    leaf = np.broadcast_shapes(*map(np.shape, coords))
    G, P, F = data.jets(coords, order=2)
    F = np.concatenate([_leaf_array(F, value, leaf)[None],
                        _chart_gradient(F, leaf)])
    g, dg = _first_order(G, leaf)
    Dg = _product("ka...,aij...->kij...", F, dg)

    def sup(x):
        return np.max(np.abs(x).reshape(-1, leaf[0], leaf[1] * leaf[2]),
                      axis=(0, 2))
    return {"g": sup(g[0] - np.eye(3)[:, :, None, None, None]),
            "dg": sup(Dg[0]), "ddg": sup(_frame_apply(F[0], Dg[1:])),
            "h": sup(_leaf_array(P, value, leaf)),
            "dh": sup(frame_derivative(F[0], P))}


@pytest.mark.parametrize("shape", [(2, 4), (5, 10), (12, 24)])
@pytest.mark.parametrize("case", sorted(_ADM))
def test_decay_sups_per_direction_equal_the_whole_arrays(case, shape):
    """The decay check, which reduces e_k g and e_l e_k g one frame
    direction k at a time, gives every sup bit for bit as the classes
    formed whole."""
    coords = rung_axes([7.0, 13.0, 29.0, 51.0, 90.0],
                       *build_grid(*shape).axes())
    got = _decay_sups(_ADM[case], coords)
    want = _decay_sups_whole(_ADM[case], coords)
    for key in want:
        assert same_bits(got[key], want[key]), (case, key)


def _ladder_reference(data, radii, grid):
    """Per-rung samples E[nu][rung] and P[nu][k][rung]: charge_integrand on
    full-node arrays at one radius at a time, each rung summed on its own as
    w * (x * n^nu) over the raveled nodes."""
    nvals = direction_functions(grid).reshape(4, -1)
    w = grid.weights.ravel()
    T, Ps = grid.nodes()
    E, P = [], []
    for r in radii:
        e_int, p_int = charge_integrand(data, [np.full_like(T, r), T, Ps])
        E.append([np.sum(w * (e_int * nvals[nu])) * r ** 3 / (16.0 * np.pi)
                  for nu in range(4)])
        P.append([[np.sum(w * (p_int[k] * nvals[nu])) * r ** 3 / (8.0 * np.pi)
                   for k in range(3)] for nu in range(4)])
    return np.transpose(E), np.transpose(P, (1, 2, 0))


_LADDERS = {case: [0.5, 1.0, 2.0, 4.0, 8.0] if case == "hyperboloid"
            else [30.0, 45.0, 70.0, 110.0, 170.0] for case in _NULL}


@pytest.mark.parametrize("shape", [(16, 32), (2, 4)])
@pytest.mark.parametrize("case", sorted(_NULL))
def test_null_ladder_equals_rung_by_rung(case, shape):
    """The null ladder evaluated radius by latitude gives every rung's
    samples bit for bit as the rungs evaluated one by one on the flat nodes;
    the 16 theta rows of a 16x32 grid split unevenly into five blocks, and
    the 2 rows of a 2x4 grid are fewer than the five rungs."""
    grid = build_grid(*shape)
    radii = _LADDERS[case]
    ch = null_energy_momentum(_NULL[case], radii, grid)
    ref_E, ref_P = _ladder_reference(_NULL[case], radii, grid)
    assert same_bits(fit_field(ch.energy, "samples"), ref_E)
    assert same_bits(fit_field(ch.momentum, "samples"), ref_P)


def test_null_ladder_memory_stays_near_one_block():
    """The 48x96, 5-radius null ladder needs at most 32 node-sized arrays
    beyond the peak of one of its blocks of theta rows (its assembled E and
    P rows are 20, and it reads 27); evaluating all five rungs in one call
    took 332."""
    grid = build_grid(48, 96)
    radii = _LADDERS["bondi-biaxial"]
    data = _NULL["bondi-biaxial"]
    null_energy_momentum(data, radii, grid)
    theta, psi = grid.axes()
    rows = np.array_split(np.arange(grid.n_theta), len(radii))[0]
    block = _traced_peak(lambda: charge_integrand(
        data, rung_axes(radii, theta[rows], psi)))
    ladder = _traced_peak(lambda: null_energy_momentum(data, radii, grid))
    assert (ladder - block) / grid.weights.nbytes <= 32.0
