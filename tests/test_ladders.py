"""Radius ladders evaluated in one call on ``rung_axes``, r on the leading
axis: the per-rung sup-norms equal those of a rung-by-rung evaluation on the
flat nodes bit for bit, a NaN shows in its own rung's sup only and still
names its radius, and the converge study reuses its coarse rungs exactly.
Slice data evaluated on the ladder layout equal the data on the flat
nodes."""

import contextlib
import io
import json
import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from admbondi import adm, geometry, jets, ladder
from admbondi.adm import adm_energy_momentum, check_af_decay
from admbondi.bondi import SLICE_COMPONENTS, expansion_consistency, \
    induced_slice_data
from admbondi.cli import main
from admbondi.errors import DomainError
from admbondi.geometry import (euclidean_frame, hyperboloid_frame,
                               pullback_initial_data)
from admbondi.ladder import (causal_margin, extrapolation_weights,
                             fit_decay_exponent, fit_field, fit_inverse_powers,
                             fit_ladder, rung_axes, rung_blocks, rung_sups,
                             unit_samples)
from admbondi.nullcharges import decay_orders, deviation
from admbondi.reports import CheckResult
from admbondi.scenarios import (ScenarioConfig, default_radii, make_a3,
                                make_adm_data, make_expansion, make_grid,
                                make_metric, make_slice_data)
from admbondi.spacetimes import (KerrParameters, bondi_metric,
                                 bondi_slice_embedding, kerr, schwarzschild,
                                 t_const_embedding)
from admbondi.sphere import build_grid
from helpers import from_gp, same_bits

# no shrinking: each example evaluates whole ladders, and the first failing
# example already names the key, component or rung at fault
_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True,
                     database=None, phases=(Phase.explicit, Phase.generate))
_GRIDS = st.sampled_from([(4, 8), (6, 12), (12, 24)])


def _rung(grid, r):
    T, P = grid.nodes()
    return [np.full_like(T, float(r)), T, P]


def _flat_rung(grid, r):
    """``_rung`` as a one-rung leaf of one row, the shape ``rung_sups``
    reduces: the flat nodes, not the grid's axes."""
    return [x.reshape(1, 1, -1) for x in _rung(grid, r)]


def _ladder(r0, ratio, n):
    return [r0 * ratio ** k for k in range(n)]


@settings(_SETTINGS, max_examples=40)
@given(r0=st.floats(0.5, 50.0), ratio=st.floats(1.1, 3.0),
       n=st.integers(1, 6), shape=st.tuples(st.integers(2, 6),
                                            st.sampled_from([4, 6, 8])),
       draw=st.data())
def test_rung_axes_and_rung_sups(r0, ratio, n, shape, draw):
    """Rung k of the ladder layout is the grid's flat nodes at radii[k], in
    node order; a NaN planted at one (rung, node) shows in that rung's sups
    only, and every other rung's sup is the max of that rung evaluated alone
    on the flat nodes."""
    grid = build_grid(*shape)
    radii = _ladder(r0, ratio, n)
    k = draw.draw(st.integers(0, n - 1))
    node = draw.draw(st.integers(0, grid.weights.size - 1))

    def field(r, th, ps):
        return np.cos(3.0 * th) * np.sin(2.0 * ps + r) / r

    x = field(*rung_axes(radii, *grid.axes()))
    assert x.shape == (n,) + grid.shape
    clean = x.copy()
    x[(k,) + np.unravel_index(node, grid.shape)] = np.nan
    sups = rung_sups(np.stack([x, -2.0 * x]))
    assert sups.shape == (2, n)
    for j, r in enumerate(radii):
        flat = field(*_rung(grid, r))
        assert np.array_equal(clean[j].ravel(), flat)
        if j == k:
            assert np.isnan(sups[:, j]).all()
        else:
            assert np.array_equal(sups[:, j], [np.max(np.abs(flat)),
                                               np.max(np.abs(-2.0 * flat))])


@_SETTINGS
@given(kind=st.sampled_from(["schwarzschild", "kerr"]),
       mass=st.floats(0.5, 2.0), spin=st.floats(0.0, 0.9),
       r0=st.floats(5.0, 20.0), ratio=st.floats(1.3, 2.5),
       n=st.integers(4, 5), shape=_GRIDS)
def test_af_decay_ladder_equals_per_rung(kind, mass, spin, r0, ratio, n,
                                         shape):
    metric = (schwarzschild(mass, "polar") if kind == "schwarzschild"
              else kerr(KerrParameters(mass, spin * mass)))
    data = pullback_initial_data(metric, t_const_embedding(), euclidean_frame())
    radii = _ladder(r0 * mass, ratio, n)
    grid = build_grid(*shape)
    out = check_af_decay(data, radii, grid)
    per_rung = [adm._decay_sups(data, _flat_rung(grid, r)) for r in radii]
    for key, f in out.items():
        ref = np.concatenate([s[key] for s in per_rung])
        assert np.array_equal(np.asarray(f.sups), ref), key


def _null_data(case, amplitude, u0):
    return make_slice_data(ScenarioConfig(preset=case, amplitude=amplitude,
                                          amplitude_d=0.5 * amplitude, u0=u0))


@_SETTINGS
@given(case=st.sampled_from(["minkowski", "bondi-schwarzschild",
                             "bondi-quadrupole", "bondi-biaxial"]),
       amplitude=st.floats(0.02, 0.1), u0=st.floats(0.0, 3.0),
       r0=st.floats(0.5, 40.0), ratio=st.floats(1.3, 2.5), shape=_GRIDS)
def test_null_decay_fits_ladder_equal_per_rung(case, amplitude, u0, r0, ratio,
                                               shape):
    data = _null_data(case, amplitude, u0)
    radii = _ladder(r0, ratio, 4)
    grid = build_grid(*shape)
    fits = decay_orders(data, radii, grid)
    devs = [deviation(data, _rung(grid, r)) for r in radii]
    for comp, fit in fits.items():
        which, i, j = "ab".index(comp[0]), int(comp[1]) - 1, int(comp[2]) - 1
        ref = [np.max(np.abs(d[which][i, j])) for d in devs]
        assert np.array_equal(np.asarray(fit.sups), ref), comp


def _entries(x):
    """The value and every derivative entry of a (nested) jet, depth first;
    a plain number is its own single entry."""
    if not isinstance(x, jets.Jet):
        return [x]
    out = _entries(x.f)
    for d in x.d:
        out += _entries(d)
    for row in x.dd or ():
        for dd in row:
            out += _entries(dd)
    return out


@settings(_SETTINGS, max_examples=24)
@given(case=st.sampled_from(["schwarzschild", "kerr", "bondi-quadrupole",
                             "bondi-biaxial"]),
       amplitude=st.floats(0.02, 0.1), u0=st.floats(0.0, 3.0),
       r0=st.floats(5.0, 40.0), ratio=st.floats(1.3, 2.5),
       n=st.integers(1, 5), order=st.sampled_from([1, 2]), shape=_GRIDS)
def test_data_jets_on_the_axes_equal_the_flat_nodes(case, amplitude, u0, r0,
                                                    ratio, n, order, shape):
    """data.jets on the grid's axes, broadcast to the grid and raveled,
    equals data.jets on the flat nodes in every value and derivative entry,
    bit for bit with zero signs: ADM data one rung at a time and null data
    the whole ladder at once, each on ``rung_axes``."""
    grid = build_grid(*shape)
    radii = np.array(_ladder(r0, ratio, n))
    theta, psi = grid.axes()
    T, P = grid.nodes()
    if case in ("schwarzschild", "kerr"):
        metric = (schwarzschild(1.0, "polar") if case == "schwarzschild"
                  else kerr(KerrParameters(1.0, 0.6)))
        data = pullback_initial_data(metric, t_const_embedding(),
                                     euclidean_frame())
        ladders = [[r] for r in radii]
    else:
        data = _null_data(case, amplitude, u0)
        ladders = [radii]
    for rs in ladders:
        on_axes = rung_axes(rs, theta, psi)
        flat = [np.array(rs)[:, None], T, P]
        leaf = np.broadcast_shapes(*map(np.shape, flat))
        got = [_entries(x) for X in data.jets(on_axes, order) for row in X
               for x in row]
        ref = [_entries(x) for X in data.jets(flat, order) for row in X
               for x in row]
        assert [len(e) for e in got] == [len(e) for e in ref], case
        for g, f in zip(sum(got, []), sum(ref, [])):
            g = np.broadcast_to(g, leaf[:-1] + grid.shape).reshape(leaf)
            f = np.broadcast_to(f, leaf)
            assert np.array_equal(g, f), case
            assert np.array_equal(np.signbit(g), np.signbit(f)), case


@settings(_SETTINGS, max_examples=6)
@given(preset=st.sampled_from(["bondi-quadrupole", "bondi-biaxial"]),
       amplitude=st.floats(0.02, 0.1), a3=st.sampled_from([0.0, 0.02]),
       r0=st.floats(40.0, 80.0), shape=st.sampled_from([(4, 8), (6, 12)]))
def test_expansion_consistency_ladder_equals_per_rung(preset, amplitude, a3,
                                                      r0, shape):
    cfg = ScenarioConfig(preset=preset, amplitude=amplitude,
                         amplitude_d=0.5 * amplitude, a3_amplitude=a3)
    exp, a3fn = make_expansion(cfg), make_a3(cfg)
    radii = _ladder(r0, 2.0, 5)
    grid = build_grid(*shape)
    rep = expansion_consistency(exp, u0=0.0, a3=a3fn, radii=radii, grid=grid)
    pulled = pullback_initial_data(
        bondi_metric(exp), bondi_slice_embedding(exp, 0.0, a3fn),
        hyperboloid_frame())
    closed = induced_slice_data(exp, 0.0, a3fn)
    diffs = []
    for r in radii:
        (gn, hn), (gc, hc) = pulled.values(_rung(grid, r)), \
            closed.values(_rung(grid, r))
        diffs.append((gn - gc, hn - hc))
    for name in SLICE_COMPONENTS:
        which, i, j = "gh".index(name[0]), int(name[1]) - 1, int(name[2]) - 1
        ref = [np.max(np.abs(d[which][i, j])) for d in diffs]
        assert np.array_equal(np.asarray(rep[name].sups), ref), name


def test_decay_orders_of_constant_data_are_exact(hyperbolic_background):
    fits = decay_orders(hyperbolic_background, [1.0, 2.0, 3.0, 4.0],
                        build_grid(4, 8))
    assert all(f.exact and f.sups == (0.0,) * 4 for f in fits.values())


def _nan_at(r, radius):
    """0 at every node, NaN on the rung at ``radius``."""
    return np.where(jets.value(r) == radius, np.nan, 0.0)


def test_nan_on_one_rung_names_its_radius():
    def flat_gp(c):
        r = c[0]
        bump = 1.0 / r + _nan_at(r, 40.0)
        G = [[1.0 + bump if i == j else 0.0 * r for j in range(3)]
             for i in range(3)]
        return G, [[0.0 * r for _ in range(3)] for _ in range(3)]

    flat = from_gp(flat_gp, euclidean_frame(), "nan-at-40")
    with pytest.raises(DomainError, match="radius 40"):
        check_af_decay(flat, [10.0, 20.0, 40.0, 80.0], build_grid(4, 8))

    def null_gp(c):
        r = c[0]
        bump = 1.0 / r ** 2 + _nan_at(r, 45.0)
        G = [[1.0 + bump if i == j else 0.0 * r for j in range(3)]
             for i in range(3)]
        return G, G

    null = from_gp(null_gp, hyperboloid_frame(), "nan-at-45")
    with pytest.raises(DomainError, match="radius 45"):
        decay_orders(null, [30.0, 45.0, 70.0, 110.0], build_grid(4, 8))


@pytest.mark.parametrize("preset", ["schwarzschild", "kerr"])
def test_converge_reuses_the_coarse_rungs(preset, tmp_path):
    """converge samples energies only, and each of its energies is the E of
    ``adm_energy_momentum`` bit for bit: E_coarse and E_longer on the coarse
    grid (the longer ladder reusing the coarse rungs), E_fine on the grid
    with twice the nodes in each angle."""
    out = tmp_path / "c.json"
    assert main(["converge", "--preset", preset, "--ntheta", "12",
                 "--npsi", "24", "--out", str(out)]) == 0
    charges = json.loads(out.read_text())["charges"]
    cfg = ScenarioConfig(preset=preset)
    data = make_adm_data(cfg)
    ladder = list(default_radii(cfg, "adm"))
    grid = build_grid(12, 24)
    assert charges["E_coarse"] == adm_energy_momentum(data, ladder, grid).E
    assert charges["E_longer"] == adm_energy_momentum(
        data, ladder + [2.0 * ladder[-1]], grid).E
    assert charges["E_fine"] == adm_energy_momentum(data, ladder,
                                                    build_grid(24, 48)).E


@pytest.mark.parametrize("preset", ["schwarzschild", "kerr"])
def test_adm_command_charges_are_the_library_charges(preset, tmp_path):
    """``admbondi adm`` reports, bit for bit, the charges and samples of
    ``adm_energy_momentum`` on the grid and ladder that ``scenarios`` gives
    an adm run."""
    out = tmp_path / "a.json"
    assert main(["adm", "--preset", preset, "--out", str(out)]) == 0
    body = json.loads(out.read_text())
    cfg = ScenarioConfig(preset=preset)
    ch = adm_energy_momentum(make_adm_data(cfg), default_radii(cfg, "adm"),
                             make_grid(cfg, "adm"))
    assert body["charges"] == {"E": ch.E, "P": list(ch.P)}
    assert body["samples"]["E"] == list(ch.energy.samples)
    assert body["samples"]["P"] == [list(m.samples) for m in ch.momentum]


@settings(_SETTINGS)
@given(m=st.floats(0.5, 1.5), spin=st.floats(0.0, 0.99),
       r0=st.floats(4.0, 80.0), ratio=st.floats(1.2, 3.0),
       n=st.integers(1, 4), order=st.sampled_from([1, 2]), shape=_GRIDS)
def test_energy_only_jets_equal_the_full_g(m, spin, r0, ratio, n, order,
                                           shape):
    """The P-less evaluation of Kerr data (``momentum=False``) gives the G
    of ``InitialData.jets`` at every rung, in every value and every chart
    derivative, bit for bit with zero signs, and no P."""
    data = pullback_initial_data(kerr(KerrParameters(m, spin * m)),
                                 t_const_embedding(), euclidean_frame())
    axes = build_grid(*shape).axes()
    for r in _ladder(r0, ratio, n):
        coords = rung_axes([r], *axes)
        G, P, _ = data.jets(coords, order, momentum=False)
        assert P is None
        got = [_entries(x) for row in G for x in row]
        ref = [_entries(x) for row in data.jets(coords, order)[0]
               for x in row]
        assert [len(e) for e in got] == [len(e) for e in ref], r
        for g, f in zip(sum(got, []), sum(ref, [])):
            g, f = np.broadcast_arrays(g, f)
            assert np.array_equal(g, f), r
            assert np.array_equal(np.signbit(g), np.signbit(f)), r


def test_converge_runs_every_domain_check_once_per_block(monkeypatch):
    """Each evaluation of the slice data runs each domain check of the
    pullback exactly once: the chart domain, the spacelike slice and the
    positive definite induced metric; the finiteness checks run once on the
    slice coordinates and once on the chart coordinates.  converge evaluates
    its five coarse rungs and its four rungs on the doubled grid in
    ``rung_blocks``; adm its four rungs in ``rung_blocks``, then the decay
    ladder and the DEC sample points once each."""
    seen = Counter()
    reject = geometry._reject

    def counted(bad, coords, names, message):
        seen[message] += 1
        return reject(bad, coords, names, message)

    monkeypatch.setattr(geometry, "_reject", counted)
    cfg = ScenarioConfig(preset="kerr")
    domain = make_metric(cfg).domain
    spacelike = "slice is not spacelike (conormal fails to be timelike)"
    grid, n = make_grid(cfg, "adm"), len(default_radii(cfg, "adm"))
    fine = build_grid(2 * grid.n_theta, 2 * grid.n_psi)
    blocks = {"converge": len(rung_blocks(n + 1, grid))
                          + len(rung_blocks(n, fine)),
              "adm": len(rung_blocks(n, grid)) + 2}
    assert blocks == {"converge": 1 + 2, "adm": 1 + 2}
    for command, evaluations in blocks.items():
        seen.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--preset", "kerr"]) == 0
        assert seen == {domain: evaluations, spacelike: evaluations,
                        "induced metric is not positive definite": evaluations,
                        "coordinate is not finite": 2 * evaluations}, command


@pytest.mark.parametrize("command", ["adm", "converge"])
def test_a_rung_inside_the_horizon_exits_2(command, capsys):
    """A rung inside Kerr's horizon (r_+ = 1.87 at m = 1, a = 0.5) stops
    adm and converge with exit 2 and a message naming a point at that
    radius."""
    assert main([command, "--preset", "kerr", "--radii", "1.5,10,20,40"]) == 2
    err = capsys.readouterr().err
    assert "outside the exterior region" in err
    assert "at (t, r, theta, psi) = (0.0, 1.5, " in err


@pytest.mark.parametrize("momentum", [True, False])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_every_rung_of_a_block_is_checked(position, momentum):
    """The evaluations of adm (with momentum) and converge (energy only)
    stop at a rung inside Kerr's horizon wherever it sits in a block's
    ladder, first, in the middle or last, naming a point at that radius.
    An increasing ladder (``check_ladder``) can hold such a rung first
    only, so the ladder is passed unsorted; its five rungs on 24 x 48 are
    two blocks."""
    data = make_adm_data(ScenarioConfig(preset="kerr"))
    radii = [10.0, 20.0, 40.0, 80.0]
    radii.insert(position, 1.5)
    grid = build_grid(24, 48)
    assert len(rung_blocks(len(radii), grid)) == 2
    with pytest.raises(DomainError, match=r"outside the exterior region "
                       r".* = \(0\.0, 1\.5, "):
        adm.adm_ladder_samples(data, radii, grid, momentum)


def _parent_blocks(n_rungs, n_theta):
    """The null ladder's row split before ``rung_blocks``: one block per
    rung, or one per row when there are fewer rows."""
    return np.array_split(np.arange(n_theta), min(n_rungs, n_theta))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n_rungs=st.integers(1, 12), n_theta=st.integers(1, 200),
       n_psi=st.integers(1, 400))
def test_rung_blocks_cover_the_rows_in_order(n_rungs, n_theta, n_psi):
    """Consecutive blocks cover every theta row once, in order, as evenly
    as whole rows allow; they are the fewest that hold RUNG_BLOCK_POINTS
    points on average, so a block of several rows holds less than that plus
    one row.  ``rung_blocks`` reads only the grid's shape."""
    grid = SimpleNamespace(n_theta=n_theta, n_psi=n_psi)
    blocks = rung_blocks(n_rungs, grid)
    budget, row = ladder.RUNG_BLOCK_POINTS, n_rungs * n_psi
    assert all(isinstance(b, slice) and b.step is None for b in blocks)
    assert [i for b in blocks for i in range(b.start, b.stop)] \
        == list(range(n_theta))
    sizes = [b.stop - b.start for b in blocks]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    n = len(blocks)
    # the average block fits, or every block is a single row ...
    assert n * budget >= row * n_theta or n == n_theta
    # ... and one block fewer would not fit on average
    assert n == 1 or (n - 1) * budget < row * n_theta
    assert all(size * row < budget + row for size in sizes if size > 1)


@pytest.mark.parametrize("n_rungs, shape, sizes", [
    (5, (48, 24), [24, 24]),              # the null ladder
    (4, (48, 48), [24, 24]),              # converge's fine ladder
    (4, (24, 24), [24]),                  # adm, verify c1/c2: one block
    (5, (24, 24), [24]),                  # converge's coarse ladder
    (5, (48, 96), [10, 10, 10, 9, 9]),    # a null ladder on 48 x 96
])
def test_rung_blocks_of_the_default_ladders(n_rungs, shape, sizes):
    """The default ladders' blocks; five rungs of a configured 48 x 96 grid
    keep the row split of the null ladder before ``rung_blocks``."""
    blocks = rung_blocks(n_rungs, build_grid(*shape))
    assert [b.stop - b.start for b in blocks] == sizes
    if shape == (48, 96):
        assert [list(range(b.start, b.stop)) for b in blocks] \
            == [list(b) for b in _parent_blocks(n_rungs, shape[0])]


def _exact_samples(coefficients, radii):
    """sum_j c_j / r^j at each rung, rounded once: samples that carry only
    the rounding the error estimate assumes of them."""
    return [float(sum(Fraction(c) / Fraction(r) ** j
                      for j, c in enumerate(coefficients))) for r in radii]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(A=st.floats(-10.0, 10.0), B=st.floats(-10.0, 10.0),
       C=st.floats(-10.0, 10.0), r0=st.floats(1.0, 100.0),
       ratio=st.floats(1.2, 3.0), n=st.integers(3, 7))
def test_fit_inverse_powers_recovers_the_limit(A, B, C, r0, ratio, n):
    radii = _ladder(r0, ratio, n)
    fit = fit_inverse_powers(radii, _exact_samples([A, B, C], radii), 0.0)
    scale = abs(A) + abs(B) / r0 + abs(C) / r0 ** 2
    assert abs(fit.value - A) <= 1e-9 * (1.0 + scale)
    assert abs(fit.value - A) <= fit.error


# increasing ladders of 3-6 rungs, each rung 1.1-3 times the one before
_LADDERS = st.builds(
    lambda r0, ratios: list(r0 * np.cumprod([1.0] + ratios)),
    st.floats(0.5, 100.0),
    st.integers(2, 5).flatmap(
        lambda k: st.lists(st.floats(1.1, 3.0), min_size=k, max_size=k)))
# normal floats: a subnormal sample carries an absolute rounding that no
# relative bound sees
_COEFFICIENT = st.floats(-10.0, 10.0, allow_subnormal=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(radii=_LADDERS, draw=st.data())
def test_extrapolation_is_exact_below_degree_n(radii, draw):
    """A polynomial in 1/r of degree below the number of rungs n comes back
    to within a small multiple of eps sum_k |w_k y_k|, the rounding of the
    weights and of their dot product with the samples, and within the error
    estimate; the weights sum to 1, the extrapolation of a constant."""
    n = len(radii)
    coefficients = draw.draw(st.lists(_COEFFICIENT, min_size=1, max_size=n))
    samples = _exact_samples(coefficients, radii)
    fit = fit_inverse_powers(radii, samples, 0.0)
    w = extrapolation_weights(tuple(radii))
    size = np.sum(np.abs(w * samples))
    assert abs(fit.value - coefficients[0]) <= 2 * n * np.finfo(float).eps \
        * size
    assert abs(fit.value - coefficients[0]) <= fit.error
    assert abs(math.fsum(w) - 1.0) <= 2 * n * np.finfo(float).eps \
        * np.sum(np.abs(w))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(radii=_LADDERS, c=st.floats(1e-3, 10.0) | st.floats(-10.0, -1e-3),
       draw=st.data())
def test_error_bounds_a_term_beyond_the_fit(radii, c, draw):
    """Negative control: a c / r^n term that n rungs cannot resolve moves the
    extrapolation away from A, and the error estimate still covers it.

    With x_k = 1 / r_k that miss is |c| prod_k x_k, and the truncation term
    |A - A'| is |c| prod_{k>0} x_k sum_k x_k, larger by sum_k x_k / x_0, as
    long as the polynomial below is one that A' resolves too (degree below
    n - 1).  A degree n - 1 coefficient near -c sum_k x_k would cancel it:
    no estimate from the samples alone sees that term."""
    n = len(radii)
    coefficients = draw.draw(st.lists(_COEFFICIENT, min_size=1,
                                      max_size=n - 1))
    coefficients += [0.0] * (n - len(coefficients))
    fit = fit_inverse_powers(radii, _exact_samples(coefficients + [c],
                                                   radii), 0.0)
    assert fit.error >= abs(fit.value - coefficients[0])


def test_extrapolation_weights_are_cached_and_read_only():
    """One weight array per ladder, shared by every fit on it."""
    w = extrapolation_weights((10.0, 20.0, 40.0, 80.0))
    assert extrapolation_weights((10.0, 20.0, 40.0, 80.0)) is w
    np.testing.assert_allclose(w, np.array([-1.0, 14.0, -56.0, 64.0]) / 21.0,
                               rtol=1e-15)
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_roundoff_scale_covers_a_cancelled_component():
    """A charge whose integrand cancels terms of order 1 down to roundoff is
    judged by the rounding of a unit integrand's sample, not by its own
    size."""
    radii = [10.0, 20.0, 40.0, 80.0]
    noise = [8e-18 * 10.0 / r for r in radii]
    alone = fit_inverse_powers(radii, noise, 0.0)
    scaled = fit_inverse_powers(radii, noise,
                                unit_samples(radii, 2, 8.0 * np.pi))
    assert alone.value == scaled.value
    assert alone.error < 1e-30 < 1e-15 < scaled.error


@pytest.mark.parametrize("samples, growing", [
    ([1.0, 1.0, 1.0, 1.0 + 2.0 ** -52], False),   # rounding jitter
    ([1e-17, 2e-16, 2e-15, 7e-15], True),          # roundoff growing like r^3
])
def test_a_growing_tail_is_bounded_by_its_terms(samples, growing):
    """Differences that more than double along the ladder leave an error
    of sum_k |w_k y_k|, which bounds the extrapolation itself; a jitter
    within the samples' rounding leaves a rounding-sized error."""
    radii = [10.0, 20.0, 40.0, 80.0]
    fit = fit_inverse_powers(radii, samples, 0.0)
    terms = np.sum(np.abs(extrapolation_weights(tuple(radii)) * samples))
    assert (fit.error >= terms) == growing
    assert abs(fit.value) <= fit.error if growing else fit.error <= 1e-14
    # the divergence flag reads the same test as the error
    assert fit.diverging == growing


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(radii=_LADDERS, power=st.sampled_from([2, 3]), draw=st.data())
def test_samples_within_their_rounding_do_not_diverge(radii, power, draw):
    """Samples no larger than eps times a unit integrand's sample, however
    they grow along the ladder, are rounding: no difference of two of them
    exceeds 2 eps max_k scale_k, below the n eps max_k scale_k that a
    growing tail must pass to be flagged.  The null charges' samples of
    news that vanish at u0 sit there, at about eps r^3."""
    scale = unit_samples(radii, power, 8.0 * np.pi)
    t = draw.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(radii),
                           max_size=len(radii)))
    fit = fit_inverse_powers(radii, np.finfo(float).eps * scale * t, scale)
    assert not fit.diverging


@pytest.mark.parametrize("fit, what", [
    pytest.param(lambda radii, samples: fit_inverse_powers(radii, samples,
                                                           0.0),
                 "sample", id="fit_inverse_powers-sample"),
    (fit_decay_exponent, "sup-norm")])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rung", range(4))
def test_fits_reject_non_finite_samples(fit, what, bad, rung):
    """A NaN or infinite sample at any rung stops both fits with DomainError
    naming its radius: a NaN limit must not come out as converging, and a
    NaN sup-norm not as an exact zero."""
    radii = [10.0, 20.0, 40.0, 80.0]
    samples = [1.0, 0.5, 0.25, 0.125]
    samples[rung] = bad
    with pytest.raises(DomainError, match=rf"non-finite {what} {bad} at "
                       rf"radius {radii[rung]:g}$"):
        fit(radii, samples)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(radii=_LADDERS, shape=st.lists(st.integers(1, 3), max_size=2),
       power=st.sampled_from([2, 3]), c=st.sampled_from([8.0, 16.0]),
       draw=st.data())
def test_fit_ladder_fits_each_component_alone(radii, shape, power, c, draw):
    """Each nested fit of ``fit_ladder`` over samples of shape (n_r, *s) is
    ``fit_inverse_powers`` of its own component's samples, bit for bit, and
    ``fit_field`` reads every field back as an array of shape s (s + (n_r,)
    for the samples).  A NaN sample of any component names its radius."""
    shape = tuple(shape)
    n = len(radii) * math.prod(shape)
    samples = np.reshape(draw.draw(st.lists(st.floats(-1e3, 1e3),
                                            min_size=n, max_size=n)),
                         (len(radii),) + shape)
    scale = unit_samples(radii, power, c * np.pi)
    fits = fit_ladder(radii, samples, scale)
    fields = {name: fit_field(fits, name)
              for name in ("value", "error", "diverging", "samples")}
    for name, x in fields.items():
        assert x.shape == shape + ((len(radii),) if name == "samples"
                                   else ()), name
    for idx in np.ndindex(*shape):
        fit = fits
        for k in idx:
            fit = fit[k]
        ref = fit_inverse_powers(radii, samples[(slice(None),) + idx], scale)
        for name, x in fields.items():
            assert same_bits(getattr(fit, name), getattr(ref, name)), name
            assert same_bits(x[idx], getattr(ref, name)), name
    rung = draw.draw(st.integers(0, len(radii) - 1))
    where = (rung,) + tuple(draw.draw(st.integers(0, m - 1)) for m in shape)
    samples[where] = np.nan
    with pytest.raises(DomainError, match=rf"non-finite sample nan at "
                       rf"radius {radii[rung]:g}$"):
        fit_ladder(radii, samples, scale)


# -- the causal margin x_0 - |x_vec| of the pmt checks and the flux trajectory

def test_causal_margin_arithmetic():
    assert causal_margin([2.0, 1.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert causal_margin([0.0, 0.0, 0.0, 0.0]) == 0.0
    assert causal_margin([5.0, 3.0, 0.0, 0.0]) == pytest.approx(2.0)
    assert causal_margin([5.0, 0.0, 3.0, 4.0]) == 0.0
    assert causal_margin([1.0, 0.0, 0.0, -2.0]) == -1.0
    # one margin per row of a trajectory
    np.testing.assert_array_equal(
        causal_margin([[2.0, 1.0, 0.0, 0.0], [5.0, 0.0, 3.0, 4.0]]), [1.0, 0.0])


@pytest.mark.parametrize("k", range(4))
def test_causal_margin_nan_fails_the_margin_check(k):
    x = np.array([2.0, 0.1, 0.2, 0.3])
    x[k] = np.nan
    m = causal_margin(x)
    assert np.isnan(m)
    assert not CheckResult("pmt_margin", m, 1e-4, "value >= -tolerance").passed


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
                     min_size=1, max_size=5))
def test_causal_margin_is_the_written_out_formula(rows):
    """Bit for bit x0 - sqrt(x1 x1 + x2 x2 + x3 x3), the sum left to right,
    row by row and over a stack of rows.  (A numpy scalar's ``** 2`` can be
    one ulp off the rounded product; the array square is not.)"""
    x = np.array(rows)
    ref = [r[0] - np.sqrt(r[1] * r[1] + r[2] * r[2] + r[3] * r[3]) for r in x]
    assert np.array_equal(causal_margin(x), ref)
    assert [causal_margin(r) for r in x] == ref
