"""Jet arithmetic against central finite differences and closed forms."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from admbondi import jets
from admbondi.jets import Jet, seed, value
from helpers import arccos, arctan2


def f_scalar(x, y, z):
    return jets.sin(x) * jets.exp(y / 3.0) + jets.sqrt(1.0 + x * x) / (2.0 + jets.cos(z)) \
        + arctan2(y * z, 1.0) - jets.sqrt(2.0 + jets.sinh(x)) + x ** 3 / (1.0 + y ** 2)


def fd_grad(fn, pt, h=1e-5):
    g = np.zeros(len(pt))
    for i in range(len(pt)):
        p = list(pt)
        p[i] = pt[i] + h
        up = fn(*p)
        p[i] = pt[i] - h
        dn = fn(*p)
        g[i] = (up - dn) / (2 * h)
    return g


def fd_hess(fn, pt, h=1e-4):
    n = len(pt)
    H = np.zeros((n, n))
    f0 = fn(*pt)
    for i in range(n):
        for j in range(i, n):
            p = list(pt)
            if i == j:
                p[i] = pt[i] + h
                up = fn(*p)
                p[i] = pt[i] - h
                dn = fn(*p)
                H[i, i] = (up - 2 * f0 + dn) / h**2
            else:
                vals = []
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    p = list(pt)
                    p[i] = pt[i] + si * h
                    p[j] = pt[j] + sj * h
                    vals.append(fn(*p))
                H[i, j] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * h**2)
            H[j, i] = H[i, j]
    return H


def test_first_derivatives_match_fd(rng):
    for _ in range(25):
        pt = rng.uniform(0.3, 1.8, size=3)
        x, y, z = seed(list(pt), order=2)
        j = f_scalar(x, y, z)
        ref = fd_grad(f_scalar, pt)
        got = np.array([value(a) for a in j.d])
        assert np.allclose(got, ref, rtol=1e-6, atol=1e-8)


def test_second_derivatives_match_fd(rng):
    for _ in range(10):
        pt = rng.uniform(0.3, 1.5, size=3)
        x, y, z = seed(list(pt), order=2)
        j = f_scalar(x, y, z)
        got = np.array([[value(j.dd[i][k]) for k in range(3)] for i in range(3)])
        ref = fd_hess(f_scalar, pt)
        assert np.allclose(got, ref, rtol=2e-5, atol=1e-6)


def test_division_and_power():
    x, y = seed([2.0, 3.0], order=2)
    q = (x * x + 1.0) / (y - 1.0)
    assert value(q) == pytest.approx(2.5)
    assert value(q.d[0]) == pytest.approx(2.0)          # 2x/(y-1)
    assert value(q.d[1]) == pytest.approx(-1.25)        # -(x^2+1)/(y-1)^2
    assert value(q.dd[0][1]) == pytest.approx(-1.0)
    p = x ** 3
    assert value(p.d[0]) == pytest.approx(12.0)
    assert value(p.dd[0][0]) == pytest.approx(12.0)
    r = 5.0 / x
    assert value(r.d[0]) == pytest.approx(-1.25)
    assert value(r.dd[0][0]) == pytest.approx(1.25)


def test_nested_jets_give_mixed_derivatives():
    # derivative in an inner variable, tracked by an outer one:
    # g(s) = d/du [ sin(u * s) ] at u = u0  ->  s cos(u0 s); check dg/ds.
    u0, s0 = 0.7, 1.3
    (s_out,) = seed([s0], order=2)
    (u_in,) = seed([Jet(u0, [0.0], [[0.0]])], order=2)
    # lift s to the inner level as a constant-in-u quantity
    s_in = Jet(s_out, [0.0], [[0.0]])
    f_in = jets.sin(u_in * s_in)
    g = f_in.d[0]                       # outer-level jet: s cos(u0 s)
    assert value(g) == pytest.approx(s0 * np.cos(u0 * s0), rel=1e-12)
    expect = np.cos(u0 * s0) - u0 * s0 * np.sin(u0 * s0)
    assert value(g.d[0]) == pytest.approx(expect, rel=1e-12)


def test_array_leaves_broadcast():
    xs = np.linspace(0.2, 1.4, 7)
    x, y = seed([xs, 2.0], order=2)
    j = jets.sin(x) * y + x / y
    assert np.allclose(value(j), np.sin(xs) * 2.0 + xs / 2.0)
    assert np.allclose(value(j.d[0]), np.cos(xs) * 2.0 + 0.5)
    assert np.allclose(value(j.d[1]), np.sin(xs) - xs / 4.0)


def test_numpy_does_not_absorb_jets():
    x, = seed([1.5], order=1)
    arr = np.array([2.0, 3.0])
    out = x * arr            # Jet with array leaves, not an object array
    assert isinstance(out, Jet)
    out2 = arr * x
    assert isinstance(out2, Jet)
    assert np.allclose(value(out2), arr * 1.5)


def test_arctan2_derivatives(rng):
    for _ in range(10):
        a, b = rng.uniform(0.5, 2.0, size=2)
        x, y = seed([a, b], order=2)
        j = arctan2(y, x)
        h = a * a + b * b
        assert value(j) == pytest.approx(np.arctan2(b, a))
        assert value(j.d[0]) == pytest.approx(-b / h, rel=1e-12)
        assert value(j.d[1]) == pytest.approx(a / h, rel=1e-12)


def test_dense_arithmetic_computes_every_structural_zero(dense_arithmetic):
    """The dense reference of the structural-zero tests switches the rule
    off in the helpers, in the Jet methods that call them, in the names
    geometry imported and in the test helpers' arctan2, and restores it on
    exit."""
    from admbondi import geometry
    ones = np.ones(2)
    x, _ = seed([ones, ones], order=1)

    def skipped():
        return [jets.add(0.0, ones) is ones, jets.sub(ones, 0.0) is ones,
                type(jets.mul(0.0, ones)) is float,
                type(jets.div(0.0, ones)) is float,
                type(jets.prod(ones, 0.0)) is float,
                geometry.add(0.0, ones) is ones,
                geometry.sub(ones, 0.0) is ones,
                type(geometry.mul(0.0, ones)) is float,
                type(geometry.prod(ones, 0.0)) is float,
                jets._zero(0.0), type((x * x).d[1]) is float,
                type(arctan2(x, 1.3).d[1]) is float]

    assert all(skipped())
    with dense_arithmetic():
        assert not any(skipped())
    assert all(skipped())


def test_matrix_inverses(rng):
    for n, inv in ((3, jets.inv3), (4, jets.inv4)):
        m = rng.normal(size=(n, n)) + n * np.eye(n)
        got = np.array(inv([[m[i, j] for j in range(n)] for i in range(n)]))
        assert np.allclose(got, np.linalg.inv(m), atol=1e-12)


def test_inverse_with_jet_entries():
    # d/dt of inv(M(t)) = -Minv dM Minv
    t0 = 0.4
    (t,) = seed([t0], order=1)
    M = [[1.0 + t, 0.2 * t, 0.0],
         [0.2 * t, 2.0, jets.sin(t)],
         [0.0, jets.sin(t), 3.0]]
    inv = jets.inv3(M)
    Mv = np.array([[value(M[i][j]) for j in range(3)] for i in range(3)])
    dM = np.array([[value(M[i][j].d[0]) if isinstance(M[i][j], Jet) else 0.0
                    for j in range(3)] for i in range(3)])
    ref = -np.linalg.inv(Mv) @ dM @ np.linalg.inv(Mv)
    got = np.array([[value(inv[i][j].d[0]) for j in range(3)] for i in range(3)])
    assert np.allclose(got, ref, atol=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([3, 4]), leaf=st.sampled_from([(), (3,)]),
       zeros=st.lists(st.booleans(), min_size=16, max_size=16),
       seed_=st.integers(0, 2 ** 32 - 1))
def test_zero_aware_linear_algebra_matches_dense_and_numpy(n, leaf, zeros,
                                                           seed_,
                                                           dense_arithmetic):
    """inv3/inv4 and inv4's determinant with plain-float zeros give exactly what the dense
    formulas give, and agree with np.linalg."""
    vals = np.random.default_rng(seed_).uniform(-2.0, 2.0, (n, n) + leaf)
    vals[np.array(zeros[:n * n]).reshape(n, n)] = 0.0
    stack = np.moveaxis(vals.reshape((n, n, -1)), -1, 0)   # [point, i, j]
    assume(np.all(np.linalg.cond(stack) < 1e3))
    m = [[0.0 if z else (vals[i, j] if leaf else float(vals[i, j]))
          for j, z in enumerate(zeros[i * n:(i + 1) * n])] for i in range(n)]
    inv = jets.inv3 if n == 3 else jets.inv4

    def evaluate():
        rows = [[np.broadcast_to(x, leaf) for x in row] for row in inv(m)]
        dets = ([np.broadcast_to(jets._det_of_minors(*jets._minors4(m)),
                                 leaf)] if n == 4 else [])
        return np.array(rows), dets

    got_inv, got_det = evaluate()
    with dense_arithmetic():
        ref_inv, ref_det = evaluate()
    assert np.array_equal(got_inv, ref_inv)
    assert all(map(np.array_equal, got_det, ref_det))
    np_inv = np.moveaxis(np.linalg.inv(stack), 0, -1).reshape(got_inv.shape)
    np_det = np.linalg.det(stack).reshape(leaf)
    np.testing.assert_allclose(got_inv, np_inv, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(np_inv)))
    for det in got_det:
        np.testing.assert_allclose(det, np_det, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(vals)) ** n)


# -- structural zeros: random compositions against a dense reference ----------

# Unary steps keep every elementary function on a finite domain by composing
# it with sin or cos first.
UNARY = {
    "neg": lambda a: -a,
    "sin": jets.sin,
    "cos": jets.cos,
    "exp": lambda a: jets.exp(jets.sin(a)),
    "sqrt": lambda a: jets.sqrt(1.5 + jets.sin(a)),
    "sinh": lambda a: jets.sinh(jets.sin(a)),
    "cosh": lambda a: jets.cosh(jets.sin(a)),
    "arccos": lambda a: arccos(0.5 * jets.cos(a)),
    "square": lambda a: jets.sin(a) ** 2,
    "cube": lambda a: (1.5 + jets.sin(a)) ** 3,
    "pow": lambda a: (1.5 + jets.sin(a)) ** 1.5,
    "recip": lambda a: 1.0 / (1.5 + jets.cos(a)),
    "atan2_plain_x": lambda a: arctan2(a, 1.3),
    "atan2_plain_y": lambda a: arctan2(0.7, 2.0 + jets.sin(a)),
}
BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / (2.0 + jets.sin(b)),
    "atan2": lambda a, b: arctan2(a, 2.0 + jets.sin(b)),
}

_var = st.tuples(st.just("var"), st.integers(0, 2))
_leaf = st.one_of(
    _var, _var,
    st.tuples(st.just("const"), st.one_of(st.sampled_from([0.0, 1.0]),
                                          st.floats(-2.0, 2.0))))
_tree = st.recursive(
    _leaf,
    lambda t: st.one_of(st.tuples(st.sampled_from(sorted(UNARY)), t),
                        st.tuples(st.sampled_from(sorted(BINARY)), t, t)),
    max_leaves=8)
_point = st.one_of(
    st.floats(0.3, 1.5),
    st.lists(st.floats(0.3, 1.5), min_size=3, max_size=3).map(np.array))


def _evaluate(tree, xs, const):
    op = tree[0]
    if op == "var":
        return xs[tree[1] % len(xs)]
    if op == "const":
        return const(tree[1])
    if op in UNARY:
        return UNARY[op](_evaluate(tree[1], xs, const))
    return BINARY[op](_evaluate(tree[1], xs, const),
                      _evaluate(tree[2], xs, const))


def _densify(x):
    """The seed x with every float-zero entry replaced by a zero array."""
    z = np.zeros_like(np.asarray(value(x)))

    def dense(a):
        return z if type(a) is float and a == 0.0 else a

    dd = None if x.dd is None else [[dense(a) for a in row] for row in x.dd]
    return Jet(x.f, [dense(a) for a in x.d], dd)


def _seed_levels(points, orders, dense):
    """Seed ``points`` once per entry of ``orders``, outermost first."""
    xs = list(points)
    for order in orders:
        xs = seed(xs, order=order)
        if dense:
            xs = [_densify(x) for x in xs]
    return xs


def _part(x, path):
    """Follow a path of "f", i (d[i]) and (i, j) (dd[i][j]) steps; a plain
    number is a constant at every level."""
    for step in path:
        if step == "f":
            x = x.f if isinstance(x, Jet) else x
        elif not isinstance(x, Jet):
            x = 0.0
        elif isinstance(step, int):
            x = x.d[step]
        else:
            x = x.dd[step[0]][step[1]]
    return x


def _paths(k, orders):
    """Every entry of a jet seeded at ``orders`` (innermost level first)."""
    out = [()]
    for order in orders:
        steps = ["f"] + list(range(k))
        if order == 2:
            steps += [(i, j) for i in range(k) for j in range(k)]
        out = [p + (s,) for p in out for s in steps]
    return out


def _fd(fn, points, h):
    """Central first and second differences of fn at points."""
    k = len(points)

    def at(*shifts):
        p = list(points)
        for i, s in shifts:
            p[i] = p[i] + s * h
        return np.asarray(fn(p), dtype=float)

    grad = [(at((i, 1)) - at((i, -1))) / (2 * h) for i in range(k)]
    hess = [[(at((i, 1), (j, 1)) - at((i, 1), (j, -1)) - at((i, -1), (j, 1))
              + at((i, -1), (j, -1))) / (4 * h * h) for j in range(k)]
            for i in range(k)]
    return grad, hess


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tree=_tree, points=st.lists(_point, min_size=1, max_size=3),
       orders=st.sampled_from([(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]))
def test_structural_zeros_match_dense_reference_and_fd(tree, points, orders):
    """Float-zero seeds give the same jets as zero-array seeds, and every
    entry agrees with central differences.

    The two agree to rounding, not bit for bit: where a structural zero leaves
    a plain number in place of an outer-level jet, ``c / x`` takes the chain
    rule of ``__rtruediv__`` (and ``x / c`` the product with ``1 / c``)
    instead of the quotient rule, which rounds differently in the last bit.
    """
    k = len(points)
    paths = _paths(k, orders[::-1])
    sparse = _evaluate(tree, _seed_levels(points, orders, False), float)
    dense = _evaluate(tree, _seed_levels(points, orders, True), np.float64)
    got = [np.asarray(_part(sparse, p), dtype=float) for p in paths]
    ref = [np.asarray(_part(dense, p), dtype=float) for p in paths]
    scale = 1.0 + max(float(np.max(np.abs(r))) for r in ref)
    for p, a, b in zip(paths, got, ref):
        np.testing.assert_allclose(a + 0 * b, b, rtol=1e-12, atol=1e-13 * scale,
                                   err_msg=str(p))

    # every route to the value, a first or a second derivative (nested
    # levels reach d/dx_i d/dx_j both as d[i].d[j] and as dd[i][j].f)
    f = lambda p: _evaluate(tree, p, float)  # noqa: E731
    grad, hess = _fd(f, points, 1e-4)
    val = np.asarray(f(points), dtype=float)
    scale = 1.0 + np.max(np.abs(val))
    for p, a in zip(paths, got):
        steps = [s for s in p if s != "f"]
        a = a + 0 * val
        if not steps:
            np.testing.assert_allclose(a, val, rtol=1e-12)
        elif len(steps) == 1 and isinstance(steps[0], int):
            np.testing.assert_allclose(a, grad[steps[0]], rtol=1e-5,
                                       atol=1e-6 * scale, err_msg=str(p))
        elif len(steps) == 1 or all(isinstance(s, int) for s in steps):
            i, j = steps[0] if len(steps) == 1 else steps
            np.testing.assert_allclose(a, hess[i][j], rtol=1e-3,
                                       atol=1e-4 * scale, err_msg=str(p))


@pytest.mark.parametrize("name, f, df, ddf", [
    ("sin", np.sin, np.cos, lambda v: -np.sin(v)),
    ("cos", np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v)),
    ("sinh", np.sinh, np.cosh, np.sinh),
    ("cosh", np.cosh, np.sinh, np.cosh)])
def test_order2_chain_reuses_the_function_value(monkeypatch, name, f, df, ddf):
    """At order 2, f'' = -f (sin, cos) or f (sinh, cosh) reuses f(v): a jet
    nested two levels deep calls each leaf function twice, once for f and
    once for f' at the inner level, where recomputing f'' took nine calls."""
    x = np.array([0.3, 1.1, 2.0])
    inner = seed([x, 0.5 * x], order=2)
    outer = seed(inner, order=2)
    calls = []

    def counted(fn):
        def leaf(v):
            calls.append(fn)
            return fn(v)
        return leaf
    for fn in (np.sin, np.cos, np.sinh, np.cosh):
        monkeypatch.setattr(np, fn.__name__, counted(fn))
    y = getattr(jets, name)(outer[0])
    monkeypatch.undo()
    assert len(calls) == 4
    # f, f' and f'' at the outer level, and f'' at the inner one
    assert np.array_equal(value(y), f(x))
    assert np.array_equal(y.d[0].f, df(x))
    assert np.array_equal(y.dd[0][0].f, ddf(x))
    assert np.array_equal(y.f.dd[0][0], ddf(x))
