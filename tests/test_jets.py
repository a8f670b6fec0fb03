"""Jet arithmetic against central finite differences and closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from admbondi import jets
from admbondi.jets import Jet, seed, value


def f_scalar(x, y, z):
    return jets.sin(x) * jets.exp(y / 3.0) + jets.sqrt(1.0 + x * x) / (2.0 + jets.cos(z)) \
        + jets.arctan(y * z) - jets.log(2.0 + jets.sinh(x)) + x ** 3 / (1.0 + y ** 2)


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
        j = jets.arctan2(y, x)
        h = a * a + b * b
        assert value(j) == pytest.approx(np.arctan2(b, a))
        assert value(j.d[0]) == pytest.approx(-b / h, rel=1e-12)
        assert value(j.d[1]) == pytest.approx(a / h, rel=1e-12)


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


# -- structural zeros: random compositions against a dense reference ----------

# Unary steps keep every elementary function on a finite domain by composing
# it with sin or cos first.
UNARY = {
    "neg": lambda a: -a,
    "sin": jets.sin,
    "cos": jets.cos,
    "arctan": jets.arctan,
    "tanh": jets.tanh,
    "exp": lambda a: jets.exp(jets.sin(a)),
    "sqrt": lambda a: jets.sqrt(1.5 + jets.sin(a)),
    "log": lambda a: jets.log(1.5 + jets.cos(a)),
    "sinh": lambda a: jets.sinh(jets.sin(a)),
    "cosh": lambda a: jets.cosh(jets.sin(a)),
    "tan": lambda a: jets.tan(0.5 * jets.sin(a)),
    "arcsin": lambda a: jets.arcsin(0.5 * jets.sin(a)),
    "arccos": lambda a: jets.arccos(0.5 * jets.cos(a)),
    "square": lambda a: jets.sin(a) ** 2,
    "cube": lambda a: (1.5 + jets.sin(a)) ** 3,
    "pow": lambda a: (1.5 + jets.sin(a)) ** 1.5,
    "recip": lambda a: 1.0 / (1.5 + jets.cos(a)),
    "atan2_plain_x": lambda a: jets.arctan2(a, 1.3),
    "atan2_plain_y": lambda a: jets.arctan2(0.7, 2.0 + jets.sin(a)),
}
BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / (2.0 + jets.sin(b)),
    "atan2": lambda a, b: jets.arctan2(a, 2.0 + jets.sin(b)),
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
