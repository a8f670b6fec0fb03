"""Forward-mode truncated Taylor arithmetic (jets) used for exact derivatives.

A :class:`Jet` carries a value together with its first (and optionally second)
partial derivatives with respect to a fixed set of seed variables.  Entries may
be floats, numpy arrays (for batched evaluation over grid nodes), or other
Jets: nesting a jet context inside another is how mixed higher derivatives are
obtained, e.g. chart derivatives of Christoffel symbols that are themselves
coordinate derivatives of the metric.

Rules that keep nesting sound:

* every argument of a generic function must live at the same jet level (plain
  numbers are fine anywhere, they are constants at every level);
* jets are immutable by convention -- operations share entry lists freely and
  never mutate them;
* ``value(x)`` unwraps to the leaf value, which is what branching and domain
  checks must look at.

Structural zeros: a derivative entry that is the plain Python float ``0.0``
(as ``seed`` and ``arctan2`` create them) is known to vanish everywhere.  The
ring operations, ``_chain`` and hence every elementary function drop the
terms it would annihilate and keep such a result a plain float, instead of
multiplying it into an all-zero array or jet.  The surviving terms are
summed in the same order as in the full formula, so each entry keeps its
value up to the sign of an exact zero.  One downstream effect remains: an
entry that stays a plain number where it would have been a jet with zero
derivatives makes a later ``c / x`` use the chain rule of ``__rtruediv__``
(and ``x / c`` a product with ``1 / c``) instead of the quotient rule, which
can round differently in the last bit.  A numpy zero (array or
``np.float64``) is not structural and is computed like any other entry.
"""

import numpy as np

__all__ = [
    "Jet", "seed", "value", "djet", "trunc1",
    "sin", "cos", "tan", "sqrt", "exp", "log",
    "sinh", "cosh", "tanh", "arctan", "arcsin", "arccos", "arctan2",
    "inv3", "inv4", "det3",
]


class Jet:
    """Value plus first (d) and optional second (dd) derivatives.

    ``d`` is a list of length nvars; ``dd`` is a symmetric nvars x nvars
    nested list or None for first-order jets.  Entries are never mutated.
    """

    __slots__ = ("f", "d", "dd")
    # Keep numpy from absorbing Jets into object arrays.
    __array_ufunc__ = None
    __array_priority__ = 1000.0

    def __init__(self, f, d, dd=None):
        self.f = f
        self.d = d
        self.dd = dd

    @property
    def nvars(self):
        return len(self.d)

    def __repr__(self):
        return f"Jet(f={self.f!r}, nvars={len(self.d)}, order={1 if self.dd is None else 2})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, o):
        if isinstance(o, Jet):
            d = [_add(a, b) for a, b in zip(self.d, o.d)]
            dd = None
            if self.dd is not None:
                dd = _sym2(lambda i, j: _add(self.dd[i][j], o.dd[i][j]), len(d))
            return Jet(self.f + o.f, d, dd)
        return Jet(self.f + o, self.d, self.dd)

    __radd__ = __add__

    def __neg__(self):
        d = [-a for a in self.d]
        dd = None if self.dd is None else _sym2(lambda i, j: -self.dd[i][j], len(d))
        return Jet(-self.f, d, dd)

    def __sub__(self, o):
        if isinstance(o, Jet):
            d = [_sub(a, b) for a, b in zip(self.d, o.d)]
            dd = None
            if self.dd is not None:
                dd = _sym2(lambda i, j: _sub(self.dd[i][j], o.dd[i][j]), len(d))
            return Jet(self.f - o.f, d, dd)
        return Jet(self.f - o, self.d, self.dd)

    def __rsub__(self, o):
        d = [-a for a in self.d]
        dd = None if self.dd is None else _sym2(lambda i, j: -self.dd[i][j], len(d))
        return Jet(o - self.f, d, dd)

    def __mul__(self, o):
        if isinstance(o, Jet):
            f, g = self.f, o.f
            sd, od = self.d, o.d
            d = [_add(_mul(sd[i], g), _mul(f, od[i])) for i in range(len(sd))]
            dd = None
            if self.dd is not None:
                sdd, odd = self.dd, o.dd
                dd = _sym2(
                    lambda i, j: _add(_add(_add(_mul(sdd[i][j], g), _mul(f, odd[i][j])),
                                           _mul(sd[i], od[j])), _mul(sd[j], od[i])),
                    len(d))
            return Jet(f * g, d, dd)
        d = [_mul(a, o) for a in self.d]
        dd = None if self.dd is None else _sym2(lambda i, j: _mul(self.dd[i][j], o), len(d))
        return Jet(self.f * o, d, dd)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Jet):
            g = o.f
            q = self.f / g
            sd, od = self.d, o.d
            d = [_div(_sub(sd[i], _mul(q, od[i])), g) for i in range(len(sd))]
            dd = None
            if self.dd is not None:
                sdd, odd = self.dd, o.dd
                dd = _sym2(
                    lambda i, j: _div(_sub(_sub(_sub(sdd[i][j], _mul(q, odd[i][j])),
                                                _mul(d[i], od[j])), _mul(d[j], od[i])), g),
                    len(d))
            return Jet(q, d, dd)
        inv = 1.0 / o
        return self * inv

    def __rtruediv__(self, o):
        # o / self with o constant at this level
        v = self.f
        f0 = o / v
        f1 = -f0 / v
        f2 = None if self.dd is None else -2.0 * f1 / v
        return self._chain(f0, f1, f2)

    def __pow__(self, n):
        v = self.f
        if isinstance(n, int):
            if n == 2:
                return self * self
            f1 = n * v ** (n - 1)
            f2 = None if self.dd is None else n * (n - 1) * v ** (n - 2)
            return self._chain(v ** n, f1, f2)
        f1 = n * v ** (n - 1.0)
        f2 = None if self.dd is None else n * (n - 1.0) * v ** (n - 2.0)
        return self._chain(v ** n, f1, f2)

    # -- composition -------------------------------------------------------

    def _chain(self, f0, f1, f2):
        """Compose with a scalar function given f(v), f'(v) and f''(v)."""
        sd = self.d
        d = [_mul(f1, a) for a in sd]
        dd = None
        if self.dd is not None:
            sdd = self.dd
            dd = _sym2(lambda i, j: _add(_mul(f1, sdd[i][j]), _mul(_mul(f2, sd[i]), sd[j])),
                       len(d))
        return Jet(f0, d, dd)


# -- structural zeros (see the module docstring) ------------------------------

def _zero(x):
    return type(x) is float and x == 0.0


def _add(a, b):
    if _zero(a):
        return b
    if _zero(b):
        return a
    return a + b


def _sub(a, b):
    if _zero(b):
        return a
    return a - b


def _mul(a, b):
    if _zero(a) or _zero(b):
        return 0.0
    return a * b


def _div(a, b):
    if _zero(a):
        return 0.0
    return a / b


def _sym2(fn, k):
    """Build a symmetric k x k nested list from fn(i, j), computing j >= i once."""
    rows = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            e = fn(i, j)
            rows[i][j] = e
            rows[j][i] = e
    return rows


def seed(values, order=1):
    """Seed a jet context: one Jet per value, with unit gradients.

    ``values`` entries may be numbers, arrays, or Jets of an outer context.
    Zeros in gradients are plain floats: structural zeros that the ring
    operations skip.
    """
    k = len(values)
    out = []
    for i, v in enumerate(values):
        d = [0.0] * k
        d[i] = 1.0
        dd = None if order == 1 else [[0.0] * k for _ in range(k)]
        out.append(Jet(v, d, dd))
    return out


def value(x):
    """Descend through nested jets to the leaf value."""
    while isinstance(x, Jet):
        x = x.f
    return x


def djet(x, a):
    """The a-th first derivative of an order-2 jet, as an order-1 jet.

    Turns (f, df, ddf) into the pair (df_a, ddf_a*) so that a quantity built
    from derivatives can itself be differentiated once more.
    """
    return Jet(x.d[a], list(x.dd[a]))


def trunc1(x):
    """Drop the second-order block of a jet (or pass plain numbers through)."""
    if isinstance(x, Jet):
        return Jet(x.f, x.d)
    return x


# -- generic elementary functions -------------------------------------------

def _dispatch(x, npfun, chain):
    if isinstance(x, Jet):
        return chain(x)
    return npfun(x)


def sin(x):
    return _dispatch(x, np.sin, lambda j: j._chain(
        sin(j.f), cos(j.f), None if j.dd is None else -sin(j.f)))


def cos(x):
    return _dispatch(x, np.cos, lambda j: j._chain(
        cos(j.f), -sin(j.f), None if j.dd is None else -cos(j.f)))


def tan(x):
    return _dispatch(x, np.tan, lambda j: _tan_jet(j))


def _tan_jet(j):
    t = tan(j.f)
    sec2 = 1.0 + t * t
    return j._chain(t, sec2, None if j.dd is None else 2.0 * t * sec2)


def sqrt(x):
    return _dispatch(x, np.sqrt, lambda j: _sqrt_jet(j))


def _sqrt_jet(j):
    s = sqrt(j.f)
    f1 = 0.5 / s
    return j._chain(s, f1, None if j.dd is None else -0.5 * f1 / j.f)


def exp(x):
    return _dispatch(x, np.exp, lambda j: _exp_jet(j))


def _exp_jet(j):
    e = exp(j.f)
    return j._chain(e, e, None if j.dd is None else e)


def log(x):
    return _dispatch(x, np.log, lambda j: j._chain(
        log(j.f), 1.0 / j.f, None if j.dd is None else -1.0 / (j.f * j.f)))


def sinh(x):
    return _dispatch(x, np.sinh, lambda j: j._chain(
        sinh(j.f), cosh(j.f), None if j.dd is None else sinh(j.f)))


def cosh(x):
    return _dispatch(x, np.cosh, lambda j: j._chain(
        cosh(j.f), sinh(j.f), None if j.dd is None else cosh(j.f)))


def tanh(x):
    return _dispatch(x, np.tanh, lambda j: _tanh_jet(j))


def _tanh_jet(j):
    t = tanh(j.f)
    sech2 = 1.0 - t * t
    return j._chain(t, sech2, None if j.dd is None else -2.0 * t * sech2)


def arctan(x):
    return _dispatch(x, np.arctan, lambda j: _arctan_jet(j))


def _arctan_jet(j):
    v = j.f
    den = 1.0 + v * v
    f1 = 1.0 / den
    return j._chain(arctan(v), f1, None if j.dd is None else -2.0 * v * f1 * f1)


def arcsin(x):
    return _dispatch(x, np.arcsin, lambda j: _arcsin_jet(j))


def _arcsin_jet(j):
    v = j.f
    w = 1.0 - v * v
    f1 = w ** -0.5
    return j._chain(arcsin(v), f1, None if j.dd is None else v * f1 / w)


def arccos(x):
    return _dispatch(x, np.arccos, lambda j: _arccos_jet(j))


def _arccos_jet(j):
    v = j.f
    w = 1.0 - v * v
    f1 = -(w ** -0.5)
    return j._chain(arccos(v), f1, None if j.dd is None else v * f1 / w)


def arctan2(y, x):
    """Two-argument arctangent; correct away from the branch cut."""
    jy, jx = isinstance(y, Jet), isinstance(x, Jet)
    if not jy and not jx:
        return np.arctan2(y, x)
    if jy and not jx:
        k = len(y.d)
        x = Jet(x, [0.0] * k, None if y.dd is None else [[0.0] * k for _ in range(k)])
    elif jx and not jy:
        k = len(x.d)
        y = Jet(y, [0.0] * k, None if x.dd is None else [[0.0] * k for _ in range(k)])
    fy, fx = y.f, x.f
    h = fx * fx + fy * fy
    k = len(y.d)
    d = [_div(_sub(_mul(fx, y.d[i]), _mul(fy, x.d[i])), h) for i in range(k)]
    dd = None
    if y.dd is not None:
        fx2, fy2 = 2.0 * fx, 2.0 * fy

        def entry(i, j):
            dN = _sub(_sub(_add(_mul(x.d[j], y.d[i]), _mul(fx, y.dd[i][j])),
                           _mul(y.d[j], x.d[i])), _mul(fy, x.dd[i][j]))
            dh = _add(_mul(fx2, x.d[j]), _mul(fy2, y.d[j]))
            return _div(_sub(dN, _mul(d[i], dh)), h)
        dd = _sym2(entry, k)
    return Jet(arctan2(fy, fx), d, dd)


# -- small generic linear algebra --------------------------------------------
# Nested-list matrices with entries of any jet level; adjugate-based inverses
# keep everything inside the generic ring.

def det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def inv3(m):
    """Inverse of a generic 3x3 nested-list matrix."""
    c00 = m[1][1] * m[2][2] - m[1][2] * m[2][1]
    c01 = m[1][2] * m[2][0] - m[1][0] * m[2][2]
    c02 = m[1][0] * m[2][1] - m[1][1] * m[2][0]
    det = m[0][0] * c00 + m[0][1] * c01 + m[0][2] * c02
    c10 = m[0][2] * m[2][1] - m[0][1] * m[2][2]
    c11 = m[0][0] * m[2][2] - m[0][2] * m[2][0]
    c12 = m[0][1] * m[2][0] - m[0][0] * m[2][1]
    c20 = m[0][1] * m[1][2] - m[0][2] * m[1][1]
    c21 = m[0][2] * m[1][0] - m[0][0] * m[1][2]
    c22 = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return [[c00 / det, c10 / det, c20 / det],
            [c01 / det, c11 / det, c21 / det],
            [c02 / det, c12 / det, c22 / det]]


def inv4(m):
    """Inverse of a generic 4x4 nested-list matrix (2x2-minor expansion)."""
    s0 = m[0][0] * m[1][1] - m[1][0] * m[0][1]
    s1 = m[0][0] * m[1][2] - m[1][0] * m[0][2]
    s2 = m[0][0] * m[1][3] - m[1][0] * m[0][3]
    s3 = m[0][1] * m[1][2] - m[1][1] * m[0][2]
    s4 = m[0][1] * m[1][3] - m[1][1] * m[0][3]
    s5 = m[0][2] * m[1][3] - m[1][2] * m[0][3]
    c5 = m[2][2] * m[3][3] - m[3][2] * m[2][3]
    c4 = m[2][1] * m[3][3] - m[3][1] * m[2][3]
    c3 = m[2][1] * m[3][2] - m[3][1] * m[2][2]
    c2 = m[2][0] * m[3][3] - m[3][0] * m[2][3]
    c1 = m[2][0] * m[3][2] - m[3][0] * m[2][2]
    c0 = m[2][0] * m[3][1] - m[3][0] * m[2][1]
    det = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
    inv = [[None] * 4 for _ in range(4)]
    inv[0][0] = (m[1][1] * c5 - m[1][2] * c4 + m[1][3] * c3) / det
    inv[0][1] = (-m[0][1] * c5 + m[0][2] * c4 - m[0][3] * c3) / det
    inv[0][2] = (m[3][1] * s5 - m[3][2] * s4 + m[3][3] * s3) / det
    inv[0][3] = (-m[2][1] * s5 + m[2][2] * s4 - m[2][3] * s3) / det
    inv[1][0] = (-m[1][0] * c5 + m[1][2] * c2 - m[1][3] * c1) / det
    inv[1][1] = (m[0][0] * c5 - m[0][2] * c2 + m[0][3] * c1) / det
    inv[1][2] = (-m[3][0] * s5 + m[3][2] * s2 - m[3][3] * s1) / det
    inv[1][3] = (m[2][0] * s5 - m[2][2] * s2 + m[2][3] * s1) / det
    inv[2][0] = (m[1][0] * c4 - m[1][1] * c2 + m[1][3] * c0) / det
    inv[2][1] = (-m[0][0] * c4 + m[0][1] * c2 - m[0][3] * c0) / det
    inv[2][2] = (m[3][0] * s4 - m[3][1] * s2 + m[3][3] * s0) / det
    inv[2][3] = (-m[2][0] * s4 + m[2][1] * s2 - m[2][3] * s0) / det
    inv[3][0] = (-m[1][0] * c3 + m[1][1] * c1 - m[1][2] * c0) / det
    inv[3][1] = (m[0][0] * c3 - m[0][1] * c1 + m[0][2] * c0) / det
    inv[3][2] = (-m[3][0] * s3 + m[3][1] * s1 - m[3][2] * s0) / det
    inv[3][3] = (m[2][0] * s3 - m[2][1] * s1 + m[2][2] * s0) / det
    return inv
