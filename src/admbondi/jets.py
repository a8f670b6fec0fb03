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

Structural zeros: an entry that is the plain Python float ``0.0`` (as
``seed`` and constant metric components create them) is known to vanish
everywhere.  The ring operations, ``_chain`` and hence every
elementary function drop the terms it would annihilate and keep such a
result a plain float, instead of multiplying it into an all-zero array or
jet.  The helpers ``add``, ``sub``, ``mul``, ``div`` and ``prod`` apply the
rule to operands of any level, plain numbers and arrays included; the
linear algebra below (``inv3``, ``inv4``) and the tensor
contractions of ``geometry``'s pullback are written with them.  They test
for a structural zero inline (``type(x) is float and x == 0.0``), since a
charge evaluation calls them some hundred thousand times; ``_zero`` is the
same test for the callers elsewhere that skip terms.

Where the rule is tested: the ``dense_arithmetic`` fixture of
``tests/conftest.py`` replaces the five helpers, in this module and where
other modules imported them, by the plain operators and makes ``_zero``
answer False.  ``tests/test_jets.py`` (the linear algebra) and
``tests/test_geometry.py`` (the pullback's values and jets) compare every
result with that dense evaluation bit for bit, and
``test_dense_arithmetic_computes_every_structural_zero`` checks that the
fixture switches the rule off.

The surviving terms are summed in the same order as in the full formula, so
each entry keeps its value up to the sign of an exact zero.  One downstream
effect remains: an entry that stays a plain number where it would have been
a jet with zero derivatives makes a later ``c / x`` use the chain rule of
``__rtruediv__`` (and ``x / c`` a product with ``1 / c``) instead of the
quotient rule, which can round differently in the last bit.  A numpy zero
(array or ``np.float64``) is not structural and is computed like any other
entry.
"""

import numpy as np

__all__ = [
    "Jet", "seed", "value",
    "sin", "cos", "sqrt", "exp", "sinh", "cosh",
    "inv3", "inv4",
    "add", "sub", "mul", "div", "prod",
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

    def __repr__(self):
        return f"Jet(f={self.f!r}, nvars={len(self.d)}, order={1 if self.dd is None else 2})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, o):
        if isinstance(o, Jet):
            d = [add(a, b) for a, b in zip(self.d, o.d)]
            dd = None
            if self.dd is not None:
                dd = _sym2(lambda i, j: add(self.dd[i][j], o.dd[i][j]), len(d))
            return Jet(self.f + o.f, d, dd)
        return Jet(self.f + o, self.d, self.dd)

    __radd__ = __add__

    def __neg__(self):
        d = [-a for a in self.d]
        dd = None if self.dd is None else _sym2(lambda i, j: -self.dd[i][j], len(d))
        return Jet(-self.f, d, dd)

    def __sub__(self, o):
        if isinstance(o, Jet):
            d = [sub(a, b) for a, b in zip(self.d, o.d)]
            dd = None
            if self.dd is not None:
                dd = _sym2(lambda i, j: sub(self.dd[i][j], o.dd[i][j]), len(d))
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
            d = [add(mul(sd[i], g), mul(f, od[i])) for i in range(len(sd))]
            dd = None
            if self.dd is not None:
                sdd, odd = self.dd, o.dd
                dd = _sym2(
                    lambda i, j: add(add(add(mul(sdd[i][j], g), mul(f, odd[i][j])),
                                         mul(sd[i], od[j])), mul(sd[j], od[i])),
                    len(d))
            return Jet(f * g, d, dd)
        d = [mul(a, o) for a in self.d]
        dd = None if self.dd is None else _sym2(lambda i, j: mul(self.dd[i][j], o), len(d))
        return Jet(self.f * o, d, dd)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Jet):
            g = o.f
            q = self.f / g
            sd, od = self.d, o.d
            d = [div(sub(sd[i], mul(q, od[i])), g) for i in range(len(sd))]
            dd = None
            if self.dd is not None:
                sdd, odd = self.dd, o.dd
                dd = _sym2(
                    lambda i, j: div(sub(sub(sub(sdd[i][j], mul(q, odd[i][j])),
                                             mul(d[i], od[j])), mul(d[j], od[i])), g),
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
        if isinstance(n, int) and n == 2:
            return self * self
        v = self.f
        f1 = n * v ** (n - 1)
        f2 = None if self.dd is None else n * (n - 1) * v ** (n - 2)
        return self._chain(v ** n, f1, f2)

    # -- composition -------------------------------------------------------

    def _chain(self, f0, f1, f2):
        """Compose with a scalar function given f(v), f'(v) and f''(v)."""
        sd = self.d
        d = [mul(f1, a) for a in sd]
        dd = None
        if self.dd is not None:
            sdd = self.dd
            dd = _sym2(lambda i, j: add(mul(f1, sdd[i][j]), mul(mul(f2, sd[i]), sd[j])),
                       len(d))
        return Jet(f0, d, dd)


# -- structural zeros (see the module docstring) ------------------------------

def _zero(x):
    return type(x) is float and x == 0.0


def add(a, b):
    """a + b; the other operand if a or b is a structural zero."""
    if type(a) is float and a == 0.0:
        return b
    if type(b) is float and b == 0.0:
        return a
    return a + b


def sub(a, b):
    """a - b; a itself if b is a structural zero."""
    if type(b) is float and b == 0.0:
        return a
    return a - b


def mul(a, b):
    """a * b; a structural zero if a or b is one."""
    if (type(a) is float and a == 0.0) or (type(b) is float and b == 0.0):
        return 0.0
    return a * b


def prod(*factors):
    """((f0 * f1) * f2) ...; a structural zero, with no partial product
    computed, if any factor is one."""
    for f in factors:
        if type(f) is float and f == 0.0:
            return 0.0
    acc = factors[0]
    for f in factors[1:]:
        acc = acc * f
    return acc


def div(a, b):
    """a / b; a structural zero if a is one."""
    if type(a) is float and a == 0.0:
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


# -- generic elementary functions -------------------------------------------

def _dispatch(x, npfun, chain):
    if isinstance(x, Jet):
        return chain(x)
    return npfun(x)


def sin(x):
    return _dispatch(x, np.sin, _sin_jet)


def _sin_jet(j):
    s = sin(j.f)
    return j._chain(s, cos(j.f), None if j.dd is None else -s)


def cos(x):
    return _dispatch(x, np.cos, _cos_jet)


def _cos_jet(j):
    c = cos(j.f)
    return j._chain(c, -sin(j.f), None if j.dd is None else -c)


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


def sinh(x):
    return _dispatch(x, np.sinh, _sinh_jet)


def _sinh_jet(j):
    s = sinh(j.f)
    return j._chain(s, cosh(j.f), None if j.dd is None else s)


def cosh(x):
    return _dispatch(x, np.cosh, _cosh_jet)


def _cosh_jet(j):
    c = cosh(j.f)
    return j._chain(c, sinh(j.f), None if j.dd is None else c)


# -- small generic linear algebra --------------------------------------------
# Nested-list matrices with entries of any jet level; adjugate-based inverses
# keep everything inside the generic ring.

def _cross(a, b, c, d):
    """a * b - c * d."""
    return sub(mul(a, b), mul(c, d))


def inv3(m):
    """Inverse of a generic 3x3 nested-list matrix."""
    c00 = _cross(m[1][1], m[2][2], m[1][2], m[2][1])
    c01 = _cross(m[1][2], m[2][0], m[1][0], m[2][2])
    c02 = _cross(m[1][0], m[2][1], m[1][1], m[2][0])
    det = add(add(mul(m[0][0], c00), mul(m[0][1], c01)), mul(m[0][2], c02))
    c10 = _cross(m[0][2], m[2][1], m[0][1], m[2][2])
    c11 = _cross(m[0][0], m[2][2], m[0][2], m[2][0])
    c12 = _cross(m[0][1], m[2][0], m[0][0], m[2][1])
    c20 = _cross(m[0][1], m[1][2], m[0][2], m[1][1])
    c21 = _cross(m[0][2], m[1][0], m[0][0], m[1][2])
    c22 = _cross(m[0][0], m[1][1], m[0][1], m[1][0])
    return [[div(c00, det), div(c10, det), div(c20, det)],
            [div(c01, det), div(c11, det), div(c21, det)],
            [div(c02, det), div(c12, det), div(c22, det)]]


# column pairs (a, b) of the 2x2 minors, in the order _minors4 lists them
_PAIRS4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _minors4(m):
    """The 2x2 minors of rows 0-1 (s) and rows 2-3 (c) of a 4x4 matrix."""
    s = [_cross(m[0][a], m[1][b], m[1][a], m[0][b]) for a, b in _PAIRS4]
    c = [_cross(m[2][a], m[3][b], m[3][a], m[2][b]) for a, b in _PAIRS4]
    return s, c


def _det_of_minors(s, c):
    """Determinant of a 4x4 matrix from its ``_minors4``."""
    return add(sub(add(add(sub(mul(s[0], c[5]), mul(s[1], c[4])),
                           mul(s[2], c[3])), mul(s[3], c[2])),
                   mul(s[4], c[1])), mul(s[5], c[0]))


# inv4: row i of the inverse pairs the columns other than i with these
# minors; column j reads row (1, 0, 3, 2)[j] of m and the c minors for j < 2,
# the s minors otherwise.
_INV4_TERMS = tuple(
    tuple(zip([a for a in range(4) if a != i], ks))
    for i, ks in enumerate(((5, 4, 3), (5, 2, 1), (4, 2, 0), (3, 1, 0))))


def inv4(m):
    """Inverse of a generic 4x4 nested-list matrix (2x2-minor expansion).

    Entry (i, j) is (t0 - t1 + t2) / det for even i + j and
    (-t0 + t1 - t2) / det for odd i + j, the latter summed as
    (t1 - t0) - t2, which is the same floating-point result.
    """
    s, c = _minors4(m)
    det = _det_of_minors(s, c)
    inv = [[None] * 4 for _ in range(4)]
    for i, terms in enumerate(_INV4_TERMS):
        for j in range(4):
            row, minors = m[(1, 0, 3, 2)[j]], (c if j < 2 else s)
            t0, t1, t2 = (mul(row[a], minors[k]) for a, k in terms)
            e = add(sub(t0, t1), t2) if (i + j) % 2 == 0 else sub(sub(t1, t0), t2)
            inv[i][j] = div(e, det)
    return inv
