"""Complex scalar arithmetic with an exact-rational fast path.

Scalars carry a pair of rational (``fractions.Fraction``) components while
every input stays rational; the first irrational value (e.g. a square root
of a non-square) degrades the scalar, and everything computed from it, to
binary64 components.  Equality of exact scalars is syntactic on reduced
rationals; floating comparisons are tolerance-based and live at the
polynomial level.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

DEFAULT_TOL = 1e-9


def _coerce(x):
    if isinstance(x, Fraction) or isinstance(x, float):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as a scalar component")


class Scalar:
    """A complex number with exact-rational or floating components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        re = _coerce(re)
        im = _coerce(im)
        if isinstance(re, float) or isinstance(im, float):
            re = float(re)
            im = float(im)
        self.re = re
        self.im = im

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def of(value) -> "Scalar":
        """Coerce an int, Fraction, float, complex or Scalar."""
        if isinstance(value, Scalar):
            return value
        if isinstance(value, complex):
            return Scalar(value.real, value.imag)
        return Scalar(value)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.re, Fraction)

    def to_float(self) -> "Scalar":
        return Scalar(float(self.re), float(self.im))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = Scalar.of(other)
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = Scalar.of(other)
        return Scalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        o = Scalar.of(other)
        return Scalar(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Scalar.of(other)
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar((self.re * o.re + self.im * o.im) / den,
                      (self.im * o.re - self.re * o.im) / den)

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("scalar powers must be non-negative integers")
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def sqrt(self) -> "Scalar":
        """Principal square root, kept exact for perfect rational squares."""
        if self.im == 0:
            mag = self.re if self.re >= 0 else -self.re
            root = _rational_sqrt(mag) if isinstance(mag, Fraction) else math.sqrt(mag)
            if root is None:
                root = math.sqrt(float(mag))
            if self.re >= 0:
                return Scalar(root, 0 if isinstance(root, Fraction) else 0.0)
            return Scalar(0 if isinstance(root, Fraction) else 0.0, root)
        z = cmath.sqrt(self.to_complex())
        return Scalar(z.real, z.imag)

    # -- predicates -----------------------------------------------------------

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        if self.is_exact:
            return self.re == 0 and self.im == 0
        return abs(self.re) <= tol and abs(self.im) <= tol

    def magnitude(self) -> float:
        return math.hypot(float(self.re), float(self.im))

    def __eq__(self, other):
        if not isinstance(other, (Scalar, int, Fraction, float, complex)):
            return NotImplemented
        o = Scalar.of(other)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"


def _rational_sqrt(f: Fraction):
    """Exact square root of a non-negative Fraction, or None."""
    num, den = f.numerator, f.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


# -- small dense matrices of scalars ------------------------------------------
#
# Grids are tuples of tuples of Scalar.  They carry the numeric matrices of
# the toolkit (commutation data, noise tables, block sign matrices) and stay
# exact whenever their entries do.

def grid(rows) -> tuple:
    out = tuple(tuple(Scalar.of(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged scalar matrix")
    return out


def identity_grid(n: int) -> tuple:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def zero_grid(rows: int, cols: int) -> tuple:
    return tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows))


def grid_neg(g):
    return tuple(tuple(-x for x in row) for row in g)


def grid_conj(g):
    return tuple(tuple(x.conjugate() for x in row) for row in g)


def grid_transpose(g):
    return tuple(tuple(g[i][j] for i in range(len(g))) for j in range(len(g[0])))


def grid_adjoint(g):
    return grid_transpose(grid_conj(g))


def grid_matmul(a, b):
    if len(a[0]) != len(b):
        raise ValueError("scalar matrix shape mismatch")
    cols = len(b[0])
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(cols))
        for i in range(len(a))
    )


def grid_scale(g, c):
    c = Scalar.of(c)
    return tuple(tuple(c * x for x in row) for row in g)


def block_diag(a, b):
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    top = tuple(a[i] + tuple(ZERO for _ in range(cb)) for i in range(ra))
    bot = tuple(tuple(ZERO for _ in range(ca)) + b[i] for i in range(rb))
    return top + bot


def grid_inverse(g, tol: float = DEFAULT_TOL):
    """Gauss-Jordan inverse; exact when the entries are exact.

    Raises ValueError on singular input (exact-zero pivot, or pivot below
    ``tol`` in floating mode).
    """
    n = len(g)
    if any(len(row) != n for row in g):
        raise ValueError("inverse of a non-square matrix")
    work = [list(row) for row in g]
    inv = [list(row) for row in identity_grid(n)]
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            x = work[r][col]
            if (x.is_exact and not x.is_zero()) or (not x.is_exact and x.magnitude() > tol):
                pivot_row = r
                break
        if pivot_row is None:
            raise ValueError("singular matrix")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pivot = work[col][col]
        work[col] = [x / pivot for x in work[col]]
        inv[col] = [x / pivot for x in inv[col]]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if factor.is_zero(0.0):
                continue
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
            inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(row) for row in inv)


def grid_is_hermitian(g, tol: float = DEFAULT_TOL) -> bool:
    n = len(g)
    if any(len(row) != n for row in g):
        return False
    return all(
        (g[i][j] - g[j][i].conjugate()).is_zero(tol)
        for i in range(n)
        for j in range(n)
    )


def grid_equal(a, b, tol: float = DEFAULT_TOL) -> bool:
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        return False
    return all(
        (x - y).is_zero(tol) for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def grid_is_identity(g, tol: float = DEFAULT_TOL) -> bool:
    return len(g) == len(g[0]) and grid_equal(g, identity_grid(len(g)), tol)
