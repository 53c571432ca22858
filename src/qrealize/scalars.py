"""Complex scalar arithmetic with an exact Gaussian-rational fast path.

An exact scalar is the Gaussian rational ``(re_num + im_num*i) / den``,
three Python ints with ``den > 0`` and no common factor of all three, so
equal values have equal fields and every ring operation is integer
arithmetic.  The first irrational value (e.g. a square root of a
non-square) degrades the scalar, and everything computed from it, to
binary64 components, held in ``re_num`` and ``im_num`` with ``den`` None.
No binary64 part is ever ``-0.0``: every float scalar is stored as
``x + 0.0``, which maps ``-0.0`` to ``0.0`` and keeps every other value's
bits, so a zero prints unsigned and the sign of a zero never needs settling.
``re`` and ``im`` read the components as ``Fraction`` or ``float``.
Equality of exact scalars is syntactic; whether a binary64 scalar is zero
is decided by ``is_zero`` alone, against a tolerance on its modulus.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import gcd

DEFAULT_TOL = 1e-9


def _coerce(x):
    if isinstance(x, Fraction) or isinstance(x, float):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as a scalar component")


class Scalar:
    """A complex number with exact Gaussian-rational or floating components."""

    __slots__ = ("re_num", "im_num", "den")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.re_num, self.im_num, self.den = re, im, 1
            return
        re = _coerce(re)
        im = _coerce(im)
        if isinstance(re, float) or isinstance(im, float):
            self.re_num, self.im_num, self.den = float(re) + 0.0, float(im) + 0.0, None
            return
        # over the lcm of two reduced denominators the three share no factor
        den = math.lcm(re.denominator, im.denominator)
        self.re_num = re.numerator * (den // re.denominator)
        self.im_num = im.numerator * (den // im.denominator)
        self.den = den

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
    def re(self):
        d = self.den
        return self.re_num if d is None else Fraction(self.re_num, d)

    @property
    def im(self):
        d = self.den
        return self.im_num if d is None else Fraction(self.im_num, d)

    @property
    def is_exact(self) -> bool:
        return self.den is not None

    def _floats(self):
        """(re, im) as floats; ``num / den`` has the bits of ``float(Fraction)``."""
        d = self.den
        if d is None:
            return self.re_num, self.im_num
        return self.re_num / d, self.im_num / d

    def to_float(self) -> "Scalar":
        return _float(*self._floats())

    def to_complex(self) -> complex:
        return complex(*self._floats())

    # -- ring operations ------------------------------------------------------
    #
    # Exact operands combine as integers; as soon as one side is floating the
    # other is converted and the complex formulas run on floats, term for
    # term as on Fraction components.

    def __add__(self, other):
        o = other if type(other) is Scalar else Scalar.of(other)
        d, e = self.den, o.den
        if d is None or e is None:
            a, b = (self.re_num, self.im_num) if d is None else self._floats()
            c, f = (o.re_num, o.im_num) if e is None else o._floats()
            return _float(a + c, b + f)
        if d == e:
            return _exact(self.re_num + o.re_num, self.im_num + o.im_num, d)
        return _exact(self.re_num * e + o.re_num * d, self.im_num * e + o.im_num * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is Scalar else Scalar.of(other)
        d, e = self.den, o.den
        if d is None or e is None:
            a, b = (self.re_num, self.im_num) if d is None else self._floats()
            c, f = (o.re_num, o.im_num) if e is None else o._floats()
            return _float(a - c, b - f)
        if d == e:
            return _exact(self.re_num - o.re_num, self.im_num - o.im_num, d)
        return _exact(self.re_num * e - o.re_num * d, self.im_num * e - o.im_num * d, d * e)

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __neg__(self):
        if self.den is None:
            return _float(-self.re_num, -self.im_num)
        out = _new(Scalar)
        out.re_num, out.im_num, out.den = -self.re_num, -self.im_num, self.den
        return out

    def __mul__(self, other):
        o = other if type(other) is Scalar else Scalar.of(other)
        d, e = self.den, o.den
        if d is None or e is None:
            a, b = (self.re_num, self.im_num) if d is None else self._floats()
            c, f = (o.re_num, o.im_num) if e is None else o._floats()
            return _float(a * c - b * f, a * f + b * c)
        a, b, c, f = self.re_num, self.im_num, o.re_num, o.im_num
        return _exact(a * c - b * f, a * f + b * c, d * e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is Scalar else Scalar.of(other)
        d, e = self.den, o.den
        c, f = o.re_num, o.im_num
        if e is not None:
            norm = c * c + f * f  # |o|^2 = norm / e^2
            if norm == 0:
                raise ZeroDivisionError("scalar division by zero")
            if d is not None:
                a, b = self.re_num, self.im_num
                return _exact((a * c + b * f) * e, (b * c - a * f) * e, d * norm)
            # |o|^2 is rounded once from its exact value, as float(Fraction) is
            den = norm / (e * e)
            c, f = c / e, f / e
        else:
            den = c * c + f * f
            if den == 0:
                raise ZeroDivisionError("scalar division by zero")
        a, b = self._floats()
        return _float((a * c + b * f) / den, (b * c - a * f) / den)

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
        if not self.im_num:
            return self  # a real: a binary64 0.0 part stays 0.0
        out = _new(Scalar)
        out.re_num, out.im_num, out.den = self.re_num, -self.im_num, self.den
        return out

    def sqrt(self) -> "Scalar":
        """Principal square root, kept exact for perfect rational squares."""
        re, im, den = self.re_num, self.im_num, self.den
        if im == 0:
            mag = re if re >= 0 else -re
            if den is not None:
                rn, rd = math.isqrt(mag), math.isqrt(den)  # re and den share no factor
                if rn * rn == mag and rd * rd == den:
                    return _exact(rn, 0, rd) if re >= 0 else _exact(0, rn, rd)
                mag /= den  # rounded once, as float(Fraction) rounds it
            root = math.sqrt(mag)
            return _float(root, 0.0) if re >= 0 else _float(0.0, root)
        z = cmath.sqrt(self.to_complex())
        return Scalar(z.real, z.imag)

    # -- predicates -----------------------------------------------------------

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        """The one zero rule: an exact scalar is zero when it is 0, a binary64 one
        when its modulus is at or below ``tol``, which a NaN part never is."""
        re, im = self.re_num, self.im_num
        if self.den is not None:
            return not (re or im)
        return abs(re) <= tol and abs(im) <= tol and math.hypot(re, im) <= tol

    def magnitude(self) -> float:
        try:
            return math.hypot(*self._floats())
        except OverflowError:  # an exact part beyond binary64
            return math.inf

    def __eq__(self, other):
        if not isinstance(other, (Scalar, int, Fraction, float, complex)):
            return NotImplemented
        o = Scalar.of(other)
        if self.den is not None and o.den is not None:
            # reduced fields: equal values have equal fields
            return (self.re_num == o.re_num and self.im_num == o.im_num
                    and self.den == o.den)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.den == 1:
            # an integral Fraction hashes as its int
            return hash((self.re_num, self.im_num))
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"


_new = object.__new__


def _exact(re_num: int, im_num: int, den: int) -> Scalar:
    """The exact scalar (re_num + im_num*i) / den, den > 0, reduced here."""
    out = _new(Scalar)
    if den != 1:  # else no gcd: the fields are reduced
        g = gcd(re_num, im_num, den)
        if g != 1:
            out.re_num, out.im_num, out.den = re_num // g, im_num // g, den // g
            return out
    out.re_num, out.im_num, out.den = re_num, im_num, den
    return out


def _float(re: float, im: float) -> Scalar:
    """The binary64 scalar re + im*i, with a -0.0 part stored as 0.0."""
    out = _new(Scalar)
    out.re_num, out.im_num, out.den = re + 0.0, im + 0.0, None
    return out


def largest(norms) -> float:
    """max(norms, default=0.0), but NaN when a norm is NaN, wherever it stands:
    ``max`` keeps a NaN only in first place."""
    norms = list(norms)
    return math.nan if any(map(math.isnan, norms)) else max(norms, default=0.0)


ZERO = Scalar(0)
ONE = Scalar(1)
HALF = Scalar(Fraction(1, 2))
I = Scalar(0, 1)


# -- small dense matrices of scalars ------------------------------------------
#
# Grids are tuples of tuples of Scalar.  They carry theta and its inverse,
# and stay exact whenever their entries do; the constant matrices of the
# doubled model are operator matrices (``matrices.block_diag``).

def grid(rows) -> tuple:
    out = tuple(tuple(Scalar.of(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged scalar matrix")
    return out


def identity_grid(n: int) -> tuple:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def grid_inverse(g):
    """Gauss-Jordan inverse; exact when the entries are exact.

    Raises ValueError on singular input: no row offers a pivot p whose
    |p|^2, which division divides by, is nonzero; a binary64 p whose square
    underflows is passed over like a zero.
    """
    n = len(g)
    if any(len(row) != n for row in g):
        raise ValueError("inverse of a non-square matrix")
    work = [list(row) for row in g]
    inv = [list(row) for row in identity_grid(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n)
                          if (p := work[r][col]).re_num * p.re_num + p.im_num * p.im_num), None)
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
    """Whether the square grid g equals its conjugate transpose, entry by entry."""
    n = len(g)
    return all(
        (g[i][j] - g[j][i].conjugate()).is_zero(tol)
        for i in range(n)
        for j in range(i, n)
    )


def grid_equal(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Whether two grids of one shape agree entry by entry."""
    return all(
        (x - y).is_zero(tol) for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def grid_is_identity(g, tol: float = DEFAULT_TOL) -> bool:
    return len(g) == len(g[0]) and grid_equal(g, identity_grid(len(g)), tol)
