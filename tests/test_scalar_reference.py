"""The integer Gaussian-rational Scalar against the Fraction-pair reference.

``RefScalar`` is the earlier implementation, which held each component as a
``Fraction`` (exact) or a ``float``.  Every operation of the current
``Scalar`` must give the same component values, with the same ``repr`` (so
the same type), on exact, floating and mixed operands, once the reference's
binary64 zeros are unsigned: no part of a ``Scalar`` is ever ``-0.0``.
"""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrealize.scalars import Scalar


def _coerce(x):
    if isinstance(x, Fraction) or isinstance(x, float):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as a scalar component")


def _rational_sqrt(f):
    num, den = f.numerator, f.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class RefScalar:
    """The Fraction-pair Scalar, kept as the reference."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        re = _coerce(re)
        im = _coerce(im)
        if isinstance(re, float) or isinstance(im, float):
            re = float(re)
            im = float(im)
        self.re = re
        self.im = im

    @staticmethod
    def of(value):
        if isinstance(value, RefScalar):
            return value
        if isinstance(value, complex):
            return RefScalar(value.real, value.imag)
        return RefScalar(value)

    @property
    def is_exact(self):
        return isinstance(self.re, Fraction)

    def to_float(self):
        return RefScalar(float(self.re), float(self.im))

    def to_complex(self):
        return complex(float(self.re), float(self.im))

    def __add__(self, other):
        o = RefScalar.of(other)
        return RefScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = RefScalar.of(other)
        return RefScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return RefScalar.of(other) - self

    def __neg__(self):
        return RefScalar(-self.re, -self.im)

    def __mul__(self, other):
        o = RefScalar.of(other)
        return RefScalar(self.re * o.re - self.im * o.im,
                         self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RefScalar.of(other)
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError("scalar division by zero")
        return RefScalar((self.re * o.re + self.im * o.im) / den,
                         (self.im * o.re - self.re * o.im) / den)

    def __rtruediv__(self, other):
        return RefScalar.of(other) / self

    def conjugate(self):
        return RefScalar(self.re, -self.im)

    def sqrt(self):
        if self.im == 0:
            mag = self.re if self.re >= 0 else -self.re
            root = _rational_sqrt(mag) if isinstance(mag, Fraction) else math.sqrt(mag)
            if root is None:
                root = math.sqrt(float(mag))
            if self.re >= 0:
                return RefScalar(root, 0 if isinstance(root, Fraction) else 0.0)
            return RefScalar(0 if isinstance(root, Fraction) else 0.0, root)
        z = cmath.sqrt(self.to_complex())
        return RefScalar(z.real, z.imag)

    def is_zero(self, tol=1e-9):
        if self.is_exact:
            return self.re == 0 and self.im == 0
        # the modulus rule, which replaced a box test that read (1e-12, 1e-9) as zero
        return abs(self.re) <= tol and abs(self.im) <= tol and self.magnitude() <= tol

    def magnitude(self):
        return math.hypot(float(self.re), float(self.im))

    def __eq__(self, other):
        o = RefScalar.of(other)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))


# -- strategies ---------------------------------------------------------------

EXACT = st.one_of(
    st.integers(-1000, 1000),
    st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 60)),
)
FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-12]),
    st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False),
)
COMPONENT = st.one_of(EXACT, FLOAT)
# a pair of components: both exact, both floating, or one of each
PAIR = st.one_of(st.tuples(EXACT, EXACT), st.tuples(FLOAT, FLOAT),
                 st.tuples(COMPONENT, COMPONENT))
PLAIN = st.one_of(EXACT, FLOAT, st.builds(complex, FLOAT, FLOAT))
PROPERTY = settings(max_examples=150, deadline=None)


def unsigned(x):
    """A binary64 component plus 0.0, which reads -0.0 as 0.0 and keeps every
    other value; an exact one as it is."""
    return x + 0.0 if isinstance(x, float) else x


def same(new, ref):
    """Equal component values, with equal reprs once the reference's binary64
    zeros are unsigned: the same type, and no -0.0 part."""
    assert isinstance(new, Scalar) and isinstance(ref, RefScalar)
    assert (repr(new.re), repr(new.im)) == (repr(unsigned(ref.re)), repr(unsigned(ref.im)))
    assert "-0.0" not in (repr(new.re), repr(new.im))
    assert new.is_exact == ref.is_exact
    if new.is_exact:
        # the stored fields are reduced: den > 0 and no factor common to all
        assert new.den > 0 and math.gcd(new.re_num, new.im_num, new.den) == 1


def both(pair):
    return Scalar(*pair), RefScalar(*pair)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


BINARY = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


@pytest.mark.parametrize("op", BINARY)
@PROPERTY
@given(x=PAIR, y=PAIR)
def test_binary_operations_match_reference(op, x, y):
    (a, ra), (b, rb) = both(x), both(y)
    got, want = outcome(BINARY[op], a, b), outcome(BINARY[op], ra, rb)
    if want is ZeroDivisionError:
        assert got is ZeroDivisionError
    else:
        same(got, want)


@pytest.mark.parametrize("op", BINARY)
@PROPERTY
@given(x=PAIR, plain=PLAIN)
def test_operations_with_plain_numbers_match_reference(op, x, plain):
    a, ra = both(x)
    for got, want in ((outcome(BINARY[op], a, plain), outcome(BINARY[op], ra, plain)),
                      (outcome(BINARY[op], plain, a), outcome(BINARY[op], plain, ra))):
        if want is ZeroDivisionError:
            assert got is ZeroDivisionError
        else:
            same(got, want)


@PROPERTY
@given(x=PAIR)
def test_unary_operations_match_reference(x):
    a, ra = both(x)
    same(-a, -ra)
    same(a.conjugate(), ra.conjugate())
    same(a.to_float(), ra.to_float())
    same(a.sqrt(), ra.sqrt())
    z = ra.to_complex()
    assert repr(a.to_complex()) == repr(complex(z.real + 0.0, z.imag + 0.0))
    assert repr(a.magnitude()) == repr(ra.magnitude())
    for tol in (1e-9, 0.0):
        assert a.is_zero(tol) == ra.is_zero(tol)


@PROPERTY
@given(x=PAIR, y=PAIR)
def test_equality_and_hash_match_reference(x, y):
    (a, ra), (b, rb) = both(x), both(y)
    assert (a == b) == (ra == rb)
    assert hash(a) == hash(ra)
    # equal values reached along different paths: a + b - b, a * b / b
    for got, want in ((a + b - b, ra + rb - rb), (outcome(lambda: a * b / b),
                                                    outcome(lambda: ra * rb / rb))):
        if want is ZeroDivisionError:
            continue
        assert (got == a) == (want == ra)
        assert hash(got) == hash(want)


@PROPERTY
@given(x=PAIR, plain=PLAIN)
def test_equality_with_plain_numbers_matches_reference(x, plain):
    a, ra = both(x)
    assert (a == plain) == (ra == plain)


def test_exact_fields_are_reduced_integers():
    s = Scalar(Fraction(1, 2), Fraction(-3, 4))
    assert (s.re_num, s.im_num, s.den) == (2, -3, 4)
    t = s + Scalar(Fraction(1, 2), Fraction(3, 4))
    assert (t.re_num, t.im_num, t.den) == (1, 0, 1)
    assert t == Scalar(1) and hash(t) == hash(Scalar(1)) == hash((1, 0))


def test_float_output_zeros_are_unsigned():
    # the imaginary part, -2.0*0.0 + 0.0*-2.0, is -0.0 in binary64
    s = Scalar(-2.0, 0.0) * Scalar(-2, 0)
    assert (repr(s.re), repr(s.im)) == ("4.0", "0.0")
