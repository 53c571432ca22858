import math
from fractions import Fraction

import pytest

from qrealize.scalars import (
    Scalar,
    block_diag,
    grid,
    grid_inverse,
    grid_is_hermitian,
    identity_grid,
)

from helpers import grid_matmul


def test_exact_arithmetic_is_closed():
    a = Scalar(Fraction(1, 3), Fraction(-2, 5))
    b = Scalar(2, 1)
    for value in (a + b, a * b, -a, a.conjugate(), a - b, a / b):
        assert value.is_exact


def test_float_contagion():
    a = Scalar(1.5)
    b = Scalar(Fraction(1, 3))
    assert not (a + b).is_exact
    assert not (b * a).is_exact


def test_complex_multiplication():
    i = Scalar(0, 1)
    assert i * i == Scalar(-1)
    assert (Scalar(1, 2) * Scalar(3, -1)) == Scalar(5, 5)


def test_division():
    assert Scalar(1) / Scalar(0, 1) == Scalar(0, -1)
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


def test_sqrt_perfect_square_stays_exact():
    s = Scalar(4).sqrt()
    assert s.is_exact and s == Scalar(2)
    q = Scalar(Fraction(9, 16)).sqrt()
    assert q.is_exact and q == Scalar(Fraction(3, 4))


def test_sqrt_negative_real_gives_imaginary():
    s = Scalar(-4).sqrt()
    assert s == Scalar(0, 2)


def test_sqrt_non_square_degrades_to_float():
    s = Scalar(2).sqrt()
    assert not s.is_exact
    assert abs(float(s.re) - 2**0.5) < 1e-15


def test_equality_is_syntactic_in_exact_mode():
    assert Scalar(Fraction(2, 4)) == Scalar(Fraction(1, 2))
    assert Scalar(1) != Scalar(1, 1)


def test_magnitude_beyond_binary64_is_infinite():
    # an exact value too large for a float has no finite magnitude, whatever
    # the part that overflows; an exact one in range keeps its float value
    assert Scalar(10**400).magnitude() == math.inf
    assert Scalar(3, Fraction(-(10**400), 7)).magnitude() == math.inf
    assert Scalar(3, 4).magnitude() == 5.0
    assert Scalar(Fraction(10**400, 10**399)).magnitude() == 10.0


def test_is_zero_tolerance_in_float_mode():
    assert Scalar(1e-12, -1e-12).is_zero(1e-9)
    assert not Scalar(1e-6).is_zero(1e-9)
    assert not Scalar(Fraction(1, 10**12)).is_zero(1e-9)  # exact mode is exact


def test_grid_inverse_exact():
    g = grid([[1, 2], [3, 4]])
    inv = grid_inverse(g)
    assert grid_matmul(g, inv) == identity_grid(2)
    assert all(x.is_exact for row in inv for x in row)


def test_grid_inverse_singular():
    with pytest.raises(ValueError):
        grid_inverse(grid([[1, 2], [2, 4]]))


def test_block_diag_and_hermitian():
    g = block_diag(identity_grid(1), grid([[Scalar(0, 1)]]))
    assert len(g) == 2
    assert not grid_is_hermitian(g)
    assert grid_is_hermitian(grid([[2, Scalar(1, 1)], [Scalar(1, -1), 3]]))
