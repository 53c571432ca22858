import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrealize.scalars import (
    Scalar,
    grid,
    grid_inverse,
    grid_is_hermitian,
    identity_grid,
)

from helpers import block_diag, grid_matmul


def test_exact_arithmetic_is_closed():
    a = Scalar(Fraction(1, 3), Fraction(-2, 5))
    b = Scalar(2, 1)
    for value in (a + b, a * b, -a, a.conjugate(), a - b, a / b):
        assert value.is_exact


FLOAT_PART = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -2.0]) | st.floats()
PART = st.integers(-3, 3) | st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)) | FLOAT_PART
# exact, binary64 and mixed parts, and the complex numbers Scalar.of takes
SCALARS = st.builds(Scalar, PART, PART) | st.builds(
    Scalar.of, st.builds(complex, FLOAT_PART, FLOAT_PART))


def negative_zero(s: Scalar) -> bool:
    return any(type(x) is float and x == 0 and math.copysign(1.0, x) < 0
               for x in (s.re_num, s.im_num))


@settings(max_examples=300, deadline=None)
@given(SCALARS, SCALARS)
def test_no_scalar_part_is_a_negative_zero(x, y):
    results = [x, y, -x, x.conjugate(), x.sqrt(), x.to_float(), x + y, x - y, x * y]
    try:
        results.append(x / y)
    except ZeroDivisionError:
        pass
    assert not any(map(negative_zero, results))


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
    with pytest.raises(ValueError, match="singular matrix"):
        grid_inverse(grid([[0.0, 0.0], [0.0, 1.0]]))


def test_grid_inverse_takes_any_exactly_nonzero_pivot():
    # a binary64 pivot is passed over only when its square, which division divides by, underflows
    inv = grid_inverse(grid([[1e-10, 0.0], [0.0, 1.0]]))
    assert inv[0][0] == Scalar(1e10) and inv[1][1] == Scalar(1.0)
    assert grid_inverse(grid([[Fraction(1, 10**10), 0], [0, 1]]))[0][0] == Scalar(10**10)


def test_grid_inverse_passes_over_a_pivot_whose_square_underflows():
    # |1e-200|^2 is 0 in binary64: the next row pivots, as for a zero
    inv = grid_inverse(grid([[1e-200, 1.0], [1.0, 0.0]]))
    assert inv == grid([[0.0, 1.0], [1.0, -1e-200]])
    with pytest.raises(ValueError, match="singular matrix"):
        grid_inverse(grid([[1e-200, 0.0], [0.0, 1.0]]))


def test_block_diag_and_hermitian():
    g = block_diag(identity_grid(1), grid([[Scalar(0, 1)]]))
    assert len(g) == 2
    assert not grid_is_hermitian(g)
    assert grid_is_hermitian(grid([[2, Scalar(1, 1)], [Scalar(1, -1), 3]]))
