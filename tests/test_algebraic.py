import math
from fractions import Fraction

import pytest

from symbeta.algebraic import QuadReal


def test_normalization_square_radicand():
    x = QuadReal(Fraction(1), Fraction(2), 9)  # 1 + 2*3
    assert x.is_rational and x == 7


def test_normalization_square_factor():
    x = QuadReal(Fraction(0), Fraction(1), 12)  # sqrt(12) = 2 sqrt(3)
    assert x.d == 3 and x.b == 2


def test_zero_coefficient_nonsquare_radicand():
    x = QuadReal(Fraction(5, 2), Fraction(0), 5)
    assert x.is_rational and x == Fraction(5, 2)


def test_field_arithmetic_golden():
    phi = (QuadReal.of(1) + QuadReal.sqrt_int(5)) / 2
    assert phi * phi == phi + 1          # phi^2 = phi + 1
    assert phi.inverse() == phi - 1      # 1/phi = phi - 1
    assert float(phi) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-15)


def test_exact_comparisons():
    s2 = QuadReal.sqrt_int(2)
    assert s2 > Fraction(141421356, 100000000)
    assert s2 < Fraction(141421357, 100000000)
    assert (s2 * s2) == 2
    assert QuadReal.of(3) - 2 * s2 > 0          # 3 > 2 sqrt 2
    assert QuadReal.of(2) - 2 * s2 < 0


def test_floor_near_integers():
    s5 = QuadReal.sqrt_int(5)
    assert s5.floor_int() == 2
    assert (s5 * s5).floor_int() == 5
    assert (-s5).floor_int() == -3
    phi = (QuadReal.of(1) + s5) / 2
    assert (phi * phi).floor_int() == 2  # phi^2 = 2.618...


def test_floor_of_cancelling_coefficients():
    # a and b near 2^200 cancel to a value in (0, 1): a float estimate of
    # the sum is off by about 2^147
    s2 = QuadReal.sqrt_int(2)
    big = 2 ** 200
    x = s2 * big - math.isqrt(2 * big * big)
    assert x.floor_int() == 0
    assert (-x).floor_int() == -1
    assert (x + Fraction(7, 3)).floor_int() == 2
    assert (x / 3 - 5).floor_int() == -5


def test_power_and_division():
    b = (QuadReal.of(3) + QuadReal.sqrt_int(5)) / 2
    assert b ** 2 == 3 * b - 1           # root of x^2 - 3x + 1
    assert (b ** 3) / b == b ** 2
    assert b ** 0 == 1


def test_from_decimal():
    assert QuadReal.from_decimal("3.5") == Fraction(7, 2)
    assert QuadReal.from_decimal(" 2 ") == 2


def test_incompatible_radicands_raise():
    with pytest.raises(TypeError):
        _ = QuadReal.sqrt_int(2) < QuadReal.sqrt_int(3)


def test_hash_consistency():
    a = QuadReal(Fraction(1), Fraction(1), 4)   # = 3
    assert hash(a) == hash(QuadReal.of(3))
    assert a == QuadReal.of(3)
