"""The rational reference algebra of `rational_series`: pinned examples, contracts, and laws."""

import random
from fractions import Fraction

import pytest

from ktrees.series import IntegralityError, Series
from rational_series import (
    add,
    exp_series,
    integer_coeffs,
    monomial_x,
    mul,
    one,
    resized,
    scale,
    substitute_power,
    times_x,
    zero,
)


def S(*coeffs):
    return Series(len(coeffs) - 1, [Fraction(c) for c in coeffs])


def random_series(rng, order, zero_constant=False):
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order + 1)]
    if zero_constant:
        coeffs[0] = Fraction(0)
    return Series(order, coeffs)


# ---------------------------------------------------------------- add / mul


def test_add_cancellation():
    assert add(S(1, 1), S(1, -1)) == S(2, 0)


def test_add_zero_is_identity():
    f = S(3, 1, 4, 1)
    assert add(f, zero(3)) == f


def test_add_coefficientwise():
    assert add(S(0, 1, 1), S(0, 0, 1)) == S(0, 1, 2)


def test_add_order_mismatch_rejected():
    with pytest.raises(ValueError, match="order mismatch"):
        add(one(2), one(3))


def test_mul_binomial_square():
    assert mul(S(1, 1, 0), S(1, 1, 0)) == S(1, 2, 1)


def test_mul_one_is_identity():
    f = S(2, 7, 1, 5)
    assert mul(f, one(3)) == f


def test_mul_telescoping():
    assert mul(S(1, 1, 1), S(1, -1, 0)) == S(1, 0, 0)


def test_mul_order_mismatch_rejected():
    with pytest.raises(ValueError, match="order mismatch"):
        mul(one(2), one(5))


# ---------------------------------------------------------------- scale


def test_scale_halves():
    assert scale(S(2, 2), Fraction(1, 2)) == S(1, 1)


def test_scale_by_zero():
    assert scale(S(3, 1, 4), 0) == zero(2)


def test_scale_monomial():
    assert scale(monomial_x(1), Fraction(1, 3)) == S(0, Fraction(1, 3))


# ---------------------------------------------------------------- substitute


def test_substitute_power_squares():
    assert substitute_power(S(1, 1, 1, 0, 0), 2) == S(1, 0, 1, 0, 1)


def test_substitute_power_one_is_identity():
    f = S(3, 1, 4, 1)
    assert substitute_power(f, 1) == f


def test_substitute_power_truncates():
    assert substitute_power(monomial_x(2), 3) == zero(2)


def test_substitute_power_zero_rejected():
    with pytest.raises(ValueError, match=">= 1"):
        substitute_power(one(2), 0)


def test_substitute_power_composes():
    rng = random.Random(7)
    for _ in range(20):
        f = random_series(rng, 12)
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        assert substitute_power(substitute_power(f, a), b) == substitute_power(f, a * b)


# ---------------------------------------------------------------- exp


def test_exp_of_zero():
    assert exp_series(zero(4)) == one(4)


def test_exp_of_x():
    expect = S(1, 1, Fraction(1, 2), Fraction(1, 6))
    assert exp_series(monomial_x(3)) == expect


def test_exp_of_harmonic_powers_is_geometric():
    # exp(sum_m x^m/m) = exp(-log(1-x)) = 1/(1-x): all-ones coefficients.
    f = Series(4, [Fraction(0)] + [Fraction(1, m) for m in range(1, 5)])
    assert exp_series(f) == S(1, 1, 1, 1, 1)


def test_exp_rejects_nonzero_constant():
    with pytest.raises(ValueError, match="constant term"):
        exp_series(one(3))


def test_exp_is_multiplicative():
    rng = random.Random(11)
    for _ in range(15):
        order = rng.randint(1, 10)
        f = random_series(rng, order, zero_constant=True)
        g = random_series(rng, order, zero_constant=True)
        assert exp_series(add(f, g)) == mul(exp_series(f), exp_series(g))


def test_exp_of_negation_is_inverse():
    rng = random.Random(13)
    for _ in range(15):
        f = random_series(rng, rng.randint(1, 10), zero_constant=True)
        prod = mul(exp_series(f), exp_series(scale(f, -1)))
        assert prod == one(f.order)


# ---------------------------------------------------------------- integer_coeffs


def test_integer_coeffs_roundtrip():
    assert integer_coeffs(S(1, 2)) == [1, 2]


def test_integer_coeffs_rejects_fraction():
    with pytest.raises(IntegralityError, match="x\\^1"):
        integer_coeffs(S(0, Fraction(1, 2)))


def test_integer_coeffs_zero_series():
    assert integer_coeffs(zero(2)) == [0, 0, 0]


# ---------------------------------------------------------------- laws


def test_mul_commutes_and_associates():
    rng = random.Random(3)
    for _ in range(15):
        order = rng.randint(0, 10)
        f = random_series(rng, order)
        g = random_series(rng, order)
        h = random_series(rng, order)
        assert mul(f, g) == mul(g, f)
        assert mul(mul(f, g), h) == mul(f, mul(g, h))


# ---------------------------------------------------------------- helpers


def test_resized_truncates_and_pads():
    f = S(1, 2, 3)
    assert resized(f, 1) == S(1, 2)
    assert resized(f, 4) == S(1, 2, 3, 0, 0)
    assert resized(f, 2) is f


def test_times_x_shifts_up():
    assert times_x(S(5, 7)) == S(0, 5, 7)


def test_series_is_immutable():
    f = one(2)
    with pytest.raises(AttributeError):
        f.order = 5


def test_series_length_must_match_order():
    with pytest.raises(ValueError, match="coefficients"):
        Series(2, [1, 2])
