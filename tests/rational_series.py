"""The tests' rational reference: truncated power series over ``Fraction``.

The package solves and combines every counting series on Python ints.  The
tests rebuild the same series here, independently and in exact rationals,
to check them.  Each operation is a function on :class:`ktrees.series.Series`
(:func:`add`, :func:`mul`, :func:`scale`, ...); a final count is read back
through the checked conversion :func:`integer_coeffs`.

Binary operations require both operands to carry the same truncation
order.  Mixing orders is a programming error, not something to coerce
silently, so it raises ``ValueError``.
"""

from __future__ import annotations

from fractions import Fraction

from ktrees.series import IntegralityError, Series

# Coefficients are exact rationals: stored in lowest terms with a positive
# denominator, compared by value.  Fraction guarantees all of that.
Coefficient = Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


def zero(order: int) -> Series:
    return Series(order, [_F0] * (order + 1))


def one(order: int) -> Series:
    return Series(order, [_F1] + [_F0] * order)


def monomial_x(order: int) -> Series:
    """The series ``x`` at the given order (zero series if order is 0)."""
    cs = [_F0] * (order + 1)
    if order >= 1:
        cs[1] = _F1
    return Series(order, cs)


def _require_same_order(f: Series, g: Series) -> None:
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} vs {g.order}")


def add(f: Series, g: Series) -> Series:
    """Coefficientwise sum; both series must have the same order."""
    _require_same_order(f, g)
    return Series(f.order, [a + b for a, b in zip(f.coeffs, g.coeffs)])


def mul(f: Series, g: Series) -> Series:
    """Cauchy product truncated at the shared order."""
    _require_same_order(f, g)
    n = f.order
    out = [_F0] * (n + 1)
    gc = g.coeffs
    for i, a in enumerate(f.coeffs):
        if not a:
            continue
        for j in range(n + 1 - i):
            b = gc[j]
            if b:
                out[i + j] += a * b
    return Series(n, out)


def scale(f: Series, c: Coefficient | int) -> Series:
    """Multiply every coefficient by the scalar ``c``."""
    if not isinstance(c, Fraction):
        c = Fraction(c)
    if not c:
        return zero(f.order)
    return Series(f.order, [a * c if a else _F0 for a in f.coeffs])


def substitute_power(f: Series, m: int) -> Series:
    """Substitute x -> x^m: the result has f[d] at position m*d, zeros elsewhere.

    The result keeps f's order, so coefficients of f beyond order//m are
    discarded by the truncation.
    """
    if m < 1:
        raise ValueError(f"substitution power must be >= 1, got {m}")
    if m == 1:
        return f
    n = f.order
    out = [_F0] * (n + 1)
    for d in range(n // m + 1):
        out[d * m] = f.coeffs[d]
    return Series(n, out)


def exp_series(f: Series) -> Series:
    """Exponential of a series with zero constant term, truncated at f's order.

    Computed degree by degree from E' = f'.E, i.e.
    ``n*E[n] = sum_{j=1..n} j*f[j]*E[n-j]``, which stays exact in rational
    arithmetic and avoids large factorial denominators.
    """
    if f.coeffs[0]:
        raise ValueError("exp_series needs a zero constant term")
    n = f.order
    jf = [j * c for j, c in enumerate(f.coeffs)]
    e = [_F1] + [_F0] * n
    for d in range(1, n + 1):
        acc = _F0
        for j in range(1, d + 1):
            c = jf[j]
            if c:
                acc += c * e[d - j]
        e[d] = acc / d
    return Series(n, e)


def integer_coeffs(f: Series) -> list[int]:
    """Return the coefficients as ints, or raise IntegralityError.

    A non-integer coefficient here means the computation that produced
    ``f`` is broken, so the error message carries the offending degree.
    """
    out = []
    for d, c in enumerate(f.coeffs):
        if c.denominator != 1:
            raise IntegralityError(f"coefficient of x^{d} is {c}, not an integer")
        out.append(c.numerator)
    return out


def resized(f: Series, order: int) -> Series:
    """Copy of f truncated (or zero-padded) to the given order."""
    if order == f.order:
        return f
    if order < f.order:
        return Series(order, f.coeffs[: order + 1])
    return Series(order, f.coeffs + (_F0,) * (order - f.order))


def times_x(f: Series) -> Series:
    """Multiply by x, raising the order by one (no coefficient is lost)."""
    return Series(f.order + 1, (_F0,) + f.coeffs)
