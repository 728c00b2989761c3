"""Truncated formal power series with exact rational coefficients.

A :class:`Series` is a dense coefficient vector for a power series in one
variable ``x``, computed and trusted only through an explicit truncation
order ``N`` (inclusive).  Coefficients are ``fractions.Fraction`` values,
so all arithmetic is exact; final counting results are integers and are
extracted through the checked conversion :func:`integer_coeffs`.  This is
the tests' reference type: the engine and the closed forms both solve and
combine on Python ints, and the tests rebuild their series here in exact
rationals, independently, to check them.  Each operation has one
spelling, a function (:func:`add`, :func:`mul`, :func:`scale`, ...).

Binary operations require both operands to carry the same truncation
order.  Mixing orders is a programming error, not something to coerce
silently, so it raises ``ValueError``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

# Coefficients are exact rationals: stored in lowest terms with a positive
# denominator, compared by value.  Fraction guarantees all of that.
Coefficient = Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


class IntegralityError(ValueError):
    """A coefficient expected to be an integer is not one.

    Raised by :func:`integer_coeffs` for a denominator != 1, and by the
    exact divisions of the engine (the exponential recurrence, the orbit
    averages) and of the closed forms (the fixed points, the reduced
    combinations) for a remainder, naming where it happened.  Either signals
    a bug in the calling computation (counting series must have integer
    coefficients), never bad user input.
    """


class Series:
    """Power series truncated at ``order``: ``coeffs[d]`` is the x^d term."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Coefficient | int]):
        if order < 0:
            raise ValueError(f"series order must be >= 0, got {order}")
        cs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(cs) != order + 1:
            raise ValueError(
                f"series of order {order} needs {order + 1} coefficients, got {len(cs)}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        terms = []
        for d, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{d}" if d else f"{c}")
        body = " + ".join(terms) if terms else "0"
        return f"Series(order={self.order}: {body})"


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

    >>> substitute_power(Series(4, [1, 1, 1, 0, 0]), 2).coeffs
    (Fraction(1, 1), Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(1, 1))
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

    >>> exp_series(monomial_x(3)).coeffs
    (Fraction(1, 1), Fraction(1, 1), Fraction(1, 2), Fraction(1, 6))
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
