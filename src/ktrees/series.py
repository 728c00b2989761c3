"""The integrality error, and the rational series type of the engine's views.

Every counting series is solved and combined on Python ints, each division
checked to be exact: :meth:`IntegralityError.quotient` returns an exact
quotient and raises the error for a remainder.  A :class:`Series` is an
immutable, dense vector of ``Fraction`` coefficients truncated at an
explicit order: the value type of the engine's ``SeriesCache.c_table`` and
``bbar_table`` views.  The rational algebra on it is the tests'
independent reference and lives with the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable


class IntegralityError(ValueError):
    """A coefficient expected to be an integer is not one.

    Raised by :meth:`quotient`, the one exact division of the package: the
    engine's (the exponential recurrence, the orbit averages), the closed
    forms' (the fixed points, the reduced combinations) and the jumps'.  It
    signals a bug in the calling computation (counting series must have
    integer coefficients), never bad user input.
    """

    @classmethod
    def quotient(cls, num: int, den: int, where: str) -> int:
        """``num // den``, which must be exact: a remainder raises the error
        naming ``where`` and the fraction in lowest terms.

        >>> IntegralityError.quotient(-12, 4, "x")
        -3
        >>> IntegralityError.quotient(6, 4, "x")
        Traceback (most recent call last):
        ...
        ktrees.series.IntegralityError: x: 3/2 is not an integer
        """
        if num % den:
            g = gcd(num, den)
            raise cls(f"{where}: {num // g}/{den // g} is not an integer")
        return num // den


class Series:
    """Power series truncated at ``order``: ``coeffs[d]`` is the x^d term."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Fraction | int]):
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
