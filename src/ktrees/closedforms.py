"""Hand-derived counting formulas for k = 1, 2, 3, 4.

For the two smallest k the whole system collapses to one or two series with
classical closed forms, re-implemented here as fixed points of their own
(independently of the general engine) so the two code paths can be compared
coefficient for coefficient.  For k = 3 and k = 4 the collapse only merges
the black- and edge-rooted aggregates; those formulas consume the engine's
per-cycle-type series but combine them along a completely different route,
which exercises the engine's aggregation against the known reductions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .engine import solve_system
from .series import (
    Series,
    add,
    exp_series,
    mul,
    resized,
    scale,
    substitute_power,
    times_x,
)


def _x_times(f: Series) -> Series:
    """x*f at f's own order (top coefficient of f falls off the end)."""
    return resized(times_x(f), f.order)


def _sum_of_power_substitutions(term: Series, parity: int | None = None) -> Series:
    """sum over m >= 1 of term(x^m)/m, truncated at term's order.

    ``term`` has no constant term, so substituting x^m contributes nothing
    below degree m and the sum is finite.  With ``parity`` 0 or 1 only even
    or only odd m are taken.
    """
    n = term.order
    total = Series(n, [Fraction(0)] * (n + 1))
    for m in range(1, n + 1):
        if parity is not None and m % 2 != parity:
            continue
        total = add(total, scale(substitute_power(term, m), Fraction(1, m)))
    return total


def _euler_fixed_point(order: int, term: Callable[[list[Fraction]], Fraction]) -> Series:
    """The series F = exp(sum_m (x^m/m) T(x^m)), solved online.

    ``term(f)`` gives T[d] from the coefficients f[0..d] of F.  With L the
    exponent, j*L[j] = sum_{d | j} d*T[d-1] only needs F below degree j, so
    F grows by one exact coefficient per degree through
    n*F[n] = sum_{j=1..n} (j*L[j])*F[n-j].
    """
    f = [Fraction(1)]
    t: list[Fraction] = []  # T[0..n-1]
    jl = [Fraction(0)]  # j*L[j] for j = 0..n
    for n in range(1, order + 1):
        t.append(term(f))
        jl.append(sum(d * t[d - 1] for d in range(1, n + 1) if n % d == 0))
        f.append(sum(jl[j] * f[n - j] for j in range(1, n + 1)) / n)
    return Series(order, f)


def rooted_trees(order: int) -> Series:
    """Vertex-rooted unlabeled trees counted by number of edges.

    Solves R = exp(sum_m x^m R(x^m)/m): deleting the root leaves a multiset
    of edge-attached rooted subtrees.  Degree d of the exponent only needs
    R through d-1, so R is solved online, one coefficient per degree, by
    n*R[n] = sum_j (j*L[j])*R[n-j] with j*L[j] = sum_{d | j} d*R[d-1].
    """
    return _euler_fixed_point(order, lambda r: r[-1])


def otter_U(order: int) -> Series:
    """Unlabeled trees by number of edges, via the classical root/edge trade-off.

    U = R - (x/2)(R^2 - R(x^2)) with R = rooted_trees: subtracting trees
    rooted at an asymmetric edge cancels all but one rooting of each tree.
    """
    r = rooted_trees(order)
    sym_diff = add(mul(r, r), scale(substitute_power(r, 2), -1))
    return add(r, scale(_x_times(sym_diff), Fraction(-1, 2)))


@lru_cache(maxsize=None)
def twotree_rooted_series(order: int) -> tuple[Series, Series]:
    """The two rooted series of the self-contained 2-tree solution.

    D counts 2-trees rooted at a directed edge and satisfies
    D = exp(sum_m (x^m/m) D(x^m)^2); S counts directed-edge rootings fixed
    by the edge flip, via the odd/even split
    S = exp(sum_{m odd} (x^m/m) D(x^{2m}) + sum_{m even} (x^m/m) D(x^m)^2).
    D is solved online like :func:`rooted_trees`, with
    j*L[j] = sum_{d | j} d*(D^2)[d-1] and D^2 extended as D grows.
    """
    d = _euler_fixed_point(order, lambda f: sum(a * b for a, b in zip(f, reversed(f))))

    flip_term = _x_times(substitute_power(d, 2))  # x*D(x^2)
    plain_term = _x_times(mul(d, d))  # x*D(x)^2
    s = exp_series(
        add(
            _sum_of_power_substitutions(flip_term, parity=1),
            _sum_of_power_substitutions(plain_term, parity=0),
        )
    )
    return d, s


def twotree_U(order: int) -> Series:
    """Unlabeled 2-trees by number of triangles, solved self-contained.

    With D and S from :func:`twotree_rooted_series`, C = (D + S)/2 counts
    unordered edge rootings and

        U = C - (x/3)(D^3 - D(x^3))

    removes the overcount of rootable triangles.
    """
    d, s = twotree_rooted_series(order)
    c = scale(add(d, s), Fraction(1, 2))
    cubed_diff = add(mul(mul(d, d), d), scale(substitute_power(d, 3), -1))
    return add(c, scale(_x_times(cubed_diff), Fraction(-1, 3)))


def threetree_U(order: int) -> Series:
    """Unlabeled 3-trees from the solved per-cycle-type series.

    Uses the reduced combination

        U = C - x( 1/8 A^4 + 1/4 A(x^2) G^2 - 1/8 A(x^2)^2 - 1/4 A(x^4) )

    where A, G, H are the colored-rooted series for the cycle types 1^3,
    2.1 and 3 of the non-root colors, and C = A/6 + G/2 + H/3 is their
    centralizer-weighted average.
    """
    cache = solve_system(3, order)
    a = cache.c_table[(1, 1, 1)]
    g = cache.c_table[(2, 1)]
    h = cache.c_table[(3,)]

    c = add(
        add(scale(a, Fraction(1, 6)), scale(g, Fraction(1, 2))),
        scale(h, Fraction(1, 3)),
    )

    a2 = substitute_power(a, 2)
    inner = scale(mul(mul(a, a), mul(a, a)), Fraction(1, 8))
    inner = add(inner, scale(mul(a2, mul(g, g)), Fraction(1, 4)))
    inner = add(inner, scale(mul(a2, a2), Fraction(-1, 8)))
    inner = add(inner, scale(substitute_power(a, 4), Fraction(-1, 4)))
    return add(c, scale(_x_times(inner), -1))


def fourtree_U(order: int) -> Series:
    """Unlabeled 4-trees from the solved per-cycle-type series.

    Reduced combination over the five cycle types of S_4 (series A for
    1^4, P for 2.1^2, Q for 2^2, R for 3.1, T for 4):

        C = A/24 + P/4 + Q/8 + R/3 + T/4
        U = C - x( 1/30 A^5 + 1/6 A(x^3) R^2 + 1/6 A(x^2) P^3
                   - 1/6 P(x^3) R(x^2) - 1/5 A(x^5) ).
    """
    cache = solve_system(4, order)
    a = cache.c_table[(1, 1, 1, 1)]
    p = cache.c_table[(2, 1, 1)]
    q = cache.c_table[(2, 2)]
    r = cache.c_table[(3, 1)]
    t = cache.c_table[(4,)]

    c = scale(a, Fraction(1, 24))
    c = add(c, scale(p, Fraction(1, 4)))
    c = add(c, scale(q, Fraction(1, 8)))
    c = add(c, scale(r, Fraction(1, 3)))
    c = add(c, scale(t, Fraction(1, 4)))

    a_sq = mul(a, a)
    inner = scale(mul(mul(a_sq, a_sq), a), Fraction(1, 30))
    inner = add(inner, scale(mul(substitute_power(a, 3), mul(r, r)), Fraction(1, 6)))
    inner = add(inner, scale(mul(substitute_power(a, 2), mul(mul(p, p), p)), Fraction(1, 6)))
    inner = add(inner, scale(mul(substitute_power(p, 3), substitute_power(r, 2)), Fraction(-1, 6)))
    inner = add(inner, scale(substitute_power(a, 5), Fraction(-1, 5)))
    return add(c, scale(_x_times(inner), -1))
