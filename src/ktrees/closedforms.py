"""Hand-derived counting formulas for k = 1, 2, 3, 4, each solved on its own.

Every formula rests on the paper's per-cycle-type system

    Bbar_mu = x * prod_i C_{mu^i}(x^i)          (i over parts of mu)
    C_mu    = exp( sum_{m>=1} Bbar_{mu^m}(x^m) / m ),

written out by hand for its own k: a small table gives, for each cycle
type mu of the k non-root colors, the factors C_nu(x^i) of Bbar_mu / x and
the type of each power mu^m.  One kernel, :func:`_fixed_points`, solves
such a table on Python ints, so nothing here reads the general engine or
derives a cycle power: a wrong per-type coefficient on either side shows up
as a difference in U.  For k = 1 and 2 the tables are the classical closed
forms (rooted trees R; the directed-edge 2-tree pair D, S).  For k = 3 and
4 they hold the three and five cycle types of S_3 and S_4, which the known
reduced combinations then average into U in exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .series import IntegralityError, Series, add, mul, resized, scale, substitute_power, times_x

Type = tuple[int, ...]
# Each cycle type mu -> (the factors (nu, i) of Bbar_mu / x, each standing
# for C_nu(x^i); the map m -> the cycle type of mu^m).
System = dict[Type, tuple[list[tuple[Type, int]], Callable[[int], Type]]]


def _x_times(f: Series) -> Series:
    """x*f at f's own order (top coefficient of f falls off the end)."""
    return resized(times_x(f), f.order)


def _fixed_points(order: int, system: System) -> dict[Type, Series]:
    """The series C_mu of every type of ``system``, solved online.

    Python ints, one coefficient of every series per degree n, from C_mu = 1
    and Bbar_mu = 0.  Bbar_mu[n] is degree n-1 of its product of factors,
    kept as running partial products, so it needs C only below degree n.
    Then C_mu[n] follows from n*C_mu[n] = sum_{j=1..n} (j*L[j])*C_mu[n-j],
    where j*L[j] = sum_{m | j} (j/m)*Bbar_{mu^m}[j/m] is the log-derivative.
    Each division by n must be exact; a remainder raises IntegralityError
    naming k = |mu|, mu and the degree.
    """
    c = {mu: [1] for mu in system}
    bbar = {mu: [0] for mu in system}
    log_deriv = {mu: [0] for mu in system}
    runs = {mu: [[] for _ in factors] for mu, (factors, _) in system.items()}
    one = [1] + [0] * order
    for n in range(1, order + 1):
        for mu, (factors, _) in system.items():
            prev = one
            for run, (nu, i) in zip(runs[mu], factors):
                run.append(sum(prev[n - 1 - i * s] * c[nu][s] for s in range((n - 1) // i + 1)))
                prev = run
            bbar[mu].append(prev[n - 1])
        for mu, (_, power) in system.items():
            a = log_deriv[mu]
            a.append(sum((n // m) * bbar[power(m)][n // m] for m in range(1, n + 1) if n % m == 0))
            total = sum(x * y for x, y in zip(a[1:], reversed(c[mu])))
            quotient, remainder = divmod(total, n)
            if remainder:
                raise IntegralityError(
                    f"k={sum(mu)}, mu={mu}, degree {n}: {Fraction(total, n)} is not an integer"
                )
            c[mu].append(quotient)
    return {mu: Series(order, coeffs) for mu, coeffs in c.items()}


def rooted_trees(order: int) -> Series:
    """Vertex-rooted unlabeled trees counted by number of edges.

    R = exp(sum_m x^m R(x^m)/m): deleting the root leaves a multiset of
    edge-attached rooted subtrees.  This is the 1-tree system, with the
    single type (1) whose Bbar is x*R.

    >>> [int(r) for r in rooted_trees(6).coeffs]
    [1, 1, 2, 4, 9, 20, 48]
    """
    r = (1,)
    return _fixed_points(order, {r: ([(r, 1)], lambda m: r)})[r]


def otter_U(order: int) -> Series:
    """Unlabeled trees by number of edges, via the classical root/edge trade-off.

    U = R - (x/2)(R^2 - R(x^2)) with R = rooted_trees: subtracting trees
    rooted at an asymmetric edge cancels all but one rooting of each tree.
    """
    r = rooted_trees(order)
    sym_diff = add(mul(r, r), scale(substitute_power(r, 2), -1))
    return add(r, scale(_x_times(sym_diff), Fraction(-1, 2)))


def twotree_rooted_series(order: int) -> tuple[Series, Series]:
    """The two rooted series of the self-contained 2-tree solution.

    D = C_(1,1) counts 2-trees rooted at a directed edge and satisfies
    D = exp(sum_m (x^m/m) D(x^m)^2); S = C_(2) counts directed-edge
    rootings fixed by the edge flip, via the odd/even split
    S = exp(sum_{m odd} (x^m/m) D(x^{2m}) + sum_{m even} (x^m/m) D(x^m)^2).
    """
    d, s = (1, 1), (2,)
    fixed = _fixed_points(order, {
        d: ([(d, 1), (d, 1)], lambda m: d),
        s: ([(d, 2)], lambda m: s if m % 2 else d),
    })
    return fixed[d], fixed[s]


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
    """Unlabeled 3-trees, solved self-contained.

    A, G, H are the colored-rooted series for the cycle types 1^3, 2.1 and
    3 of the non-root colors, solved from their own system:

        A = exp(sum_m x^m A(x^m)^3 / m)
        G = exp(sum_{m odd} x^m A(x^2m) G(x^m) / m + sum_{m even} x^m A(x^m)^3 / m)
        H = exp(sum_{3 !| m} x^m A(x^3m) / m + sum_{3 | m} x^m A(x^m)^3 / m)

    With C = A/6 + G/2 + H/3, their centralizer-weighted average, the
    reduced combination is

        U = C - x( 1/8 A^4 + 1/4 A(x^2) G^2 - 1/8 A(x^2)^2 - 1/4 A(x^4) ).
    """
    ta, tg, th = (1, 1, 1), (2, 1), (3,)
    a, g, h = _fixed_points(order, {
        ta: ([(ta, 1)] * 3, lambda m: ta),
        tg: ([(ta, 2), (tg, 1)], lambda m: tg if m % 2 else ta),
        th: ([(ta, 3)], lambda m: th if m % 3 else ta),
    }).values()

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
    """Unlabeled 4-trees, solved self-contained.

    The five cycle types of S_4 give series A for 1^4, P for 2.1^2, Q for
    2^2, R for 3.1 and T for 4, with Bbar = x A^4, x A(x^2) P^2,
    x A(x^2)^2, x A(x^3) R and x A(x^4).  A power of P or Q of even order
    is 1^4, and so is a power of R of order divisible by 3; T^m is T for
    odd m, Q for m = 2 mod 4 and 1^4 for 4 | m.  The reduced combination:

        C = A/24 + P/4 + Q/8 + R/3 + T/4
        U = C - x( 1/30 A^5 + 1/6 A(x^3) R^2 + 1/6 A(x^2) P^3
                   - 1/6 P(x^3) R(x^2) - 1/5 A(x^5) ).
    """
    ta, tp, tq, tr, tt = (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)
    a, p, q, r, t = _fixed_points(order, {
        ta: ([(ta, 1)] * 4, lambda m: ta),
        tp: ([(ta, 2), (tp, 1), (tp, 1)], lambda m: tp if m % 2 else ta),
        tq: ([(ta, 2), (ta, 2)], lambda m: tq if m % 2 else ta),
        tr: ([(ta, 3), (tr, 1)], lambda m: tr if m % 3 else ta),
        tt: ([(ta, 4)], lambda m: tt if m % 2 else tq if m % 4 else ta),
    }).values()

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
