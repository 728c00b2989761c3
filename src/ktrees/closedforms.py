"""Hand-derived counting formulas for k = 1, 2, 3, 4, each solved on its own,
and U's second jump below the stable range.

Every formula for one k rests on the paper's per-cycle-type system

    Bbar_mu = x * prod_i C_{mu^i}(x^i)          (i over parts of mu)
    C_mu    = exp( sum_{m>=1} Bbar_{mu^m}(x^m) / m ),

written out by hand for its own k: a small table gives, for each cycle
type mu of the k non-root colors, the factors C_nu(x^i) of Bbar_mu / x and
the type of each power mu^m.  One kernel, :func:`_fixed_points`, solves
such a table on Python ints, so nothing here reads the general engine or
derives a cycle power: a wrong per-type coefficient on either side shows up
as a difference in U.  For k = 1 and 2 the tables are the classical closed
forms (rooted trees R; the directed-edge 2-tree pair D, S).  For k = 3 and
4 they hold the three and five cycle types of S_3 and S_4.  Each formula
then combines its series into U on ints too: the combination is multiplied
through by its common denominator (2, 6, 24 and 120 for k = 1..4) and
divided by it once per coefficient, and that division must be exact.
:func:`second_jump` rests instead on the proof in :mod:`ktrees._jumps`
and reads only the rooted trees R.  Every division here, the solve's by
the degree too, is :meth:`IntegralityError.quotient`, which raises the
error for a remainder.  Every result is a plain ``list[int]``, like the
engine's rows.
"""

from __future__ import annotations

import operator
from typing import Callable

from .series import IntegralityError

Type = tuple[int, ...]
# Each cycle type mu -> (the factors (nu, i) of Bbar_mu / x, each standing
# for C_nu(x^i); the map m -> the cycle type of mu^m).
System = dict[Type, tuple[list[tuple[Type, int]], Callable[[int], Type]]]
# A weighted sum of coefficient lists: (weight, list) pairs.
Terms = list[tuple[int, list[int]]]


def _mul(*factors: list[int]) -> list[int]:
    """The product of equal-length coefficient lists, truncated at their length."""
    out = factors[0]
    for f in factors[1:]:
        out = [sum(map(operator.mul, out[: d + 1], reversed(f[: d + 1]))) for d in range(len(f))]
    return out


def _sub(f: list[int], m: int) -> list[int]:
    """f(x^m), truncated at f's own length."""
    out = [0] * len(f)
    out[::m] = f[: (len(f) - 1) // m + 1]
    return out


def _geometric(f: list[int]) -> list[int]:
    """1 / (1 - f) for f with no constant term, truncated at f's length."""
    out = [1]
    for d in range(1, len(f)):
        out.append(sum(map(operator.mul, f[1 : d + 1], reversed(out))))
    return out


def _reduce(k: int, den: int, c_terms: Terms, x_terms: Terms) -> list[int]:
    """U = (sum(c_terms) - x * sum(x_terms)) / den, coefficient by coefficient.

    The terms carry a reduced combination multiplied through by its common
    denominator ``den``, so each numerator counts the k-trees of its degree
    ``den`` times over and its division must be exact; a remainder raises
    IntegralityError naming k and the degree.
    """
    out = []
    for n in range(len(c_terms[0][1])):
        num = sum(w * f[n] for w, f in c_terms)
        if n:
            num -= sum(w * f[n - 1] for w, f in x_terms)
        out.append(IntegralityError.quotient(num, den, f"k={k}, degree {n}"))
    return out


def _fixed_points(order: int, system: System) -> dict[Type, list[int]]:
    """The series C_mu of every type of ``system``, solved online.

    Python ints, one coefficient of every series per degree n, from C_mu = 1
    and Bbar_mu = 0.  Bbar_mu[n] is degree n-1 of its product of factors,
    kept as running partial products, so it needs C only below degree n.
    Then C_mu[n] follows from n*C_mu[n] = sum_{j=1..n} (j*L[j])*C_mu[n-j],
    where j*L[j] = sum_{m | j} (j/m)*Bbar_{mu^m}[j/m] is the log-derivative.
    Each division by n must be exact; a remainder raises IntegralityError
    naming k = |mu|, mu and the degree.  A negative ``order`` raises
    ValueError.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
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
            c[mu].append(IntegralityError.quotient(total, n, f"k={sum(mu)}, mu={mu}, degree {n}"))
    return c


def rooted_trees(order: int) -> list[int]:
    """Vertex-rooted unlabeled trees counted by number of edges.

    R = exp(sum_m x^m R(x^m)/m): deleting the root leaves a multiset of
    edge-attached rooted subtrees.  This is the 1-tree system, with the
    single type (1) whose Bbar is x*R.

    >>> rooted_trees(6)
    [1, 1, 2, 4, 9, 20, 48]
    """
    r = (1,)
    return _fixed_points(order, {r: ([(r, 1)], lambda m: r)})[r]


def second_jump(order: int) -> list[int]:
    """U's second jump: entry n is U_{n-3}[n] - U_{n-4}[n] for 5 <= n <= order.

    These are the (n-3)-trees with n hedra and no universal vertex, which
    the proof in :mod:`ktrees._jumps` counts as

        [x^n] ( Z(S_3; A) + ( A^4/(1 - A) + A_2^2 (1 + A)/(1 - A_2) ) / 2 )

    with A = x R the rooted trees by nodes (R = :func:`rooted_trees`),
    A_i = A(x^i) and Z(S_3; A) = (A^3 + 3 A A_2 + 2 A_3)/6: one front in
    three hedra, or two fronts of one color joined by a path of m >= 4
    hedra, read either way.  Below n = 5 the entries are the series' own
    coefficients, not a jump.  The two numerators count their shapes 6 and
    2 times over, and each division must be exact; a remainder raises
    IntegralityError naming the second jump and the degree.

    >>> second_jump(12)[5:]
    [6, 19, 56, 171, 512, 1536, 4567, 13577]
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    a = [0, *rooted_trees(order)[:order]]
    a2 = _sub(a, 2)
    triples = [x + 3 * y + 2 * z for x, y, z in zip(_mul(a, a, a), _mul(a, a2), _sub(a, 3))]
    paths = [
        x + y
        for x, y in zip(
            _mul(a, a, a, a, _geometric(a)), _mul(a2, a2, [1, *a[1:]], _geometric(a2))
        )
    ]
    quotient = IntegralityError.quotient
    return [
        quotient(t, 6, f"second jump, degree {n}") + quotient(p, 2, f"second jump, degree {n}")
        for n, (t, p) in enumerate(zip(triples, paths))
    ]


def otter_U(order: int) -> list[int]:
    """Unlabeled trees by number of edges, via the classical root/edge trade-off.

    U = R - (x/2)(R^2 - R(x^2)) with R = rooted_trees: subtracting trees
    rooted at an asymmetric edge cancels all but one rooting of each tree.
    """
    r = rooted_trees(order)
    return _reduce(1, 2, [(2, r)], [(1, _mul(r, r)), (-1, _sub(r, 2))])


def twotree_rooted_series(order: int) -> tuple[list[int], list[int]]:
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


def twotree_U(order: int) -> list[int]:
    """Unlabeled 2-trees by number of triangles, solved self-contained.

    With D and S from :func:`twotree_rooted_series`, C = (D + S)/2 counts
    unordered edge rootings and

        U = C - (x/3)(D^3 - D(x^3))

    removes the overcount of rootable triangles.
    """
    d, s = twotree_rooted_series(order)
    return _reduce(2, 6, [(3, d), (3, s)], [(2, _mul(d, d, d)), (-2, _sub(d, 3))])


def threetree_U(order: int) -> list[int]:
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
    a2 = _sub(a, 2)
    return _reduce(
        3, 24,
        [(4, a), (12, g), (8, h)],
        [(3, _mul(a, a, a, a)), (6, _mul(a2, g, g)), (-3, _mul(a2, a2)), (-6, _sub(a, 4))],
    )


def fourtree_U(order: int) -> list[int]:
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
    return _reduce(
        4, 120,
        [(5, a), (30, p), (15, q), (40, r), (30, t)],
        [
            (4, _mul(a, a, a, a, a)),
            (20, _mul(_sub(a, 3), r, r)),
            (20, _mul(_sub(a, 2), p, p, p)),
            (-20, _mul(_sub(p, 3), _sub(r, 2))),
            (-24, _sub(a, 5)),
        ],
    )
