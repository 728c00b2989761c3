"""Counting engine for unlabeled k-trees by number of hedra.

A k-tree glues (k+1)-cliques (hedra) along k-cliques (fronts).  Properly
coloring the vertices in k+1 colors and encoding hedra/fronts as the black
and colored vertices of a bipartite "coding tree" turns the problem into
counting color-orbits of unlabeled coding trees under S_{k+1}.  Reducing the
color action to cycle types leaves one series per partition:

* ``C_mu``  (mu a partition of k): colored-rooted coding trees fixed by a
  permutation whose cycle type on the k+1 colors is mu plus a fixed point
  at the root color.
* ``Bbar_mu``: the same but rooted at a black vertex missing one neighbor
  color (what remains when a colored root is deleted).

These satisfy the mutually recursive system

    Bbar_mu = x * prod_i C_{mu^i}(x^i)          (i over parts of mu)
    C_mu    = exp( sum_{m>=1} Bbar_{mu^m}(x^m) / m )

where ``mu^i`` is the cycle type of the i-th power.  A dissymmetry argument
(vertex rootings minus edge rootings count each unrooted tree once) then
yields the unrooted count

    U = B + C - E,

with B, C, E the centralizer-weighted averages over cycle types of the
black-rooted, colored-rooted, and edge-rooted fixed-tree series.  Every
black-rooted term is one product over the color cycles of a permutation of
type lam |- k+1,

    B_lam = x * prod_i C_{lam^i minus one fixed point}(x^i),

and when lam = mu + (1,) has a fixed color, B_lam = Bbar_mu * C_mu, which
is also E's mu-term.  Each factor C_nu(x^i) is an exponential whose
log-derivative the solve keeps, so Bbar_mu / x and every B_lam / x are
exponentials too, of the sum of their factors' log-derivatives.  C_mu,
Bbar_mu and B_lam therefore all grow by one shared exact-division step of
the Euler-transform recurrence, and each product is built once.  The
log-derivatives are kept from their x^1 term on, so a step is one dot
product against its series read backwards and one exact division.  All
the bookkeeping around it (which tables a log-derivative term reads, with
what weight) is settled once per solve, and each degree's terms are summed
a column at a time across all series of a kind.  That bookkeeping names
each cycle type once, by its index in the enumeration of the partitions
of k (or of k+1): the power map mu -> mu^m is a row of indices, one
:func:`cycle_power` per type and prime p whose p-th power moves it, with
every other row composed from those, and there is a row for every part of
every mu whatever the order.  A lam = mu + (1,) looks mu up by its key, as
E looks up each mu + (1,).  The per-type tables become dicts keyed by the
partitions only when the solve returns.

Everything is solved degree by degree: the leading factor x in ``Bbar``
means degree d of ``Bbar`` only needs ``C`` through degree d-1, so one
bottom-up pass per degree reaches a fixed point exactly.  Every
coefficient counts the trees fixed by one permutation, so the solve and the
aggregation run on Python ints: each division (by the degree in the
exponential recurrence, by the group order in the orbit averages) must be
exact, and a remainder raises ``IntegralityError`` at the coefficient that
produced it.  The results (the B, C, E aggregates, the per-type fixed counts
and every row of :func:`count_ktrees`) are plain lists of ints, as are the
closed forms' rows in :mod:`closedforms`.  The rational :class:`Series`,
a value type with no arithmetic, appears only in the ``c_table`` /
``bbar_table`` views; the rational algebra on it is the tests' reference.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from math import lcm
from operator import add, itemgetter, mul
from types import SimpleNamespace
from typing import Iterable

from .partitions import (
    Partition,
    cycle_power,
    drop_one_fixed_point,
    partitions_of,
    permutation_count,
)
from .series import IntegralityError, Series


class SeriesCache(SimpleNamespace):
    """Solved per-cycle-type integer tables for one (k, order) computation.

    Built with the keywords ``k``, ``order``, ``c``, ``bbar`` and ``b``.
    ``c`` and ``bbar`` hold C_mu and Bbar_mu, keyed by exactly the
    partitions mu of k in the order of ``partitions_of(k)``; ``b`` holds
    B_lam, keyed by exactly the partitions lam of k+1 in the order of
    ``partitions_of(k + 1)``.  The aggregates look every type up by its
    key; the order is what a table's repr, and so a digest of it, follows.
    After :func:`solve_system` every table has order + 1 coefficients, all
    correct.  ``c_table`` and ``bbar_table`` are the same C_mu and Bbar_mu
    as :class:`Series`, built on first read; nothing in the package reads
    them, only the benchmark's trace.
    """

    @cached_property
    def _mu_weights(self) -> list[int]:
        """Permutations of each type mu |- k, in the order of ``c``: the
        weights of both C and E."""
        return [permutation_count(mu) for mu in self.c]

    @cached_property
    def c_table(self) -> dict[Partition, Series]:
        return {mu: Series(self.order, coeffs) for mu, coeffs in self.c.items()}

    @cached_property
    def bbar_table(self) -> dict[Partition, Series]:
        return {mu: Series(self.order, coeffs) for mu, coeffs in self.bbar.items()}


class ResultBundle(SimpleNamespace):
    """Integer coefficient vectors for one (k, order) run.

    ``U[n]`` is the number of unlabeled k-trees with n hedra (n+k vertices);
    B, C, E are the rooted aggregates with U = B + C - E coefficientwise.
    Two bundles are equal when all six fields are.
    """

    def __init__(self, k: int, order: int, U: list[int], B: list[int], C: list[int], E: list[int]):
        super().__init__(k=k, order=order, U=U, B=B, C=C, E=E)

    def __reduce__(self):  # SimpleNamespace's would call __init__ with no arguments
        return ResultBundle, (self.k, self.order, self.U, self.B, self.C, self.E)


def _divisor_table(n: int) -> list[list[int]]:
    divs: list[list[int]] = [[] for _ in range(n + 1)]
    for m in range(1, n + 1):
        for j in range(m, n + 1, m):
            divs[j].append(m)
    return divs


def _power_rows(
    types: list[Partition], index: dict[Partition, int], order: int
) -> list[list[int]]:
    """Power maps of the cycle types ``types`` by index, for powers 1..order.

    rows[m][s] is the index in ``types`` of the cycle type of pi^m, for pi
    of type types[s] (rows[0] is unused).  Only a prime p costs
    :func:`cycle_power` calls, one per type whose period lcm(mu) p divides: a
    type of period prime to p is its own p-th power.  Every other row is
    composed, row m being row p applied to row m/p, with p the least prime
    factor of m.
    """
    periods = [lcm(*mu) for mu in types]
    identity = list(range(len(types)))
    # least[m] is the least factor d >= 2 of m, the last d to mark it.
    least = [0] * (order + 1)
    for d in range(order, 1, -1):
        least[d::d] = [d] * (order // d)
    rows = [identity, identity]
    for m in range(2, order + 1):
        p = least[m]
        if p < m:
            rows.append(list(map(rows[p].__getitem__, rows[m // p])))
        else:
            rows.append(
                [
                    index[cycle_power(mu, p)] if period % p == 0 else s
                    for s, (mu, period) in enumerate(zip(types, periods))
                ]
            )
    return rows


def _euler_steps(
    steps: list[tuple[list[int], list[int], str, Partition]], column: Iterable[int], n: int
) -> None:
    """Append the x^n coefficient of G = exp(L) to every series of ``steps``.

    ``steps`` holds (g, series, where, type) entries.  ``g`` is the
    log-derivative x L'(x) of the exponent from j = 1 on (g[j - 1] is its
    x^j term), and it first takes its x^n term from ``column``.  ``series``
    is x^shift * G, holding G through degree n - 1.  The Euler-transform
    recurrence n * G[n] = sum_{j=1..n} g[j] * G[n-j] must divide exactly: a
    remainder raises IntegralityError at ``where``, the type and the degree
    len(series) of the coefficient being produced, a location formatted
    only then.
    """
    for (g, series, where, key), value in zip(steps, column):
        g.append(value)
        total = sum(map(mul, g, reversed(series)))
        quotient, remainder = divmod(total, n)
        if remainder:
            raise IntegralityError.for_quotient(f"{where}{key}, degree {len(series)}", total, n)
        series.append(quotient)


def solve_system(k: int, order: int) -> SeriesCache:
    """Solve the C_mu / Bbar_mu system for all mu |- k through ``order``.

    Online solve on Python ints, one new coefficient of every series per
    degree, starting from C_mu = 1 (the bare colored root) and
    Bbar_mu = B_lam = x (the bare black root).  Every series is one
    exponential grown by :func:`_euler_steps`, each from a log-derivative
    the solve keeps from its x^1 term on (entry j - 1 is the x^j term):

    * C_mu = exp(sum_m Bbar_{mu^m}(x^m) / m) has the log-derivative
      a_mu[j] = sum_{m | j} (j/m) * Bbar_{mu^m}[j/m], so C_mu[d] needs
      Bbar only through degree d.  For each m <= order the solve lists the
      Bbar_{mu^m} table of every mu once, so a degree reads one column per
      divisor m and looks up no cycle type.
    * Bbar_mu / x and B_lam / x are products of factors C_nu(x^i), one per
      part i, with nu = mu^i for Bbar_mu and nu = lam^i minus one fixed
      point for B_lam, which is mu^i again when lam = mu + (1,) and is read
      off mu's powers.  Their log-derivative at degree n is the sum over
      distinct parts i | n of (multiplicity of i) * i * a_nu[n/i], so
      degree d+1 of Bbar and B needs C only through d.  For each part i the
      solve lists every product's weight and a_nu once, so a degree reads
      one column per part i | n.  A product of one part is C_nu(x^i)
      itself and is read off C.

    Both lists name a type by its index s in ``partitions_of(k)``.  The
    powers mu^m come from :func:`_power_rows`: a row of indices for each
    m <= max(k, order), a prime p costing one :func:`cycle_power` per type
    whose period lcm(mu) p divides, and every other row m composed as row p
    of row m/p.  So every part of every mu has a row; a part i >= order
    divides no degree the products reach, so it adds nothing.  A B_lam with
    a fixed point reads the rows of mu = lam minus that point, found by its
    key; a B_lam without one costs one :func:`cycle_power` per distinct
    part.

    Every division must be exact, and a remainder raises IntegralityError
    naming k, the type (mu for C_mu and Bbar_mu, lam for B_lam) and the
    degree.  Nothing below degree d is touched again, so the result is
    independent of the requested order (monotone truncation).  The work is
    O((p(k+1) + 2 * p(k)) * order^2) integer multiply-adds.  The returned
    cache holds the C_mu and Bbar_mu tables (keyed by mu |- k) and the
    B_lam tables (keyed by lam |- k+1).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")

    # A type mu |- k is named by its index s in mus, and its tables are lists.
    # Every part of every mu has a power row, however small the order.
    mus = partitions_of(k)
    lams = partitions_of(k + 1)
    index = {mu: s for s, mu in enumerate(mus)}
    divs = _divisor_table(order)
    rows = _power_rows(mus, index, max(k, order))

    c = [[1] for _ in mus]
    bbar = [[0, 1][: order + 1] for _ in mus]
    b = [[0, 1][: order + 1] for _ in lams]
    # log_deriv[s][j - 1] = a_mu[j] = j * [x^j] log C_mu, for j >= 1.
    log_deriv: list[list[int]] = [[] for _ in mus]
    where_c, where_bbar, where_b = f"k={k}, mu=", f"k={k}, Bbar, mu=", f"k={k}, B, lam="
    c_steps = list(zip(log_deriv, c, repeat(where_c), mus))
    # by_power[m][s] is the Bbar table of mus[s]^m (m = 0 unused).
    by_power = [list(map(bbar.__getitem__, row)) for row in rows]

    # Products as (where, series, parts, s).  For Bbar_mu, and for B_lam with
    # lam = mu + (1,), the factor of part i is C_nu(x^i) with nu = mu^i, the
    # type mus[rows[i][s]].  A lam with no fixed point (s is None) takes
    # nu = lam^i minus one fixed point.
    products = list(zip(repeat(where_bbar), bbar, mus, range(len(mus))))
    products += [
        (where_b, table, lam, index[lam[:-1]] if lam[-1] == 1 else None)
        for lam, table in zip(lams, b)
    ]
    one_part, steps = [], []
    # Part i's column: each product's weight (multiplicity * i) and the a_nu
    # it scales, with weight 0 on a zero source where i is no part of it.
    # Every part i <= k is in some product of two parts or more (i, 1, ...).
    unused = [0] * order
    columns = {i: ([0] * len(products), [unused] * len(products)) for i in range(1, k + 1)}
    for where, series, parts, s in products:
        if s is None:
            nus = {i: index[drop_one_fixed_point(cycle_power(parts, i))] for i in set(parts)}
        else:
            nus = {i: rows[i][s] for i in set(parts)}
        if len(parts) == 1:
            # C_nu(x^i) itself.
            one_part.append((series, c[nus[parts[0]]], parts[0]))
            continue
        j = len(steps)
        for i, nu in nus.items():
            weights, sources = columns[i]
            weights[j] = parts.count(i) * i
            sources[j] = log_deriv[nu]
        steps.append(([], series, where, parts))

    # Each log-derivative term is summed a column at a time, lazily: a_d and
    # g_d yield one value per step as _euler_steps takes it.
    for d in range(1, order + 1):
        # The exponential's argument sum_m Bbar_{mu^m}(x^m)/m reaches x^d
        # only through divisors m of d, since Bbar has no constant term.
        a_d: Iterable[int] = repeat(0)
        for m in divs[d]:
            q = d // m
            a_d = map(add, a_d, map(q.__mul__, map(itemgetter(q), by_power[m])))
        _euler_steps(c_steps, a_d, d)
        if d < order:
            # Degree d+1 of Bbar and B is degree d of a product of C factors.
            for series, c_nu, i in one_part:
                series.append(0 if d % i else c_nu[d // i])
            g_d: Iterable[int] = repeat(0)
            for i, (weights, sources) in columns.items():
                if d % i == 0:
                    terms = map(itemgetter(d // i - 1), sources)
                    g_d = map(add, g_d, map(mul, weights, terms))
            _euler_steps(steps, g_d, d)

    return SeriesCache(
        k=k, order=order, c=dict(zip(mus, c)), bbar=dict(zip(mus, bbar)), b=dict(zip(lams, b))
    )


def _orbit_average(
    cache: SeriesCache, name: str, weights: list[int], fixed: Iterable[list[int]]
) -> list[int]:
    """Burnside average of the per-type series ``fixed``, one for each
    cycle type of one symmetric group, in the order of ``weights``.

    Kept in integers: each type is weighted by its number of permutations
    size!/z_lam, the weights add up to the group order size!, and the one
    division by it per coefficient must be exact.
    """
    group = sum(weights)
    out = []
    for n, column in enumerate(zip(*fixed)):
        num = sum(map(mul, weights, column))
        quotient, remainder = divmod(num, group)
        if remainder:
            raise IntegralityError.for_quotient(f"k={cache.k}, {name}, degree {n}", num, group)
        out.append(quotient)
    return out


def compute_B(cache: SeriesCache) -> list[int]:
    """Color-orbits of black-rooted trees: average of B_lam weighted by 1/z_lam."""
    weights = [permutation_count(lam) for lam in cache.b]
    return _orbit_average(cache, "B", weights, cache.b.values())


def compute_C(cache: SeriesCache) -> list[int]:
    """Color-orbits of colored-rooted trees: average of C_mu weighted by 1/z_mu."""
    return _orbit_average(cache, "C", cache._mu_weights, cache.c.values())


def compute_E(cache: SeriesCache) -> list[int]:
    """Color-orbits of edge-rooted trees: average of Bbar_mu*C_mu by 1/z_mu.

    Cutting the root edge of an edge-rooted tree leaves a colored-rooted
    tree and a reduced black-rooted tree, independently fixed.  Their
    product Bbar_mu * C_mu is B_{mu+(1,)}, read off the solve's table for
    the key mu + (1,).
    """
    fixed = [cache.b[(*mu, 1)] for mu in cache.c]
    return _orbit_average(cache, "E", cache._mu_weights, fixed)


def count_ktrees(k: int, order: int) -> ResultBundle:
    """Count unlabeled k-trees with 0..order hedra.

    Solves the rooted system, aggregates B, C, E, and applies the
    dissymmetry identity U = B + C - E.  Every division on the way must be
    exact; a failure raises IntegralityError and means an engine bug.
    """
    return _count_from(solve_system(k, order))


# Private: callers that also read a solve's tables aggregate that same
# solve instead of solving it again.
def _count_from(cache: SeriesCache) -> ResultBundle:
    """The counts of :func:`count_ktrees` from its solved ``cache``."""
    b, c, e = compute_B(cache), compute_C(cache), compute_E(cache)
    u = [bn + cn - en for bn, cn, en in zip(b, c, e)]
    for n, count in enumerate(u):
        if count < 0:
            raise ArithmeticError(f"negative k-tree count U[{n}] = {count} for k={cache.k}")
    return ResultBundle(k=cache.k, order=cache.order, U=u, B=b, C=c, E=e)


def count_fixed_by_type(cache: SeriesCache, lam: Partition) -> list[int]:
    """Unlabeled coding trees fixed by a color permutation of type ``lam``.

    Dissymmetry applied inside one symmetry class: a tree fixed by pi is
    counted once by (black-rooted + colored-rooted - edge-rooted) rootings
    that pi preserves.  The root color of a colored or edge rooting must be
    one of the f fixed colors of pi, hence the factor f.  The black term is
    B_lam from ``cache.b``; with a fixed color, lam = mu + (1,) and the edge
    term Bbar_mu * C_mu is that same B_lam, with C_mu read at the key
    mu = lam minus its last part.
    """
    lam = tuple(sorted(lam, reverse=True))
    if lam not in cache.b:
        raise ValueError(f"expected a partition of {cache.k + 1}, got {lam}")
    b_lam = cache.b[lam]
    if lam[-1] != 1:
        return list(b_lam)
    fixed_colors = lam.count(1)
    return [b + fixed_colors * (cm - b) for b, cm in zip(b_lam, cache.c[lam[:-1]])]


# Private: the benchmark's tracer (perfbench/spans.py) reads the result of
# every public engine function as a row of counts.
def _solves(k: int, order: int) -> list[int]:
    """The k whose solves through ``order`` :func:`_row` reads for row k.

    Up to base = max(order - 4, 1) that is k alone.  Above it, it is 1 and
    base, which is 1 alone through order 5: each such row is the solve at
    base plus the two jumps (see :func:`stable_counts`).

    >>> [_solves(k, 9) for k in (4, 5, 6, 10)], _solves(3, 5)
    ([[4], [5], [1, 5], [1, 5]], [1])
    """
    base = max(order - 4, 1)
    return [k] if k <= base else sorted({1, base})


def _second_jump(trees: list[int], n: int) -> int:
    """U_{n-3}[n] - U_{n-4}[n] for n >= 5, from ``trees``, the rooted trees
    by edges (the C row of a k = 1 solve) through at least degree n - 1.

    With A = x * trees the rooted trees by nodes, A_2 = A(x^2) and
    W = A^2 / (1 - A), so that W(x^2) = A_2^2 / (1 - A_2), it is

        [x^n] (A^3 + 3 A A_2 + 2 A(x^3)) / 6  +  [x^n] (A^2 W + (1 + A) W(x^2)) / 2,

    one front in three hedra and two fronts of one color, the two cases of
    the proof in :func:`stable_counts`.  Each numerator counts its shapes 6
    or 2 times over, for any row of ints, so a remainder means a wrong term
    here: it raises IntegralityError naming the second jump and n.
    """
    a = [0, *trees[:n]]

    def at(f: list[int], g: list[int], d: int) -> int:
        """[x^d] f * g."""
        return sum(map(mul, f[: d + 1], reversed(g[: d + 1])))

    recip = [1]  # 1 / (1 - A)
    for d in range(1, n + 1):
        recip.append(sum(map(mul, a[1 : d + 1], reversed(recip))))
    square = [at(a, a, d) for d in range(n + 1)]
    w = [at(square, recip, d) for d in range(n + 1)]
    a2, w2 = ([0 if d % 2 else f[d // 2] for d in range(n + 1)] for f in (a, w))
    jump = 0
    for num, den in (
        (at(square, a, n) + 3 * at(a, a2, n) + 2 * (0 if n % 3 else a[n // 3]), 6),
        (at(square, w, n) + w2[n] + at(a, w2, n), 2),
    ):
        quotient, remainder = divmod(num, den)
        if remainder:
            raise IntegralityError.for_quotient(f"second jump, degree {n}", num, den)
        jump += quotient
    return jump


def _row(k: int, order: int, bundles: dict[int, ResultBundle]) -> list[int]:
    """Row k of U through ``order``, from ``bundles``, the solves through
    ``order`` of (at least) the k in :func:`_solves`.

    With base = max(order - 4, 1), a row k <= base is its own solve's U row.
    A row above it is U_base plus the jumps of each column n that lie
    between base and k (see :func:`stable_counts`): the last jump U_1[n - 1]
    where base <= n - 3 < k, and the second jump, read off the k = 1 solve
    by :func:`_second_jump`, where base <= n - 4 < k.  As order <= base + 4
    and k > base, n - 4 < k always holds.  So from order 6 on the row
    k = order - 3 adds the last jump at n = order - 1 and the second at
    n = order, and every k >= order - 2 is the stable row, with the last
    jump at n = order too.  The bundles are not changed.

    >>> bundles = {k: count_ktrees(k, 6) for k in _solves(7, 6)}
    >>> _row(2, 6, bundles), _row(3, 6, bundles), _row(7, 6, bundles)
    ([1, 1, 1, 2, 5, 12, 39], [1, 1, 1, 2, 5, 15, 58], [1, 1, 1, 2, 5, 15, 64])
    """
    base = max(order - 4, 1)
    if k <= base:
        return bundles[k].U
    k1, row = bundles[1], bundles[base].U[:]
    for n in range(base + 3, order + 1):
        if n - 3 < k:
            row[n] += k1.U[n - 1]
        if n - 4 >= base:
            row[n] += _second_jump(k1.C, n)
    return row


def stable_counts(order: int) -> list[int]:
    """The k-independent tail values: entry n is the n-hedra count at k = max(n-2, 1).

    Take a k-tree with n hedra, its hedra in an order in which each after
    the first shares a k-clique (a front) with an earlier one.  Each of
    those n-1 hedra drops at most one vertex from the running intersection
    of the hedra so far, so at least k+2-n vertices lie in every hedron.  A
    vertex lies in every hedron exactly when it is adjacent to all others
    (universal), since a k-tree has no (k+2)-clique, and any two universal
    vertices are swapped by an automorphism.  So deleting one is, for any
    k >= 2, a bijection from the unlabeled k-trees with n hedra that have a
    universal vertex onto the unlabeled (k-1)-trees with n hedra, with
    adding a universal vertex as its inverse.  For k >= n-1 every k-tree
    with n hedra has one, so U_k[n] = U_{k-1}[n] and column n is constant
    from k = n-2 on.

    The last jump is the tree count: U_{n-2}[n] = U_{n-3}[n] + U_1[n-1] for
    n >= 4, and U_1[n-1] > 0, so no lower k starts the constant run.  By the bijection, the
    (n-2)-trees with n hedra and a universal vertex number U_{n-3}[n].  In
    one with none, the first hedron's n-1 vertices must all be dropped by
    the n-1 later hedra, so each drops exactly one vertex of the running
    intersection.  Then no front lies in three hedra: the third hedron to
    contain one contains the running intersection, which lies in the first
    two and so in their common front, and drops nothing.  So the hedra, joined where they share a
    front, form a tree on n nodes.  Conversely every tree on n nodes is
    glued up this way, and the vertices of the running intersection are
    twins, so which one a hedron drops is unique up to an automorphism: the
    map to trees is a bijection, and trees on n nodes are the U_1[n-1]
    1-trees with n-1 hedra.

    The second jump, for n >= 5, is

        U_{n-3}[n] - U_{n-4}[n] = [x^n] ( Z(S_3; A)
                                  + ( A^4/(1 - A) + A_2^2 (1 + A)/(1 - A_2) ) / 2 )

    with A = sum r(m) x^m the rooted trees by nodes, A_i = A(x^i) and
    Z(S_3; A) = (A^3 + 3 A A_2 + 2 A_3)/6.  By the bijection it counts the
    (n-3)-trees with n hedra and no universal vertex.  Color the vertices in
    the k+1 colors, as the paper's coding trees do.  A hedron has one vertex
    of each color, so each of its fronts misses one color, the front's
    color, and it has one front of each color.  Each hedron after the first
    attaches at a front of an earlier one and adds one vertex, of that
    front's color, and a front lies in one hedron more than it has
    attachments (a later hedron that contains it attaches at it, as its new
    vertex is not in it).  A vertex is universal exactly when no other
    vertex has its color: two vertices of one color are not adjacent, and
    every hedron has a vertex of each color.  So a k-tree has no universal
    vertex exactly when its n-1 attachments use all k+1 colors; at k = n-2
    each color is used once, which is the last jump again.  At k = n-3 the
    n-1 attachments use n-2 colors, so exactly one color c is used twice and
    every other color once, and only a front of color c can lie in three
    hedra.  Either

    * one front of color c lies in three hedra, and every other shared
      front in two.  Cutting at that front splits the hedra into three
      trees, each rooted at a hedron on the front, with n nodes in all: an
      unordered triple of rooted trees, counted by Z(S_3; A); or
    * two fronts of color c lie in two hedra each.  The hedra then form a
      tree on n nodes, as in the last jump, and the two fronts are two of
      its edges.  A hedron has one front of each color, so the two edges
      are not incident.  The path of the tree that runs through both has
      m >= 4 nodes, and with the rooted tree that hangs off each of its
      nodes it is a sequence of m rooted trees, read either way.  By
      Burnside over the reversal these number (A^4/(1 - A) + P)/2, with
      P = A_2^2 (1 + A)/(1 - A_2) the palindromes of m = 2j or 2j+1
      nodes, j >= 2.

    Conversely, each such shape, with c on its marked fronts and the n-3
    other colors one to each other shared front, is a coding tree whose
    hedra each have one front of every color (fronts in one hedron only
    supply the rest), so a k-tree glues up to it, and it uses every color.
    Its colors are fixed up to renaming the colors used once, which the
    paper's color orbits identify, so the k-trees and the shapes
    correspond one to one up to isomorphism.

    So through ``order`` every row at or above k = order - 4 is built from
    two solves, at base = max(order - 4, 1) and at k = 1 (:func:`_solves`),
    by adding to U_base the jumps that lie between base and k
    (:func:`_row`); the stable row is the row k = order + 1.  From order 6
    on, U_base lies in the stable range of every n <= order - 2, and the
    stable row adds the last jump at n = order - 1 and both jumps at
    n = order.  The tree counts are the k = 1 row, and A is x times its C
    row, the rooted trees by edges.  Through order 5 it is the k = 1 row
    with its jumps.  A solve is exact at each degree up to its order, so
    either way its whole row is the tail.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return _row(order + 1, order, {k: count_ktrees(k, order) for k in _solves(order + 1, order)})
