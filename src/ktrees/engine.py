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
what weight) is settled once per solve, and each degree grows every C_mu
and every product of two parts or more in one batch of such steps, each
pass over the batch a C-level ``map``, with every remainder checked before
any series grows; a product of one part is read off C.
A degree d's new log-derivative terms are columns indexed by type: C's sums,
over divisors m of d, the column of q * Bbar[q] at q = d/m read at the
index of every mu^m by one itemgetter, and the products' sums, over their
parts i | d, C's column kept from degree d/i read at every factor's nu and
scaled by its weight.  Those part columns hold every product of two parts
or more but the B_{mu+(1,)} whose mu has two parts or more: that B is
Bbar_mu * C_mu, so its term is Bbar_mu's plus a_mu[d], one addition, and
it sits last in the batch.  B_(k, 1) stays in the part columns, since
Bbar_(k), of one part, has no term in the batch.  That bookkeeping names
each cycle type once, by its index in the enumeration of the partitions
of k (or of k+1): the power map mu -> mu^m is a row of indices, one
:func:`cycle_power` per type and prime p whose p-th power moves it, with
every other row composed from those, and there is a row for every part of
every mu whatever the order.  A lam = mu + (1,) looks mu up by its key, as
E looks up each mu + (1,).  The per-type tables become dicts keyed by the
partitions only when the solve returns.

A batch comes in two orientations.  While its series are short and it is
wide, it keeps each degree's log-derivative terms and new coefficients as
columns over the batch and takes all of a degree's dot products down them
in one ``zip``, which spares each series the set-up of a dot product of
its own.  At the first degree where that stops paying, d > 16 or
2 * d >= the batch's width by the measured crossover, it is transposed
once into one list per series, and each series takes its own dot product
from there on.

Everything is solved degree by degree: the leading factor x in ``Bbar``
means degree d of ``Bbar`` only needs ``C`` through degree d-1, so one
bottom-up pass per degree reaches a fixed point exactly.  Every
coefficient counts the trees fixed by one permutation, so the solve and the
aggregation run on Python ints: each division (by the degree in the
exponential recurrence, by the group order in the orbit averages) must be
exact, and :meth:`IntegralityError.quotient` raises the error for a
remainder at the coefficient that produced it.  The results (the B, C, E
aggregates, the per-type fixed counts and every row of
:func:`count_ktrees`) are plain lists of ints, as are the closed forms'
rows in :mod:`closedforms`.  The rational :class:`Series`,
a value type with no arithmetic, appears only in the ``c_table`` /
``bbar_table`` views; the rational algebra on it is the tests' reference.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, islice, pairwise, repeat
from math import lcm
from operator import add, floordiv, itemgetter, mod, mul
from types import SimpleNamespace
from typing import Iterable

from ._jumps import _rows, _solves
from .partitions import Partition, cycle_power, partition_numbers, partitions_of, permutation_count
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
    type of period prime to p is its own p-th power, and a prime above every
    period has the identity row itself.  Every other row is composed, row m
    being row p applied to row m/p, with p the least prime factor of m, and
    is row m/p itself when row p is the identity.
    """
    periods = [lcm(*mu) for mu in types]
    longest = max(periods)
    identity = list(range(len(types)))
    # least[m] is the least factor d >= 2 of m, the last d to mark it.
    least = [0] * (order + 1)
    for d in range(order, 1, -1):
        least[d::d] = [d] * (order // d)
    rows = [identity, identity]
    for m in range(2, order + 1):
        p = least[m]
        if p < m:
            row = rows[p]
            rows.append(rows[m // p] if row is identity else list(map(row.__getitem__, rows[m // p])))
        elif p > longest:
            rows.append(identity)
        else:
            rows.append(
                [
                    index[cycle_power(mu, p)] if period % p == 0 else s
                    for s, (mu, period) in enumerate(zip(types, periods))
                ]
            )
    return rows


def _first_row_degree(width: int) -> int:
    """The first degree at which a batch of ``width`` series takes its dot
    products by rows; below it, the batch takes them by columns.

    Columns are taken while d <= 16 and 2 * d < width, from the measured
    crossover of the two orientations.  A column pass spares each series
    the set-up of its own dot product but costs each degree one ``map`` per
    term, so a narrow batch crosses over early: with its one transposition
    counted, columns stop paying at about d = 4, 6-8, 8-14 and 12-20 in
    batches of 5, 9, 15 and 23 series, and never pay for the 2 series of
    k = 1; 2 * d < width keeps to the low end.  One degree's pass by
    columns costs 0.39-0.45 of the rows' at d = 1 from 72 series up and
    0.84-0.92 at d = 16, and rows win from d = 18-24; in whole solves,
    moving the switch from 17 to 14 or 20 is within the noise, while
    columns throughout cost 13% more at (25, 26) and 19% at (27, 32).
    """
    return min(17, -(-width // 2))


def _euler_steps(
    gs: list[list[int]],
    series: list[list[int]],
    column: Iterable[int],
    n: int,
    names: list[tuple[str, Partition, int]],
    columns: bool = False,
) -> list[int] | None:
    """Grow every series of one batch by the x^n coefficient of G = exp(L).

    Series b holds G through degree n - 1, grown from the log-derivative
    g = x L'(x) of its exponent from the x^1 term on, which first takes its
    x^n term from ``column[b]``.  The batch comes in one of two
    orientations.  By rows, ``gs[b]`` is series b's g (g[t] at index
    t - 1) and ``series[b]`` its table x^shift * G; entries of ``column``
    past the batch are left unread.  By ``columns``, ``gs[t - 1]`` holds
    g[t] and ``series[t]`` holds G[t] of every series, ``column`` is a list
    as long as the batch, and the grown column is appended to ``series``
    and returned; a G column may run past the batch, and its excess is left
    unread.  Each pass over the batch is one C-level ``map``: by rows one
    dot product per series, each with its own ``map``, ``reversed`` and
    ``sum``, by columns all of them down the columns in one ``zip``.  The Euler-transform
    recurrence n * G[n] = sum_{t=1..n} g[t] * G[n-t] must divide exactly
    for every series before any of them grows: a remainder raises
    IntegralityError at the first series of the batch that has one, named
    by ``names[b]`` = (where, type, shift) and the degree n + shift of the
    coefficient being produced, by :meth:`IntegralityError.quotient`;
    locations are formatted only once a remainder is found.
    """
    if columns:
        gs.append(column)
        totals = list(map(sum, zip(*map(map, repeat(mul), gs, reversed(series)))))
    else:
        any(map(list.append, gs, column))
        totals = list(map(sum, map(map, repeat(mul), gs, map(reversed, series))))
    if any(map(mod, totals, repeat(n))):
        for total, (where, key, shift) in zip(totals, names):
            IntegralityError.quotient(total, n, f"{where}{key}, degree {n + shift}")
    if columns:
        series.append(list(map(floordiv, totals, repeat(n))))
        return series[-1]
    any(map(list.append, series, map(floordiv, totals, repeat(n))))
    return None


# Largest work estimate, summed over the distinct solves of a query, that
# the engine accepts: solve_system checks its one solve, and _u_rows the
# solves of all its rows, before any of them runs.  A solve at (k, N) grows
# its p(k+1) + 2 * p(k) series (every B_lam, Bbar_mu and C_mu) by one
# exponential step per degree, about (p(k+1) + 2 * p(k)) * N^2 integer
# multiply-adds.  Its coefficients stay under N * (k.bit_length() + 1) bits,
# and a multiply-add costs more as they grow, so the estimate weighs each by
# f = 1 + bits / 4096.  On a 2-core host with Python 3.11, solves on the
# budget's edge took 3-9 s (medians of three fresh processes, one session):
# (1, 1958) 6.1 s, (2, 1443) 7.5 s, (3, 1203) 8.5 s, (5, 816) 4.7 s and
# (12, 294) 3.2 s.  (30, 31) costs 1.8 * 10^7 and took 1.7 s (median of
# nine, measured separately).  So the model is flat across k only within a
# factor of about 2.5: timed in-process one after another on the same host,
# the same solves took 6.9, 10.8, 9.3, 7.3 and 4.3 s, and (30, 31) 4.0 s.
WORK_BUDGET = 3 * 10**7


class _QueryTooLarge(ValueError):
    """A query whose work estimate exceeds WORK_BUDGET (the CLI's exit code 2)."""


def _check_budget(ks: list[int], order: int) -> None:
    """Refuse, before any solve, the distinct solves of ``ks`` at ``order``
    if their summed (p(k+1) + 2 * p(k)) * order^2 * f exceeds WORK_BUDGET.

    One scan over k = 0, 1, ... adds each solve's estimate as it passes it
    and stops at max(ks).  The estimate only grows with k, so the scan
    refuses as soon as the running sum or the current k's estimate is over:
    every later solve costs at least as much.  A query with a large k is
    refused long before the scan reaches it, and p(k) comes from
    :func:`partition_numbers`, so a refusal enumerates no partition.
    """
    top, work = max(ks), 0.0
    for m, (p, p_next) in enumerate(pairwise(partition_numbers())):
        unit = (p_next + 2 * p) * order * order * (1 + order * (m.bit_length() + 1) / 4096)
        work += unit if m in ks else 0
        if max(work, unit) > WORK_BUDGET:
            raise _QueryTooLarge(
                "query refused: its work estimate (p(k+1)+2p(k))*N^2*f"
                f" (N = {order}, k up to {top}) exceeds the budget of {WORK_BUDGET}"
            )
        if m == top:
            return


def solve_system(k: int, order: int) -> SeriesCache:
    """Solve the C_mu / Bbar_mu system for all mu |- k through ``order``.

    Online solve on Python ints, one new coefficient of every series per
    degree, starting from C_mu = 1 (the bare colored root) and
    Bbar_mu = B_lam = x (the bare black root).  Every series is one
    exponential, each from a log-derivative the solve keeps from its x^1
    term on (entry j - 1 is the x^j term), and each degree grows all C_mu,
    then all products, in one batch of :func:`_euler_steps`:

    * C_mu = exp(sum_m Bbar_{mu^m}(x^m) / m) has the log-derivative
      a_mu[j] = sum_{m | j} (j/m) * Bbar_{mu^m}[j/m], so C_mu[d] needs
      Bbar only through degree d.  Each degree q keeps one column of
      q * Bbar_mu[q] by type until its last read, and a divisor m of d
      reads the column q = d/m at the indices of mu^m of every mu with one
      itemgetter.
    * Bbar_mu / x and B_lam / x are products of factors C_nu(x^i), one per
      part i, with nu = mu^i for Bbar_mu and nu = lam^i minus one fixed
      point for B_lam, which is mu^i again when lam = mu + (1,) and is read
      off mu's powers.  Their log-derivative at degree n is the sum over
      distinct parts i | n of (multiplicity of i) * i * a_nu[n/i], so
      degree d+1 of Bbar and B needs C only through d.  The a_nu[q] of
      every nu are the C batch's column at degree q, which the solve keeps
      while a part still reads it: part i reads it at the indices of every
      product's nu with one itemgetter and scales it by the products'
      weights.  A product without part i reads a zero at the columns'
      sentinel index p(k).  A product of one part is C_nu(x^i) itself and
      is read off C.
    * B_{mu+(1,)} = Bbar_mu * C_mu, so for every mu of two parts or more
      its log-derivative term at degree n is Bbar_mu's plus a_mu[n], and it
      has no weight, source or getter entry in the part columns, which
      hold the Bbar_mu of two parts or more first, then the B_lam without
      a fixed point and B_(k, 1).  Only the Bbar_mu terms are built as a
      list; k = 1 has no such B.

    Both read a type by its index s in ``partitions_of(k)``.  The powers
    mu^m come from :func:`_power_rows`: a row of indices for each
    m <= max(k, order), a prime p costing one :func:`cycle_power` per type
    whose period lcm(mu) p divides, and every other row m composed as row p
    of row m/p.  So every part of every mu has a row; a part i >= order
    divides no degree the products reach, so it adds nothing.  A B_lam with
    a fixed point reads the rows of mu = lam minus that point, found by its
    key; a B_lam without one costs one :func:`cycle_power` per distinct
    part.

    The batch grows every C_mu, then the products of the part columns,
    then the B_{mu+(1,)} read off Bbar_mu in the order of mu, and a
    remainder names the first of them that has one; Bbar_(k) and B_(k+1)
    are read off C after it.  The batch, of width p(k+1) + 2 * p(k) - 2
    with the B_{mu+(1,)} counted in, takes its dot products by
    columns below degree :func:`_first_row_degree` of its width and by rows
    from there on (never by columns at k = 1).  By columns no per-type
    table grows: each degree appends one column of log-derivative terms and
    one of new coefficients, which the batch returns and the solve extends
    by the products of one part, reading their C_nu[d/i] off C's column
    kept from degree d/i; the next column of q * Bbar_mu[q] is read off it.
    At the switch, or after the last degree if the batch never switches,
    the tables are filled from the columns one zip row at a time and the
    columns are dropped.  By rows each series grows its own table, and the
    solve reads C_nu[d/i] and Bbar_mu[d+1] off the tables.

    Every division must be exact, and a remainder raises IntegralityError
    naming k, the type (mu for C_mu and Bbar_mu, lam for B_lam) and the
    degree.  Nothing below degree d is touched again, so the result is
    independent of the requested order (monotone truncation).  The work is
    O((p(k+1) + 2 * p(k)) * order^2) integer multiply-adds, and a solve
    whose estimate of it exceeds WORK_BUDGET is refused with a ValueError
    (:func:`_check_budget`) before any partition is enumerated.  The returned
    cache holds the C_mu and Bbar_mu tables (keyed by mu |- k) and the
    B_lam tables (keyed by lam |- k+1).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    _check_budget([k], order)

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
    # Every column is indexed by type and ends in a zero at the sentinel
    # index p(k), which each itemgetter also reads last, so that a getter of
    # one type still returns a tuple.
    sentinel = len(mus)
    # bbar_getters[m] reads Bbar_{mu^m} of every mu off a Bbar column.
    bbar_getters = [itemgetter(*row, sentinel) for row in rows[: order + 1]]
    # a_columns[q][s] = a_mu[q]; weighted_bbar[q][s] = q * Bbar_mu[q].
    a_columns: list[list[int] | None] = [None] * order
    weighted_bbar = [[], [1] * sentinel + [0]]
    zero_column = [0] * (sentinel + 1)

    # Products as (where, series, parts, s).  For Bbar_mu, and for B_lam with
    # lam = mu + (1,), the factor of part i is C_nu(x^i) with nu = mu^i, the
    # type mus[rows[i][s]].  A lam with no fixed point (s is None) takes
    # nu = lam^i minus one fixed point.
    where_c, where_bbar, where_b = f"k={k}, mu=", f"k={k}, Bbar, mu=", f"k={k}, B, lam="
    products = list(zip(repeat(where_bbar), bbar, mus, range(sentinel)))
    products += [
        (where_b, table, lam, index[lam[:-1]] if lam[-1] == 1 else None)
        for lam, table in zip(lams, b)
    ]
    # One batch grows every C_mu, then every product of two parts or more,
    # with the B_{mu+(1,)} linked to Bbar_mu last: those of every mu but
    # mus[0] = (k), the B with s >= 1, in mus order.  A grown column then
    # holds the products of one part, read off C.
    products.sort(key=lambda p: (len(p[2]) == 1, p[0] == where_b and bool(p[3])))
    # Part i's column holds the weight (multiplicity * i) of each product
    # before the linked ones and the index of the a_nu it scales, the
    # sentinel where i is no part of it.  Every part i <= k is in some
    # Bbar_(i, 1, ...) or in B_(k, 1).
    series, names, one_part = c[:], list(zip(repeat(where_c), mus, repeat(0))), []
    linked = sentinel - 1
    width = len(products) - 2 - linked  # all but the linked, Bbar_(k) and B_(k+1)
    weights = [[0] * width for _ in range(k)]
    sources = [[sentinel] * width for _ in range(k)]
    bbar_slots = [0] * sentinel  # where Bbar_mu lands in a column the batch grew
    for slot, (where, table, parts, s) in enumerate(products, sentinel):
        if where == where_bbar:
            bbar_slots[s] = slot
        if len(parts) > 1:
            series.append(table)
            names.append((where, parts, 1))
        if width <= slot - sentinel < width + linked:
            continue  # linked: Bbar_mu's log-derivative terms plus a_mu's
        for i in set(parts):
            nu = rows[i][s] if s is not None else index[cycle_power(parts, i)[:-1]]
            if len(parts) == 1:
                # C_nu(x^i) itself, read off C.
                one_part.append((table, c[nu], nu, i))
            else:
                weights[i - 1][slot - sentinel] = parts.count(i) * i
                sources[i - 1][slot - sentinel] = nu
    tables = series + [table for table, *_ in one_part]
    # Part 1 divides every degree, so each degree's column starts from it.
    (_, first_weights, first_getter), *part_columns = [
        (i, weights[i - 1], itemgetter(*sources[i - 1], sentinel)) for i in range(1, k + 1)
    ]
    del sources  # the getters hold the indices
    # By columns, g_columns[n - 1] holds the x^n term of every series'
    # log-derivative and series_columns[n] the x^n term of every G, in the
    # order of tables; by rows, log_deriv[j][n - 1] is series j's x^n term,
    # so log_deriv[s][q - 1] = a_mu[q] = q * [x^q] log C_mu.
    g_columns, series_columns = [], [[1] * len(tables)]
    switch = _first_row_degree(len(series))

    for d in range(1, order + 1):
        # The exponential's argument sum_m Bbar_{mu^m}(x^m)/m reaches x^d
        # only through divisors m of d, since Bbar has no constant term.
        a_d = zero_column
        for m in divs[d]:
            q = d // m
            a_d = map(add, a_d, bbar_getters[m](weighted_bbar[q]))
            if d + q > order:
                weighted_bbar[q] = None  # read for the last time
        a_d = list(a_d)
        if d == switch:
            # Rows are cheaper from here on: transpose once, one row at a time.
            log_deriv: list[list[int]] = [[] for _ in series]
            any(map(list.extend, log_deriv, zip(*g_columns)))
            any(map(list.extend, tables, zip(*series_columns[1:])))
            g_columns = series_columns = None
        if d == order:
            if d < switch:
                _euler_steps(g_columns, series_columns, a_d[:sentinel], d, names, columns=True)
                any(map(list.extend, tables, zip(*series_columns[1:-1])))
                any(map(list.append, c, series_columns[-1]))
            else:
                _euler_steps(log_deriv[:sentinel], c, a_d, d, names)
            break
        if 2 * d < order:
            a_columns[d] = a_d  # parts i >= 2 read it at degrees i * d < order
        # Degree d+1 of Bbar and B is degree d of a product of C factors.
        g_d = map(mul, first_weights, first_getter(a_d))
        for i, weights_i, getter in part_columns:
            if d % i == 0:
                q = d // i
                g_d = map(add, g_d, map(mul, weights_i, getter(a_columns[q])))
                if i == k or d + q >= order:
                    a_columns[q] = None  # read for the last time
        if linked:
            # The part columns start with Bbar_mu for every mu but (k), whose
            # terms the linked B_{mu+(1,)} read again.
            bbar_g = list(islice(g_d, linked))
            g_d = chain(bbar_g, g_d, map(add, bbar_g, islice(a_d, 1, sentinel)))
        g_d = chain(islice(a_d, sentinel), g_d)
        if d < switch:
            grown = _euler_steps(g_columns, series_columns, list(g_d), d, names, columns=True)
            grown += [0 if d % i else series_columns[d // i][nu] for _, _, nu, i in one_part]
            bbar_d = map(grown.__getitem__, bbar_slots)
        else:
            _euler_steps(log_deriv, series, g_d, d, names)
            for table, c_nu, _, i in one_part:
                table.append(0 if d % i else c_nu[d // i])
            bbar_d = map(itemgetter(d + 1), bbar)
        weighted_bbar.append([*map(mul, bbar_d, repeat(d + 1)), 0])

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
    division by it per coefficient must be exact.  Every remainder is
    checked before any quotient is taken: a remainder raises
    IntegralityError at the lowest degree that has one, naming k, ``name``
    and that degree, by :meth:`IntegralityError.quotient`; locations are
    formatted only once a remainder is found.
    """
    group = sum(weights)
    nums = [sum(map(mul, weights, column)) for column in zip(*fixed)]
    if any(map(mod, nums, repeat(group))):
        for n, num in enumerate(nums):
            IntegralityError.quotient(num, group, f"k={cache.k}, {name}, degree {n}")
    return list(map(floordiv, nums, repeat(group)))


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
    exact; a failure raises IntegralityError and means an engine bug.  A
    solve over the work budget is refused with a ValueError before it
    enumerates anything (:func:`solve_system`).
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


def _u_rows(ks: list[int], order: int) -> list[list[int]]:
    """The U rows k in ``ks`` through ``order``, each from its one solve.

    :func:`ktrees._jumps._solves` names the distinct solves the rows read,
    their summed work estimate must pass :func:`_check_budget` before the
    first of them runs, each runs once, and :func:`ktrees._jumps._rows`
    builds every row from them.  A row at or above k = max(order - 5, 1)
    reads the solve at that k, so no row solves above it, and a large k
    enumerates nothing.
    """
    solves = _solves(ks, order)
    _check_budget(solves, order)
    return _rows(ks, order, {k: count_ktrees(k, order).U for k in solves})


def stable_counts(order: int) -> list[int]:
    """The k-independent tail values: entry n is the n-hedra count at k = max(n-2, 1).

    Column n of U is constant from k = n - 2 on, and below that U falls by
    three proven jumps, U_{n-2}[n] - U_{n-3}[n] = U_1[n - 1] (the trees on n
    nodes) and the second and third jumps U_{n-3}[n] - U_{n-4}[n] and
    U_{n-4}[n] - U_{n-5}[n], series in the rooted trees by nodes.  The
    proofs, by the universal vertex and the paper's coloring, are in
    :mod:`ktrees._jumps`.  So the row through ``order`` is the row
    k = order + 1 that :func:`ktrees._jumps._rows` builds from one solve, at
    base = max(order - 5, 1): U_base plus the jumps between, read off the
    rooted trees.  From order 6 on, U_base lies in the stable range of every
    n <= order - 3, and the stable row adds the last jump at n = order - 2,
    the last two at n = order - 1 and all three at n = order.  A solve is
    exact at each degree up to its order, so either way its whole row is
    the tail.  An order whose base solve is over the work budget (from
    order 36 on) is refused with a ValueError before anything is
    enumerated (:func:`_check_budget`).
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return _u_rows([order + 1], order)[0]
