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
the Euler-transform recurrence, and each product is built once.

Everything is solved degree by degree: the leading factor x in ``Bbar``
means degree d of ``Bbar`` only needs ``C`` through degree d-1, so one
bottom-up pass per degree reaches a fixed point exactly.  Every
coefficient counts the trees fixed by one permutation, so the solve and the
aggregation run on Python ints: each division (by the degree in the
exponential recurrence, by the group order in the orbit averages) must be
exact, and a remainder raises ``IntegralityError`` at the coefficient that
produced it.  The results (the B, C, E aggregates, the per-type fixed counts
and every row of :func:`count_ktrees`) are plain lists of ints; the rational
:class:`Series` appears only in the ``c_table`` / ``bbar_table`` views.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from .partitions import (
    Partition,
    cycle_power,
    drop_one_fixed_point,
    partitions_of,
    permutation_count,
)
from .series import IntegralityError, Series


@dataclass
class SeriesCache:
    """Solved per-cycle-type integer tables for one (k, order) computation.

    ``c`` and ``bbar`` hold C_mu and Bbar_mu, keyed by exactly the
    partitions mu of k; ``b`` holds B_lam, keyed by exactly the partitions
    lam of k+1.  After :func:`solve_system` every table has order + 1
    coefficients, all correct.  ``c_table`` and ``bbar_table`` are the same
    C_mu and Bbar_mu as :class:`Series`, built on first read, for the readers
    on the rational route: ``threetree_U`` and ``fourtree_U``, the 2-tree
    pair check of ``verify``, and the benchmark's trace.
    """

    k: int
    order: int
    c: dict[Partition, list[int]]
    bbar: dict[Partition, list[int]]
    b: dict[Partition, list[int]]

    @cached_property
    def c_table(self) -> dict[Partition, Series]:
        return {mu: Series(self.order, coeffs) for mu, coeffs in self.c.items()}

    @cached_property
    def bbar_table(self) -> dict[Partition, Series]:
        return {mu: Series(self.order, coeffs) for mu, coeffs in self.bbar.items()}


@dataclass
class ResultBundle:
    """Integer coefficient vectors for one (k, order) run.

    ``U[n]`` is the number of unlabeled k-trees with n hedra (n+k vertices);
    B, C, E are the rooted aggregates with U = B + C - E coefficientwise.
    """

    k: int
    order: int
    U: list[int]
    B: list[int]
    C: list[int]
    E: list[int]


def _divisor_table(n: int) -> list[list[int]]:
    divs: list[list[int]] = [[] for _ in range(n + 1)]
    for m in range(1, n + 1):
        for j in range(m, n + 1, m):
            divs[j].append(m)
    return divs


def _powers(mu: Partition, order: int) -> list[Partition]:
    """Cycle types of pi^0 (unused), pi^1, ..., pi^order for pi of type ``mu``.

    pi^m depends on m only through gcd(m, lcm(mu)), so each divisor of
    lcm(mu) up to ``order`` costs one :func:`cycle_power`.
    """
    period = lcm(*mu)
    by_gcd = {
        g: cycle_power(mu, g) for g in range(1, min(period, order) + 1) if period % g == 0
    }
    return [mu] + [by_gcd[gcd(m, period)] for m in range(1, order + 1)]


def _not_integer(where: str, num: int, den: int) -> IntegralityError:
    g = gcd(num, den)
    return IntegralityError(f"{where}: {num // g}/{den // g} is not an integer")


def _exp_step(g: list[int], series: list[int], shift: int, where: str) -> None:
    """Append the next coefficient of ``series`` = x^shift * G, G = exp(L).

    ``g`` is the log-derivative x L'(x) of the exponent, read through the
    degree n = len(series) - shift of G being produced; G[0] = 1 must already
    be in ``series``.  The Euler-transform recurrence
    n * G[n] = sum_{j=1..n} g[j] * G[n-j] must divide exactly: a remainder
    raises IntegralityError at ``where`` and the degree len(series).
    """
    d = len(series)
    total = sum(map(operator.mul, g[1:], reversed(series)))
    quotient, remainder = divmod(total, d - shift)
    if remainder:
        raise _not_integer(f"{where}, degree {d}", total, d - shift)
    series.append(quotient)


def solve_system(k: int, order: int) -> SeriesCache:
    """Solve the C_mu / Bbar_mu system for all mu |- k through ``order``.

    Online solve on Python ints, one new coefficient of every series per
    degree, starting from C_mu = 1 (the bare colored root) and
    Bbar_mu = B_lam = x (the bare black root).  Every series is one
    exponential grown by :func:`_exp_step`, each from a log-derivative the
    solve already knows:

    * C_mu = exp(sum_m Bbar_{mu^m}(x^m) / m) has the log-derivative
      a_mu[j] = sum_{m | j} (j/m) * Bbar_{mu^m}[j/m], so C_mu[d] needs
      Bbar only through degree d.
    * Bbar_mu / x and B_lam / x are products of factors C_nu(x^i), one per
      part i, with nu = mu^i for Bbar_mu and nu = lam^i minus one fixed
      point for B_lam.  Their log-derivative at degree n is the sum over
      distinct parts i | n of (multiplicity of i) * i * a_nu[n/i], so
      degree d+1 of Bbar and B needs C only through d.  A product of one
      part is C_nu(x^i) itself and is read off C.

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

    mus = partitions_of(k)
    lams = partitions_of(k + 1)
    divs = _divisor_table(order)

    c: dict[Partition, list[int]] = {mu: [1] for mu in mus}
    bbar: dict[Partition, list[int]] = {mu: [0, 1][: order + 1] for mu in mus}
    b: dict[Partition, list[int]] = {lam: [0, 1][: order + 1] for lam in lams}
    # log_deriv[mu][j] = a[j] = j * [x^j] log C_mu; entry 0 is unused.
    log_deriv: dict[Partition, list[int]] = {mu: [0] for mu in mus}
    # One (log-derivative, series, powers, label) per mu, where powers[m] is
    # the cycle type of pi^m for pi of type mu, m <= order.
    steps = [(log_deriv[mu], c[mu], _powers(mu, order), f"k={k}, mu={mu}") for mu in mus]

    # Bbar_mu / x and B_lam / x are products with one factor C_nu(x^i) per
    # part i, where nu = nus[lam][i] is lam^i minus one fixed point.  For
    # Bbar_mu that is nus[mu + (1,)][i] = mu^i, over the parts of mu only.
    nus = {
        lam: {i: drop_one_fixed_point(cycle_power(lam, i)) for i in set(lam)}
        for lam in lams
    }
    products = [(bbar[mu], mu, nus[mu + (1,)], f"k={k}, Bbar, mu={mu}") for mu in mus]
    products += [(b[lam], lam, nus[lam], f"k={k}, B, lam={lam}") for lam in lams]
    # One-part products as (series, C_nu, i); the others as (log-derivative,
    # series, (multiplicity * i, i, a_nu) per distinct part i, label).
    one_part, product_steps = [], []
    for series, parts, nu, where in products:
        if len(parts) == 1:
            one_part.append((series, c[nu[parts[0]]], parts[0]))
        else:
            terms = [(parts.count(i) * i, i, log_deriv[nu[i]]) for i in set(parts)]
            product_steps.append(([0], series, terms, where))

    for d in range(1, order + 1):
        for a, c_mu, powers, where in steps:
            # The exponential's argument sum_m Bbar_{mu^m}(x^m)/m reaches x^d
            # only through divisors m of d, since Bbar has no constant term.
            a.append(sum((d // m) * bbar[powers[m]][d // m] for m in divs[d]))
            _exp_step(a, c_mu, 0, where)
        if d < order:
            # Degree d+1 of Bbar and B is degree d of a product of C factors.
            for series, c_nu, i in one_part:
                series.append(0 if d % i else c_nu[d // i])
            for g, series, terms, where in product_steps:
                g.append(sum(w * a_nu[d // i] for w, i, a_nu in terms if d % i == 0))
                _exp_step(g, series, 1, where)

    return SeriesCache(k=k, order=order, c=c, bbar=bbar, b=b)


def _orbit_average(
    cache: SeriesCache, name: str, fixed: dict[Partition, list[int]]
) -> list[int]:
    """Burnside average of the per-type series ``fixed``, keyed by exactly
    the cycle types of one symmetric group.

    Kept in integers: each type is weighted by its number of permutations
    size!/z_lam, the weights add up to the group order size!, and the one
    division by it per coefficient must be exact.
    """
    total = [0] * (cache.order + 1)
    group = 0
    for lam, coeffs in fixed.items():
        weight = permutation_count(lam)
        group += weight
        for n, coeff in enumerate(coeffs):
            total[n] += weight * coeff
    out = []
    for n, num in enumerate(total):
        quotient, remainder = divmod(num, group)
        if remainder:
            raise _not_integer(f"k={cache.k}, {name}, degree {n}", num, group)
        out.append(quotient)
    return out


def compute_B(cache: SeriesCache) -> list[int]:
    """Color-orbits of black-rooted trees: average of B_lam weighted by 1/z_lam."""
    return _orbit_average(cache, "B", cache.b)


def compute_C(cache: SeriesCache) -> list[int]:
    """Color-orbits of colored-rooted trees: average of C_mu weighted by 1/z_mu."""
    return _orbit_average(cache, "C", cache.c)


def compute_E(cache: SeriesCache) -> list[int]:
    """Color-orbits of edge-rooted trees: average of Bbar_mu*C_mu by 1/z_mu.

    Cutting the root edge of an edge-rooted tree leaves a colored-rooted
    tree and a reduced black-rooted tree, independently fixed.  Their
    product Bbar_mu * C_mu is B_{mu+(1,)}, read off the solve's table for
    mu + (1,).
    """
    return _orbit_average(cache, "E", {mu: cache.b[mu + (1,)] for mu in cache.c})


def count_ktrees(k: int, order: int) -> ResultBundle:
    """Count unlabeled k-trees with 0..order hedra.

    Solves the rooted system, aggregates B, C, E, and applies the
    dissymmetry identity U = B + C - E.  Every division on the way must be
    exact; a failure raises IntegralityError and means an engine bug.
    """
    cache = solve_system(k, order)
    b, c, e = compute_B(cache), compute_C(cache), compute_E(cache)
    u = [bn + cn - en for bn, cn, en in zip(b, c, e)]
    for n, count in enumerate(u):
        if count < 0:
            raise ArithmeticError(f"negative k-tree count U[{n}] = {count} for k={k}")
    return ResultBundle(k=k, order=order, U=u, B=b, C=c, E=e)


def count_fixed_by_type(cache: SeriesCache, lam: Partition) -> list[int]:
    """Unlabeled coding trees fixed by a color permutation of type ``lam``.

    Dissymmetry applied inside one symmetry class: a tree fixed by pi is
    counted once by (black-rooted + colored-rooted - edge-rooted) rootings
    that pi preserves.  The root color of a colored or edge rooting must be
    one of the f fixed colors of pi, hence the factor f.  The black term is
    B_lam from ``cache.b``; with a fixed color, lam = mu + (1,) and the edge
    term Bbar_mu * C_mu is that same B_lam.
    """
    lam = tuple(sorted(lam, reverse=True))
    if lam not in cache.b:
        raise ValueError(f"expected a partition of {cache.k + 1}, got {lam}")
    b_lam = cache.b[lam]
    mu = drop_one_fixed_point(lam)
    if mu is None:
        return list(b_lam)
    fixed_colors = lam.count(1)
    return [b + fixed_colors * (cm - b) for b, cm in zip(b_lam, cache.c[mu])]


# Private: the benchmark's tracer (perfbench/spans.py) reads the result of
# every public engine function as a row of counts.
def _stable_k(order: int) -> int:
    """The least k whose counts of 0..order hedra all lie in the stable range.

    U_k[n] is constant for k >= n-1 (see :func:`stable_counts`), and k >= 1;
    the CLI serves every larger k from this one.

    >>> [_stable_k(n) for n in range(5)]
    [1, 1, 1, 2, 3]
    """
    return max(order - 1, 1)


def stable_counts(order: int) -> list[int]:
    """The k-independent tail values: entry n is the n-hedra count at k = max(n-1, 1).

    Stripping the colored leaves off a coding tree with n black vertices
    leaves at most n-1 colored vertices, so once k >= n-1 additional colors
    can never appear and the count freezes.  One solve at k = max(order-1, 1)
    is therefore in the stable range of every n <= order, and since a solve
    is exact at each degree up to its order, its whole U row is the tail.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return count_ktrees(_stable_k(order), order).U
