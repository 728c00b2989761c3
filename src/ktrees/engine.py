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
black-rooted, colored-rooted, and edge-rooted fixed-tree series.

Everything is solved degree by degree: the leading factor x in ``Bbar``
means degree d of ``Bbar`` only needs ``C`` through degree d-1, so one
bottom-up pass per degree reaches a fixed point exactly.  All series values
are exact rationals internally and provably integers at the boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .partitions import (
    Partition,
    cycle_power,
    drop_one_fixed_point,
    partitions_of,
    z_of,
)
from .series import (
    Series,
    add,
    exp_series,
    integer_coeffs,
    mul,
    one,
    resized,
    scale,
    substitute_power,
    times_x,
    zero,
)

_F0 = Fraction(0)


@dataclass
class SeriesCache:
    """Solved per-cycle-type series for one (k, order) computation.

    Both tables are keyed by exactly the partitions of k; after
    :func:`solve_system` every stored series is correct through ``order``.
    """

    k: int
    order: int
    c_table: dict[Partition, Series]
    bbar_table: dict[Partition, Series]


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


def _product_of_substituted(
    c_table: dict[Partition, Series],
    powers: list[Partition] | dict[int, Partition],
    parts: Partition,
    order: int,
    memo: dict[tuple[Partition, int], Series],
) -> Series:
    """prod over parts i (with multiplicity) of C_{powers[i]}(x^i) at ``order``.

    The same substituted series shows up in many products, so substitution
    results are memoized per (partition key, power) within one pass.
    """
    prod = one(order)
    for i in parts:
        key = powers[i]
        sub = memo.get((key, i))
        if sub is None:
            sub = substitute_power(resized(c_table[key], order), i)
            memo[(key, i)] = sub
        prod = mul(sub, prod)
    return prod


def solve_system(k: int, order: int) -> SeriesCache:
    """Solve the C_mu / Bbar_mu system for all mu |- k through ``order``.

    Degree-by-degree fixed point: start from C_mu = 1 (the bare colored
    root) and Bbar_mu = 0, then for each degree d first rebuild every
    Bbar_mu through d (its leading x factor needs C only through d-1) and
    then every C_mu through d.  Pass d works on series truncated at d, so
    coefficients below d are never recomputed incorrectly and the result is
    independent of the requested order (monotone truncation).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")

    mus = partitions_of(k)
    # mu_powers[mu][m] = cycle type of pi^m for pi of type mu; index 0 unused.
    # Indexed both by exponential-sum degrees (m <= order) and by parts of mu
    # (i <= k), so cover the larger range.
    max_power = max(order, k)
    mu_powers: dict[Partition, list[Partition]] = {
        mu: [mu] + [cycle_power(mu, m) for m in range(1, max_power + 1)] for mu in mus
    }
    divs = _divisor_table(order)

    c_table: dict[Partition, Series] = {mu: one(0) for mu in mus}
    bbar_table: dict[Partition, Series] = {mu: zero(0) for mu in mus}

    for d in range(1, order + 1):
        sub_memo: dict[tuple[Partition, int], Series] = {}
        bbar_new: dict[Partition, Series] = {}
        for mu in mus:
            prod = _product_of_substituted(c_table, mu_powers[mu], mu, d - 1, sub_memo)
            bbar_new[mu] = times_x(prod)
        bbar_table = bbar_new

        c_new: dict[Partition, Series] = {}
        for mu in mus:
            powers = mu_powers[mu]
            # Argument of the exponential: sum_m Bbar_{mu^m}(x^m)/m.  Since
            # Bbar has no constant term, the substituted series contributes
            # at degree j only when m divides j, so the m-sum collapses to a
            # divisor sum and truncating at m = d is exact.
            arg = [_F0] * (d + 1)
            for j in range(1, d + 1):
                acc = _F0
                for m in divs[j]:
                    coeff = bbar_table[powers[m]].coeffs[j // m]
                    if coeff:
                        acc += coeff / m
                arg[j] = acc
            c_new[mu] = exp_series(Series(d, arg))
        c_table = c_new

    return SeriesCache(k=k, order=order, c_table=c_table, bbar_table=bbar_table)


def compute_B_lambda(cache: SeriesCache, lam: Partition) -> Series:
    """Black-rooted coding trees fixed by a permutation of cycle type ``lam``.

    The black root has one neighbor of each color; each color cycle of
    length i contributes one factor C_{lam^i}(x^i) (choose the subtree on
    one color of the cycle, the i-th power must fix it), and the root
    itself contributes the leading x:

        B_lam = x * prod_i C_{lam^i}(x^i).

    ``lam`` must be a partition of k+1; lam^i always has a fixed point when
    i is a part of lam, so no factor here is the zero series.  When lam =
    mu + (1,) has a fixed color, the factor for that color is C_mu(x) and
    the remaining factors are those of Bbar_mu, so B_{mu+(1,)} = Bbar_mu *
    C_mu is read off the solved tables.
    """
    lam = tuple(sorted(lam, reverse=True))
    if sum(lam) != cache.k + 1:
        raise ValueError(f"expected a partition of {cache.k + 1}, got {lam}")
    mu = drop_one_fixed_point(lam)
    if mu is not None:
        return mul(cache.bbar_table[mu], cache.c_table[mu])
    if cache.order == 0:
        return zero(0)
    powers = {i: drop_one_fixed_point(cycle_power(lam, i)) for i in set(lam)}
    return times_x(_product_of_substituted(cache.c_table, powers, lam, cache.order - 1, {}))


def compute_B(cache: SeriesCache) -> Series:
    """Color-orbits of black-rooted trees: average of B_lam weighted by 1/z_lam."""
    total = zero(cache.order)
    for lam in partitions_of(cache.k + 1):
        total = add(total, scale(compute_B_lambda(cache, lam), Fraction(1, z_of(lam))))
    return total


def compute_C(cache: SeriesCache) -> Series:
    """Color-orbits of colored-rooted trees: average of C_mu weighted by 1/z_mu."""
    total = zero(cache.order)
    for mu in partitions_of(cache.k):
        total = add(total, scale(cache.c_table[mu], Fraction(1, z_of(mu))))
    return total


def compute_E(cache: SeriesCache) -> Series:
    """Color-orbits of edge-rooted trees: average of Bbar_mu*C_mu by 1/z_mu.

    Cutting the root edge of an edge-rooted tree leaves a colored-rooted
    tree and a reduced black-rooted tree, independently fixed.
    """
    total = zero(cache.order)
    for mu in partitions_of(cache.k):
        pair = mul(cache.bbar_table[mu], cache.c_table[mu])
        total = add(total, scale(pair, Fraction(1, z_of(mu))))
    return total


def count_ktrees(k: int, order: int) -> ResultBundle:
    """Count unlabeled k-trees with 0..order hedra.

    Solves the rooted system, aggregates B, C, E, and applies the
    dissymmetry identity U = B + C - E.  All four vectors must come out
    integral; a failure raises IntegralityError and means an engine bug.
    """
    cache = solve_system(k, order)
    b = compute_B(cache)
    c = compute_C(cache)
    e = compute_E(cache)
    u = add(add(b, c), scale(e, -1))
    bundle = ResultBundle(
        k=k,
        order=order,
        U=integer_coeffs(u),
        B=integer_coeffs(b),
        C=integer_coeffs(c),
        E=integer_coeffs(e),
    )
    for n, count in enumerate(bundle.U):
        if count < 0:
            raise ArithmeticError(f"negative k-tree count U[{n}] = {count} for k={k}")
    return bundle


def count_fixed_by_type(cache: SeriesCache, lam: Partition) -> list[int]:
    """Unlabeled coding trees fixed by a color permutation of type ``lam``.

    Dissymmetry applied inside one symmetry class: a tree fixed by pi is
    counted once by (black-rooted + colored-rooted - edge-rooted) rootings
    that pi preserves.  The root color of a colored or edge rooting must be
    one of the f fixed colors of pi, hence the factor f.  With a fixed color,
    lam = mu + (1,) and the edge term Bbar_mu * C_mu is B_lam itself.
    """
    lam = tuple(sorted(lam, reverse=True))
    b_lam = compute_B_lambda(cache, lam)
    mu = drop_one_fixed_point(lam)
    if mu is None:
        return integer_coeffs(b_lam)
    c_mu = cache.c_table[mu]
    return integer_coeffs(add(b_lam, scale(add(c_mu, scale(b_lam, -1)), lam.count(1))))


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
    return count_ktrees(max(order - 1, 1), order).U
