"""Engine tests: pinned small values, structural identities, invariants."""

import copy
import hashlib
import pickle
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial

import pytest

from ktrees import engine
from ktrees.cli import REFERENCE_COUNTS
from ktrees.closedforms import rooted_trees
from ktrees.engine import (
    compute_B,
    compute_C,
    compute_E,
    count_fixed_by_type,
    count_ktrees,
    solve_system,
    stable_counts,
)
from ktrees.partitions import (
    cycle_power,
    drop_one_fixed_point,
    partitions_of,
    permutation_count,
    z_of,
)
from ktrees.series import IntegralityError, Series
from rational_series import (
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


@lru_cache(maxsize=None)
def rooted_tree_shapes(edges):
    """Independent oracle: canonical shapes of rooted unlabeled trees.

    A shape is the sorted tuple of child shapes; a child with c edges of
    its own costs c+1 edges including its attaching edge.
    """
    if edges == 0:
        return ((),)
    items = []
    for sub in range(edges):
        for shape in rooted_tree_shapes(sub):
            items.append((sub + 1, shape))
    shapes = set()

    def pick(idx, remaining, chosen):
        if remaining == 0:
            shapes.add(tuple(sorted(chosen)))
            return
        if idx == len(items):
            return
        cost, shape = items[idx]
        pick(idx + 1, remaining, chosen)
        copies = 1
        while copies * cost <= remaining:
            pick(idx + 1, remaining - copies * cost, chosen + [shape] * copies)
            copies += 1

    pick(0, edges, [])
    return tuple(sorted(shapes))


# Frozen from the oracle above: rooted unlabeled trees with 0..3 edges.
ROOTED_TREE_COUNTS = [1, 1, 2, 4]


def test_rooted_tree_oracle_matches_frozen_counts():
    assert [len(rooted_tree_shapes(e)) for e in range(4)] == ROOTED_TREE_COUNTS


def test_solved_identity_series_counts_rooted_trees():
    cache = solve_system(1, 3)
    assert cache.c[(1,)] == ROOTED_TREE_COUNTS


def test_degree_zero_tables():
    for k in range(1, 5):
        cache = solve_system(k, 0)
        for mu in partitions_of(k):
            assert cache.c[mu] == [1]
            assert cache.bbar[mu] == [0]
        # Every B_lam table, fixed-point-free ones included: nothing at
        # order 0, and at order 1 the lone black vertex every permutation fixes.
        cache1 = solve_system(k, 1)
        for lam in partitions_of(k + 1):
            assert cache.b[lam] == [0], (k, lam)
            assert cache1.b[lam] == [0, 1], (k, lam)


def test_reduced_blackrooted_linear_term_is_one():
    # Degree 1 of Bbar is forced: a lone black root with bare colored leaves.
    cache = solve_system(2, 3)
    assert cache.bbar[(1, 1)][1] == 1


def test_black_rooted_single_edge_tree():
    cache = solve_system(1, 3)
    assert cache.b[(1, 1)][1] == 1


def test_black_rooted_under_color_swap():
    # For the 2-cycle type, B = x*R(x^2) with R the rooted-tree series:
    # coefficient 0 at x^2, and at x^3 it is R[1] = 1.
    cache = solve_system(1, 4)
    b2 = cache.b[(2,)]
    assert b2[2] == 0
    assert b2[3] == ROOTED_TREE_COUNTS[1] == 1


def test_black_rooted_three_cycle_structure():
    # For k=2 and the 3-cycle type, the product collapses to x*C_{1,1}(x^3).
    cache = solve_system(2, 9)
    c11 = Series(cache.order, cache.c[(1, 1)])
    expected = resized(times_x(substitute_power(resized(c11, 8), 3)), 9)
    assert Series(cache.order, cache.b[(3,)]) == expected


def test_power_rows_name_the_type_of_every_power():
    # Row m, composed from the prime rows, against cycle_power at m itself.
    order = 40
    for k in range(1, 13):
        mus = partitions_of(k)
        rows = engine._power_rows(mus, {mu: s for s, mu in enumerate(mus)}, order)
        for s, mu in enumerate(mus):
            got = [mus[rows[m][s]] for m in range(1, order + 1)]
            assert got == [cycle_power(mu, m) for m in range(1, order + 1)], (k, mu)


def test_B_lambda_matches_substituted_product():
    # B_lam = x * prod_{i in lam} C_{lam^i minus one fixed point}(x^i) and
    # Bbar_mu = x * prod_{i in mu} C_{mu^i}(x^i), built here factor by
    # factor, for fixed-point and fixed-point-free types alike.  At order 5
    # and k >= 6 some parts reach the order, down to one-part products
    # whose factor contributes nothing but its constant term.
    def product(c, order, nus):
        factors = [substitute_power(resized(Series(order, c[nu]), order - 1), i) for nu, i in nus]
        return times_x(reduce(mul, factors))

    for k, order in [*((k, 10) for k in range(1, 6)), *((k, 5) for k in range(6, 9))]:
        cache = solve_system(k, order)
        for lam in partitions_of(k + 1):
            nus = [(drop_one_fixed_point(cycle_power(lam, i)), i) for i in lam]
            assert Series(order, cache.b[lam]) == product(cache.c, order, nus), (k, lam)
        for mu in partitions_of(k):
            nus = [(cycle_power(mu, i), i) for i in mu]
            assert Series(order, cache.bbar[mu]) == product(cache.c, order, nus), (k, mu)


def test_black_aggregate_identity_k1():
    # B = (x/2)(R(x)^2 + R(x^2)) as an identity of computed series.
    cache = solve_system(1, 12)
    r = Series(12, cache.c[(1,)])
    expected = scale(
        resized(times_x(add(mul(r, r), substitute_power(r, 2))), 12),
        Fraction(1, 2),
    )
    assert compute_B(cache) == integer_coeffs(expected)


def test_aggregate_corner_coefficients():
    for k in range(1, 6):
        cache = solve_system(k, 2)
        assert compute_B(cache)[0] == 0  # a black rooting needs a black vertex
        assert compute_C(cache)[0] == 1  # the bare colored root
        assert compute_E(cache)[0] == 0  # an edge rooting needs a black vertex


def test_black_aggregate_linear_term_k2():
    # One 2-tree with one hedron (a single triangle), one hedron rooting.
    cache = solve_system(2, 3)
    assert compute_B(cache)[1] == 1


def test_colored_aggregate_identities():
    cache1 = solve_system(1, 10)
    assert compute_C(cache1) == cache1.c[(1,)]
    cache2 = solve_system(2, 10)
    c11, c2 = Series(10, cache2.c[(1, 1)]), Series(10, cache2.c[(2,)])
    expected = scale(add(c11, c2), Fraction(1, 2))
    assert compute_C(cache2) == integer_coeffs(expected)


def test_edge_aggregate_identities():
    cache1 = solve_system(1, 10)
    r = Series(10, cache1.c[(1,)])
    assert compute_E(cache1) == integer_coeffs(resized(times_x(mul(r, r)), 10))

    cache2 = solve_system(2, 10)
    c11, c2 = Series(10, cache2.c[(1, 1)]), Series(10, cache2.c[(2,)])
    cubed = mul(mul(c11, c11), c11)
    pair = mul(substitute_power(c11, 2), c2)
    expected = scale(resized(times_x(add(cubed, pair)), 10), Fraction(1, 2))
    assert compute_E(cache2) == integer_coeffs(expected)


def test_count_ktrees_reference_rows():
    assert count_ktrees(1, 9).U == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    assert count_ktrees(2, 9).U == [1, 1, 1, 2, 5, 12, 39, 136, 529, 2171]
    assert count_ktrees(4, 9).U == [1, 1, 1, 2, 5, 15, 64, 331, 2150, 15817]


def test_dissymmetry_bundle_consistency():
    bundle = count_ktrees(3, 12)
    for n in range(13):
        assert bundle.U[n] == bundle.B[n] + bundle.C[n] - bundle.E[n]
        assert bundle.U[n] >= 0


def test_a_bundle_is_a_value_that_pickles_and_copies():
    bundle = count_ktrees(1, 3)
    fields = "k=1, order=3, U=[1, 1, 1, 2], B=[0, 1, 1, 3], C=[1, 1, 2, 4], E=[0, 1, 2, 5]"
    assert repr(bundle) == f"ResultBundle({fields})"
    rows = [1, 1, 1, 2], [0, 1, 1, 3], [1, 1, 2, 4], [0, 1, 2, 5]
    assert bundle == engine.ResultBundle(1, 3, *rows)
    assert bundle != count_ktrees(2, 3)
    for twin in (pickle.loads(pickle.dumps(bundle)), copy.copy(bundle), copy.deepcopy(bundle)):
        assert type(twin) is engine.ResultBundle and twin == bundle


def test_engine_results_are_plain_int_lists():
    # The aggregates and the per-type fixed counts are the rows count_ktrees
    # returns, as lists of Python ints; averaged over S_{k+1} by Burnside's
    # lemma the fixed counts give U.
    order = 12
    for k in range(1, 6):
        cache = solve_system(k, order)
        bundle = count_ktrees(k, order)
        for got, want in (
            (compute_B(cache), bundle.B),
            (compute_C(cache), bundle.C),
            (compute_E(cache), bundle.E),
        ):
            assert type(got) is list and all(type(x) is int for x in got), k
            assert got == want, k
        total = [0] * (order + 1)
        for lam in partitions_of(k + 1):
            fixed = count_fixed_by_type(cache, lam)
            assert type(fixed) is list and all(type(x) is int for x in fixed), (k, lam)
            for n, count in enumerate(fixed):
                total[n] += count * permutation_count(lam)
        assert [t // factorial(k + 1) for t in total] == bundle.U, k
        assert all(t % factorial(k + 1) == 0 for t in total), k


def test_counts_need_no_series(monkeypatch):
    # The engine builds a Series only for the c_table / bbar_table views.
    bundle, stable = count_ktrees(5, 40), stable_counts(17)

    def no_series(*args):
        raise AssertionError("the engine built a Series")

    monkeypatch.setattr(engine, "Series", no_series)
    assert count_ktrees(5, 40) == bundle
    assert stable_counts(17) == stable
    assert bundle.U[:10] == [1, 1, 1, 2, 5, 15, 64, 342, 2321, 18578]
    assert stable[:10] == [1, 1, 1, 2, 5, 15, 64, 342, 2344, 19137]


def test_individual_weighted_terms_are_rational():
    # The z-weighted pieces of B are genuinely non-integral; only the
    # aggregates are integer-valued.
    cache = solve_system(1, 3)
    weighted = scale(Series(cache.order, cache.b[(1, 1)]), Fraction(1, z_of((1, 1))))
    assert weighted.coeffs[1] == Fraction(1, 2)


def test_per_type_tables_are_nonnegative_integers():
    for k in range(1, 5):
        cache = solve_system(k, 10)
        for mu in partitions_of(k):
            assert all(type(c) is int and c >= 0 for c in cache.c[mu])
            assert all(type(c) is int and c >= 0 for c in cache.bbar[mu])


def test_stable_counts_reference():
    assert stable_counts(9) == [1, 1, 1, 2, 5, 15, 64, 342, 2344, 19137]


def test_stable_counts_matches_per_n_definition():
    # Entries 10..12 lie beyond every embedded table.
    per_n = [count_ktrees(max(n - 2, 1), n).U[n] for n in range(13)]
    assert stable_counts(12) == per_n


def test_stable_counts_equal_the_row_solved_in_the_stable_range():
    # stable_counts takes both jumps from the k = 1 solve instead.
    for order in range(19):
        assert stable_counts(order) == count_ktrees(max(order - 2, 1), order).U, order


def test_stable_counts_solve_one_k_below_the_stable_range(monkeypatch):
    calls = []

    def recording(k, order):
        calls.append((k, order))
        return count_ktrees(k, order)

    monkeypatch.setattr(engine, "count_ktrees", recording)
    stable_counts(16)
    assert sorted(calls) == [(1, 16), (12, 16)]


def test_stable_range_starts_exactly_at_n_minus_2():
    stable = stable_counts(12)
    # One k lower, column n is still short of the tail (by the tree count).
    for n in range(4, 13):
        assert count_ktrees(n - 3, n).U[n] < stable[n], n
    # A solve at k = N-2 is the stable row through N, not just at N.
    for order in range(3, 15):
        assert count_ktrees(order - 2, order).U == count_ktrees(order - 1, order).U, order


def test_black_rooted_stability_and_last_jump():
    """B_k[n] is constant for k >= n - 2, and B_{n-2}[n] - B_{n-3}[n] = r(n),
    the rooted trees on n nodes, for n >= 4.

    B counts the k-trees with n hedra and one hedron marked, up to
    isomorphism.  Take the bijection of :func:`stable_counts`, deleting a
    universal vertex.  A universal vertex lies in every hedron, so deleting
    it keeps the marked hedron a hedron, and two universal vertices are
    twins whose swap fixes every hedron, so the mark is carried up to
    isomorphism: the k-trees with n hedra, a marked hedron and a universal
    vertex number B_{k-1}[n].  For k >= n - 1 every k-tree with n hedra has
    one, so column n is constant from k = n - 2 on.  At k = n - 2 the ones
    with none are, as in U's last jump, the trees on n nodes, the hedra
    joined where they share a front, glued up in one way up to
    isomorphism; the marked hedron is a node, so the last jump's hedra form
    a tree rooted at the mark, and those number r(n).
    """
    b = {k: count_ktrees(k, 16).B for k in range(1, 17)}
    r = rooted_trees(16)
    for n in range(17):
        assert len({b[k][n] for k in range(max(n - 2, 1), 17)}) == 1, n
    for n in range(4, 17):
        assert b[n - 2][n] - b[n - 3][n] == r[n - 1], n


def test_every_row_built_from_its_solves_is_the_row_solved_directly():
    # A row up to base = max(N-4, 1) is its own solve; every row above it,
    # through the stable row k = N+1 and one past it, is U_base plus the
    # jumps between, read off the k = 1 solve.
    for order in range(15):
        solved = {k: count_ktrees(k, order) for k in range(1, order + 3)}
        for k in solved:
            bundles = {s: solved[s] for s in engine._solves(k, order)}
            assert engine._row(k, order, bundles) == solved[k].U, (k, order)
    # The reference suite's stable row reads only the rows it solves.
    assert set(engine._solves(10, 9)) <= set(REFERENCE_COUNTS)


def test_a_second_jump_remainder_names_the_degree(monkeypatch):
    # The jump's counts are integers for every row of ints, so only a wrong
    # product leaves a remainder: here each term of a product is one over.
    trees = count_ktrees(1, 12).C
    monkeypatch.setattr(engine, "mul", lambda x, y: x * y + 1)
    with pytest.raises(IntegralityError, match=r"^second jump, degree 5: 37/3 is not an integer$"):
        engine._second_jump(trees, 5)


def test_stable_counts_trivial():
    assert stable_counts(0) == [1]


def test_stable_vs_last_unstable_column():
    assert stable_counts(9)[8] - count_ktrees(5, 9).U[8] == 2344 - 2321 == 23


def test_monotone_truncation():
    # Every C_mu, Bbar_mu and B_lam table through a lower order is the
    # prefix of the same table through k + 4, also for the orders at or
    # below the largest part k + 1, where parts reach the order.
    for k in range(1, 9):
        long = solve_system(k, k + 4)
        for order in range(k + 4):
            short = solve_system(k, order)
            for name in ("c", "bbar", "b"):
                prefixes = {t: coeffs[: order + 1] for t, coeffs in getattr(long, name).items()}
                assert getattr(short, name) == prefixes, (k, order, name)
    assert count_ktrees(2, 6).U == count_ktrees(2, 12).U[:7]


def test_count_fixed_identity_type_vs_tables():
    # The identity type fixes everything: matches B + (k+1)(C - E) per type.
    cache = solve_system(2, 6)
    fixed = count_fixed_by_type(cache, (1, 1, 1))
    b = Series(cache.order, cache.b[(1, 1, 1)])
    c = Series(cache.order, cache.c[(1, 1)])
    e = mul(Series(cache.order, cache.bbar[(1, 1)]), c)
    expected = integer_coeffs(add(b, scale(add(c, scale(e, -1)), 3)))
    assert fixed == expected


def test_wrong_partition_size_rejected():
    cache = solve_system(2, 4)
    with pytest.raises(ValueError, match="partition of 3"):
        count_fixed_by_type(cache, (4,))
    # Sums to 3 but has a part below 1: not a cycle type.
    for malformed in [(3, 0), (4, -1)]:
        with pytest.raises(ValueError, match="partition of 3"):
            count_fixed_by_type(cache, malformed)
    # Parts in any order name the same type.
    assert count_fixed_by_type(cache, (1, 2)) == count_fixed_by_type(cache, (2, 1))


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        solve_system(0, 5)
    with pytest.raises(ValueError):
        solve_system(2, -1)
    with pytest.raises(ValueError):
        stable_counts(-1)


def full_recompute_solve(k, order):
    """Independent reference for solve_system, on the rational series.

    At each degree d every Bbar_mu and C_mu is rebuilt through d from the
    previous pass, straight from the defining equations
        Bbar_mu = x * prod_i C_{mu^i}(x^i),
        C_mu = exp(sum_{m>=1} Bbar_{mu^m}(x^m) / m),
    with Fraction arithmetic and no shared code with the engine's solve.
    """
    mus = partitions_of(k)
    c = {mu: one(0) for mu in mus}
    bbar = {mu: zero(0) for mu in mus}
    for d in range(1, order + 1):
        bbar = {
            mu: times_x(
                reduce(
                    mul,
                    [substitute_power(resized(c[cycle_power(mu, i)], d - 1), i) for i in mu],
                )
            )
            for mu in mus
        }
        c = {
            mu: exp_series(
                reduce(
                    add,
                    [
                        scale(substitute_power(bbar[cycle_power(mu, m)], m), Fraction(1, m))
                        for m in range(1, d + 1)
                    ],
                )
            )
            for mu in mus
        }
    return c, bbar


def test_integer_solve_matches_rational_full_recompute():
    order = 12
    for k in range(1, 7):
        c, bbar = full_recompute_solve(k, order)
        cache = solve_system(k, order)
        assert {mu: Series(order, t) for mu, t in cache.c.items()} == c, k
        assert {mu: Series(order, t) for mu, t in cache.bbar.items()} == bbar, k

        # Burnside averages with Fraction weights 1/z over the reference tables.
        b_ref = zero(order)
        for lam in partitions_of(k + 1):
            factors = [
                substitute_power(
                    resized(c[drop_one_fixed_point(cycle_power(lam, i))], order - 1), i
                )
                for i in lam
            ]
            b_ref = add(b_ref, scale(times_x(reduce(mul, factors)), Fraction(1, z_of(lam))))
        c_ref = reduce(add, [scale(c[mu], Fraction(1, z_of(mu))) for mu in c])
        e_ref = reduce(
            add, [scale(mul(bbar[mu], c[mu]), Fraction(1, z_of(mu))) for mu in c]
        )
        bundle = count_ktrees(k, order)
        assert bundle.B == integer_coeffs(b_ref), k
        assert bundle.C == integer_coeffs(c_ref), k
        assert bundle.E == integer_coeffs(e_ref), k


def test_integrality_failure_names_k_type_and_degree(monkeypatch):
    # Dropping every m > 1 from the exponential's divisor sums breaks the
    # recurrence; the exact division must fail where it first happens.
    monkeypatch.setattr(
        engine, "_divisor_table", lambda n: [[1] if j else [] for j in range(n + 1)]
    )
    located = r"^k=2, mu=\(2,\), degree 2: 1/2 is not an integer$"
    with pytest.raises(IntegralityError, match=located):
        solve_system(2, 5)


def test_euler_steps_refuse_a_non_integral_exponential():
    # g = x is the log-derivative of exp(x) = 1 + x + x^2/2 + ...: the
    # shared step produces 1, 1 and must refuse 1/2 at degree 2, naming the
    # series.  Shifted by x (as Bbar and B are), the same remainder is at x^3.
    g, series = [], [1]
    engine._euler_steps([(g, series, "k=1, mu=", (1,))], [1], 1)
    assert (g, series) == ([1], [1, 1])
    with pytest.raises(IntegralityError, match=r"^k=1, mu=\(1,\), degree 2: 1/2 is not"):
        engine._euler_steps([(g, series, "k=1, mu=", (1,))], [0], 2)
    with pytest.raises(IntegralityError, match=r"^k=1, B, lam=\(1, 1\), degree 3: 1/2 is"):
        engine._euler_steps([([1], [0, 1, 1], "k=1, B, lam=", (1, 1))], [0], 2)
    assert series == [1, 1]


def test_an_inexact_bbar_step_names_k_bbar_mu_and_degree(monkeypatch):
    # A product of integral series is integral, so no wrong factor or
    # weight breaks a Bbar_mu step first; plant the remainder instead.  The
    # first step on series shifted by x at n = 2 is Bbar_(1, 1)[3] at k = 2,
    # the first product with two parts: its log-derivative's x^2 term gains
    # 1, so the sum gains C_(1)[0] = 1 and no longer divides by 2.
    steps = engine._euler_steps

    def planted(entries, column, n):
        if n == 2 and entries and len(entries[0][1]) == n + 1:
            column = (value + (j == 0) for j, value in enumerate(column))
        steps(entries, column, n)

    monkeypatch.setattr(engine, "_euler_steps", planted)
    located = r"^k=2, Bbar, mu=\(1, 1\), degree 3: 15/2 is not an integer$"
    with pytest.raises(IntegralityError, match=located):
        solve_system(2, 4)


# SHA-256 of repr((cache.c, cache.bbar, cache.b)): every per-type table, its
# keys and their order.  Taken from the solve before its loop was flattened,
# in both regimes: deep and bigint-bound (small k), wide and short (large k).
SOLVE_DIGESTS = {
    (1, 200): "1c3bca992ea989ff399446197c3882f3e671e88d6034e6d7f28e4951789467a7",
    (5, 80): "1d6c38edac404e15ddfe6a017e21527823bd5cf7530837fb078c961884324339",
    (12, 12): "b1c558ea1b4d9a69d474b177147a5ff627c36d3db1bd349982cd0ec87a1ebd6f",
    (14, 16): "c029850e11b92f2ec89002477ff89dd21859fc715126218c5c15687e5cc09274",
}


@pytest.mark.parametrize("k, order", list(SOLVE_DIGESTS))
def test_solve_tables_are_pinned(k, order):
    cache = solve_system(k, order)
    tables = repr((cache.c, cache.bbar, cache.b)).encode()
    assert hashlib.sha256(tables).hexdigest() == SOLVE_DIGESTS[k, order]
