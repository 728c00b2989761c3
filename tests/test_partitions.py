"""Partition enumeration and cycle-type algebra."""

from fractions import Fraction
from itertools import islice, permutations
from math import factorial

import pytest

from ktrees.partitions import (
    cycle_power,
    partition_numbers,
    partitions_of,
    permutation_count,
    z_of,
)

from cycle_types import permutation_cycle_type


def brute_force_partitions(m):
    """Independent enumeration: nonincreasing positive tuples summing to m."""
    if m == 0:
        return [()]
    found = []

    def grow(prefix, remaining):
        if remaining == 0:
            found.append(tuple(prefix))
            return
        cap = prefix[-1] if prefix else remaining
        for part in range(1, min(cap, remaining) + 1):
            grow(prefix + [part], remaining - part)

    grow([], m)
    return found


def test_partitions_of_3_in_reverse_lex_order():
    assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]


def test_partitions_of_zero():
    assert partitions_of(0) == [()]


def test_partitions_of_7_complete():
    got = partitions_of(7)
    assert len(got) == 15
    assert sorted(got) == sorted(brute_force_partitions(7))


def test_partitions_reverse_lex_is_descending():
    for m in range(9):
        got = partitions_of(m)
        assert got == sorted(got, reverse=True)
        assert all(sum(p) == m for p in got)


def test_partitions_of_is_the_brute_force_set_in_reverse_lex_order():
    numbers = list(islice(partition_numbers(), 26))
    for m in range(26):
        got = partitions_of(m)
        assert got == sorted(brute_force_partitions(m), reverse=True), m
        assert len(got) == numbers[m], m


def test_types_with_a_fixed_point_are_those_of_one_less_in_order():
    # The lam |- k + 1 ending in 1 are the mu + (1,), in the order of the
    # mu |- k: the engine reads E's tables and their weights in turn on this.
    for k in range(21):
        assert [lam[:-1] for lam in partitions_of(k + 1) if lam[-1] == 1] == partitions_of(k)


def test_partition_numbers_count_the_enumeration():
    counts = list(islice(partition_numbers(), 101))
    assert counts[:21] == [len(partitions_of(m)) for m in range(21)]
    assert counts[99] == 169229875
    assert counts[100] == 190569292


def test_z_of_examples():
    assert z_of((1, 1, 1)) == 6
    assert z_of((2, 1)) == 2
    assert z_of((3,)) == 3
    assert z_of(()) == 1


def test_class_equation():
    # sum over cycle types of m!/z equals m!: every permutation has a type.
    for m in range(13):
        total = sum(Fraction(1, z_of(lam)) for lam in partitions_of(m))
        assert total == 1, m


def test_z_counts_permutations_directly():
    for m in range(1, 6):
        by_type = {}
        for pi in permutations(range(1, m + 1)):
            lam = permutation_cycle_type(pi)
            by_type[lam] = by_type.get(lam, 0) + 1
        for lam, count in by_type.items():
            assert count == permutation_count(lam) == factorial(m) // z_of(lam)


def test_cycle_power_examples():
    assert cycle_power((2,), 2) == (1, 1)
    assert cycle_power((4,), 2) == (2, 2)
    assert cycle_power((3, 2), 6) == (1, 1, 1, 1, 1)


def test_cycle_power_identity_and_sum():
    for m in range(11):
        for lam in partitions_of(m):
            assert cycle_power(lam, 1) == lam
            for i in range(1, 11):
                assert sum(cycle_power(lam, i)) == m


def test_cycle_power_composes():
    for lam in partitions_of(6):
        for a in range(1, 7):
            for b in range(1, 7):
                assert cycle_power(cycle_power(lam, a), b) == cycle_power(lam, a * b)


def test_cycle_power_matches_actual_permutation_powers():
    for pi in permutations(range(1, 6)):
        lam = permutation_cycle_type(pi)
        power = pi
        for i in range(2, 8):
            power = tuple(pi[power[j] - 1] for j in range(5))
            assert permutation_cycle_type(power) == cycle_power(lam, i)


def test_part_guarantees_fixed_point_in_power():
    # Needed so no factor in the black-rooted product is the zero series.
    for m in range(1, 11):
        for lam in partitions_of(m):
            for i in lam:
                assert 1 in cycle_power(lam, i)


def test_cycle_power_rejects_zero():
    with pytest.raises(ValueError):
        cycle_power((2, 1), 0)
