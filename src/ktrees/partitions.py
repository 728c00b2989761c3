"""Integer partitions and the cycle-type algebra of symmetric groups.

A partition is a nonincreasing tuple of positive ints; it doubles as the
cycle type of a permutation (part ``p`` with multiplicity ``l`` means ``l``
cycles of length ``p``).  Partitions index every per-symmetry series in the
k-tree counting system, so the canonical form is simply the sorted tuple.
"""

from __future__ import annotations

from math import factorial, gcd
from typing import Iterator

Partition = tuple[int, ...]


def partitions_of(m: int) -> list[Partition]:
    """All partitions of ``m`` in reverse-lexicographic order.

    >>> partitions_of(3)
    [(3,), (2, 1), (1, 1, 1)]
    >>> partitions_of(0)
    [()]
    """
    if m < 0:
        raise ValueError(f"cannot partition a negative integer: {m}")
    if m == 0:
        return [()]
    # Zoghbi & Stojmenovic's ZS1: the partition is parts[:size], h indexes
    # its last part above 1, and every later entry of parts is 1.  Each step
    # takes 1 from parts[h] and deals the freed units out in parts of at
    # most parts[h].
    parts = [1] * m
    parts[0] = m
    h, size = 0, 1
    out: list[Partition] = [(m,)]
    while parts[0] != 1:
        if parts[h] == 2:
            parts[h] = 1
            h -= 1
            size += 1
        else:
            r = parts[h] - 1
            t = size - h
            parts[h] = r
            while t >= r:
                h += 1
                parts[h] = r
                t -= r
            size = h + 1
            if t:
                size += 1
                if t > 1:
                    h += 1
                    parts[h] = t
        out.append(tuple(parts[:size]))
    return out


def partition_numbers() -> Iterator[int]:
    """p(0), p(1), p(2), ...: how many partitions each m has, none enumerated.

    Euler's pentagonal number recurrence
    p(m) = sum_{j>=1} (-1)^(j+1) (p(m - j(3j-1)/2) + p(m - j(3j+1)/2)),
    O(m^1.5) operations through m, so a caller can stop as soon as p is
    large enough for its purpose.

    >>> from itertools import islice
    >>> list(islice(partition_numbers(), 8))
    [1, 1, 2, 3, 5, 7, 11, 15]
    """
    p: list[int] = []
    m = 0
    while True:
        total = 0 if m else 1
        j = 1
        while j * (3 * j - 1) // 2 <= m:
            sign = 1 if j % 2 else -1
            total += sign * p[m - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= m:
                total += sign * p[m - j * (3 * j + 1) // 2]
            j += 1
        p.append(total)
        yield total
        m += 1


def z_of(lam: Partition) -> int:
    """Centralizer order of a permutation with cycle type ``lam``.

    For cycle type 1^l1 2^l2 ... this is prod_i i^li * li!; the number of
    permutations of that type in S_m is then m!/z.  z_of(()) == 1.
    """
    z = 1
    mult = 0
    prev = 0
    for part in sorted(lam):
        if part == prev:
            mult += 1
        else:
            prev, mult = part, 1
        z *= part * mult  # running product of part^mult * mult!
    return z


def cycle_power(lam: Partition, i: int) -> Partition:
    """Cycle type of pi^i when pi has cycle type ``lam``.

    A cycle of length p splits into gcd(p, i) cycles of length p/gcd(p, i).
    """
    if i < 1:
        raise ValueError(f"power must be >= 1, got {i}")
    if i == 1:
        return lam
    parts: list[int] = []
    for p in lam:
        g = gcd(p, i)
        if g == 1:
            parts.append(p)
        else:
            parts += [p // g] * g
    parts.sort(reverse=True)
    return tuple(parts)


def permutation_count(lam: Partition) -> int:
    """Number of permutations with cycle type ``lam`` in S_(sum lam)."""
    return factorial(sum(lam)) // z_of(lam)
