"""The tests' reference for cycle types: read one off a permutation.

The package never holds a permutation; it works on cycle types, the
partitions of ``ktrees.partitions``.  The tests build permutations with
``itertools.permutations`` and take their cycle types here, independently
of the package, to check the counts and powers it derives from a type.
"""

from __future__ import annotations

from ktrees.partitions import Partition


def permutation_cycle_type(perm: tuple[int, ...]) -> Partition:
    """Cycle type of a permutation given as a 1-based image tuple.

    ``perm[i-1]`` is the image of ``i``; entries must be a rearrangement of
    1..len(perm).
    """
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {perm}")
    seen = [False] * (n + 1)
    parts = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j - 1]
            length += 1
        parts.append(length)
    parts.sort(reverse=True)
    return tuple(parts)
