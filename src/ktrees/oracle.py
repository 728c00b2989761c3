"""Brute-force ground truth: explicit coding trees at desk scale.

A k-coding tree is a finite tree with black vertices and colored vertices
(colors 1..k+1) such that every edge joins a black vertex to a colored one
and every black vertex has exactly k+1 neighbors, one of each color.  Black
vertices stand for the hedra of a k-tree, colored vertices for its fronts,
so counting color-orbits of these trees under S_{k+1} counts unlabeled
k-trees directly.

This module enumerates every isomorphism class explicitly and takes orbits
by sweeping all (k+1)! recolorings.  Trees are generated directly as
canonical codes of colored rooted trees; a rooted shape is kept when its
root is the tree center, found from the heights of the root's branches.
It exists purely to cross-check the generating function engine, so it
refuses inputs beyond a small documented scale rather than silently
grinding through a combinatorial explosion.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations_with_replacement, permutations, product
from typing import Iterator, Sequence

# Soft desk-scale limits: plenty to corroborate the engine, small enough
# that the full (k+1)!-sweep and the rooted-tree expansions stay instant.
MAX_K = 3
MAX_N = 6

# Canonical code of a (sub)tree: (color, sorted child codes), where color 0
# marks a black vertex.  Equal codes <=> isomorphic as colored rooted trees.
CanonicalCode = tuple


def _check_scale(k: int, n: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k > MAX_K or n > MAX_N:
        raise ValueError(
            f"brute-force enumeration is limited to k <= {MAX_K}, n <= {MAX_N} "
            f"(got k={k}, n={n}); use the series engine for larger sizes"
        )


def _compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of ``slots`` nonnegative ints summing to ``total``."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _colored_rooted(k: int, j: int, n: int) -> tuple[CanonicalCode, ...]:
    """Codes of all trees rooted at a vertex of color j with n black vertices.

    The root carries a multiset of black-rooted units; multisets are
    enumerated one size class at a time so recursion depth stays at n.
    """
    units_by_size = {m: _black_units(k, j, m) for m in range(1, n + 1)}
    results = []

    def pick(size: int, remaining: int, chosen: list) -> None:
        if remaining == 0:
            results.append((j, tuple(sorted(chosen))))
            return
        if size == 0:
            return
        pick(size - 1, remaining, chosen)
        units = units_by_size[size]
        for copies in range(1, remaining // size + 1):
            for extra in combinations_with_replacement(units, copies):
                pick(size - 1, remaining - size * copies, chosen + list(extra))

    pick(n, n, [])
    return tuple(results)


@lru_cache(maxsize=None)
def _black_units(k: int, j: int, m: int) -> tuple[CanonicalCode, ...]:
    """Codes of black-rooted subtrees with m black vertices below color j.

    The black root already has its parent of color j, so it carries one
    colored child of every other color; with j = 0 (no parent) it carries
    all k+1 colors, which gives every black-rooted tree.  The children have
    distinct colors, so listing them in color order is already sorted.
    """
    other_colors = [c for c in range(1, k + 2) if c != j]
    out = []
    for comp in _compositions(m - 1, len(other_colors)):
        pools = [_colored_rooted(k, c, size) for c, size in zip(other_colors, comp)]
        out.extend((0, combo) for combo in product(*pools))
    return tuple(out)


def _height(code: CanonicalCode, memo: dict) -> int:
    """Number of edges from the root of ``code`` down to its deepest leaf.

    ``memo`` maps subtree codes to their heights; coding trees share most
    of their subtrees, so each is measured once per memo.
    """
    height = memo.get(code)
    if height is None:
        height = memo[code] = 1 + max((_height(ch, memo) for ch in code[1]), default=-1)
    return height


def _rooted_at_center(code: CanonicalCode, memo: dict) -> bool:
    """Whether the root of ``code`` is the center of its tree.

    Every leaf of a coding tree is colored and every edge joins a black
    vertex to a colored one, so leaf-to-leaf paths have even length and the
    center is a single vertex: the one whose two tallest branches are
    equally tall.  A lone vertex is its own center.  ``memo`` is the memo
    of :func:`_height`.
    """
    heights = sorted((_height(ch, memo) for ch in code[1]), reverse=True)
    return not heights or (len(heights) > 1 and heights[0] == heights[1])


def _validate_coding_tree(
    k: int, code: CanonicalCode, parent_color: int | None = None
) -> None:
    """Raise ``AssertionError`` unless ``code`` satisfies the coding-tree rules.

    Each black vertex, counting its parent, has exactly one neighbor of
    each color 1..k+1, and no colored vertex has a colored neighbor.
    """
    color, children = code
    child_colors = [c for c, _ in children]
    if color == 0:
        if parent_color is not None:
            child_colors.append(parent_color)
        if sorted(child_colors) != list(range(1, k + 2)):
            raise AssertionError(f"black vertex lacks one neighbor of each color: {code}")
    elif any(child_colors):
        raise AssertionError(f"colored vertex has a colored neighbor: {code}")
    for child in children:
        _validate_coding_tree(k, child, color)


@lru_cache(maxsize=None)
def _all_codes(k: int, n: int) -> tuple[CanonicalCode, ...]:
    """Sorted center-rooted codes of the k-coding trees with n black vertices.

    The subtree heights that pick the center are memoised in a dict that
    lives for this one call.  A process-wide cache on :func:`_height` would
    keep every subtree alive after the sweep; with one on
    :func:`_recolored` too, it raised the peak RSS of ``verify`` by 10 MB.
    """
    rooted = chain(
        _black_units(k, 0, n), *(_colored_rooted(k, j, n) for j in range(1, k + 2))
    )
    memo: dict = {}
    kept = [code for code in rooted if _rooted_at_center(code, memo)]
    for code in kept:
        _validate_coding_tree(k, code)
    return tuple(sorted(kept))


def enumerate_coding_trees(k: int, n: int) -> list[CanonicalCode]:
    """Canonical codes of all k-coding trees with exactly n black vertices.

    Rooted shapes are generated recursively, each already as its canonical
    code; a shape is kept only when its root is the tree's center, that is
    when its two tallest branches are equally tall (or it has no branch).
    That selects exactly one rooted form per isomorphism class.  Results
    are sorted for reproducibility and cached per (k, n), since the orbit
    and fixed-count sweeps revisit them.
    """
    _check_scale(k, n)
    return list(_all_codes(k, n))


def _recolored(code: CanonicalCode, perm: Sequence[int], memo: dict) -> CanonicalCode:
    """Apply a color permutation and restore canonical child order.

    The center of a tree does not depend on colors, so recoloring a
    center-rooted code never moves the root.  ``memo`` maps subtree codes
    to their recolorings under ``perm``, and must not be shared between
    permutations.
    """
    out = memo.get(code)
    if out is None:
        color, children = code
        new_color = perm[color - 1] if color else 0
        out = memo[code] = (
            new_color,
            tuple(sorted(_recolored(ch, perm, memo) for ch in children)),
        )
    return out


def _check_permutation(k: int, perm: Sequence[int]) -> tuple[int, ...]:
    pi = tuple(perm)
    if sorted(pi) != list(range(1, k + 2)):
        raise ValueError(f"not a permutation of 1..{k + 1}: {perm}")
    return pi


def fixed_count(k: int, n: int, perm: Sequence[int]) -> int:
    """Number of n-black coding trees invariant under recoloring by ``perm``.

    ``perm[i-1]`` is the image of color i.  Every coding tree is recolored
    and compared.  Subtrees shared between trees are recolored once, in a
    memo that lives for this one call: a process-wide cache would keep
    every recolored subtree alive, and raised the peak RSS of ``verify``
    by 10 MB.
    """
    _check_scale(k, n)
    pi = _check_permutation(k, perm)
    memo: dict = {}
    return sum(1 for code in _all_codes(k, n) if _recolored(code, pi, memo) == code)


def orbit_count(k: int, n: int) -> int:
    """Number of color-orbits of k-coding trees with n black vertices.

    This equals the number of unlabeled k-trees with n hedra.  Orbits are
    built by the full (k+1)! recoloring sweep; at desk scale that is at
    most 24 permutations.
    """
    _check_scale(k, n)
    todo = set(_all_codes(k, n))
    perms = list(permutations(range(1, k + 2)))
    orbits = 0
    while todo:
        seed = todo.pop()
        orbits += 1
        for pi in perms:
            todo.discard(_recolored(seed, pi, {}))
    return orbits
