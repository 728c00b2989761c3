"""Brute-force ground truth: explicit coding trees at desk scale.

A k-coding tree is a finite tree with black vertices and colored vertices
(colors 1..k+1) such that every edge joins a black vertex to a colored one
and every black vertex has exactly k+1 neighbors, one of each color.  Black
vertices stand for the hedra of a k-tree, colored vertices for its fronts,
so counting color-orbits of these trees under S_{k+1} counts unlabeled
k-trees directly.

This module enumerates every isomorphism class explicitly and takes orbits
by sweeping all (k+1)! recolorings.  Every distinct colored subtree is
stored once, as an integer id in a table internal to this module, as in
the tree isomorphism algorithm of Aho, Hopcroft and Ullman, so comparing
and recoloring trees are integer operations.  A tree is built only from
its center, as in the free-tree generation of Wright, Richmond, Odlyzko
and McKay: each branch of the center comes from a pool capped at the
tallest height the black-vertex budget allows beside an equally tall
twin, and the root is built only when the stored heights of its branches
pass the center test.  At desk scale every stored subtree is part of a
kept tree; the kept trees decode to canonical nested codes.  A tree is
invariant under a recoloring when its root color is fixed and its
children map onto themselves; that test runs root-first and stops at the
first difference.
It exists purely to cross-check the generating function engine, so it
refuses inputs beyond a small documented scale rather than silently
grinding through a combinatorial explosion.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from typing import Callable, Iterator, Sequence

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


# The intern table: every distinct colored subtree is stored once, and its
# id is its index here.  A node is (color, sorted child ids), with color 0
# for a black vertex, so equal ids <=> isomorphic colored rooted trees, and
# comparing, hashing and recoloring subtrees are integer operations.  The
# table only grows.  The height caps leave out subtrees too tall for any
# centered tree, and every recoloring of a kept tree is a kept tree, so the
# sweeps find every node they build already here.
_NODES: list[tuple[int, tuple[int, ...]]] = []
_HEIGHTS: list[int] = []  # edges from each node down to its deepest leaf
_IDS: dict[tuple[int, tuple[int, ...]], int] = {}


def _intern(color: int, children: tuple[int, ...]) -> int:
    """Id of the node (color, children); ``children`` must be sorted."""
    node = (color, children)
    node_id = _IDS.get(node)
    if node_id is None:
        node_id = _IDS[node] = len(_NODES)
        _NODES.append(node)
        _HEIGHTS.append(1 + max((_HEIGHTS[c] for c in children), default=-1))
    return node_id


def _decoded(node_id: int, memo: dict) -> CanonicalCode:
    """The canonical code of an interned tree, with sorted nested children."""
    code = memo.get(node_id)
    if code is None:
        color, children = _NODES[node_id]
        code = memo[node_id] = (color, tuple(sorted(_decoded(c, memo) for c in children)))
    return code


def _branch_sets(
    k: int, j: int, n: int, cap: Callable[[int], int]
) -> list[tuple[int, ...]]:
    """Multisets of black units below color j, n black vertices in all, each
    unit of m black vertices no taller than ``cap(m)``.

    Multisets are enumerated one size class at a time, so recursion depth
    stays at n.  A black unit is at least 1 tall (it has a colored child), so
    no pool is built for a size capped below 1.
    """
    units_by_size = {m: _black_units(k, j, m, cap(m)) for m in range(1, n + 1) if cap(m) >= 1}
    results = []

    def pick(size: int, remaining: int, chosen: tuple) -> None:
        if remaining == 0:
            results.append(chosen)
            return
        if size == 0:
            return
        pick(size - 1, remaining, chosen)
        units = units_by_size.get(size, ())
        for copies in range(1, remaining // size + 1):
            for extra in combinations_with_replacement(units, copies):
                pick(size - 1, remaining - size * copies, chosen + extra)

    pick(n, n, ())
    return results


@lru_cache(maxsize=None)
def _colored_rooted(k: int, j: int, n: int, cap: int) -> tuple[int, ...]:
    """Ids of all trees rooted at a vertex of color j with n black vertices
    and height at most ``cap``; their black children are at most cap-1 tall.

    A negative cap leaves the pool empty, and so also every black unit
    capped below 1, since a black unit has at least one colored child.
    """
    if cap < 0:
        return ()
    return tuple(
        _intern(j, tuple(sorted(b))) for b in _branch_sets(k, j, n, lambda m: cap - 1)
    )


def _black_branches(
    k: int, j: int, m: int, cap: Callable[[int], int]
) -> Iterator[tuple[int, ...]]:
    """Child-id tuples of black vertices with m black vertices below color j,
    each colored child with s black vertices no taller than ``cap(s)``.

    The black root already has its parent of color j, so it carries one
    colored child of every other color; with j = 0 (no parent) it carries
    all k+1 colors, which gives every black-rooted tree.
    """
    other_colors = [c for c in range(1, k + 2) if c != j]
    for comp in _compositions(m - 1, len(other_colors)):
        yield from product(
            *(_colored_rooted(k, c, s, cap(s)) for c, s in zip(other_colors, comp))
        )


@lru_cache(maxsize=None)
def _black_units(k: int, j: int, m: int, cap: int) -> tuple[int, ...]:
    """Ids of black-rooted subtrees with m black vertices below color j and
    height at most ``cap``; their colored children are at most cap-1 tall."""
    return tuple(
        _intern(0, tuple(sorted(b))) for b in _black_branches(k, j, m, lambda s: cap - 1)
    )


def _centered(children: tuple[int, ...]) -> bool:
    """Whether a root with these children is the center of its tree.

    Every leaf of a coding tree is colored and every edge joins a black
    vertex to a colored one, so leaf-to-leaf paths have even length and the
    center is a single vertex: the one whose two tallest branches are
    equally tall.  A lone vertex is its own center.
    """
    heights = sorted((_HEIGHTS[c] for c in children), reverse=True)
    return not heights or (len(heights) > 1 and heights[0] == heights[1])


def _center_rooted(k: int, n: int) -> Iterator[int]:
    """Ids of the k-coding trees with n black vertices, rooted at their center.

    A branch is built only if the black vertices left to the other
    branches could make a twin at least as tall.  Every branch ends in
    colored leaves, so a tallest path of h edges holds h/2 black vertices
    below a colored branch root and (h+1)/2 below a black one.  At the
    center the tallest branch has a twin of the same height, and no branch
    is taller than that twin, so a branch's height is bounded by the black
    vertices the other branches hold.  Under the black root a
    colored branch with s black vertices is at most 2(n-1-s) tall; under a
    colored root a black branch with m black vertices is at most 2(n-m)-1
    tall, so a lone branch of all n black vertices (a leaf root, never the
    center) is never built.  The caps only skip branches that no centered
    tree holds; the center test then reads the children's stored heights,
    so an off-center root is never built either.
    """
    roots = [(0, _black_branches(k, 0, n, lambda s: 2 * (n - 1 - s)))]
    roots += [
        (j, _branch_sets(k, j, n, lambda m: 2 * (n - m) - 1)) for j in range(1, k + 2)
    ]
    for color, branch_sets in roots:
        for children in branch_sets:
            if _centered(children):
                yield _intern(color, tuple(sorted(children)))


def _validate_coding_tree(
    k: int, node_id: int, parent_color: int | None = None, checked: set | None = None
) -> None:
    """Raise ``AssertionError`` unless the interned tree ``node_id``
    satisfies the coding-tree rules.

    Each black vertex, counting its parent, has exactly one neighbor of
    each color 1..k+1, and no colored vertex has a colored neighbor.
    ``checked`` holds the (node, parent color) pairs already found valid,
    so a subtree shared between trees is checked once per parent color.
    """
    if checked is None:
        checked = set()
    if (node_id, parent_color) in checked:
        return
    color, children = _NODES[node_id]
    child_colors = [_NODES[c][0] for c in children]
    if color == 0:
        if parent_color is not None:
            child_colors.append(parent_color)
        if sorted(child_colors) != list(range(1, k + 2)):
            raise AssertionError(
                f"black vertex lacks one neighbor of each color: {_decoded(node_id, {})}"
            )
    elif any(child_colors):
        raise AssertionError(f"colored vertex has a colored neighbor: {_decoded(node_id, {})}")
    for child in children:
        _validate_coding_tree(k, child, color, checked)
    checked.add((node_id, parent_color))


@lru_cache(maxsize=None)
def _kept(k: int, n: int) -> tuple[int, ...]:
    """Ids of the center-rooted k-coding trees with n black vertices.

    Each is validated once, when the (k, n) pool is first built.
    """
    kept = tuple(_center_rooted(k, n))
    checked: set = set()
    for node_id in kept:
        _validate_coding_tree(k, node_id, checked=checked)
    return kept


def enumerate_coding_trees(k: int, n: int) -> list[CanonicalCode]:
    """Canonical codes of all k-coding trees with exactly n black vertices.

    Rooted shapes are generated recursively under height caps, each subtree
    stored once as an interned id; a shape is kept only when its root is
    the tree's center, that is when its two tallest branches are equally
    tall (or it has no branch).  That selects exactly one rooted form per
    isomorphism class.  The kept trees are decoded to nested codes and
    sorted for reproducibility; the pool is cached per (k, n), since the
    orbit and fixed-count sweeps revisit it.
    """
    _check_scale(k, n)
    memo: dict = {}
    return sorted(_decoded(node_id, memo) for node_id in _kept(k, n))


def _recolored(node_id: int, shade: Sequence[int], memo: dict) -> int:
    """Id of the tree ``node_id`` recolored by ``shade``.

    ``shade[c]`` is the new color of color c, with ``shade[0] == 0`` for
    black.  The center of a tree does not depend on colors, so recoloring a
    center-rooted tree never moves the root.  ``memo`` maps ids to their
    recolorings under ``shade``, and must not be shared between recolorings.
    """
    out = memo.get(node_id)
    if out is None:
        color, children = _NODES[node_id]
        recolored = [memo[c] if c in memo else _recolored(c, shade, memo) for c in children]
        out = memo[node_id] = _intern(shade[color], tuple(sorted(recolored)))
    return out


def _check_permutation(k: int, perm: Sequence[int]) -> tuple[int, ...]:
    """``perm`` as a shade for :func:`_recolored`: (0, perm[0], perm[1], ...)."""
    pi = tuple(perm)
    if sorted(pi) != list(range(1, k + 2)):
        raise ValueError(f"not a permutation of 1..{k + 1}: {perm}")
    return (0, *pi)


def _fixed(node_id: int, shade: Sequence[int], memo: dict) -> bool:
    """Whether recoloring by ``shade`` maps the tree ``node_id`` to itself.

    This is ``_recolored(node_id, shade, memo) == node_id``, decided
    root-first: the root's color must be fixed, each recolored child must
    be one of the children, and the sorted images must be the children.
    It stops at the first difference, so a tree whose root color moves
    recolors nothing.
    """
    color, children = _NODES[node_id]
    if shade[color] != color:
        return False
    images = []
    for child in children:
        image = _recolored(child, shade, memo)
        if image not in children:
            return False
        images.append(image)
    return sorted(images) == list(children)


def fixed_count(k: int, n: int, perm: Sequence[int]) -> int:
    """Number of n-black coding trees invariant under recoloring by ``perm``.

    ``perm[i-1]`` is the image of color i.  Every coding tree is tested
    root-first (``_fixed``), so recoloring stops at the first difference.
    Subtrees shared between trees are recolored once, in an int-keyed memo
    that lives for this one call.
    """
    _check_scale(k, n)
    shade = _check_permutation(k, perm)
    memo: dict = {}
    return sum(1 for node_id in _kept(k, n) if _fixed(node_id, shade, memo))


def orbit_count(k: int, n: int) -> int:
    """Number of color-orbits of k-coding trees with n black vertices.

    This equals the number of unlabeled k-trees with n hedra.  Orbits are
    built by the full (k+1)! recoloring sweep of every seed; at desk scale
    that is at most 24 permutations, each with one memo for the call.
    """
    _check_scale(k, n)
    todo = set(_kept(k, n))
    memos = {(0, *pi): {} for pi in permutations(range(1, k + 2))}
    orbits = 0
    while todo:
        seed = todo.pop()
        orbits += 1
        for shade, memo in memos.items():
            todo.discard(_recolored(seed, shade, memo))
    return orbits
