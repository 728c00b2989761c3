"""U's jumps near the stable range, and the rows built from them.

Rows at or above k = max(N - 5, 1) of U through N are built from one
solve, at base = max(N - 5, 1) (:func:`_solves`), by adding to U_base the
jumps U_j[n] - U_{j-1}[n] that lie between base and k; :func:`_rows`
builds all the rows of one order from one table of those jumps.
Three jumps are proven below, and each column n <= N has only those three
between base and the stable range.  All three are series in the rooted
trees, which :func:`_rooted_trees` counts by their own recurrence, so a
row reads no second solve.

**The stable range.**  Take a k-tree with n hedra, its hedra in an order in
which each after the first shares a k-clique (a front) with an earlier one.
Each of those n-1 hedra drops at most one vertex from the running
intersection of the hedra so far, so at least k+2-n vertices lie in every
hedron.  A vertex lies in every hedron exactly when it is adjacent to all
others (universal), since a k-tree has no (k+2)-clique, and any two
universal vertices are swapped by an automorphism.  So deleting one is, for
any k >= 2, a bijection from the unlabeled k-trees with n hedra that have a
universal vertex onto the unlabeled (k-1)-trees with n hedra, with adding a
universal vertex as its inverse.  For k >= n-1 every k-tree with n hedra
has one, so U_k[n] = U_{k-1}[n] and column n is constant from k = n-2 on.
In general U_k[n] - U_{k-1}[n] counts the k-trees with n hedra and no
universal vertex.

**The last jump** is the tree count: U_{n-2}[n] = U_{n-3}[n] + U_1[n-1]
for n >= 4, and U_1[n-1] > 0, so no lower k starts the constant run.  In an
(n-2)-tree with n hedra and no universal vertex, the first hedron's n-1
vertices must all be dropped by the n-1 later hedra, so each drops exactly
one vertex of the running intersection.  Then no front lies in three hedra:
the third hedron to contain one contains the running intersection, which
lies in the first two and so in their common front, and drops nothing.  So
the hedra, joined where they share a front, form a tree on n nodes.
Conversely every tree on n nodes is glued up this way, and the vertices of
the running intersection are twins, so which one a hedron drops is unique
up to an automorphism: the map to trees is a bijection, and trees on n
nodes are the U_1[n-1] 1-trees with n-1 hedra.  By Otter's dissymmetry
theorem they number [x^n] (A - (A^2 - A_2)/2), with A the rooted trees by
nodes (see the notation below), so the rows read them off the rooted
trees too.

**The coloring.**  Color the vertices in the k+1 colors, as the paper's
coding trees do.  A hedron has one vertex of each color, so each of its
fronts misses one color, the front's color, and it has one front of each
color.  Each hedron after the first attaches at a front of an earlier one
and adds one vertex, of that front's color, and a front lies in one hedron
more than it has attachments (a later hedron that contains it attaches at
it, as its new vertex is not in it).  A vertex is universal exactly when no
other vertex has its color: two vertices of one color are not adjacent,
and every hedron has a vertex of each color.  So a k-tree has no universal
vertex exactly when its n-1 attachments use all k+1 colors; at k = n-2
each color is used once, which is the last jump again.  Below that, some
colors are used more than once, n-1 - (k+1) times more in all: the color
excess.  Fronts of one color never lie on a common hedron.

Conversely, a tree of hedra and shared fronts, each shared front given a
color so that the fronts on a hedron have distinct colors and every color
is used, is a coding tree whose hedra each have one front of every color
(fronts in one hedron only supply the rest), so a k-tree glues up to it.
The colors used once can be renamed freely, which the paper's color orbits
identify, so the k-trees with no universal vertex correspond one to one,
up to isomorphism, to those trees with only the repeated colors named.  A
front in two hedra is an edge of the tree of hedra, and a front in h >= 3
hedra joins h subtrees of hedra.

Notation: A = sum r(m) x^m is the rooted trees by nodes (hedra), x times
the rooted trees by edges, and G = 1/(1 - A), so that A G is a sequence
of m >= 1 rooted trees.  F_i means F(x^i) for any series F,
Z_2(F) = (F^2 + F_2)/2, Z_3(F) = (F^3 + 3 F F_2 + 2 F_3)/6 and
Z_4(A) = (A^4 + 6 A^2 A_2 + 3 A_2^2 + 8 A A_3 + 6 A_4)/24.  Rooted trees
with marked edges (fronts in two hedra) are read along the path from the
root to each mark, each node of the path carrying its own rooted tree:

* R = A^2 G: one marked edge, at the end of a path of m >= 2 nodes.
* Q = R^2 + A G (Z_2(A G) - Z_2(A)): two marked edges with no common node.
  Either both lie on one path, R^2 = A G * A^3 G, or the paths to them part
  at a node w: A G up to w, then an unordered pair of paths of m >= 1
  nodes from w, less the pairs of two edges at w.
* M = 2 A^3 G^2 + A^3 G^3: an ordered pair of distinct marked edges, one
  above the other in either order or on two branches of a node.
* T = A G (A G)_2: an ordered pair of marked edges that an automorphism
  swaps, on two equal branches of a node.

**The second jump**, for n >= 5, is

    U_{n-3}[n] - U_{n-4}[n] = [x^n] ( Z_3(A) + ( A^2 R + (1 + A) R_2 ) / 2 ).

At k = n-3 the n-1 attachments use n-2 colors, so exactly one color c is
used twice and every other color once.  Either

* one front of color c lies in three hedra, and every other shared front in
  two.  Cutting at that front splits the hedra into three trees, each
  rooted at a hedron on the front: an unordered triple of rooted trees,
  Z_3(A); or
* two fronts of color c lie in two hedra each: two edges of the tree of
  hedra on n nodes, not incident.  The path of the tree that runs through
  both has m >= 4 nodes, and with the rooted tree that hangs off each of its
  nodes it is a sequence of m rooted trees, read either way.  By Burnside
  over the reversal these number (A^4 G + P)/2, with P = (1 + A) R_2 the
  palindromes of m = 2j or 2j+1 nodes, j >= 2.

**The third jump**, for n >= 6, is U_{n-4}[n] - U_{n-5}[n] = [x^n] of the
sum of six cases.  At k = n-4 the n-1 attachments use n-3 colors, an
excess of 2.  Either one color c is used three times (a1-a3), or two colors
c and c' are used twice each (b1-b3), every other color once.

* a1, one front of c in four hedra: four rooted trees, Z_4(A).
* a2, a front of c in three hedra and one in two, on no common hedron: the
  two other branches at the first, Z_2(A), and the branch holding the
  edge, whose path from the front has m >= 2 nodes before the edge's far
  end, A^3 G.  So Z_2(A) A^3 G.
* a3, three fronts of c in two hedra each, pairwise on no common hedron:
  three edges with no common node.  They lie on one path, of m >= 6 nodes
  read either way, (A^6 G^2 + A_2^3 G_2)/2 by Burnside over the reversal;
  or their paths meet at a node v, A Z_3(R) when no edge is at v and
  A^2 Z_2(R) when one is, its far end's rooted tree the second A.
* b1, a front of c and one of c' in three hedra each: the path of m >= 1
  hedra between them, and an unordered pair of branches at each, read
  either way: (Z_2(A)^2 A G + Z_2(A)_2 (A + A_2) G_2)/2.
* b2, a front of c in three hedra and two fronts of c' in two, the two
  edges on no common hedron: in two branches of the front, A Z_2(R), or in
  one, Z_2(A) Q.
* b3, two fronts of c and two of c' in two hedra each, same-colored fronts
  on no common hedron: four edges, each pair with no common node.  Fix
  which color is c; then the c-edges end a path of m >= 4 nodes, read
  either way, and by Burnside over the reversal the shapes number
  (D + P)/2.  D counts the paths read one way: the c'-edges in one
  hanging tree, Q times sum m A^(m-1) = 4 A^3 G + A^4 G^2; in two,
  R^2 times sum C(m, 2) A^(m-2) = 6 A^2 G + 4 A^3 G^2 + A^4 G^3; one on an
  inner edge of the path and one in a hanging tree, not at that edge's
  nodes, 2 R (A^3 G^2 + A^4 G^3) + 2 A^6 G^3; or both on inner edges,
  A^6 G^3.  P counts the palindromes: both c'-edges in the middle tree of
  an odd path, A_2^2 G_2 Q, or mirror images in its two halves, a half of
  j >= 2 nodes with its c'-edge in a hanging tree or on one of its j - 2
  inner edges, (1 + A) (G (3 A R + R^2))_2.  Burnside over swapping c and
  c' then gives (D + P)/4 + S/2, with S the shapes the swap fixes.

  S is counted at the centres of the swap.  Call a hedron v a centre if at
  least two of its branches carry marks and an automorphism that swaps c
  and c' fixes v.  Rooted at a centre, with A for v and its unmarked
  branches, the swap pairs the marked branches as one of: two exchanged
  branches holding both marks of one color, Q_2, or (A^3 G)_2 when one
  mark is the edge to v; two branches holding a mark of each color, each
  fixed or the two exchanged, (M_2 + T^2)/2 by Burnside, or marked c and
  c' at their edges to v, R_2; one fixed branch holding a mark of each
  color and two exchanged branches holding one mark, T (A + R)_2; or four
  branches holding one mark, exchanged in two pairs, not both marked at
  their edges to v, (A R + (R^2 + R_2)/2)_2.  With L = T + R_2 that is
  A (Q_2 + M_2/2 + R_4/2 + L^2/2 + L A_2 + (A^3 G)_2 + R_2).  The centres
  and the unmarked edges whose sides the swap each fixes form a subtree of
  the tree of hedra, so, as in the dissymmetry theorem, a shape counted at
  each class of centres is counted once when the classes of those edges
  are taken off: (T^2 - T_2)/2, as an edge with two equal sides joins two
  centres that one class holds.  A shape with no centre has a swap that
  exchanges the two sides of an unmarked edge, which hold both marks of one
  color, Q_2, or a mark of each color not fixed by the swap,
  (M_2 - T_2)/2.  So

      S = A (Q_2 + M_2/2 + R_4/2 + L^2/2 + L A_2 + (A^3 G)_2 + R_2)
          - T^2/2 + Q_2 + M_2/2.

The cases' sums agree with the engine for every n = 6..24, and the tests
count each case apart by brute force over trees for n <= 9.
"""

from __future__ import annotations

from operator import add, mul
from operator import sub as minus

from .series import IntegralityError

Build = tuple[list[int], ...]


def _solves(ks: list[int], order: int) -> list[int]:
    """The sorted distinct k whose solves through ``order`` :func:`_rows`
    reads for the rows ``ks``.

    Each row k reads one solve, at min(k, base) with base = max(order - 5, 1):
    up to base a row is its own solve, and above it a row is the solve at
    base plus the jumps between.

    >>> _solves([4, 5, 6, 11], 10), _solves([3, 40], 6)
    ([4, 5], [1])
    """
    base = max(order - 5, 1)
    return sorted({min(k, base) for k in ks})


def _rooted_trees(order: int) -> list[int]:
    """The rooted trees by edges through ``order``: entry n counts those
    with n edges, n + 1 nodes.

    A root's subtrees are a multiset of edge-attached rooted trees, so
    trees = exp(sum_{m>=1} x^m trees(x^m) / m), whose log-derivative gives

        n * trees[n] = sum_{t=1..n} (sum_{d | t} d * trees[d - 1]) * trees[n - t].

    Each division by n must be exact: a remainder raises IntegralityError
    naming the rooted trees and n.

    >>> _rooted_trees(6)
    [1, 1, 2, 4, 9, 20, 48]
    """
    trees, divisor_sums = [1], [0] * (order + 1)
    for n in range(1, order + 1):
        weight = mul(n, trees[n - 1])
        for t in range(n, order + 1, n):
            divisor_sums[t] += weight
        total = sum(map(mul, divisor_sums[1 : n + 1], reversed(trees)))
        trees.append(IntegralityError.quotient(total, n, f"rooted trees, degree {n}"))
    return trees


def _times(f: list[int], g: list[int], low: int, top: int) -> list[int]:
    """f * g through degree ``top``, which has no term below x^low."""
    rev = g[top::-1]
    return [0] * low + [sum(map(mul, f, rev[top - d :])) for d in range(low, top + 1)]


def _at(f: list[int], g: list[int], n: int) -> int:
    """[x^n] f * g, for g through degree n."""
    return sum(map(mul, f, g[n::-1]))


def _sub(f: list[int], i: int, top: int) -> list[int]:
    """f(x^i) through degree ``top``."""
    return [0 if d % i else f[d // i] for d in range(top + 1)]


def _series(trees: list[int], top: int) -> Build:
    """The series every jump reads, each a row of ints through degree
    ``top``, from ``trees``, the rooted trees by edges through at least
    degree top - 1: A = x * trees, A^2, A_2, G = 1 / (1 - A), A G = G - 1,
    R = A^2 G and R_2, in that order.  :func:`_rows` builds them once."""
    a = [0, *trees[:top]]
    g = [1]
    for d in range(1, top + 1):
        g.append(sum(map(mul, a[1 : d + 1], reversed(g))))
    ag = [0, *g[1:]]
    r = _times(a, ag, 2, top)
    return a, _times(a, a, 2, top), _sub(a, 2, top), g, ag, r, _sub(r, 2, top)


def _last(series: Build, n: int) -> int:
    """U_{n-2}[n] - U_{n-3}[n] = U_1[n - 1] for n >= 4, from ``series``
    (:func:`_series`) through at least degree n: the trees on n nodes,
    [x^n] (2 A - A^2 + A_2) / 2 by Otter's dissymmetry (a tree rooted at a
    node, less one rooted at an edge, plus one rooted at a symmetry edge).
    A remainder raises IntegralityError naming the last jump and n.
    """
    a, aa, a2 = series[:3]
    return IntegralityError.quotient(2 * a[n] - aa[n] + a2[n], 2, f"last jump, degree {n}")


def _second(series: Build, n: int) -> int:
    """U_{n-3}[n] - U_{n-4}[n] for n >= 5, from ``series`` (:func:`_series`)
    through at least degree n.

    It is

        [x^n] (A^3 + 3 A A_2 + 2 A(x^3)) / 6  +  [x^n] (A^2 R + (1 + A) R_2) / 2,

    one front in three hedra and two fronts of one color, the two cases of
    the proof in the module docstring.  Each numerator counts its shapes 6
    or 2 times over, for any row of ints, so a remainder means a wrong term
    here: it raises IntegralityError naming the second jump and n.
    """
    a, aa, a2, _, _, r, r2 = series
    cases = (
        (_at(aa, a, n) + 3 * _at(a, a2, n) + 2 * (0 if n % 3 else a[n // 3]), 6),
        (_at(aa, r, n) + r2[n] + _at(a, r2, n), 2),
    )
    where = f"second jump, degree {n}"
    return sum(IntegralityError.quotient(num, den, where) for num, den in cases)


def _third(series: Build, n: int) -> int:
    """U_{n-4}[n] - U_{n-5}[n] for n >= 6, from ``series`` (:func:`_series`)
    through at least degree n.

    The six cases a1-b3 of the proof in the module docstring, each
    multiplied through by its denominator (24, 2, 6, 8, 4 and 8), with
    every series held as a row of ints through degree n.  Each series is
    built once; one read only at x^2 is built through n/2, and each case is
    a sum of dot products at x^n.  Each numerator counts its shapes that
    many times over, for any row of ints, so a remainder means a wrong term
    here: it raises IntegralityError naming the third jump and n.
    """
    a, aa, a2, g, ag, r, r2 = series
    half = n // 2

    def times(f: list[int], g: list[int], low: int, top: int = n) -> list[int]:
        return _times(f, g, low, top)

    def at(f: list[int], g: list[int]) -> int:
        return _at(f, g, n)

    def sub(f: list[int], i: int) -> list[int]:
        return _sub(f, i, n)

    def plus(f: list[int], g: list[int], c: int = 1) -> list[int]:
        """f + c * g."""
        return list(map(add, f, map(c.__mul__, g)))

    def even(f: list[int], i: int = 2) -> int:
        """[x^n] f(x^i)."""
        return 0 if n % i else f[n // i]

    aa2, ag2 = sub(aa, 2), sub(ag, 2)
    ar = times(a, r, 3)  # A^3 G
    rr = times(r, r, 4)
    arg = times(r, ag, 3)  # A^3 G^2
    z = plus(aa, a2)  # 2 Z_2(A)
    # 2 Q = 2 R^2 + A G (2 Z_2(A G) - 2 Z_2(A)), with (A G)^2 = R + A^3 G^2.
    pairs = list(map(minus, plus(plus(r, arg), ag2), z))
    q = plus(times(ag, pairs, 3, n - 2), rr, 2)
    y = times(g, ag2, 2)  # G (A G)_2 = T + (A G)_2 = L + A_2
    t = list(map(minus, y, ag2))  # T = A G (A G)_2
    w = plus(rr, ar, 4)  # 4 A^3 G + A^4 G^2
    # M + the (G (3 A R + R^2)) of P + 2 Q, all read at x^2 only.
    mpq = plus(plus(times(g, plus(plus(rr, ar, 3), arg), 3, half), arg, 2), q)
    mpq2 = sub(mpq, 2)
    cases = (
        # a1: 24 Z_4(A)
        (at(aa, aa) + 6 * at(aa, a2) + 3 * even(aa) + 8 * at(a, sub(a, 3)) + 6 * even(a, 4), 24),
        # a2: 2 Z_2(A) A^3 G
        (at(z, ar), 2),
        # a3: 3 (A^6 G^2 + A_2^3 G_2) + 6 A Z_3(R) + 6 A^2 Z_2(R)
        (
            3 * at(ar, ar) + 3 * even(ar) + at(ar, rr) + 3 * at(ar, r2) + 2 * at(a, sub(r, 3))
            + 3 * at(aa, rr) + 3 * at(aa, r2),
            6,
        ),
        # b1: 4 Z_2(A)^2 A G + 4 Z_2(A)_2 (A + A_2) G_2, with A^2 A G = A^3 G
        # and A_2^2 = (A^2)_2
        (
            at(aa, ar) + 2 * at(a2, ar) + at(aa2, ag)
            + 2 * at(plus(a, a2), sub(times(z, g, 2, half), 2)),
            8,
        ),
        # b2: 4 A Z_2(R) + 4 Z_2(A) Q
        (2 * at(a, rr) + 2 * at(a, r2) + at(q, z), 4),
        # b3: 2 D + 2 P + 4 S, with L^2 + 2 L A_2 = (L + A_2)^2 - A_2^2
        (
            at(q, w) + 12 * at(rr, r) + 2 * at(times(w, g, 3, n - 4), rr)
            + 4 * at(arg, arg) + 6 * at(arg, ar) + 4 * at(arg, r)
            + at(q, r2) + 2 * at(a, mpq2) + 2 * mpq2[n]
            + 2 * at(times(y, y, 4, n - 1), a) - 2 * at(aa2, a)
            + 2 * at(a, sub(r, 4)) + 4 * at(a, sub(ar, 2)) + 4 * at(a, r2) - 2 * at(t, t),
            8,
        ),
    )
    where = f"third jump, degree {n}"
    return sum(IntegralityError.quotient(num, den, where) for num, den in cases)


def _rows(ks: list[int], order: int, solved: dict[int, list[int]]) -> list[list[int]]:
    """The rows k in ``ks`` of U through ``order``, from ``solved``, which
    maps each k in :func:`_solves` of ``ks`` to its solve's U row.

    With base = max(order - 5, 1), a row k <= base is its own solve's U row.
    A row above it is U_base plus the jumps U_j[n] - U_{j-1}[n] of each
    column n with base < j <= k: the last jump at j = n - 2, the second at
    j = n - 3 and the third at j = n - 4.  As order <= base + 5, these are
    all the jumps of column n above base.  So from order 6 on the third
    jump is added at n = order alone and the second at n = order - 1 and,
    for k >= order - 3, at n = order; every k >= order - 2 is the stable
    row, which adds all the jumps of the columns n >= order - 2.  When some
    k is above base, one :func:`_series` of :func:`_rooted_trees` through
    ``order`` is built and each jump a row needs is read off it once, for
    all the rows; otherwise nothing is built.  ``solved`` is not changed.

    >>> from ktrees.engine import count_ktrees
    >>> solved = {k: count_ktrees(k, 7).U for k in _solves([2, 3, 8], 7)}
    >>> _rows([2, 3, 8], 7, solved)
    [[1, 1, 1, 2, 5, 12, 39, 136], [1, 1, 1, 2, 5, 15, 58, 275], [1, 1, 1, 2, 5, 15, 64, 342]]
    """
    base, top = max(order - 5, 1), max(ks, default=1)
    if top <= base:
        return [solved[k] for k in ks]
    series = _series(_rooted_trees(order - 1), order)
    table = [
        [(j, jump(series, n)) for j, jump in ((n - 2, _last), (n - 3, _second), (n - 4, _third))
         if base < j <= top]
        for n in range(order + 1)
    ]
    return [
        solved[k] if k <= base
        else [u + sum(d for j, d in column if j <= k) for u, column in zip(solved[base], table)]
        for k in ks
    ]
