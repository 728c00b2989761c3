"""U's third jump: against direct solves, and each of its six cases against
a brute-force count of the shapes the proof in ``ktrees._jumps`` names; the
second jump's two cases the same way."""

from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product

import pytest

from ktrees import _jumps
from ktrees.closedforms import rooted_trees
from ktrees.engine import count_ktrees
from ktrees.series import IntegralityError, Series
from rational_series import add, integer_coeffs, mul, one, scale, substitute_power

HALF = Fraction(1, 2)


def test_third_jump_equals_the_engine_through_20():
    # One solve per k at order 20: by monotone truncation its row holds
    # U_k[n] for every n <= 20.
    solved = {k: count_ktrees(k, 20) for k in range(1, 17)}
    u, trees = {k: bundle.U for k, bundle in solved.items()}, solved[1].C
    jumps = [_jumps._third(_jumps._series(trees, n), n) for n in range(6, 21)]
    assert all(type(j) is int for j in jumps)
    assert jumps == [u[n - 4][n] - u[n - 5][n] for n in range(6, 21)]
    assert jumps[:5] == [28, 139, 645, 2761, 11275]


def test_a_third_jump_remainder_names_the_degree(monkeypatch):
    # The jump's counts are integers for every row of ints, so only a wrong
    # product leaves a remainder: here each term of a product is one over.
    trees = count_ktrees(1, 12).C
    monkeypatch.setattr(_jumps, "mul", lambda x, y: x * y + 1)
    with pytest.raises(IntegralityError, match=r"^third jump, degree 6: 113/8 is not an integer$"):
        _jumps._third(_jumps._series(trees, 6), 6)


def test_rooted_trees_agree_on_three_routes_through_200():
    # The jumps' own recurrence, the closed forms' fixed point and the
    # engine's k = 1 solve, whose C row is the rooted trees by edges.
    trees = _jumps._rooted_trees(200)
    assert trees == rooted_trees(200) == count_ktrees(1, 200).C
    assert trees[:7] == [1, 1, 2, 4, 9, 20, 48]


def test_a_rooted_trees_remainder_names_the_degree(monkeypatch):
    # Each divisor-sum weight and each term of the convolution one over.
    monkeypatch.setattr(_jumps, "mul", lambda x, y: x * y + 1)
    with pytest.raises(IntegralityError, match=r"^rooted trees, degree 2: 17/2 is not an integer$"):
        _jumps._rooted_trees(12)


def test_otters_last_jump_is_the_tree_count_through_40():
    # U_{n-2}[n] - U_{n-3}[n] = U_1[n - 1], the trees on n nodes, read off
    # the rooted trees by Otter's dissymmetry.
    series = _jumps._series(_jumps._rooted_trees(39), 40)
    u1 = count_ktrees(1, 39).U
    assert [_jumps._last(series, n) for n in range(4, 41)] == u1[3:40]
    assert [_jumps._last(series, n) for n in range(4, 9)] == [2, 3, 6, 11, 23]


# ------------------------------------------------ the six cases, two ways

ORDER = 9


def _cases(order):
    """The cases a1-b3 through ``order``, written as the module docstring
    of ``ktrees._jumps`` writes them, in the tests' rational series algebra:
    a second route to the integer rows that ``_third`` sums."""

    def times(*fs):
        return reduce(mul, fs)

    def plus(*fs):
        return reduce(add, fs)

    def sub(f, i=2):  # F_i = F(x^i)
        return substitute_power(f, i)

    def z2(f):
        return scale(plus(times(f, f), sub(f)), HALF)

    def z3(f):
        cubes = plus(times(f, f, f), scale(times(f, sub(f)), 3), scale(sub(f, 3), 2))
        return scale(cubes, Fraction(1, 6))

    a = Series(order, [0, *rooted_trees(order - 1)])
    g = one(order)
    for _ in range(order):
        g = plus(one(order), times(a, g))  # G = 1 / (1 - A)
    ag = times(a, g)
    a3g = times(a, a, ag)
    r = times(a, ag)
    q = plus(times(r, r), times(ag, plus(z2(ag), scale(z2(a), -1))))
    m = plus(scale(times(a3g, g), 2), times(a3g, g, g))
    t = times(ag, sub(ag))
    ell = plus(t, sub(r))
    quads = [times(a, a, a, a), times(a, a, sub(a)), times(sub(a), sub(a)), times(a, sub(a, 3))]
    z4 = scale(plus(*map(scale, [*quads, sub(a, 4)], [1, 6, 3, 8, 6])), Fraction(1, 24))
    d = plus(
        times(q, plus(scale(a3g, 4), times(a, a3g, g))),
        times(r, r, plus(scale(times(a, ag), 6), scale(times(a3g, g), 4), times(a, a3g, g, g))),
        scale(times(r, plus(times(a3g, g), times(a, a3g, g, g))), 2),
        scale(times(a3g, a3g, g), 3),
    )
    p = plus(
        times(sub(times(a, ag)), q),
        times(plus(one(order), a), sub(times(g, plus(scale(times(a, r), 3), times(r, r))))),
    )
    s = plus(
        times(a, plus(sub(q), scale(sub(m), HALF), scale(sub(r, 4), HALF))),
        times(a, plus(scale(times(ell, ell), HALF), times(ell, sub(a)), sub(a3g), sub(r))),
        scale(times(t, t), -HALF),
        sub(q),
        scale(sub(m), HALF),
    )
    return {
        "a1": z4,
        "a2": times(z2(a), a3g),
        "a3": plus(
            scale(plus(times(a3g, a3g), sub(a3g)), HALF), times(a, z3(r)), times(a, a, z2(r))
        ),
        "b1": scale(
            plus(times(z2(a), z2(a), ag), times(sub(z2(a)), plus(a, sub(a)), sub(g))), HALF
        ),
        "b2": plus(times(a, z2(r)), times(z2(a), q)),
        "b3": plus(scale(plus(d, p), Fraction(1, 4)), scale(s, HALF)),
    }


def _canonical(adj, label):
    """A canonical string of the tree ``adj`` with node labels ``label``:
    the labelled AHU code from its centre, the smaller of the two from a
    central edge."""
    degree = {v: len(adj[v]) for v in adj}
    layer, left = [v for v in adj if degree[v] <= 1], len(adj)
    while left > 2:
        left -= len(layer)
        inner = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    inner.append(w)
        layer = inner

    def code(v, parent):
        return "(" + label[v] + "".join(sorted(code(w, v) for w in adj[v] if w != parent)) + ")"

    if len(layer) == 1:
        return code(layer[0], None)
    u, v = layer
    return min(code(u, v) + code(v, u), code(v, u) + code(u, v))


def _shape(tree, fronts, edges):
    """The canonical code of ``tree``, its nodes hedra ("h") but the fronts
    in ``fronts``, a node to color map, with each edge in ``edges``, an edge
    to color map, a front in two hedra: a node of its color between them.
    Colors "c" and "d" stand for c and c'; the code is the smaller of the two
    namings, so a shape is counted up to swapping them."""
    adj = {v: set(tree[v]) for v in tree}
    label = {v: fronts.get(v, "h") for v in tree}
    for (u, v), color in edges.items():
        adj[u].remove(v)
        adj[v].remove(u)
        adj[u].add((u, v))
        adj[v].add((u, v))
        adj[(u, v)] = {u, v}
        label[(u, v)] = color
    swap = {v: {"c": "d", "d": "c"}.get(name, name) for v, name in label.items()}
    return min(_canonical(adj, label), _canonical(adj, swap))


def _brute_force(n):
    """The k-trees of each case of the third jump at n hedra, counted as the
    distinct shapes of the proof, over networkx's trees.  A front in three
    or four hedra is a node of the tree, joined to its hedra."""
    nx = pytest.importorskip("networkx")
    found = {case: set() for case in ("a1", "a2", "a3", "b1", "b2", "b3")}

    def apart(*es):
        return all(not set(e) & set(f) for e, f in combinations(es, 2))

    for tree in nx.nonisomorphic_trees(n + 1):
        for f in tree:
            if tree.degree(f) == 4:
                found["a1"].add(_shape(tree, {f: "c"}, {}))
            if tree.degree(f) == 3:
                # Edges of two hedra: f's edges join it to its hedra.
                edges = [e for e in tree.edges if f not in e]
                for e in edges:
                    if not set(e) & set(tree[f]):
                        found["a2"].add(_shape(tree, {f: "c"}, {e: "c"}))
                for e, e2 in combinations(edges, 2):
                    if apart(e, e2):
                        found["b2"].add(_shape(tree, {f: "c"}, {e: "d", e2: "d"}))
    for tree in nx.nonisomorphic_trees(n + 2):
        for f, f2 in permutations(tree, 2):
            if tree.degree(f) == tree.degree(f2) == 3 and f2 not in tree[f]:
                found["b1"].add(_shape(tree, {f: "c", f2: "d"}, {}))
    for tree in nx.nonisomorphic_trees(n):
        for es in combinations(tree.edges, 3):
            if apart(*es):
                found["a3"].add(_shape(tree, {}, dict.fromkeys(es, "c")))
        pairs = [es for es in combinations(tree.edges, 2) if apart(*es)]
        for cs, ds in product(pairs, repeat=2):
            if not set(cs) & set(ds):
                marks = {**dict.fromkeys(cs, "c"), **dict.fromkeys(ds, "d")}
                found["b3"].add(_shape(tree, {}, marks))
    return {case: len(shapes) for case, shapes in found.items()}


def test_each_case_of_the_third_jump_counts_its_shapes():
    # n = 6..9 takes about 2 s, most of it at n = 9.
    cases = {case: integer_coeffs(f) for case, f in _cases(ORDER).items()}
    trees = count_ktrees(1, ORDER).C
    for n in range(6, ORDER + 1):
        assert _brute_force(n) == {case: row[n] for case, row in cases.items()}, n
        jump = _jumps._third(_jumps._series(trees, n), n)
        assert sum(row[n] for row in cases.values()) == jump, n
    assert [cases["b3"][n] for n in range(6, 10)] == [9, 56, 307, 1465]


# ------------------------------------------ the second jump's two cases

def _second_cases(order):
    """The second jump's two cases through ``order``, as the docstring of
    ``ktrees._jumps._second`` writes them, in the tests' rational
    series algebra: one front in three hedra, Z_3(A), and two fronts of one
    color on no common hedron, (A^4 G + A_2^2 (1 + A) G_2) / 2."""
    a = Series(order, [0, *rooted_trees(order - 1)])
    g = one(order)
    for _ in range(order):
        g = add(one(order), mul(a, g))  # G = 1 / (1 - A)
    a2 = substitute_power(a, 2)
    cubes = reduce(
        add, [reduce(mul, [a, a, a]), scale(mul(a, a2), 3), scale(substitute_power(a, 3), 2)]
    )
    pairs = add(
        reduce(mul, [a, a, a, a, g]),
        reduce(mul, [a2, a2, add(one(order), a), substitute_power(g, 2)]),
    )
    return {"one front": scale(cubes, Fraction(1, 6)), "two fronts": scale(pairs, HALF)}


def _second_brute_force(n):
    """The k-trees of each case of the second jump at n hedra, counted as
    the distinct shapes of the proof, over networkx's trees."""
    nx = pytest.importorskip("networkx")
    one_front = {
        _shape(tree, {f: "c"}, {})
        for tree in nx.nonisomorphic_trees(n + 1)
        for f in tree
        if tree.degree(f) == 3
    }
    two_fronts = {
        _shape(tree, {}, {e: "c", e2: "c"})
        for tree in nx.nonisomorphic_trees(n)
        for e, e2 in combinations(tree.edges, 2)
        if not set(e) & set(e2)
    }
    return {"one front": len(one_front), "two fronts": len(two_fronts)}


def test_each_case_of_the_second_jump_counts_its_shapes():
    # n = 5..10 takes well under a second.
    cases = {case: integer_coeffs(f) for case, f in _second_cases(10).items()}
    trees = count_ktrees(1, 10).C
    for n in range(5, 11):
        assert _second_brute_force(n) == {case: row[n] for case, row in cases.items()}, n
        jump = _jumps._second(_jumps._series(trees, n), n)
        assert sum(row[n] for row in cases.values()) == jump, n
    assert [cases["one front"][n] for n in range(5, 11)] == [3, 7, 18, 44, 117, 299]
    assert [cases["two fronts"][n] for n in range(5, 11)] == [3, 12, 38, 127, 395, 1237]
