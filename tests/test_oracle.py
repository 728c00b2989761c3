"""Brute-force oracle: pinned small cases and agreement with the engine."""

import os
import subprocess
import sys
from functools import cache
from itertools import permutations, product
from math import factorial

import pytest

import ktrees
from ktrees import oracle
from ktrees.engine import count_fixed_by_type, count_ktrees, solve_system
from ktrees.oracle import (
    MAX_K,
    MAX_N,
    _validate_coding_tree,
    enumerate_coding_trees,
    fixed_count,
    orbit_count,
)

from cycle_types import permutation_cycle_type


def test_single_hedron_is_forced():
    # One black vertex with one leaf of each color: a single class.
    assert len(enumerate_coding_trees(1, 1)) == 1


def test_two_hedra_three_shared_colors():
    # Two hedra share one front; its color is the only degree of freedom.
    assert len(enumerate_coding_trees(2, 2)) == 3


def test_zero_hedra():
    # The bare front: one class per color, a single orbit.
    assert len(enumerate_coding_trees(2, 0)) == 3
    assert orbit_count(2, 0) == 1


# Isomorphism classes of k-coding trees with n = 0..6 black vertices.
CLASS_COUNTS = {
    1: [2, 1, 2, 3, 6, 10, 22],
    2: [3, 1, 3, 6, 19, 54, 204],
    3: [4, 1, 4, 10, 44, 185, 1008],
}


def test_class_counts_pinned():
    # Keeping a non-center rooting as well would inflate these counts.
    got = {
        k: [len(enumerate_coding_trees(k, n)) for n in range(MAX_N + 1)]
        for k in CLASS_COUNTS
    }
    assert got == CLASS_COUNTS
    assert sum(map(sum, got.values())) == 1592


def interned(code):
    """The intern-table id of a nested code, interning it if need be."""
    return oracle._intern(code[0], tuple(sorted(interned(child) for child in code[1])))


@pytest.mark.parametrize(
    "code",
    [
        (0, ((1, ()), (2, ()))),  # black vertex missing color 3
        (0, ((1, ()), (2, ()), (2, ()))),  # black vertex with color 2 twice
        # black child repeats its parent's color 1
        (1, ((0, ((1, ()), (2, ()), (3, ()))),)),
        (1, ((2, ()),)),  # colored vertex with a colored child
    ],
)
def test_validator_rejects_malformed_codes(code):
    with pytest.raises(AssertionError):
        _validate_coding_tree(2, interned(code))


def test_validator_accepts_enumerated_codes():
    for code in enumerate_coding_trees(2, 3):
        _validate_coding_tree(2, interned(code))


@cache
def _reference_colored(k, j, m):
    """Nested codes of all trees rooted at color j with m black vertices."""
    units = [(size, code) for size in range(1, m + 1) for code in _reference_black(k, j, size)]

    def multisets(start, total):
        if total == 0:
            yield ()
        for i in range(start, len(units)):
            size, code = units[i]
            if size > total:
                return  # units are listed by size
            for rest in multisets(i, total - size):
                yield (code,) + rest

    return [(j, tuple(sorted(chosen))) for chosen in multisets(0, m)]


@cache
def _reference_black(k, j, m):
    """Nested codes of black-rooted trees with m black vertices below color j."""
    others = [c for c in range(1, k + 2) if c != j]
    out = []
    for sizes in product(range(m), repeat=len(others)):
        if sum(sizes) == m - 1:
            pools = [_reference_colored(k, c, size) for c, size in zip(others, sizes)]
            out.extend((0, combo) for combo in product(*pools))
    return out


@cache
def _reference_height(code):
    return 1 + max((_reference_height(child) for child in code[1]), default=-1)


def reference_codes(k, n):
    """The enumeration on nested tuples: every rooted shape, kept when its
    two tallest branches are equally tall (or it has none)."""
    shapes = _reference_black(k, 0, n)
    for j in range(1, k + 2):
        shapes = shapes + _reference_colored(k, j, n)
    kept = []
    for code in shapes:
        heights = sorted(map(_reference_height, code[1]), reverse=True)
        if not heights or (len(heights) > 1 and heights[0] == heights[1]):
            kept.append(code)
    return sorted(kept)


def reference_recolored(code, shade):
    """A nested code recolored by ``shade`` (``shade[0] == 0``), children re-sorted."""
    return (shade[code[0]], tuple(sorted(reference_recolored(c, shade) for c in code[1])))


def test_enumeration_matches_the_nested_tuple_reference():
    for k in range(1, MAX_K + 1):
        for n in range(MAX_N + 1):
            codes = reference_codes(k, n)
            assert enumerate_coding_trees(k, n) == codes, (k, n)
            for pi in permutations(range(1, k + 2)):
                shade = (0, *pi)
                fixed = sum(reference_recolored(code, shade) == code for code in codes)
                assert fixed_count(k, n, pi) == fixed, (k, n, pi)


# Enumerates every (k, n) cell in the order given by argv[1], then prints a
# digest of the codes, orbit counts and every fixed count, how many nodes
# the orbit and fixed-count sweeps added to the intern table, the size of
# the table, and how many of its nodes the kept trees reach.
_ORDER_SCRIPT = """
import hashlib, sys
from itertools import permutations
from ktrees import oracle
cells = [(k, n) for k in range(1, oracle.MAX_K + 1) for n in range(oracle.MAX_N + 1)]
if sys.argv[1] == "reversed":
    cells.reverse()
results, grown = {}, 0
for k, n in cells:
    codes = oracle.enumerate_coding_trees(k, n)
    size = len(oracle._NODES)
    orbits = oracle.orbit_count(k, n)
    fixed = [oracle.fixed_count(k, n, pi) for pi in permutations(range(1, k + 2))]
    grown += len(oracle._NODES) - size
    results[k, n] = (codes, orbits, fixed)
reached = set()
todo = [node_id for k, n in cells for node_id in oracle._kept(k, n)]
while todo:
    node_id = todo.pop()
    if node_id not in reached:
        reached.add(node_id)
        todo.extend(oracle._NODES[node_id][1])
digest = hashlib.sha256(repr(sorted(results.items())).encode()).hexdigest()
print(digest, grown, len(oracle._NODES), len(reached))
"""


@pytest.fixture(scope="module")
def cold_runs():
    """The order script's output from two fresh interpreters, forward and
    reversed: the intern table is process-wide state."""
    src = os.path.dirname(os.path.dirname(ktrees.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    outputs = {}
    for order in ("forward", "reversed"):
        proc = subprocess.run(
            [sys.executable, "-c", _ORDER_SCRIPT, order],
            capture_output=True, text=True, env=env, check=True,
        )
        digest, *counts = proc.stdout.split()
        outputs[order] = (digest, *map(int, counts))
    return outputs


def test_results_do_not_depend_on_call_order(cold_runs):
    assert cold_runs["forward"][0] == cold_runs["reversed"][0]


def test_sweeps_add_no_nodes_to_the_intern_table(cold_runs):
    # Every recoloring of a kept tree is a kept tree, already interned.
    assert cold_runs["forward"][1] == 0
    assert cold_runs["reversed"][1] == 0


def test_intern_table_holds_only_nodes_of_kept_trees(cold_runs):
    # The height caps build no subtree that a kept tree does not hold.
    for order in ("forward", "reversed"):
        _, _, nodes, reached = cold_runs[order]
        assert nodes == reached, order


def test_branch_sets_build_no_black_unit_pool_capped_below_one(monkeypatch):
    # A black unit is at least 1 tall, so such a pool would always be empty.
    caps = []
    black_units = oracle._black_units

    def recorded(k, j, m, cap):
        caps.append(cap)
        return black_units(k, j, m, cap)

    monkeypatch.setattr(oracle, "_black_units", recorded)
    n = MAX_N
    for k in range(1, MAX_K + 1):
        branch_sets = oracle._branch_sets(k, 1, n, lambda m: 2 * (n - m) - 1)
        assert branch_sets, k
    assert caps and min(caps) >= 1


def test_networkx_agrees_on_center_and_distinct_classes():
    nx = pytest.importorskip("networkx")

    def to_graph(code):
        graph = nx.Graph()

        def add(node, parent):
            v = graph.number_of_nodes()
            graph.add_node(v, color=node[0])
            if parent is not None:
                graph.add_edge(parent, v)
            for child in node[1]:
                add(child, v)

        add(code, None)
        return graph

    for k in range(1, MAX_K + 1):
        for n in range(6):
            hashes = set()
            for code in enumerate_coding_trees(k, n):
                graph = to_graph(code)
                assert nx.center(graph) == [0], (k, n, code)
                hashes.add(
                    nx.weisfeiler_lehman_graph_hash(
                        graph, node_attr="color", iterations=2 * n + 2
                    )
                )
            assert len(hashes) == len(enumerate_coding_trees(k, n)), (k, n)


def test_orbit_count_reference_values():
    assert orbit_count(1, 3) == 2
    assert orbit_count(2, 4) == 5
    assert orbit_count(3, 5) == 15


def test_identity_fixes_everything():
    for k in (1, 2):
        for n in range(5):
            identity = tuple(range(1, k + 2))
            assert fixed_count(k, n, identity) == len(enumerate_coding_trees(k, n))


def test_burnside_at_k2_n3():
    total = sum(fixed_count(2, 3, pi) for pi in permutations((1, 2, 3)))
    assert total // 6 == 2
    assert total % 6 == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_orbits_match_engine(k):
    engine_u = count_ktrees(k, MAX_N).U
    for n in range(MAX_N + 1):
        assert orbit_count(k, n) == engine_u[n], (k, n)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_burnside_identity(k, fixed_counts):
    perms = list(permutations(range(1, k + 2)))
    for n in range(MAX_N + 1):
        total = sum(fixed_counts(k, n, pi) for pi in perms)
        assert total == orbit_count(k, n) * factorial(k + 1), (k, n)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fixed_count_depends_only_on_cycle_type(k):
    for n in (2, 4):
        by_type = {}
        for pi in permutations(range(1, k + 2)):
            lam = permutation_cycle_type(pi)
            count = fixed_count(k, n, pi)
            if lam in by_type:
                assert count == by_type[lam], (k, n, pi)
            else:
                by_type[lam] = count


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fixed_counts_match_engine_per_type(k, fixed_counts):
    # Strongest cross-check: every cycle type, every size, engine == brute force.
    cache = solve_system(k, MAX_N)
    for pi in permutations(range(1, k + 2)):
        lam = permutation_cycle_type(pi)
        engine_fixed = count_fixed_by_type(cache, lam)
        for n in range(MAX_N + 1):
            assert fixed_counts(k, n, pi) == engine_fixed[n], (k, n, pi)


def test_scale_limits_refused():
    with pytest.raises(ValueError, match="limited to"):
        enumerate_coding_trees(MAX_K + 1, 2)
    with pytest.raises(ValueError, match="limited to"):
        orbit_count(1, MAX_N + 1)
    with pytest.raises(ValueError, match="limited to"):
        fixed_count(2, MAX_N + 1, (1, 2, 3))


def test_bad_permutation_rejected():
    with pytest.raises(ValueError, match="permutation"):
        fixed_count(2, 2, (1, 1, 3))
    with pytest.raises(ValueError, match="permutation"):
        fixed_count(2, 2, (1, 2))


def test_enumeration_is_sorted_and_deterministic():
    codes = enumerate_coding_trees(2, 3)
    assert codes == sorted(codes)
    assert codes == enumerate_coding_trees(2, 3)
