"""Brute-force oracle: pinned small cases and agreement with the engine."""

from itertools import permutations
from math import factorial

import pytest

from ktrees.engine import count_fixed_by_type, count_ktrees, solve_system
from ktrees.oracle import (
    MAX_K,
    MAX_N,
    _validate_coding_tree,
    enumerate_coding_trees,
    fixed_count,
    orbit_count,
)
from ktrees.partitions import permutation_cycle_type


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
        _validate_coding_tree(2, code)


def test_validator_accepts_enumerated_codes():
    for code in enumerate_coding_trees(2, 3):
        _validate_coding_tree(2, code)


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
def test_burnside_identity(k):
    perms = list(permutations(range(1, k + 2)))
    for n in range(MAX_N + 1):
        total = sum(fixed_count(k, n, pi) for pi in perms)
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
def test_fixed_counts_match_engine_per_type(k):
    # Strongest cross-check: every cycle type, every size, engine == brute force.
    cache = solve_system(k, MAX_N)
    for pi in permutations(range(1, k + 2)):
        lam = permutation_cycle_type(pi)
        engine_fixed = count_fixed_by_type(cache, lam)
        for n in range(MAX_N + 1):
            assert fixed_count(k, n, pi) == engine_fixed[n], (k, n, pi)


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
