"""Distance matrix derivations against exhaustive oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aste.errors import ValidationError
from aste.structure import (
    DEPENDENCY,
    NONE,
    RELATIVE,
    DependencyGraph,
    StructureConfig,
    augmented_distance_matrix,
    dependency_distance_matrix,
    distances_to_indices,
    random_tree_heads,
    relative_distance_matrix,
)


def brute_force_shortest(n, edges, tau):
    """Independent oracle: enumerate every simple path between each pair
    and take the minimum length."""
    adjacency = {i: set() for i in range(n)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)

    def paths_from(start, goal):
        best = [None]

        def walk(node, seen, length):
            if node == goal:
                if best[0] is None or length < best[0]:
                    best[0] = length
                return
            for nxt in adjacency[node]:
                if nxt not in seen:
                    walk(nxt, seen | {nxt}, length + 1)

        walk(start, {start}, 0)
        return best[0]

    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            shortest = paths_from(i, j)
            magnitude = tau if shortest is None else min(shortest, tau)
            out[i, j] = magnitude * (1 if j > i else -1)
    return out


class TestRelative:
    def test_three_tokens(self):
        expected = [[0, 1, 2], [-1, 0, 1], [-2, -1, 0]]
        np.testing.assert_array_equal(relative_distance_matrix(3, 8), expected)

    def test_clipping_at_tau(self):
        values = relative_distance_matrix(12, 8)
        assert values[0, 11] == 8
        assert values[11, 0] == -8

    def test_zero_diagonal(self):
        values = relative_distance_matrix(9, 4)
        np.testing.assert_array_equal(np.diag(values), np.zeros(9, dtype=np.int64))

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            relative_distance_matrix(0, 8)

    @given(st.integers(1, 20), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry_and_idempotent_clip(self, n, tau):
        values = relative_distance_matrix(n, tau)
        np.testing.assert_array_equal(values, -values.T)
        np.testing.assert_array_equal(np.clip(values, -tau, tau), values)
        assert np.abs(values).max() <= tau


class TestDependency:
    def test_chain(self):
        graph = DependencyGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        values = dependency_distance_matrix(graph, 8)
        assert values[0, 3] == 3
        assert values[3, 0] == -3

    def test_star(self):
        graph = DependencyGraph.from_edges(3, [(1, 0), (1, 2)])
        values = dependency_distance_matrix(graph, 8)
        assert values[0, 2] == 2

    def test_random_trees_match_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            heads = random_tree_heads(n, rng)
            graph = DependencyGraph.from_heads(heads)
            tau = int(rng.integers(1, 6))
            got = dependency_distance_matrix(graph, tau)
            expected = brute_force_shortest(n, graph.edges, tau)
            np.testing.assert_array_equal(got, expected)

    def test_unreachable_pairs_get_tau(self):
        # two components: {0, 1} and {2}
        graph = DependencyGraph.from_edges(3, [(0, 1)])
        values = dependency_distance_matrix(graph, 5)
        assert values[0, 2] == 5
        assert values[2, 0] == -5

    def test_path_graph_equals_relative(self):
        heads = [-1, 0, 1, 2, 3, 4]
        graph = DependencyGraph.from_heads(heads)
        np.testing.assert_array_equal(
            dependency_distance_matrix(graph, 3), relative_distance_matrix(6, 3)
        )

    @given(st.integers(2, 10), st.integers(1, 6), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_antisymmetric_with_zero_diagonal(self, n, tau, seed):
        heads = random_tree_heads(n, np.random.default_rng(seed))
        values = dependency_distance_matrix(DependencyGraph.from_heads(heads), tau)
        np.testing.assert_array_equal(values, -values.T)
        np.testing.assert_array_equal(np.diag(values), np.zeros(n, dtype=np.int64))


class TestGraphValidation:
    def test_edge_out_of_range(self):
        with pytest.raises(ValidationError):
            DependencyGraph.from_edges(3, [(0, 3)])

    def test_self_loop(self):
        with pytest.raises(ValidationError):
            DependencyGraph.from_edges(3, [(1, 1)])

    def test_duplicate_edges_collapse(self):
        graph = DependencyGraph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert len(graph.edges) == 1

    def test_from_heads_skips_root(self):
        graph = DependencyGraph.from_heads([-1, 0, 0])
        assert graph.edges == frozenset({(0, 1), (0, 2)})


class TestIndexing:
    @pytest.mark.parametrize("r,expected", [(-8, 0), (0, 8), (8, 16)])
    def test_corner_values(self, r, expected):
        assert distances_to_indices(np.array([r]), 8).tolist() == [expected]

    def test_out_of_range(self):
        for values in ([[0, 9]], [[-9, 0]]):
            with pytest.raises(ValidationError):
                distances_to_indices(np.array(values), 8)

    def test_matrix_version_matches_scalar(self):
        values = relative_distance_matrix(5, 3)
        indices = distances_to_indices(values, 3)
        for i in range(5):
            for j in range(5):
                assert indices[i, j] == int(values[i, j]) + 3


class TestAugmented:
    def test_disabled_returns_none(self):
        assert augmented_distance_matrix(4, StructureConfig(kind=NONE)) is None

    def test_relative_covers_markers(self):
        config = StructureConfig(tau=8, kind=RELATIVE)
        values = augmented_distance_matrix(3, config)
        np.testing.assert_array_equal(values, relative_distance_matrix(5, 8))

    def test_dependency_block_with_relative_markers(self):
        config = StructureConfig(tau=8, kind=DEPENDENCY)
        heads = [1, -1, 1]
        values = augmented_distance_matrix(3, config, heads=heads)
        graph = DependencyGraph.from_heads(heads)
        np.testing.assert_array_equal(
            values[1:4, 1:4], dependency_distance_matrix(graph, 8)
        )
        # marker rows/cols follow the relative rule
        assert values[0, 4] == 4
        assert values[0, 1] == 1
        assert values[4, 0] == -4

    def test_padding_stored_as_zero(self):
        config = StructureConfig(tau=8, kind=RELATIVE)
        values = augmented_distance_matrix(3, config, total_len=8)
        assert values.shape == (8, 8)
        np.testing.assert_array_equal(values[5:, :], 0)
        np.testing.assert_array_equal(values[:, 5:], 0)

    def test_dependency_requires_heads(self):
        with pytest.raises(ValidationError):
            augmented_distance_matrix(3, StructureConfig(kind=DEPENDENCY))

    def test_total_len_too_small(self):
        with pytest.raises(ValidationError):
            augmented_distance_matrix(3, StructureConfig(kind=RELATIVE), total_len=4)


class TestRandomTree:
    def test_connected_tree(self):
        rng = np.random.default_rng(0)
        heads = random_tree_heads(10, rng)
        graph = DependencyGraph.from_heads(heads)
        assert len(graph.edges) == 9
        values = dependency_distance_matrix(graph, 100)
        assert np.abs(values[0]).max() < 100  # everything reachable

    def test_deterministic_per_seed(self):
        a = random_tree_heads(12, np.random.default_rng(5))
        b = random_tree_heads(12, np.random.default_rng(5))
        assert a == b
