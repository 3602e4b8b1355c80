"""Direct tests for the A* heuristics and mapping orders."""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compare_qgrams, extract_qgrams
from repro.datasets import figure1_graphs
from repro.ged import graph_edit_distance
from repro.ged.heuristics import (
    label_heuristic,
    make_local_label_heuristic,
    subgraph_entry,
    zero_heuristic,
)
from repro.graph.generators import random_labeled_graph
from repro.ged.vertex_order import (
    input_vertex_order,
    mismatch_vertex_order,
    spanning_tree_vertex_order,
)

from .conftest import (
    EDGE_LABELS,
    VERTEX_LABELS,
    build_graph,
    graph_pairs_within,
    path_graph,
)


def full_rest(r, s):
    return list(r.vertices()), set(s.vertices())


class TestZeroHeuristic:
    def test_always_zero(self):
        r, s = figure1_graphs()
        r_rest, s_rest = full_rest(r, s)
        assert zero_heuristic(r, s, r_rest, s_rest) == 0


class TestLabelHeuristic:
    def test_full_remainder_equals_global_filter(self):
        r, s = figure1_graphs()
        r_rest, s_rest = full_rest(r, s)
        assert label_heuristic(r, s, r_rest, s_rest) == 3

    def test_empty_remainders(self):
        r, s = figure1_graphs()
        assert label_heuristic(r, s, [], set()) == 0

    def test_one_side_empty_counts_insertions(self):
        r = path_graph(["A", "B"])
        s = path_graph(["A", "B"])
        # r fully mapped, s untouched: 2 vertices + 1 edge remaining.
        assert label_heuristic(r, s, [], {0, 1}) == 3

    def test_partial_remainder_counts_resident_edges(self):
        r = path_graph(["A", "B", "C"])
        s = path_graph(["A", "B", "C"])
        # Unmapped {2} on both sides: resident edges (1,2) match.
        value = label_heuristic(r, s, [2], {2})
        assert value == 0

    @settings(max_examples=30, deadline=None)
    @given(graph_pairs_within(tau_max=2, max_vertices=4))
    def test_admissible_at_root(self, pair):
        """h at the initial state never exceeds the true distance."""
        r, s, _ = pair
        r_rest, s_rest = full_rest(r, s)
        assert label_heuristic(r, s, r_rest, s_rest) <= graph_edit_distance(r, s)


class TestLocalLabelHeuristic:
    @settings(max_examples=25, deadline=None)
    @given(graph_pairs_within(tau_max=2, max_vertices=4))
    def test_admissible_at_root(self, pair):
        r, s, _ = pair
        true = graph_edit_distance(r, s)
        h = make_local_label_heuristic(q=1, tau=true, max_remaining=None)
        r_rest, s_rest = full_rest(r, s)
        assert h(r, s, r_rest, s_rest) <= true

    def test_gate_falls_back_to_label_bound(self):
        r, s = figure1_graphs()
        gated = make_local_label_heuristic(q=1, tau=4, max_remaining=0)
        r_rest, s_rest = full_rest(r, s)
        assert gated(r, s, r_rest, s_rest) == label_heuristic(r, s, r_rest, s_rest)

    def test_never_below_label_bound(self):
        r, s = figure1_graphs()
        h = make_local_label_heuristic(q=1, tau=4, max_remaining=None)
        r_rest, s_rest = full_rest(r, s)
        assert h(r, s, r_rest, s_rest) >= label_heuristic(r, s, r_rest, s_rest)

    def test_profile_cache_reused(self):
        r, s = figure1_graphs()
        h = make_local_label_heuristic(q=1, tau=4, max_remaining=None)
        r_rest, s_rest = full_rest(r, s)
        first = h(r, s, r_rest, s_rest)
        second = h(r, s, r_rest, s_rest)  # cache hit path
        assert first == second


@st.composite
def graphs_with_remainders(draw):
    """A random graph (maybe directed), a q, and two vertex remainders."""
    directed = draw(st.booleans())
    n = draw(st.integers(min_value=1, max_value=7))
    max_edges = n * (n - 1) // (1 if directed else 2)
    m = draw(st.integers(min_value=0, max_value=max_edges))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    g = random_labeled_graph(
        rng, n, m, VERTEX_LABELS, EDGE_LABELS, directed=directed
    )
    vertices = list(g.vertices())
    rests = [
        frozenset(draw(st.sets(st.sampled_from(vertices), min_size=1)))
        for _ in range(2)
    ]
    return g, draw(st.integers(min_value=0, max_value=4)), rests


def _instances(profile):
    """Key/path instances, undirected paths read from their smaller end."""
    directed = profile.graph.is_directed
    return Counter(
        (key, path if directed else min(path, path[::-1]))
        for key, path in zip(profile.keys, profile.paths)
    )


class TestSubgraphEntry:
    @settings(max_examples=60, deadline=None)
    @given(graphs_with_remainders())
    def test_matches_a_walk_of_the_induced_subgraph(self, case):
        """The entry equals ``extract_qgrams(g.subgraph(rest))``:
        key multiset, paths, vertex counts, ``D_path`` and both label
        multisets (one memo serving both remainders)."""
        g, q, rests = case
        cache = {}
        for rest in rests:
            graph, profile, labels = subgraph_entry(g, rest, q, cache)
            sub = g.subgraph(rest)
            expected = extract_qgrams(sub, q)
            assert graph is g
            assert profile.key_counts == expected.key_counts
            assert _instances(profile) == _instances(expected)
            assert profile.vertex_counts == expected.vertex_counts
            assert profile.d_path == expected.d_path
            assert labels == (
                sub.vertex_label_multiset(), sub.edge_label_multiset()
            )
            assert subgraph_entry(g, rest, q, cache) is cache[(id(g), rest)]


class TestVertexOrders:
    def test_input_order(self):
        g = path_graph(["A", "B", "C"])
        assert input_vertex_order(g) == [0, 1, 2]

    def test_spanning_tree_order_is_permutation(self):
        g = build_graph(["A"] * 4, [(0, 2, "x"), (2, 3, "x")])
        order = spanning_tree_vertex_order(g)
        assert sorted(order) == [0, 1, 2, 3]

    def test_mismatch_order_puts_mismatching_vertices_first(self):
        r, s = figure1_graphs()
        mismatch = compare_qgrams(extract_qgrams(r, 1), extract_qgrams(s, 1))
        order = mismatch_vertex_order(r, mismatch.mismatch_r)
        assert sorted(order) == sorted(r.vertices())
        covered = set()
        for gram in mismatch.mismatch_r:
            covered |= gram.vertex_set
        assert set(order[: len(covered)]) == covered

    def test_mismatch_order_with_no_mismatches(self):
        g = path_graph(["A", "B", "C"])
        order = mismatch_vertex_order(g, [])
        assert sorted(order) == [0, 1, 2]
