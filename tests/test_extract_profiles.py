"""Differential tests: the collection walk against the per-graph walk.

:func:`repro.grams.qgrams.extract_profiles` must produce, for a whole
collection, exactly what the reference pipeline produces — the
per-graph walk (:func:`extract_qgrams`), then
:func:`build_vocabulary`, then :meth:`QGramVocabulary.sort_profile` on
every profile: byte-identical keys, paths, instance order, vertex
counts, ``D_path``, signatures and vocabulary rank.
"""

from __future__ import annotations

import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import random_labeled_graph
from repro.graph.graph import Graph
from repro.grams import pathwalk
from repro.grams.qgrams import extract_profiles, extract_qgrams
from repro.grams.vocab import build_vocabulary

from .conftest import build_graph

needs_numpy = pytest.mark.skipif(
    not pathwalk.HAVE_NUMPY, reason="the collection walk needs numpy"
)

#: Mixed label types, including labels that are equal but print
#: differently (1 / 1.0 / True, 0 / 0.0 / -0.0 / False).
MIXED_LABELS = ["A", "B", "1", 1, 1.0, True, 0, 0.0, -0.0, False, (1, "x"), None]


class Opaque:
    """A label that prints like every other Opaque but equals only itself."""

    def __repr__(self) -> str:
        return "Opaque"


#: Distinct labels that print alike: the per-graph walk cannot tell them
#: apart when orienting a path, yet they make distinct keys.
OPAQUE_LABELS = [Opaque(), Opaque(), Opaque(), "A"]


def reference(graphs, q):
    profiles = [extract_qgrams(g, q) for g in graphs]
    vocabulary = build_vocabulary(profiles)
    for profile in profiles:
        vocabulary.sort_profile(profile)
    return profiles, vocabulary


def assert_identical(graphs, q):
    want, want_vocab = reference(graphs, q)
    got, got_vocab = extract_profiles(graphs, q)
    assert len(got_vocab) == len(want_vocab)
    assert got_vocab.frozen_size == want_vocab.frozen_size
    assert [repr(got_vocab.key_of(i)) for i in range(len(got_vocab))] == [
        repr(want_vocab.key_of(i)) for i in range(len(want_vocab))
    ]
    assert len(got) == len(want)
    for g, p, w in zip(graphs, got, want):
        assert p.graph is g
        assert p.q == q
        assert repr(p.keys) == repr(w.keys)
        assert repr(p.paths) == repr(w.paths)
        assert [(repr(x.key), x.path) for x in p.grams] == [
            (repr(x.key), x.path) for x in w.grams
        ]
        assert list(p.vertex_counts.items()) == list(w.vertex_counts.items())
        assert p.d_path == w.d_path
        assert p.signature == w.signature
        assert p.signature_total and w.signature_total
        assert p.signature_source is got_vocab
        assert p.key_counts == w.key_counts
    return got, got_vocab


@st.composite
def collections(draw, labels=("A", "B", "C"), edge_labels=("x", "y"),
                max_graphs=9, max_vertices=6):
    """A collection of small random graphs, all directed or all not."""
    directed = draw(st.booleans())
    sizes = draw(st.lists(st.integers(0, max_vertices), min_size=0,
                          max_size=max_graphs))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = random.Random(seed)
    graphs = []
    for k, n in enumerate(sizes):
        max_edges = n * (n - 1) // (1 if directed else 2)
        m = rng.randint(0, max_edges)
        graphs.append(random_labeled_graph(
            rng, n, m, labels, edge_labels, graph_id=k, directed=directed
        ))
    return graphs


@needs_numpy
class TestCollectionWalk:
    @settings(max_examples=60, deadline=None)
    @given(collections(), st.integers(0, 5), st.integers(1, 4))
    def test_matches_reference_across_blocks(self, graphs, q, block):
        with mock.patch.object(pathwalk, "BLOCK_GRAPHS", block):
            assert_identical(graphs, q)

    @settings(max_examples=40, deadline=None)
    @given(collections(labels=MIXED_LABELS, edge_labels=MIXED_LABELS),
           st.integers(0, 4))
    def test_mixed_label_types(self, graphs, q):
        assert_identical(graphs, q)

    @settings(max_examples=30, deadline=None)
    @given(collections(labels=OPAQUE_LABELS, edge_labels=OPAQUE_LABELS[1:]),
           st.integers(0, 4))
    def test_distinct_labels_that_print_alike(self, graphs, q):
        assert_identical(graphs, q)

    @settings(max_examples=25, deadline=None)
    @given(collections(labels=list(range(40)), edge_labels=list(range(40, 60)),
                       max_graphs=5, max_vertices=7),
           st.integers(4, 5))
    def test_wide_alphabet_falls_back_to_rank_rows(self, graphs, q):
        # 60 ranks need 6 bits; 2q+1 >= 9 of them exceed the packing
        # width whenever more than 10 distinct labels occur.
        assert_identical(graphs, q)

    def test_wide_alphabet_exceeds_packing_width(self):
        rng = random.Random(5)
        graphs = [
            random_labeled_graph(rng, 8, 12, list(range(300)), list(range(300)),
                                 graph_id=k)
            for k in range(6)
        ]
        labels = {g.vertex_label(v) for g in graphs for v in g.vertices()}
        bits = (len(labels) - 1).bit_length()
        assert (2 * 5 + 1) * bits > pathwalk.PACK_BITS
        assert_identical(graphs, 5)

    def test_gramless_graphs_at_block_edges(self):
        rng = random.Random(11)
        empty = Graph("e0")
        isolated = build_graph(["A", "B", "A"], [], graph_id="iso")
        graphs = []
        for k in range(7):
            graphs.append(random_labeled_graph(rng, 5, 6, "AB", "xy", graph_id=k))
            graphs.append(empty if k % 2 else isolated.copy(graph_id=f"i{k}"))
        graphs.append(Graph("last-empty"))
        for block in (1, 2, 3, 4):
            with mock.patch.object(pathwalk, "BLOCK_GRAPHS", block):
                for q in range(4):
                    assert_identical(graphs, q)

    def test_non_integer_vertices(self):
        g = build_graph(["A", "B", "C", "A"],
                        [(0, 1, "x"), (1, 2, "y"), (2, 3, "x"), (3, 0, "y")])
        h = g.relabel_vertices({0: ("t", 1), 1: "s", 2: (2, 2), 3: 7.5})
        assert_identical([g.copy(graph_id=1), h.copy(graph_id=2)], 2)

    def test_empty_collection(self):
        profiles, vocabulary = extract_profiles([], 3)
        assert profiles == [] and len(vocabulary) == 0

    def test_profiles_pickle_without_cached_views(self):
        rng = random.Random(3)
        graphs = [random_labeled_graph(rng, 6, 7, "AB", "xy", graph_id=k)
                  for k in range(4)]
        profiles, vocabulary = extract_profiles(graphs, 2)
        assert profiles[0].grams  # build the cached view
        profiles2, vocabulary2 = pickle.loads(pickle.dumps((profiles, vocabulary)))
        assert profiles2[0]._grams is None
        assert profiles2[0].signature_source is vocabulary2
        assert profiles2[0].keys == profiles[0].keys
        assert [x.path for x in profiles2[0].grams] == profiles[0].paths


def test_fallback_without_numpy_matches_reference():
    rng = random.Random(9)
    graphs = [random_labeled_graph(rng, 6, 8, "ABC", "xy", graph_id=k)
              for k in range(5)]
    with mock.patch.object(pathwalk, "HAVE_NUMPY", False):
        assert_identical(graphs, 3)
