"""Stateful property test for GSimIndex.

A hypothesis rule-based state machine drives an index through random
interleavings of insertions and queries, checking every query against a
brute-force model — the strongest guarantee that incremental insertion
(with its frozen ordering and unprunable bookkeeping) never drifts from
the naive semantics.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import GSimIndex, GSimJoinOptions
from repro.ged import ged_within
from repro.graph.generators import random_labeled_graph
from repro.graph.operations import perturb

from .test_batch_parity import assert_store_matches_rebuild

VERTEX_LABELS = ["A", "B", "C"]
EDGE_LABELS = ["x", "y"]
TAU_MAX = 2


class IndexMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def setup(self, seed):
        self.rng = random.Random(seed)
        self.index = GSimIndex(tau_max=TAU_MAX, options=GSimJoinOptions.full(q=2))
        self.model = []  # list of graphs, the ground truth
        self.next_id = 0

    def _random_graph(self):
        n = self.rng.randint(1, 5)
        m = self.rng.randint(0, n * (n - 1) // 2)
        g = random_labeled_graph(self.rng, n, m, VERTEX_LABELS, EDGE_LABELS)
        g.graph_id = self.next_id
        self.next_id += 1
        return g

    @rule()
    def add_random_graph(self):
        g = self._random_graph()
        self.index.add(g)
        self.model.append(g)

    @rule()
    def add_near_duplicate(self):
        if not self.model:
            return
        base = self.rng.choice(self.model)
        clone = perturb(
            base, self.rng.randint(1, 2), self.rng, VERTEX_LABELS, EDGE_LABELS,
            graph_id=self.next_id,
        )
        self.next_id += 1
        self.index.add(clone)
        self.model.append(clone)

    @rule(tau=st.integers(min_value=0, max_value=TAU_MAX))
    def query_member(self, tau):
        if not self.model:
            return
        query = self.rng.choice(self.model)
        got = {gid for gid, _ in self.index.query(query, tau)}
        expected = {
            g.graph_id
            for g in self.model
            if g.graph_id != query.graph_id and ged_within(query, g, tau)
        }
        assert got == expected

    @rule(tau=st.integers(min_value=0, max_value=TAU_MAX))
    def query_external(self, tau):
        query = self._random_graph()
        self.next_id -= 1  # not inserted; id can be reused
        got = {gid for gid, _ in self.index.query(query, tau)}
        expected = {
            g.graph_id for g in self.model if ged_within(query, g, tau)
        }
        assert got == expected

    @invariant()
    def sizes_agree(self):
        if hasattr(self, "model"):
            assert len(self.index) == len(self.model)

    @invariant()
    def store_matches_rebuild(self):
        # The store exists once a query ran (batch mode, non-empty
        # index); every later add appends to it instead of rebuilding.
        if hasattr(self, "index") and self.index._store is not None:
            assert_store_matches_rebuild(self.index)


IndexMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None
)
TestGSimIndexStateful = IndexMachine.TestCase
