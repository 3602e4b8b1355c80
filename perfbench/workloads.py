"""The benchmark's workloads.

Each workload builds its inputs from the seed, knows how to set itself
up (the part reported as ``setup_s``), yields timed operations and
checks every operation's output.  The program only ever sees the
generated inputs; the seed stays here.

Expected answers come from ``expected.json`` (built by
``make_expected.py`` and cross-checked there against ``naive_join`` on
a scaled-down instance).  For a seed that file does not hold, the run
checks what it can without an oracle: non-empty results, no undecided
pairs, identical answers on every repetition, sharded pairs equal to
the in-memory join's, and every index query finding the graph it was
perturbed from.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import shutil
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import GSimJoinOptions, gsim_join
from repro.baselines import naive_join
from repro.core.search import GSimIndex
from repro.core.sharded import gsim_join_sharded, result_fingerprint
from repro.datasets import aids_like
from repro.engine.result import JoinStatistics
from repro.graph.generators import ATOM_LABELS, BOND_LABELS
from repro.graph.io import load_graphs, save_graphs
from repro.graph.operations import perturb

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


def load_expected() -> Dict[str, Dict[str, dict]]:
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


class Op:
    """One timed operation: ``run()`` is timed, ``check(result)`` is not."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind: str, run: Callable[[], Any],
                 check: Callable[[Any], bool]) -> None:
        self.kind = kind
        self.run = run
        self.check = check


#: Marks the end of a join or a pass: the run may set up again here.
SETUP = Op("setup", lambda: None, lambda _r: True)


class Workload:
    """Base: ``setup()`` is timed as ``setup_s``; ``ops()`` yields work."""

    name = ""

    #: An Op of kind "setup" marks where the run sets up again (between
    #: joins, or between passes), spreading the set-up samples over the
    #: run.  ``passes`` is True
    #: when operations consume the set-up state, so the run may stop
    #: only at such a marker; otherwise it may stop after any operation.
    passes = False

    def __init__(self, seed: int, smoke: bool, scratch: str,
                 use_expected: bool = True) -> None:
        self.seed = seed
        self.scratch = scratch
        stored = load_expected().get(self.name, {})
        self.expected: Optional[dict] = (
            stored.get(str(seed)) if use_expected and not smoke else None
        )

    def setup(self) -> None:
        raise NotImplementedError

    def needs_setup(self) -> bool:
        """Whether the last pass consumed the set-up state."""
        return False

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def reference(self) -> dict:
        """The expected-answer record ``make_expected.py`` stores."""
        raise NotImplementedError


def naive_cross_check(small: List[Any], tau: int, options: GSimJoinOptions) -> dict:
    """The program's pairs against ``naive_join`` on a scaled-down instance."""
    fast = gsim_join(small, tau, options)
    oracle = naive_join(small, tau)
    return {
        "small_n": len(small),
        "small_pairs": len(oracle.pairs),
        "small_matches_naive": result_fingerprint(fast) == result_fingerprint(oracle),
    }


# --- Self-joins -----------------------------------------------------------


class AidsJoin(Workload):
    """``gsim_join`` self-join of one seeded collection, repeated."""

    name = "aids-join-t1"
    n, n_smoke, n_small = 1600, 120, 150
    q, tau = 4, 1

    def __init__(self, seed: int, smoke: bool, scratch: str,
                 use_expected: bool = True) -> None:
        super().__init__(seed, smoke, scratch, use_expected)
        self.size = self.n_smoke if smoke else self.n
        self.options = GSimJoinOptions(q=self.q)
        self.graphs: List[Any] = []
        self._seen: Optional[str] = (
            self.expected["fingerprint"] if self.expected else None
        )

    def setup(self) -> None:
        self.graphs = aids_like(self.size, seed=self.seed)

    def _check(self, result: Any) -> bool:
        if result.undecided or not result.pairs:
            return False
        fp = result_fingerprint(result)
        if self._seen is None:
            self._seen = fp
        return fp == self._seen

    def ops(self) -> Iterator[Op]:
        while True:
            # Look the collection up when the join runs: the set-up
            # between joins replaces the previous copy.
            yield Op(
                "join",
                lambda: gsim_join(self.graphs, self.tau, self.options),
                self._check,
            )
            yield SETUP

    def reference(self) -> dict:
        result = gsim_join(aids_like(self.n, seed=self.seed), self.tau, self.options)
        return {
            "fingerprint": result_fingerprint(result),
            "pairs": len(result.pairs),
            **naive_cross_check(aids_like(self.n_small, seed=self.seed), self.tau,
                                self.options),
        }


# --- Out-of-core sharded join ---------------------------------------------


class ShardedJoin(Workload):
    """``gsim_join_sharded`` over a collection file, fresh spill per run."""

    name = "aids-sharded-t2"
    n, n_smoke, n_small = 800, 80, 100
    q, tau, shards = 4, 2, 4

    def __init__(self, seed: int, smoke: bool, scratch: str,
                 use_expected: bool = True) -> None:
        super().__init__(seed, smoke, scratch, use_expected)
        self.size = self.n_smoke if smoke else self.n
        self.workers = min(2, os.cpu_count() or 1)
        self.graphs = aids_like(self.size, seed=seed)
        self.path = os.path.join(scratch, "collection.txt")
        self._spills = 0
        self._expected_fp: Optional[str] = (
            self.expected["fingerprint"] if self.expected else None
        )

    def setup(self) -> None:
        save_graphs(self.graphs, self.path)

    def _check(self, result: Any) -> bool:
        if result.undecided or not result.pairs:
            return False
        if self._expected_fp is None:
            # Sharded pairs must equal the in-memory sequential join's.
            sequential = gsim_join(
                load_graphs(self.path), self.tau, GSimJoinOptions(q=self.q)
            )
            self._expected_fp = result_fingerprint(sequential)
        return result_fingerprint(result) == self._expected_fp

    def ops(self) -> Iterator[Op]:
        options = GSimJoinOptions(q=self.q)
        while True:
            self._spills += 1
            spill = os.path.join(self.scratch, f"spill-{self._spills}")

            def run(spill: str = spill) -> Any:
                return gsim_join_sharded(
                    self.path, self.tau, options, spill_dir=spill,
                    shards=self.shards, workers=self.workers,
                )

            def check(result: Any, spill: str = spill) -> bool:
                shutil.rmtree(spill, ignore_errors=True)
                return self._check(result)

            yield Op("join", run, check)
            yield SETUP

    def reference(self) -> dict:
        self.setup()
        options = GSimJoinOptions(q=self.q)
        full = gsim_join(load_graphs(self.path), self.tau, options)
        return {
            "fingerprint": result_fingerprint(full),
            "pairs": len(full.pairs),
            **naive_cross_check(aids_like(self.n_small, seed=self.seed), self.tau, options),
        }


# --- Similarity search with writes ----------------------------------------


class IndexMixed(Workload):
    """A closed loop of ``GSimIndex`` queries and inserts, one client.

    The script is fixed per seed: ~90% ``query(tau=2)`` and ~10% ``add``.
    Every query graph is a random edit script (1-2 edits) applied to a
    graph in the index at that moment, so each answer holds at least
    that graph; a share of queries repeats an earlier query object
    exactly.  Query and added graphs carry ids ("q…", "a…") disjoint
    from the indexed ints.
    """

    name = "aids-index-mixed"
    passes = True
    n, n_smoke = 800, 60
    ops_total, ops_smoke = 1000, 60
    add_share, repeat_share = 0.10, 0.20
    tau_max, tau = 2, 2

    def __init__(self, seed: int, smoke: bool, scratch: str,
                 use_expected: bool = True) -> None:
        super().__init__(seed, smoke, scratch, use_expected)
        self.base = aids_like(self.n_smoke if smoke else self.n, seed=seed)
        self.script = self._script(self.ops_smoke if smoke else self.ops_total)
        self.index: Optional[GSimIndex] = None
        self.stats: Optional[JoinStatistics] = None
        self._fp: Optional[str] = self.expected["fingerprint"] if self.expected else None

    def _script(self, count: int) -> List[Tuple[str, Any, Any, int]]:
        """``(kind, graph, source_id, edits)`` per operation."""
        rng = random.Random(self.seed * 7919 + 17)
        present = list(self.base)
        queries: List[Tuple[Any, Any, int]] = []
        script: List[Tuple[str, Any, Any, int]] = []
        for k in range(count):
            if k > 0 and rng.random() < self.add_share:
                src = rng.choice(present)
                g = perturb(src, rng.randint(1, 3), rng, ATOM_LABELS,
                            BOND_LABELS, graph_id=f"a{k}")
                present.append(g)
                script.append(("add", g, None, 0))
            elif queries and rng.random() < self.repeat_share:
                g, src_id, edits = rng.choice(queries)
                script.append(("query", g, src_id, edits))
            else:
                src = rng.choice(present)
                edits = rng.randint(1, 2)
                g = perturb(src, edits, rng, ATOM_LABELS, BOND_LABELS,
                            graph_id=f"q{k}")
                queries.append((g, src.graph_id, edits))
                script.append(("query", g, src.graph_id, edits))
        return script

    def setup(self) -> None:
        self.index = GSimIndex(self.base, tau_max=self.tau_max)
        self.stats = JoinStatistics()

    def needs_setup(self) -> bool:
        return self.index is None

    @staticmethod
    def _check_query(answer: Any, src_id: Any, edits: int) -> bool:
        # The query is within `edits` edits of its source graph.
        return any(gid == src_id and d <= edits for gid, d in answer)

    def ops(self) -> Iterator[Op]:
        """One pass over the script per index; a new pass needs setup()."""
        last = len(self.script) - 1
        while True:
            index, stats = self.index, self.stats
            digest = hashlib.sha256()
            for pos, (kind, g, src_id, edits) in enumerate(self.script):
                if kind == "add":
                    run = functools.partial(index.add, g)
                else:
                    run = functools.partial(index.query, g, self.tau, stats=stats)

                def check(answer: Any, pos: int = pos, kind: str = kind,
                          g: Any = g, src_id: Any = src_id, edits: int = edits) -> bool:
                    if kind == "add":
                        record: Any = g.graph_id
                        ok = True
                    else:
                        record = [[str(i), d] for i, d in answer]
                        ok = self._check_query(answer, src_id, edits)
                    digest.update(json.dumps([pos, kind, record]).encode())
                    if pos == last:
                        ok = self._end_of_pass(digest.hexdigest()) and ok
                    return ok

                yield Op(kind, run, check)
            self.index = None
            yield SETUP

    def _end_of_pass(self, fp: str) -> bool:
        if self._fp is None:
            self._fp = fp
        return fp == self._fp

    def reference(self) -> dict:
        self.setup()
        answers: List[Any] = []
        for op in self.ops():
            if op.kind == "setup":
                break
            result = op.run()
            answers.append(result)
            if not op.check(result):
                raise RuntimeError(f"{self.name}: reference pass failed its checks")
        # Cross-check every query's matches against one gsim_join over the
        # union of indexed, added and (distinct) query graphs.
        union: Dict[int, Any] = {id(g): g for g in self.base}
        for _kind, g, _src, _e in self.script:
            union.setdefault(id(g), g)
        joined = gsim_join(list(union.values()), self.tau)
        near: Dict[Any, set] = {}
        for a, b in joined.pairs:
            near.setdefault(a, set()).add(b)
            near.setdefault(b, set()).add(a)
        present = {g.graph_id for g in self.base}
        agree = True
        queries = 0
        for (kind, g, _src, _e), answer in zip(self.script, answers):
            if kind == "add":
                present.add(g.graph_id)
                continue
            queries += 1
            want = {x for x in near.get(g.graph_id, ()) if x in present}
            agree &= want == {gid for gid, _d in answer}
        # Scaled down: 60 indexed graphs with the first 20 distinct queries.
        queries_seen = {id(g): g for k, g, _s, _e in self.script if k == "query"}
        small = self.base[:60] + list(queries_seen.values())[:20]
        return {
            "fingerprint": self._fp,
            "queries": queries,
            "answers_match_join": agree,
            **naive_cross_check(small, self.tau, GSimJoinOptions()),
        }


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (AidsJoin, IndexMixed, ShardedJoin)
}
