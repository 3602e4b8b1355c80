"""Span tracer for the benchmark's traced runs.

Nothing here touches ``src/``: every span is recorded by wrapping a
layer's function at the place its caller looks it up (a module
attribute or a class attribute) and restoring the original afterwards.
Spans nest on one stack; every span knows its own inclusive time and
its self time (inclusive minus the children it covers).  Work done in
forked pool workers is not traced: a wrapper running in another process
calls straight through, so that work shows only as the parent's
``pool`` span.

Aggregates are kept per operation (one root span per join, query or
add) and summed over the traced operations; the benchmark divides by
the operation count when it reports them.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class Tracer:
    """An in-memory span stack with per-name aggregates.

    ``span_s[name]`` is the inclusive time of every span called
    ``name``; ``self_s[name]`` its self time.  ``counts[name]`` holds
    the counters the wrappers bump.  ``ged_ms`` keeps one latency per
    GED call for the percentiles.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.stack: List[List[Any]] = []
        self.span_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.ged_ms: List[float] = []
        self.roots = 0
        #: extractions and graph ids extracted in the current root span.
        self.op_extracts = 0
        self.op_graphs: set = set()
        self.extract_per_graph: List[float] = []
        #: per-index (distinct keys, postings) touched in the current root.
        self.op_index: Dict[int, Tuple[set, List[int]]] = {}

    @property
    def active(self) -> bool:
        return bool(self.stack) and os.getpid() == self.pid

    def enter(self, name: str) -> None:
        self.stack.append([name, _clock(), 0.0])

    def leave(self) -> float:
        name, start, child = self.stack.pop()
        dur = _clock() - start
        self.span_s[name] += dur
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += dur
        return dur

    def root(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as one traced operation (the root span ``name``)."""
        self.op_extracts = 0
        self.op_graphs = set()
        self.op_index = {}
        self.enter(name)
        try:
            return fn()
        finally:
            self.leave()
            self.roots += 1
            if self.op_graphs:
                self.extract_per_graph.append(self.op_extracts / len(self.op_graphs))
            for keys, postings in self.op_index.values():
                self.counts["invidx.bytes"] += 4 * (len(keys) + postings[0])

    def spanned(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Optional[Callable[..., None]] = None,
        before: Optional[Callable[..., Any]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span; ``after(result, args, kwargs, token)``
        runs outside the timed interval, with ``token = before(args,
        kwargs)`` taken before it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.leave()
            if after is not None:
                after(result, args, kwargs, token, dur)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a call counter and no span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


# --- Counters taken around the wrapped calls ----------------------------


def _stage_row(stats: Any, name: str) -> Any:
    for row in stats.stages:
        if row.name == name:
            return row
    return None


class _Hooks:
    """The per-layer bookkeeping, bound to one tracer."""

    def __init__(self, tracer: Tracer) -> None:
        self.t = tracer

    def extract(self, profile, args, kwargs, token, dur) -> None:
        c = self.t.counts
        c["grams.extract_calls"] += 1
        self.t.op_extracts += 1
        c["grams.grams_emitted"] += profile.size
        g = args[0]
        self.t.op_graphs.add(g.graph_id if g.graph_id is not None else id(g))

    def vocab(self, vocab, args, kwargs, token, dur) -> None:
        self.t.counts["vocab.keys"] += len(vocab)

    def prefix(self, info, args, kwargs, token, dur) -> None:
        c = self.t.counts
        c["prefix.total_length"] += info.length
        if not info.prunable:
            c["prefix.unprunable"] += 1

    def index_add(self, _result, args, kwargs, token, dur) -> None:
        index, key = args[0], args[1]
        entry = self.t.op_index.get(id(index))
        if entry is None:
            entry = self.t.op_index[id(index)] = (set(), [0])
        entry[0].add(key)
        entry[1][0] += 1
        self.t.counts["invidx.postings"] += 1

    def probe_before(self, args, kwargs):
        executor = args[0]
        row = _stage_row(executor.stats, executor.plan.candidates.name)
        return (executor.stats.cand1, row.input if row is not None else 0)

    def probe(self, candidates, args, kwargs, token, dur) -> None:
        executor = args[0]
        row = _stage_row(executor.stats, executor.plan.candidates.name)
        c = self.t.counts
        c["probe.cand1"] += executor.stats.cand1 - token[0]
        c["probe.encounters"] += (row.input if row is not None else 0) - token[1]

    def batch(self, verdicts, args, kwargs, token, dur) -> None:
        if verdicts is not None:
            self.t.counts["batch.blocks"] += 1

    def columnar(self, store, args, kwargs, token, dur) -> None:
        self.t.counts["columnar.builds"] += 1

    def prune(self, name: str) -> Callable[..., None]:
        def after(tag, args, kwargs, token, dur) -> None:
            c = self.t.counts
            c[f"filter.{name}.calls"] += 1
            if tag is None:
                c[f"filter.{name}.passed"] += 1

        return after

    def ged(self, outcome, args, kwargs, token, dur) -> None:
        c = self.t.counts
        c["ged.lookups"] += 1
        if outcome.backend == "memo":
            c["ged.memo_hits"] += 1
            return
        c["ged.calls"] += 1
        c["ged.expansions"] += outcome.expansions
        if outcome.is_result:
            c["ged.results"] += 1
        self.t.ged_ms.append(dur * 1e3)

    def load_iter(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``load_graphs_iter`` returns a lazy iterator: time each step."""
        tracer = self.t

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter("io.load")
            try:
                inner = iter(fn(*args, **kwargs))
            finally:
                tracer.leave()
            return _TimedIter(tracer, inner)

        return wrapper

    def pool_before(self, args, kwargs):
        stats = kwargs.get("stats")
        return stats.chunk_retries if stats is not None else 0

    def pool(self, records, args, kwargs, token, dur) -> None:
        c = self.t.counts
        c["pool.chunks"] += len(args[0])
        stats = kwargs.get("stats")
        if stats is not None:
            c["pool.retries"] += stats.chunk_retries - token


class _TimedIter:
    """An iterator whose every ``next`` is an ``io.load`` span."""

    def __init__(self, tracer: Tracer, inner: Any) -> None:
        self.tracer = tracer
        self.inner = inner

    def __iter__(self) -> "_TimedIter":
        return self

    def __next__(self) -> Any:
        tracer = self.tracer
        if not tracer.active:
            return next(self.inner)
        tracer.enter("io.load")
        try:
            g = next(self.inner)
        finally:
            tracer.leave()
        tracer.counts["io.graphs_parsed"] += 1
        return g


# --- Patch table ----------------------------------------------------------


def _patch_plan(tracer: Tracer) -> List[Tuple[str, str, Callable[[Any], Any]]]:
    """(owner, attribute, make-wrapper) for every traced call site.

    ``owner`` is ``module`` or ``module:Class``: the namespace in which
    the calling code looks the name up.
    """
    h = _Hooks(tracer)
    sp = tracer.spanned

    def span(name, after=None, before=None):
        return lambda fn: sp(name, fn, after=after, before=before)

    plan = [
        # grams.qgrams: the drivers' extraction call sites.
        ("repro.engine.executor", "extract_qgrams", span("grams.extract", h.extract)),
        ("repro.core.search", "extract_qgrams", span("grams.extract", h.extract)),
        # engine.executor collection preparation (re-run per shard combo).
        ("repro.engine.executor:Executor", "prepare", span("prepare")),
        # grams.vocab: build and per-profile sort.
        ("repro.engine.options", "build_vocabulary", span("vocab.build", h.vocab)),
        ("repro.grams.vocab:QGramVocabulary", "sort_profile", span("vocab.sort")),
        # engine.prefix, as the plan's prefix stages call it.
        ("repro.engine.stages", "minedit_prefix", span("prefix", h.prefix)),
        ("repro.engine.stages", "basic_prefix", span("prefix", h.prefix)),
        # engine.inverted_index
        ("repro.engine.inverted_index:InvertedIndex", "add", span("invidx.add", h.index_add)),
        # engine.executor probe (index probing + fused size filter).
        ("repro.engine.executor:Executor", "collect_candidates",
         span("probe", h.probe, h.probe_before)),
        # grams.columnar / engine.batch
        ("repro.engine.executor", "build_columnar_store", span("columnar.build", h.columnar)),
        ("repro.core.search", "build_columnar_store", span("columnar.build", h.columnar)),
        ("repro.engine.executor:Executor", "batch_prefilter", span("batch", h.batch)),
        # engine.stages pair filters (scalar path; batched verdicts are
        # part of the batch span).
        ("repro.engine.stages:GlobalLabelFilter", "prune",
         span("filter.global_label", h.prune("global_label"))),
        ("repro.engine.stages:CountFilter", "prune", span("filter.count", h.prune("count"))),
        ("repro.engine.stages:LabelFilter", "prune",
         span("filter.local_label", h.prune("local_label"))),
        # ged.portfolio: one span per pair decision, one per run of the
        # default backend (the only one the workloads select).
        ("repro.engine.stages:Verify", "run", span("ged", h.ged)),
        ("repro.ged.portfolio:CompiledAStarBackend", "verify", span("ged.compiled")),
        ("repro.ged.compiled:VerificationCache", "compile", span("ged.compile")),
        # graph.io, engine.sharded, engine.parallel, runtime.journal
        ("repro.engine.sharded", "load_graphs_iter", h.load_iter),
        ("repro.engine.sharded", "_write_shards", span("shard.write")),
        ("repro.engine.sharded", "_run_self_combo",
         lambda fn: tracer.counted("shard.combos", fn)),
        ("repro.engine.sharded", "_run_cross_combo",
         lambda fn: tracer.counted("shard.combos", fn)),
        ("repro.engine.sharded", "_run_chunks", span("pool", h.pool, h.pool_before)),
        ("repro.runtime.journal:JoinJournal", "append", span("journal.append")),
        ("os", "fsync", lambda fn: tracer.counted("journal.fsyncs", fn)),
    ]
    return plan


def _resolve(owner: str) -> Any:
    module_name, _, cls = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, cls) if cls else obj


class Instrumentation:
    """Installs the wrappers for the lifetime of a ``with`` block."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []

    def __enter__(self) -> "Instrumentation":
        for owner, attr, make in _patch_plan(self.tracer):
            try:
                target = _resolve(owner)
                original = target.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{owner}.{attr}")
                continue
            if isinstance(original, (staticmethod, classmethod)):
                self.missing.append(f"{owner}.{attr}")
                continue
            self._saved.append((target, attr, original))
            setattr(target, attr, make(original))
        if self.missing:
            print(
                "perfbench: trace points not found: " + ", ".join(self.missing),
                file=sys.stderr,
            )
        return self

    def __exit__(self, *exc: object) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()
