"""Admissible heuristics ``h(x)`` for the A* GED search.

All heuristics lower-bound the cost of completing a partial vertex
mapping, keeping A* exact:

* :func:`zero_heuristic` — Dijkstra-style baseline;
* :func:`label_heuristic` — ``Γ`` label bound on the remaining parts
  (the unweighted form of Riesen et al.'s bipartite heuristic, which the
  paper notes "becomes exactly the result of global label filtering");
* :func:`make_local_label_heuristic` — the paper's *improved h(x)*
  (Algorithm 8): the maximum of the global label bound and both-direction
  local label filtering bounds computed on the remaining subgraphs.

Admissibility notes.  The remaining part ``r_q`` contributes its
unmapped vertices and the edges *resident* on them (at least one
unmapped endpoint) — every edit operation still to be paid touches those
only, and each remaining-label surplus needs a distinct operation, so
the ``Γ`` sum is a lower bound.  The local-label term is evaluated on
the *induced* remaining subgraphs (both endpoints unmapped): completing
the mapping restricted to those subgraphs is itself a valid full mapping
between them, so ``ged(r_induced, s_induced)`` — and any lower bound on
it — under-estimates the remaining cost.
"""

from __future__ import annotations

from collections import Counter
from typing import AbstractSet, Callable, Optional, Sequence

from repro.grams.labels import gamma, local_label_lower_bound
from repro.grams.mismatch import compare_qgrams
from repro.grams.qgrams import WalkTables, extract_induced_qgrams
from repro.graph.graph import Graph, Vertex

__all__ = [
    "Heuristic",
    "zero_heuristic",
    "label_heuristic",
    "make_local_label_heuristic",
    "local_label_terms",
    "subgraph_entry",
]

#: Heuristic signature: (r, s, unmapped r vertices, unused s vertices) -> int.
Heuristic = Callable[[Graph, Graph, Sequence[Vertex], AbstractSet[Vertex]], int]


def zero_heuristic(
    r: Graph, s: Graph, r_rest: Sequence[Vertex], s_rest: AbstractSet[Vertex]
) -> int:
    """The trivial heuristic (turns A* into uniform-cost search)."""
    return 0


def _remaining_label_bound(
    r: Graph, s: Graph, r_rest: Sequence[Vertex], s_rest: AbstractSet[Vertex]
) -> int:
    r_set = set(r_rest)
    rv = Counter(r.vertex_label(v) for v in r_rest)
    sv = Counter(s.vertex_label(v) for v in s_rest)
    re = Counter(
        label
        for u, v, label in r.edges()
        if u in r_set or v in r_set
    )
    se = Counter(
        label
        for u, v, label in s.edges()
        if u in s_rest or v in s_rest
    )
    return gamma(rv, sv) + gamma(re, se)


def label_heuristic(
    r: Graph, s: Graph, r_rest: Sequence[Vertex], s_rest: AbstractSet[Vertex]
) -> int:
    """``Γ(L_V) + Γ(L_E)`` over the remaining parts (resident edges)."""
    return _remaining_label_bound(r, s, r_rest, s_rest)


def subgraph_entry(g: Graph, rest: frozenset, q: int, cache: dict) -> tuple:
    """Memoized ``(graph, q-gram profile, label multisets)`` of a remainder.

    The profile and the label multisets are those of the subgraph of
    ``g`` induced by ``rest``.  The subgraph is never built: the walk
    runs over ``g``'s :class:`~repro.grams.qgrams.WalkTables`, resolved
    once per graph and memoized under ``id(g)`` beside the remainder
    entries (holding ``g`` pins the id), restricted to ``rest``.  The
    graph returned is ``g`` itself: it carries the remainder's labels
    and canonical edges, all the local label bound reads from it.

    Keyed by ``(id(g), rest)`` so one cache may serve many graphs — the
    compiled backend shares a single cache across every candidate pair
    of a join, while :func:`make_local_label_heuristic` keeps a
    per-pair cache.  Both produce identical values: the entry is a pure
    function of the graph and the remainder.
    """
    key = (id(g), rest)
    entry = cache.get(key)
    if entry is None:
        tables = cache.get(id(g))
        if tables is None:
            tables = cache[id(g)] = WalkTables(g)
        profile = extract_induced_qgrams(tables, q, rest)
        directed = g.is_directed
        position = tables.position
        labels = (
            Counter(tables.vlabel[v] for v in rest),
            Counter(
                label
                for v in rest
                for u, u_position, label, _ in tables.adjacency[v]
                if u in rest and (directed or position[v] < u_position)
            ),
        )
        entry = (g, profile, labels)
        cache[key] = entry
    return entry


def local_label_terms(
    r: Graph,
    s: Graph,
    r_rest: frozenset,
    s_rest: frozenset,
    q: int,
    tau: int,
    cache: dict,
) -> int:
    """``max(ε₄, ε₅)`` — Algorithm 8's local-label term on the remainders.

    Both-direction local label filtering bounds evaluated on the
    *induced* remaining subgraphs (see the module docstring for the
    admissibility argument).  ``cache`` memoizes the remainders' profiles
    via :func:`subgraph_entry`; the comparison itself runs per call.
    """
    r_sub, p_r, r_labels = subgraph_entry(r, r_rest, q, cache)
    s_sub, p_s, s_labels = subgraph_entry(s, s_rest, q, cache)
    mismatch = compare_qgrams(p_r, p_s)
    eps2 = local_label_lower_bound(
        mismatch.mismatch_r, r_sub, s_sub, tau,
        other_labels=s_labels, required_keys=mismatch.absent_keys_r,
    )
    eps3 = local_label_lower_bound(
        mismatch.mismatch_s, s_sub, r_sub, tau,
        other_labels=r_labels, required_keys=mismatch.absent_keys_s,
    )
    return max(eps2, eps3)


def make_local_label_heuristic(
    q: int, tau: int, max_remaining: Optional[int] = 8
) -> Heuristic:
    """Build the paper's improved ``h(x)`` (Algorithm 8).

    ``q`` is the q-gram length; ``tau`` caps the per-component exact
    min-edit searches (the search never needs values beyond ``τ + 1``).

    The returned heuristic memoizes subgraph profiles by remaining
    vertex set: the fixed mapping order makes every ``r``-side remainder
    depend only on the search depth (n distinct sets per A* run), and
    ``s``-side remainders recur across branches, so each distinct
    remainder is walked once, over label tables resolved once per graph.

    ``max_remaining`` gates the expensive local-label term to states
    whose remainder has at most that many vertices (where both the bulk
    of the search states live and the walk is cheap); larger remainders
    fall back to the ``Γ`` bound.  The gate trades heuristic strength
    for per-state cost without affecting admissibility — pass ``None``
    to evaluate Algorithm 8 at every state, as the paper's C++
    implementation does (it prunes the most states but is far slower in
    CPython; ``bench_ablation_heuristic_gate`` quantifies the sweep and
    picked the default of 8).
    """

    profile_cache: dict = {}

    def improved_h(
        r: Graph, s: Graph, r_rest: Sequence[Vertex], s_rest: AbstractSet[Vertex]
    ) -> int:
        eps1 = _remaining_label_bound(r, s, r_rest, s_rest)
        if eps1 > tau or not r_rest or not s_rest:
            return eps1
        if max_remaining is not None and (
            len(r_rest) > max_remaining or len(s_rest) > max_remaining
        ):
            return eps1
        extra = local_label_terms(
            r, s, frozenset(r_rest), frozenset(s_rest), q, tau, profile_cache
        )
        return max(eps1, extra)

    return improved_h
