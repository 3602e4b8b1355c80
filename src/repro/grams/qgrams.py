"""Path-based q-grams (Definition 1) and per-graph q-gram profiles.

A path-based q-gram is a simple path of length ``q``.  Reading the vertex
and edge labels from either end produces two label sequences; the
lexicographically smaller one is the q-gram's *key* (so the two
orientations of the same undirected path compare equal).  A graph's
q-grams form a *multiset* — unlike string q-grams they carry no starting
position, so equal-label paths are genuinely duplicated.

:class:`QGramProfile` bundles everything the filters need about one
graph: the instances as parallel ``keys`` / ``paths`` lists (concrete
vertex tuples are required by minimum edit filtering and local label
filtering), the per-vertex counts ``|Q_u|`` and their maximum ``D_path``
(Theorem 1); the :class:`QGram` view and the key multiset are derived
on demand.

Two extractors produce that one form.  :func:`extract_profiles` walks a
whole collection at once (vectorised, in :mod:`repro.grams.pathwalk`)
and returns the profiles already sorted in the collection's global
ordering; the join drivers and the index build use it.
:func:`extract_qgrams` walks one graph; it serves single graphs and the
no-numpy path, and is the reference the collection walk is tested
against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import ParameterError
from repro.graph.graph import Graph, Vertex

if TYPE_CHECKING:
    from repro.grams.vocab import QGramVocabulary

__all__ = [
    "QGram",
    "QGramProfile",
    "WalkTables",
    "extract_induced_qgrams",
    "extract_profiles",
    "extract_qgrams",
    "qgram_key",
]

#: A q-gram key: the canonical interleaved label sequence
#: ``(l(v0), l(e01), l(v1), ..., l(vq))``.
Key = Tuple[object, ...]


def qgram_key(g: Graph, path: Tuple[Vertex, ...]) -> Key:
    """Canonical label sequence of a path.

    Undirected: the lexicographically smaller of the two reading
    directions (label types may be heterogeneous, so the comparison is on
    ``repr`` strings; the returned key keeps the original label objects).
    Directed: the forward sequence — a directed path has only one
    reading.
    """
    labels: List[object] = []
    for i, v in enumerate(path):
        if i:
            labels.append(g.edge_label(path[i - 1], v))
        labels.append(g.vertex_label(v))
    forward = tuple(labels)
    if g.is_directed:
        return forward
    backward = tuple(reversed(labels))
    if tuple(map(repr, backward)) < tuple(map(repr, forward)):
        return backward
    return forward


@dataclass(frozen=True)
class QGram:
    """One q-gram instance: a canonical key plus its concrete path."""

    key: Key
    path: Tuple[Vertex, ...]

    @property
    def vertex_set(self) -> FrozenSet[Vertex]:
        """The vertices covered by this q-gram (hitting-set elements)."""
        return frozenset(self.path)

    def edge_pairs(self) -> List[Tuple[Vertex, Vertex]]:
        """The path's edges as endpoint pairs, in traversal order.

        Callers that need duplicate-free edge sets across q-grams should
        canonicalize each pair with ``graph.canonical_edge`` (directed
        graphs keep the orientation, undirected graphs normalize it).
        """
        return [
            (self.path[i], self.path[i + 1]) for i in range(len(self.path) - 1)
        ]


class QGramProfile:
    """All q-gram derived quantities of one graph.

    One form serves both extractors (the per-graph walk of
    :func:`extract_qgrams` and the collection walk of
    :func:`extract_profiles`): the multiset ``Q_r`` is held as two
    parallel lists, ``keys[k]`` and ``paths[k]`` describing the k-th
    instance.  The :class:`QGram` object view (:attr:`grams`) and the
    key multiset (:attr:`key_counts`) are built on first use and cached;
    every reordering goes through :meth:`reorder`, which keeps them in
    step with the lists.

    Attributes
    ----------
    graph:
        The profiled graph.
    q:
        The q-gram length used.
    keys:
        The canonical key of every q-gram instance, in enumeration order
        until a global-ordering sorter (:meth:`repro.grams.vocab.
        QGramVocabulary.sort_profile` or :meth:`repro.engine.ordering.
        QGramOrdering.sort_profile`) reorders the profile.
    paths:
        The concrete vertex path of every instance, aligned with
        ``keys``.
    vertex_counts:
        ``|Q_u|`` for every vertex ``u`` (vertices in no q-gram included
        with count 0).
    d_path:
        ``D_path = max_u |Q_u|`` — the maximum number of q-grams a single
        edit operation can affect (Theorem 1); 0 for a gram-less graph.
    signature:
        Interned integer ids of the (sorted) instances, aligned index by
        index — attached by :meth:`repro.grams.vocab.QGramVocabulary.
        sort_profile` or :func:`extract_profiles`; ``None`` until then
        (the object-key reference path never attaches one).
    signature_total:
        ``True`` when the signature contains only frozen-range ids, so
        ascending id *is* the global ordering and two such signatures
        from the same vocabulary can be compared by a pure integer
        merge.  ``False`` when overflow ids are present (streaming
        inserts/queries) — pairwise comparison then falls back to the
        object-key path.
    signature_source:
        The vocabulary that interned the signature (identity-compared by
        :func:`repro.grams.mismatch.compare_qgrams` so signatures from
        different vocabularies are never merged).
    """

    __slots__ = (
        "graph",
        "q",
        "keys",
        "paths",
        "vertex_counts",
        "d_path",
        "signature",
        "signature_total",
        "signature_source",
        "_grams",
        "_key_counts",
    )

    def __init__(
        self,
        graph: Graph,
        q: int,
        keys: List[Key],
        paths: List[Tuple[Vertex, ...]],
        vertex_counts: Dict[Vertex, int],
        d_path: int,
        signature: Optional[List[int]] = None,
        signature_total: bool = False,
        signature_source: Optional[object] = None,
    ) -> None:
        self.graph = graph
        self.q = q
        self.keys = keys
        self.paths = paths
        self.vertex_counts = vertex_counts
        self.d_path = d_path
        self.signature = signature
        self.signature_total = signature_total
        self.signature_source = signature_source
        self._grams: Optional[List[QGram]] = None
        self._key_counts: Optional[Counter] = None

    def __repr__(self) -> str:
        return (
            f"QGramProfile(graph={self.graph!r}, q={self.q}, "
            f"size={self.size}, d_path={self.d_path})"
        )

    #: What a pickle carries: everything but the cached views, which
    #: are rebuilt on demand (profiles travel to pool workers).
    _STATE = __slots__[:-2]

    def __getstate__(self) -> Tuple[object, ...]:
        return tuple(getattr(self, name) for name in self._STATE)

    def __setstate__(self, state: Tuple[object, ...]) -> None:
        for name, value in zip(self._STATE, state):
            setattr(self, name, value)
        self._grams = None
        self._key_counts = None

    @property
    def grams(self) -> List[QGram]:
        """Every q-gram instance as a :class:`QGram` (the multiset ``Q_r``).

        Built from ``keys``/``paths`` on first access and cached; it
        follows every later :meth:`reorder`.
        """
        grams = self._grams
        if grams is None:
            grams = self._grams = list(map(QGram, self.keys, self.paths))
        return grams

    @property
    def key_counts(self) -> Counter:
        """The key multiset as a :class:`collections.Counter` (cached)."""
        counts = self._key_counts
        if counts is None:
            counts = self._key_counts = Counter(self.keys)
        return counts

    @property
    def size(self) -> int:
        """``|Q_r|`` — the total number of q-gram instances."""
        return len(self.keys)

    def count_lower_bound(self, tau: int) -> int:
        """This graph's side of the count filtering bound: |Q_r| − τ·D_path."""
        return self.size - tau * self.d_path

    def reorder(self, order: Sequence[int]) -> None:
        """Permute the instances: the k-th becomes the old ``order[k]``-th.

        The one place a profile's instance order changes: ``keys``,
        ``paths`` and a built :attr:`grams` view move together (the key
        multiset is order-free).
        """
        keys, paths = self.keys, self.paths
        self.keys = [keys[k] for k in order]
        self.paths = [paths[k] for k in order]
        grams = self._grams
        if grams is not None:
            self._grams = [grams[k] for k in order]

    def attach_signature(
        self,
        ids: List[int],
        source: Optional[object] = None,
        sort_token: Optional[Callable[[int], Tuple[int, int, str]]] = None,
    ) -> None:
        """Sort the instances by interned id and record the aligned signature.

        ``ids[k]`` must be the interned id of ``keys[k]``.  Without
        ``sort_token`` ascending id is taken to be the global ordering
        (a pure integer sort — the fast path); with it, each id is
        ranked by its token instead (used for overflow ids, which rank
        by key ``repr``) and the signature is marked non-mergeable.
        Equal ids keep their enumeration order: the sort is stable,
        matching the historical object-key sort exactly.
        """
        if sort_token is None:
            order = sorted(range(len(ids)), key=ids.__getitem__)
            self.signature_total = True
        else:
            order = sorted(range(len(ids)), key=lambda k: sort_token(ids[k]))
            self.signature_total = False
        self.reorder(order)
        self.signature = [ids[k] for k in order]
        self.signature_source = source

    def prefix_keys(self, length: int) -> Sequence[object]:
        """The first ``length`` index/probe keys in the global ordering.

        Interned ids when a signature is attached (the fast pipeline),
        otherwise the object keys — both are valid inverted-index
        keys, so join/search code is agnostic to the representation.
        """
        signature = self.signature
        if signature is not None:
            return signature[:length]
        return self.keys[:length]


class WalkTables:
    """What the per-graph walk reads of a graph, resolved once.

    The vertex order, each vertex's position, label and label ``repr``,
    and per vertex the ``(neighbour, position, edge label, repr)``
    tuples of its (out-)neighbours, so the walk never calls ``repr()``
    or touches the graph's label maps.  :func:`extract_qgrams` builds
    them per call; the improved A* heuristic keeps them per graph and
    walks many induced subgraphs over them
    (:func:`extract_induced_qgrams`).
    """

    __slots__ = ("graph", "order", "position", "vlabel", "vrepr", "adjacency")

    def __init__(self, g: Graph) -> None:
        self.graph = g
        self.order = list(g.vertices())
        self.position = {v: i for i, v in enumerate(self.order)}
        self.vlabel = {v: g.vertex_label(v) for v in self.order}
        self.vrepr = {v: repr(label) for v, label in self.vlabel.items()}
        position = self.position
        self.adjacency = {
            v: [
                (u, position[u], label, repr(label))
                for u, label in g.neighbor_items(v)
            ]
            for v in self.order
        }


def _walk_grams(
    tables: WalkTables,
    q: int,
    starts: Sequence[Vertex],
    adjacency: Dict[Vertex, List[Tuple[Vertex, int, object, str]]],
    vertex_counts: Dict[Vertex, int],
) -> Tuple[List[Key], List[Tuple[Vertex, ...]]]:
    """Fused path walk + key construction (the per-graph extractor).

    Walks the paths of ``q`` edges from every vertex of ``starts`` over
    ``adjacency`` (``tables.adjacency``, or its restriction to an
    induced subgraph), carrying the interleaved label sequence (and its
    repr view, for the canonical-orientation comparison) along the DFS
    so shared path prefixes never re-fetch labels.  Emits the parallel
    ``keys`` / ``paths`` lists of :class:`QGramProfile` in DFS
    enumeration order.  This walk is the reference for the collection
    walk of :func:`extract_profiles` and the extractor for single graphs
    (index queries and inserts, the improved A* heuristic's remainders).
    """
    keys: List[Key] = []
    paths: List[Tuple[Vertex, ...]] = []
    append_key = keys.append
    append_path = paths.append
    directed = tables.graph.is_directed
    position = tables.position
    vlabel = tables.vlabel
    vrepr = tables.vrepr

    path: List[Vertex] = []
    labels: List[object] = []
    reprs: List[str] = []
    on_path = set()
    last_depth = q + 1

    def extend(v: Vertex, depth: int) -> None:
        path.append(v)
        on_path.add(v)
        labels.append(vlabel[v])
        reprs.append(vrepr[v])
        if depth == last_depth:
            forward = tuple(labels)
            if directed:
                key = forward
            else:
                backward_r = reprs[::-1]
                key = tuple(reversed(labels)) if backward_r < reprs else forward
            append_key(key)
            append_path(tuple(path))
            for u in path:
                vertex_counts[u] += 1
        elif depth == q:
            # Final step: apply the undirected orientation filter before
            # descending, so discarded-orientation leaves are never built.
            start_position = position[path[0]]
            for u, u_position, edge_label, edge_repr in adjacency[v]:
                if u not in on_path and (directed or start_position < u_position):
                    labels.append(edge_label)
                    reprs.append(edge_repr)
                    extend(u, last_depth)
                    labels.pop()
                    reprs.pop()
        else:
            for u, _, edge_label, edge_repr in adjacency[v]:
                if u not in on_path:
                    labels.append(edge_label)
                    reprs.append(edge_repr)
                    extend(u, depth + 1)
                    labels.pop()
                    reprs.pop()
        on_path.discard(v)
        path.pop()
        labels.pop()
        reprs.pop()

    for start in starts:
        extend(start, 1)
    return keys, paths


def _walk_profile(
    tables: WalkTables,
    q: int,
    starts: Sequence[Vertex],
    adjacency: Dict[Vertex, List[Tuple[Vertex, int, object, str]]],
) -> QGramProfile:
    """The profile of the subgraph induced by ``starts``, walked over
    ``adjacency`` (the whole graph's when ``starts`` is ``tables.order``)."""
    vertex_counts: Dict[Vertex, int] = dict.fromkeys(starts, 0)
    if q == 0:
        vlabel = tables.vlabel
        keys: List[Key] = [(vlabel[v],) for v in starts]
        paths: List[Tuple[Vertex, ...]] = [(v,) for v in starts]
        for v in vertex_counts:
            vertex_counts[v] = 1
    else:
        keys, paths = _walk_grams(tables, q, starts, adjacency, vertex_counts)
    d_path = max(vertex_counts.values(), default=0)
    return QGramProfile(tables.graph, q, keys, paths, vertex_counts, d_path)


def extract_qgrams(g: Graph, q: int) -> QGramProfile:
    """Extract the path-based q-gram profile of ``g``.

    For ``q = 0`` every vertex is its own q-gram and ``D_path = 1``
    (relabeling or deleting a vertex affects exactly its own 0-gram).

    Raises
    ------
    ParameterError
        If ``q`` is negative.
    """
    if q < 0:
        raise ParameterError(f"q must be >= 0, got {q}")
    tables = WalkTables(g)
    return _walk_profile(tables, q, tables.order, tables.adjacency)


def extract_induced_qgrams(
    tables: WalkTables, q: int, within: AbstractSet[Vertex]
) -> QGramProfile:
    """The profile of the subgraph induced by ``within``, over ``tables``.

    Equal to ``extract_qgrams(g.subgraph(within), q)`` up to instance
    order and path orientation, without building the subgraph or
    resolving its labels again.  The profile's ``graph`` is
    ``tables.graph`` itself (the induced subgraph has its labels and
    canonical edges); ``vertex_counts`` covers ``within`` only.
    """
    starts = [v for v in tables.order if v in within]
    adjacency = tables.adjacency
    restricted = {
        v: [entry for entry in adjacency[v] if entry[0] in within]
        for v in starts
    }
    return _walk_profile(tables, q, starts, restricted)


def extract_profiles(
    graphs: Sequence[Graph], q: int
) -> Tuple[List[QGramProfile], "QGramVocabulary"]:
    """Extract a whole collection: profiles, vocabulary and global order.

    Returns one profile per graph, already sorted in the collection's
    global q-gram ordering with its interned ``signature`` attached, and
    the :class:`~repro.grams.vocab.QGramVocabulary` that interned them —
    exactly what :func:`extract_qgrams` on every graph followed by
    :func:`~repro.grams.vocab.build_vocabulary` and
    :meth:`~repro.grams.vocab.QGramVocabulary.sort_profile` produce.
    With numpy the whole collection goes through the vectorised walk of
    :mod:`repro.grams.pathwalk`; without it, through those per-graph
    steps.

    Raises
    ------
    ParameterError
        If ``q`` is negative.
    """
    if q < 0:
        raise ParameterError(f"q must be >= 0, got {q}")
    # Imported here: both modules build on this one.
    from repro.grams.pathwalk import HAVE_NUMPY, walk_collection
    from repro.grams.vocab import build_vocabulary

    if HAVE_NUMPY:
        return walk_collection(graphs, q)
    profiles = [extract_qgrams(g, q) for g in graphs]
    vocabulary = build_vocabulary(profiles)
    for profile in profiles:
        vocabulary.sort_profile(profile)
    return profiles, vocabulary
