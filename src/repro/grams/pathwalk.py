"""Vectorised path q-gram walk over a whole graph collection.

:func:`walk_collection` is the numpy body of
:func:`repro.grams.qgrams.extract_profiles`.  It produces, for a whole
collection at once, exactly what the per-graph walk
(:func:`repro.grams.qgrams.extract_qgrams`) followed by
:func:`repro.grams.vocab.build_vocabulary` and
:meth:`repro.grams.vocab.QGramVocabulary.sort_profile` produce: the same
keys, paths, instance order, vertex counts, ``D_path``, signatures and
vocabulary rank.

How it gets there:

* **Label ranks.**  Every vertex and edge label of the collection is
  interned once and ranked by ``repr``.  Comparing rank rows therefore
  decides the canonical orientation of an undirected path exactly as the
  per-graph walk's ``repr``-sequence comparison does.  Labels that are
  equal but print differently (``1``, ``1.0``, ``True``) get distinct
  ranks, so every key keeps its own graph's label objects.
* **Level-synchronous walk.**  The graphs are processed in blocks of
  :data:`BLOCK_GRAPHS` over one CSR adjacency per block.  Each of the
  ``q`` steps extends every partial path by every neighbour not already
  on it.  A row's children stay contiguous and in adjacency order, so the
  finished rows come out in the DFS enumeration order of the per-graph
  walk.  Blocks bound the transient arrays, which grow with the
  collection's path count.
* **Packed keys.**  A canonical key row of ``2q+1`` ranks is packed into
  one int64 when it fits in :data:`PACK_BITS` bits and deduplicated with
  ``np.unique``; wider alphabets deduplicate the rank rows themselves.
* **Fused vocabulary.**  Document frequencies come from the distinct
  (graph, key) pairs, the vocabulary is ranked by ``(df, repr(key))``,
  and every profile is emitted already sorted by one stable argsort per
  block, its signature attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from repro.graph.graph import Graph, Vertex
from repro.grams.qgrams import Key, QGramProfile
from repro.grams.vocab import QGramVocabulary

if TYPE_CHECKING:
    import numpy as np
else:
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - exercised by the no-numpy job
        np = None

#: Whether numpy is importable — the collection walk's availability flag.
HAVE_NUMPY = np is not None

__all__ = ["BLOCK_GRAPHS", "HAVE_NUMPY", "PACK_BITS", "walk_collection"]

#: Graphs per block of the walk.  Large enough that numpy's per-call
#: overhead is amortised, small enough that the per-step arrays of a
#: block stay a few MB on molecule-sized graphs.
BLOCK_GRAPHS = 192

#: Bits one packed key may use: a non-negative int64 with headroom.
PACK_BITS = 62

#: Label types whose equality implies an identical ``repr``; they intern
#: by value, every other label by ``(repr, value)``.
_PLAIN_LABELS = (str, int)


class _Block:
    """One block of graphs: vertices, CSR adjacency and label entries.

    Vertices are numbered block-wide, each graph's contiguously in
    ``vertices()`` order, so comparing two vertex numbers of one graph
    compares their positions in it.
    """

    __slots__ = (
        "graphs",
        "vertices",
        "vertex_offsets",
        "indptr",
        "indices",
        "vertex_labels",
        "edge_labels",
        "directed",
    )

    def __init__(
        self,
        graphs: Sequence[Graph],
        vertices: "np.ndarray",
        vertex_offsets: "np.ndarray",
        indptr: "np.ndarray",
        indices: "np.ndarray",
        vertex_labels: "np.ndarray",
        edge_labels: "np.ndarray",
        directed: "np.ndarray",
    ) -> None:
        self.graphs = graphs
        #: Vertex objects (an object array), graph by graph.
        self.vertices = vertices
        #: Where each graph's vertices start, plus the total at the end.
        self.vertex_offsets = vertex_offsets
        self.indptr = indptr
        self.indices = indices
        #: Interned label entry of every vertex / adjacency slot.
        self.vertex_labels = vertex_labels
        self.edge_labels = edge_labels
        #: Whether each vertex's graph is directed.
        self.directed = directed


class _Walk:
    """One walked block: paths in DFS order and their block-local key codes."""

    __slots__ = (
        "block",
        "paths",
        "rows_per_graph",
        "vertex_counts",
        "codes",
        "first_row",
        "inverse",
    )

    def __init__(
        self,
        block: _Block,
        paths: "np.ndarray",
        rows_per_graph: "np.ndarray",
        vertex_counts: "np.ndarray",
        codes: "np.ndarray",
        first_row: "np.ndarray",
        inverse: "np.ndarray",
    ) -> None:
        self.block = block
        #: (rows, q+1) block vertex numbers, each graph's rows contiguous.
        self.paths = paths
        self.rows_per_graph = rows_per_graph
        #: ``|Q_u|`` of every block vertex.
        self.vertex_counts = vertex_counts
        #: Distinct key codes (packed ints or rank rows), the first row
        #: holding each, and every row's index into them.
        self.codes = codes
        self.first_row = first_row
        self.inverse = inverse


def _build_blocks(
    graphs: Sequence[Graph],
) -> Tuple[List[_Block], List[object]]:
    """CSR adjacency of every block, labels interned in first-seen order.

    Returns the blocks (label columns holding interned entry numbers)
    and the interned label objects, one per entry.
    """
    entries: Dict[object, int] = {}
    labels: List[object] = []

    def intern(label: object) -> int:
        key = label if label.__class__ in _PLAIN_LABELS else (repr(label), label)
        entry = entries.get(key)
        if entry is None:
            entry = entries[key] = len(labels)
            labels.append(label)
        return entry

    blocks: List[_Block] = []
    for lo in range(0, len(graphs), BLOCK_GRAPHS):
        blocks.append(_block_csr(graphs[lo : lo + BLOCK_GRAPHS], intern))
    return blocks, labels


def _block_csr(graphs: Sequence[Graph], intern: Callable[[object], int]) -> _Block:
    """One block's vertices, CSR adjacency (in ``neighbor_items`` order)
    and interned label columns."""
    vertices: List[Vertex] = []
    offsets = [0]
    indptr = [0]
    indices: List[int] = []
    vertex_labels: List[object] = []
    edge_labels: List[object] = []
    directed: List[bool] = []
    for g in graphs:
        base = len(vertices)
        position = {v: base + i for i, v in enumerate(g.vertices())}
        vertices.extend(position)
        vertex_labels.extend(map(g.vertex_label, position))
        directed.append(g.is_directed)
        for v in position:
            for u, label in g.neighbor_items(v):
                indices.append(position[u])
                edge_labels.append(label)
            indptr.append(len(indices))
        offsets.append(len(vertices))
    vertex_offsets = np.asarray(offsets, dtype=np.int64)
    return _Block(
        graphs,
        np.fromiter(vertices, dtype=object, count=len(vertices)),
        vertex_offsets,
        np.asarray(indptr, dtype=np.int64),
        np.asarray(
            indices, dtype=np.int32 if len(vertices) < 2**31 else np.int64
        ),
        np.fromiter(map(intern, vertex_labels), dtype=np.int64,
                    count=len(vertex_labels)),
        np.fromiter(map(intern, edge_labels), dtype=np.int64,
                    count=len(edge_labels)),
        np.repeat(np.asarray(directed, dtype=bool), np.diff(vertex_offsets)),
    )


def _label_ranks(
    labels: List[object],
) -> Tuple["np.ndarray", "np.ndarray", List[object]]:
    """Rank the interned labels by ``repr``.

    Returns each entry's rank, each entry's comparison rank (equal for
    entries that print alike, which the per-graph walk cannot tell
    apart when orienting a path; the rank array itself when all print
    differently) and the label object of every rank.
    """
    reprs = [repr(label) for label in labels]
    by_repr = sorted(range(len(labels)), key=reprs.__getitem__)
    rank = np.empty(len(labels), dtype=np.int64)
    rank[by_repr] = np.arange(len(labels), dtype=np.int64)
    distinct = sorted(set(reprs))
    if len(distinct) == len(reprs):
        compare = rank
    else:
        dense = {text: i for i, text in enumerate(distinct)}
        compare = np.asarray([dense[text] for text in reprs], dtype=np.int64)
    return rank, compare, [labels[entry] for entry in by_repr]


def _walk_block(
    block: _Block, q: int, rank: "np.ndarray", compare: "np.ndarray", bits: int
) -> _Walk:
    """Walk every simple path of length ``q`` in ``block``.

    ``rank`` maps label entries to their ``repr`` rank, ``compare`` to
    the rank the orientation test uses (the same array unless two
    distinct labels print alike); ``bits`` is the width of one rank.
    """
    indptr, indices = block.indptr, block.indices
    num_vertices = block.vertex_labels.shape[0]
    directed = block.directed
    paths = np.arange(num_vertices, dtype=indices.dtype)[:, None]
    # Edge label entries along each path (ranked once the walk is done).
    edges = np.empty((num_vertices, 0), dtype=np.int64)
    for step in range(1, q + 1):
        last = paths[:, -1]
        start = indptr[last]
        degree = indptr[last + 1] - start
        parent = np.repeat(np.arange(paths.shape[0], dtype=np.int64), degree)
        first_child = np.cumsum(degree) - degree
        slot = start[parent] + (
            np.arange(parent.shape[0], dtype=np.int64) - first_child[parent]
        )
        nxt = indices[slot]
        keep = np.ones(parent.shape[0], dtype=bool)
        for column in range(step):
            keep &= paths[parent, column] != nxt
        if step == q:
            # Undirected paths are walked from their lower-numbered end
            # only, as the per-graph walk does.
            origin = paths[parent, 0]
            keep &= directed[origin] | (origin < nxt)
        parent = parent[keep]
        paths = np.concatenate((paths[parent], nxt[keep, None]), axis=1)
        edges = np.concatenate(
            (edges[parent], block.edge_labels[slot[keep], None]), axis=1
        )

    # Key codes, canonically oriented: an undirected path reads backwards
    # when that label sequence compares smaller.
    undirected = ~directed[paths[:, 0]]
    if (2 * q + 1) * bits <= PACK_BITS:
        keys = _packed_keys(block, paths, edges, rank, bits, reverse=False)
        if q and undirected.any():
            backward = _packed_keys(block, paths, edges, rank, bits, reverse=True)
            if compare is rank:
                flip = backward < keys
            else:
                flip = _packed_keys(
                    block, paths, edges, compare, bits, reverse=True
                ) < _packed_keys(block, paths, edges, compare, bits, reverse=False)
            keys = np.where(undirected & flip, backward, keys)
        codes, first_row, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
    else:
        codes, first_row, inverse = np.unique(
            _key_rows(block, paths, edges, rank, compare, undirected),
            axis=0,
            return_index=True,
            return_inverse=True,
        )
    graph_of_vertex = np.repeat(
        np.arange(len(block.graphs), dtype=np.int64), np.diff(block.vertex_offsets)
    )
    return _Walk(
        block,
        paths,
        np.bincount(graph_of_vertex[paths[:, 0]], minlength=len(block.graphs)),
        np.bincount(paths.ravel(), minlength=num_vertices),
        codes,
        first_row,
        inverse.reshape(-1),
    )


def _key_column(
    block: _Block, paths: "np.ndarray", edges: "np.ndarray", c: int
) -> "np.ndarray":
    """Label entries of key position ``c``: even positions are vertices."""
    if c % 2 == 0:
        return block.vertex_labels[paths[:, c // 2]]
    return edges[:, c // 2]


def _packed_keys(
    block: _Block,
    paths: "np.ndarray",
    edges: "np.ndarray",
    table: "np.ndarray",
    bits: int,
    reverse: bool,
) -> "np.ndarray":
    """Each path's ranked label sequence packed into one int64.

    The first position read is the most significant, so comparing two
    packed sequences compares them lexicographically.  Built column by
    column, so no (paths × positions) temporary is ever allocated.
    """
    width = 2 * paths.shape[1] - 1
    packed = np.zeros(paths.shape[0], dtype=np.int64)
    for c in range(width):
        position = width - 1 - c if reverse else c
        packed <<= bits
        packed |= table[_key_column(block, paths, edges, position)]
    return packed


def _key_rows(
    block: _Block,
    paths: "np.ndarray",
    edges: "np.ndarray",
    rank: "np.ndarray",
    compare: "np.ndarray",
    undirected: "np.ndarray",
) -> "np.ndarray":
    """Canonical rank rows, for alphabets too wide to pack."""
    width = 2 * paths.shape[1] - 1
    entries = np.empty((paths.shape[0], width), dtype=np.int64)
    for c in range(width):
        entries[:, c] = _key_column(block, paths, edges, c)
    keys = rank[entries]
    if width > 1 and undirected.any():
        forward = keys if compare is rank else compare[entries]
        backward = forward[:, ::-1]
        at = np.argmax(backward != forward, axis=1)
        rows = np.arange(keys.shape[0])
        flip = undirected & (backward[rows, at] < forward[rows, at])
        keys = np.where(flip[:, None], keys[:, ::-1], keys)
    return keys


def _unpack(codes: "np.ndarray", width: int, bits: int) -> "np.ndarray":
    """The rank rows of forward-packed keys (see :func:`_packed_keys`)."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64) * bits
    return (codes[:, None] >> shifts) & ((1 << bits) - 1)


def walk_collection(
    graphs: Sequence[Graph], q: int
) -> Tuple[List[QGramProfile], QGramVocabulary]:
    """Profiles of ``graphs`` sorted in their global ordering, and its vocabulary.

    The numpy implementation of :func:`repro.grams.qgrams.
    extract_profiles` (which validates ``q`` and owns the no-numpy
    fallback).
    """
    blocks, labels = _build_blocks(graphs)
    if not blocks:
        return [], QGramVocabulary()
    rank, compare, label_of_rank = _label_ranks(labels)
    bits = max(1, (len(labels) - 1).bit_length())
    width = 2 * q + 1
    packed = width * bits <= PACK_BITS
    walks = [_walk_block(block, q, rank, compare, bits) for block in blocks]

    # Collection-wide key codes: every block's distinct codes,
    # deduplicated again; ``code_of[k]`` maps block k's codes onto them.
    codes, inverse = np.unique(
        np.concatenate([walk.codes for walk in walks], axis=0),
        axis=None if packed else 0,
        return_inverse=True,
    )
    inverse = inverse.reshape(-1)
    bounds = np.cumsum([0] + [walk.codes.shape[0] for walk in walks]).tolist()
    code_of = [inverse[bounds[k] : bounds[k + 1]] for k in range(len(walks))]
    # Where each code first occurs, in collection enumeration order.
    first_seen = np.full(codes.shape[0], np.iinfo(np.int64).max, dtype=np.int64)
    rows_before = 0
    for walk, mapping in zip(walks, code_of):
        np.minimum.at(first_seen, mapping, walk.first_row + rows_before)
        rows_before += walk.paths.shape[0]

    # One key tuple per code: the graph's own label objects, as the
    # per-graph walk emits them...
    rank_rows = _unpack(codes, width, bits) if packed else codes
    labels_by_rank = np.fromiter(
        label_of_rank, dtype=object, count=len(label_of_rank)
    )
    code_keys: List[Key] = _rows_as_tuples(labels_by_rank[rank_rows])
    # ...and one vocabulary entry per equality class of keys (``1`` and
    # ``1.0`` are one key), keeping the first-seen key object as
    # build_vocabulary's document-frequency dict does.
    entry_of: Dict[Key, int] = {}
    entry_keys: List[Key] = []
    code_entry = np.empty(codes.shape[0], dtype=np.int64)
    for code in np.argsort(first_seen, kind="stable").tolist():
        key = code_keys[code]
        entry = entry_of.get(key)
        if entry is None:
            entry = entry_of[key] = len(entry_keys)
            entry_keys.append(key)
        code_entry[code] = entry
    num_entries = len(entry_keys)

    # Document frequency: the distinct (graph, entry) pairs of each block.
    df = np.zeros(num_entries, dtype=np.int64)
    row_codes: List["np.ndarray"] = []
    graph_of_rows: List["np.ndarray"] = []
    for walk, mapping in zip(walks, code_of):
        codes_k = mapping[walk.inverse]
        graph_of_row = np.repeat(
            np.arange(walk.rows_per_graph.shape[0], dtype=np.int64),
            walk.rows_per_graph,
        )
        pairs = np.unique(graph_of_row * num_entries + code_entry[codes_k])
        df += np.bincount(pairs % num_entries, minlength=num_entries)
        row_codes.append(codes_k)
        graph_of_rows.append(graph_of_row)

    # The global ordering: ascending df, ties by repr (build_vocabulary).
    df_list = df.tolist()
    reprs = [repr(key) for key in entry_keys]
    ranked = sorted(range(num_entries), key=lambda e: (df_list[e], reprs[e]))
    vocabulary = QGramVocabulary([entry_keys[e] for e in ranked])
    id_of_entry = np.empty(num_entries, dtype=np.int64)
    id_of_entry[ranked] = np.arange(num_entries, dtype=np.int64)
    id_of_code = id_of_entry[code_entry]
    # Python-object views, so emitted lists share one int per id and one
    # tuple per key instead of allocating them per instance.
    id_objects = np.arange(num_entries).astype(object)
    key_objects = np.fromiter(code_keys, dtype=object, count=len(code_keys))

    profiles: List[QGramProfile] = []
    for walk, codes_k, graph_of_row in zip(walks, row_codes, graph_of_rows):
        profiles.extend(
            _emit(walk, q, codes_k, graph_of_row, id_of_code, id_objects,
                  key_objects, vocabulary)
        )
    return profiles, vocabulary


def _rows_as_tuples(objects: "np.ndarray") -> List[Tuple[object, ...]]:
    """The rows of a 2-D object array as tuples, assembled column by column."""
    return list(zip(*[objects[:, c].tolist() for c in range(objects.shape[1])]))


def _emit(
    walk: _Walk,
    q: int,
    row_codes: "np.ndarray",
    graph_of_row: "np.ndarray",
    id_of_code: "np.ndarray",
    id_objects: "np.ndarray",
    key_objects: "np.ndarray",
    vocabulary: QGramVocabulary,
) -> List[QGramProfile]:
    """The block's profiles, each sorted by id (ties in DFS order)."""
    block = walk.block
    ids = id_of_code[row_codes]
    order = np.argsort(graph_of_row * len(vocabulary) + ids, kind="stable")
    signature = id_objects[ids[order]].tolist()
    keys = key_objects[row_codes[order]].tolist()
    paths = _rows_as_tuples(block.vertices[walk.paths[order]])
    counts = walk.vertex_counts.tolist()
    vertices = block.vertices.tolist()
    row_bounds = np.cumsum([0] + walk.rows_per_graph.tolist()).tolist()
    vertex_bounds = block.vertex_offsets.tolist()
    profiles: List[QGramProfile] = []
    for k, g in enumerate(block.graphs):
        a, b = row_bounds[k], row_bounds[k + 1]
        va, vb = vertex_bounds[k], vertex_bounds[k + 1]
        profiles.append(
            QGramProfile(
                g,
                q,
                keys[a:b],
                paths[a:b],
                {v: c for v, c in zip(vertices[va:vb], counts[va:vb])},
                max(counts[va:vb], default=0),
                signature=signature[a:b],
                signature_total=True,
                signature_source=vocabulary,
            )
        )
    return profiles
