"""Columnar (CSR-style) signature store over a profile collection.

The per-pair filter cascade consumes interned q-gram signatures and
label multisets one Python object at a time; the batch kernels of
:mod:`repro.engine.batch` instead evaluate whole candidate blocks as
numpy array operations.  This module owns the data layout those kernels
read: the entire collection laid out as contiguous int64 arrays.

Multisets are stored *compressed*: each CSR row is a sorted run of
distinct values with a parallel count column, so a row costs
``O(distinct)`` elements rather than ``O(multiplicity)`` — label
multisets over a handful of distinct labels shrink ~10×, and the
intersection kernel (:func:`repro.engine.batch.block_multiset_intersections`)
reduces to ``Σ min(count_row, count_r)`` over matched values.

* ``sig_offsets``/``sig_values``/``sig_counts`` — compressed rows of
  each graph's interned q-gram multiset (``sig_size`` keeps the total
  with multiplicity);
* ``lab_offsets``/``lab_values``/``lab_counts`` — compressed rows of
  the *combined* vertex+edge label multisets: vertex labels interned to
  ``2·id``, edge labels to ``2·id + 1`` (disjoint even/odd ranges), so
  the global label filter's two per-type intersections collapse into
  one kernel call — ``Γ_v + Γ_e = max(|Av|,|Bv|) + max(|Ae|,|Be|) −
  |A ∩ B|`` with the per-type sizes kept in the ``vlab_len``/
  ``elab_len`` columns;
* parallel scalar columns ``num_vertices``, ``num_edges``, ``d_path``,
  ``sig_size`` and ``prefix_length``, plus a ``mergeable`` flag marking
  rows whose signature ids come from the store's vocabulary (the
  precondition for the batch count kernel).

The store is append-only.  :func:`build_columnar_store` lays out a
whole collection; :meth:`ColumnarStore.append` adds one graph as the
last row.  Both lay a row out through one encoder and grow the label
interners in the same first-seen order, so a store grown by appends
equals a build over the same profiles, column for column.  Appends
write into backing buffers that grow geometrically, and every column
attribute is an exact-length view of its buffer: an append costs
amortised ``O(row)``, and views handed out before it stay valid.
Rows are never changed or removed.  The store is safe to ship to
worker processes (plain ndarrays and label dicts; a pickle carries the
exact-length columns, not the spare capacity).  A graph outside the store
(an index query, the outer side of a future out-of-core shard) enters
the kernels through :meth:`ColumnarStore.external_row`, which maps
unseen labels to unique *negative* ids — never colliding with the
store's non-negative ids, so multiset intersections stay exact.

Requires numpy; import the module freely, but call
:func:`build_columnar_store` only when :data:`HAVE_NUMPY` is true (the
engine's scalar path never touches this module).
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.grams.qgrams import QGramProfile

if TYPE_CHECKING:
    import numpy as np
else:
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - exercised by the no-numpy job
        np = None

#: Whether numpy is importable — the batch pipeline's availability flag.
HAVE_NUMPY = np is not None

__all__ = ["HAVE_NUMPY", "SignatureRow", "ColumnarStore", "build_columnar_store"]


class SignatureRow:
    """One graph's columns, as the batch kernels consume them.

    Either a zero-copy view into a :class:`ColumnarStore` row
    (:meth:`ColumnarStore.row`) or a store-compatible encoding of an
    outside graph (:meth:`ColumnarStore.external_row`).
    ``sig_values``/``sig_counts`` hold the compressed interned q-gram
    multiset (sorted distinct ids + multiplicities, ``sig_size`` the
    total), ``lab_values``/``lab_counts`` the compressed combined
    even/odd label multiset (``vlab_len``/``elab_len`` the per-type
    totals); ``mergeable`` is true when the signature is drawn from the
    store's vocabulary so the batch count kernel may intersect it
    against store rows.
    """

    __slots__ = (
        "sig_values",
        "sig_counts",
        "sig_size",
        "num_vertices",
        "num_edges",
        "d_path",
        "lab_values",
        "lab_counts",
        "vlab_len",
        "elab_len",
        "mergeable",
    )

    def __init__(
        self,
        sig_values: "np.ndarray",
        sig_counts: "np.ndarray",
        sig_size: int,
        num_vertices: int,
        num_edges: int,
        d_path: int,
        lab_values: "np.ndarray",
        lab_counts: "np.ndarray",
        vlab_len: int,
        elab_len: int,
        mergeable: bool,
    ) -> None:
        """Bind one row's columns (arrays are not copied)."""
        self.sig_values = sig_values
        self.sig_counts = sig_counts
        self.sig_size = sig_size
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.d_path = d_path
        self.lab_values = lab_values
        self.lab_counts = lab_counts
        self.vlab_len = vlab_len
        self.elab_len = elab_len
        self.mergeable = mergeable


def _compress(counts: Counter) -> Tuple["np.ndarray", "np.ndarray"]:
    """A ``{value: count}`` mapping as sorted (values, counts) arrays."""
    if not counts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    items = sorted(counts.items())
    values = np.asarray([v for v, _ in items], dtype=np.int64)
    cnts = np.asarray([c for _, c in items], dtype=np.int64)
    return values, cnts


def _csr(
    values_rows: Sequence["np.ndarray"], counts_rows: Sequence["np.ndarray"]
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Stack per-row (values, counts) arrays into CSR columns."""
    offsets = np.zeros(len(values_rows) + 1, dtype=np.int64)
    np.cumsum([values.shape[0] for values in values_rows], out=offsets[1:])
    if values_rows:
        return offsets, np.concatenate(values_rows), np.concatenate(counts_rows)
    empty = np.zeros(0, dtype=np.int64)
    return offsets, empty, empty.copy()


def _combined_labels(
    labels: Tuple,
    vlabel_ids: Dict[object, int],
    elabel_ids: Dict[object, int],
) -> Counter:
    """One graph's label pair as a combined even/odd id Counter.

    Grows the interners as needed; vertex labels encode to ``2·id``,
    edge labels to ``2·id + 1``.
    """
    combined: Counter = Counter()
    for counts, interner, parity in zip(
        labels, (vlabel_ids, elabel_ids), (0, 1)
    ):
        for label, count in counts.items():
            combined[2 * interner.setdefault(label, len(interner)) + parity] = (
                count
            )
    return combined


#: Every column of a store.  A CSR offsets column has ``len + 1``
#: entries, a flat values/counts column ``offsets[-1]``, every other
#: column one entry per row.
_COLUMNS = (
    "sig_offsets",
    "sig_values",
    "sig_counts",
    "lab_offsets",
    "lab_values",
    "lab_counts",
    "num_vertices",
    "num_edges",
    "d_path",
    "sig_size",
    "vlab_len",
    "elab_len",
    "prefix_length",
    "mergeable",
)

#: The one-entry-per-row columns, in the order :func:`_encode_row`
#: returns their values.
_SCALARS = _COLUMNS[6:]

#: Capacity factor by which :meth:`ColumnarStore.append` grows a full
#: column buffer.
_GROWTH = 2


def _encode_row(
    profile: QGramProfile,
    labels: Tuple,
    prefix_length: int,
    source: Optional[object],
    vlabel_ids: Dict[object, int],
    elabel_ids: Dict[object, int],
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray", Tuple]:
    """One graph's store row — the only definition of a row's layout.

    Returns the compressed signature row, the compressed combined
    even/odd label row (growing the interners in first-seen order) and
    the scalar values in :data:`_SCALARS` order:
    ``(sig_values, sig_counts, lab_values, lab_counts, scalars)``.  The
    signature segment is empty and ``mergeable`` false unless the
    profile's signature was interned by ``source``.
    """
    mergeable = (
        profile.signature is not None
        and source is not None
        and profile.signature_source is source
    )
    sig_values, sig_counts = _compress(
        Counter(profile.signature) if mergeable else Counter()
    )
    lab_values, lab_counts = _compress(
        _combined_labels(labels, vlabel_ids, elabel_ids)
    )
    g = profile.graph
    scalars = (
        g.num_vertices,
        g.num_edges,
        profile.d_path,
        profile.size,
        sum(labels[0].values()),
        sum(labels[1].values()),
        prefix_length,
        mergeable,
    )
    return sig_values, sig_counts, lab_values, lab_counts, scalars


class ColumnarStore:
    """The whole collection as contiguous parallel numpy columns.

    Built by :func:`build_columnar_store` and grown one row at a time by
    :meth:`append`; existing rows never change.  Row order is the
    profile order the store was built and appended in, so join/search
    drivers index it by the same positions they use for ``profiles``
    (plus a caller-side base offset for concatenated collections).
    Each column attribute is an exact-length view of a backing buffer
    with spare capacity for appends.
    """

    __slots__ = ("source",) + _COLUMNS + ("vlabel_ids", "elabel_ids", "_buffers")

    def __init__(
        self,
        source: Optional[object],
        columns: Dict[str, "np.ndarray"],
        vlabel_ids: Dict[object, int],
        elabel_ids: Dict[object, int],
    ) -> None:
        """Bind the finished columns (see :func:`build_columnar_store`)."""
        self.source = source
        for name in _COLUMNS:
            setattr(self, name, columns[name])
        self.vlabel_ids = vlabel_ids
        self.elabel_ids = elabel_ids
        # Backing buffer of every column grown by an append; until its
        # first growth, a column is its own (full) buffer.
        self._buffers: Dict[str, "np.ndarray"] = {}

    def __getstate__(self) -> Tuple:
        return (
            self.source,
            {name: getattr(self, name) for name in _COLUMNS},
            self.vlabel_ids,
            self.elabel_ids,
        )

    def __setstate__(self, state: Tuple) -> None:
        ColumnarStore.__init__(self, *state)

    def __len__(self) -> int:
        """Number of rows (graphs) in the store."""
        return len(self.num_vertices)

    def row(self, i: int) -> SignatureRow:
        """Row ``i`` as a :class:`SignatureRow` of zero-copy views.

        Scalar fields stay numpy scalars (no ``int()`` round-trips —
        the kernels only feed them back into array arithmetic, and the
        conversion cost is measurable at one row per probe).
        """
        sig_span = slice(self.sig_offsets[i], self.sig_offsets[i + 1])
        lab_span = slice(self.lab_offsets[i], self.lab_offsets[i + 1])
        return SignatureRow(
            sig_values=self.sig_values[sig_span],
            sig_counts=self.sig_counts[sig_span],
            sig_size=self.sig_size[i],
            num_vertices=self.num_vertices[i],
            num_edges=self.num_edges[i],
            d_path=self.d_path[i],
            lab_values=self.lab_values[lab_span],
            lab_counts=self.lab_counts[lab_span],
            vlab_len=self.vlab_len[i],
            elab_len=self.elab_len[i],
            mergeable=bool(self.mergeable[i]),
        )

    def external_row(self, profile: QGramProfile, labels: Tuple) -> SignatureRow:
        """Encode a graph *outside* the store for batching against it.

        ``labels`` is the graph's ``(vertex, edge)`` label-multiset
        pair, as the drivers cache it.  Labels the store never saw map
        to unique negative ids of the matching parity (the same unseen
        label always maps to the same negative id within this row), so
        they can never match a store id and the intersection kernels
        stay exact.  The row is ``mergeable`` only when the profile
        carries a signature from the store's own vocabulary.
        """
        mergeable = (
            profile.signature is not None
            and self.source is not None
            and profile.signature_source is self.source
        )
        if mergeable:
            sig_values, sig_counts = _compress(Counter(profile.signature))
        else:
            sig_values = sig_counts = np.zeros(0, dtype=np.int64)
        combined: Counter = Counter()
        lens = []
        for counts, interner, parity in zip(
            labels, (self.vlabel_ids, self.elabel_ids), (0, 1)
        ):
            unseen: Dict[object, int] = {}
            size = 0
            for label, count in counts.items():
                label_id = interner.get(label)
                if label_id is None:
                    label_id = unseen.setdefault(label, -1 - len(unseen))
                combined[2 * label_id + parity] = count
                size += count
            lens.append(size)
        lab_values, lab_counts = _compress(combined)
        g = profile.graph
        return SignatureRow(
            sig_values=sig_values,
            sig_counts=sig_counts,
            sig_size=profile.size,
            num_vertices=g.num_vertices,
            num_edges=g.num_edges,
            d_path=profile.d_path,
            lab_values=lab_values,
            lab_counts=lab_counts,
            vlab_len=lens[0],
            elab_len=lens[1],
            mergeable=mergeable,
        )

    def append(
        self, profile: QGramProfile, labels: Tuple, prefix_length: int = 0
    ) -> None:
        """Add ``profile``'s graph as the store's last row, in place.

        ``labels`` is the graph's ``(vertex, edge)`` label-multiset pair
        and ``prefix_length`` its chosen prefix length, as for
        :func:`build_columnar_store`.  The row goes through the same
        encoder as a build and extends the label interners in the same
        first-seen order, so the grown store equals a build over the
        same profiles.  A store without a signature source adopts the
        first signed profile's, as a build would: every earlier row is
        unsigned, hence unmergeable under any source.
        """
        if self.source is None and profile.signature is not None:
            self.source = profile.signature_source
        sig_values, sig_counts, lab_values, lab_counts, scalars = _encode_row(
            profile, labels, prefix_length, self.source,
            self.vlabel_ids, self.elabel_ids,
        )
        self._extend("sig_offsets", (self.sig_offsets[-1] + len(sig_values),))
        self._extend("sig_values", sig_values)
        self._extend("sig_counts", sig_counts)
        self._extend("lab_offsets", (self.lab_offsets[-1] + len(lab_values),))
        self._extend("lab_values", lab_values)
        self._extend("lab_counts", lab_counts)
        for name, value in zip(_SCALARS, scalars):
            self._extend(name, (value,))

    def _extend(self, name: str, values: Sequence) -> None:
        """Append ``values`` to column ``name``, growing its buffer.

        A full buffer is replaced by one :data:`_GROWTH` times larger;
        the column attribute becomes the exact-length view of the
        buffer's filled part.
        """
        column = getattr(self, name)
        used = column.shape[0]
        need = used + len(values)
        buffer = self._buffers.get(name, column)
        if buffer.shape[0] < need:
            grown = np.empty(
                max(need, _GROWTH * buffer.shape[0]), dtype=column.dtype
            )
            grown[:used] = column
            buffer = self._buffers[name] = grown
        buffer[used:need] = values
        setattr(self, name, buffer[:need])


def build_columnar_store(
    profiles: Sequence[QGramProfile],
    labels: Sequence[Tuple],
    prefix_lengths: Optional[Sequence[int]] = None,
) -> ColumnarStore:
    """Lay ``profiles`` (with their cached label pairs) out columnar.

    ``labels[i]`` is the ``(vertex, edge)`` label-multiset pair of
    ``profiles[i].graph``; ``prefix_lengths`` optionally records each
    profile's chosen prefix length (zero when not supplied — the column
    is informational, no kernel reads it).  The store's signature
    vocabulary is the profiles' common ``signature_source``; rows whose
    profile carries no signature from it are stored with an empty
    signature segment and ``mergeable=False`` (the batch count kernel
    skips them, the scalar cascade takes over).
    """
    source = next(
        (p.signature_source for p in profiles if p.signature is not None), None
    )
    vlabel_ids: Dict[object, int] = {}
    elabel_ids: Dict[object, int] = {}
    rows = [
        _encode_row(profile, pair, length, source, vlabel_ids, elabel_ids)
        for profile, pair, length in zip(
            profiles,
            labels,
            prefix_lengths if prefix_lengths is not None else repeat(0),
        )
    ]
    csr = _csr([row[0] for row in rows], [row[1] for row in rows]) + _csr(
        [row[2] for row in rows], [row[3] for row in rows]
    )
    columns: Dict[str, "np.ndarray"] = dict(zip(_COLUMNS, csr))
    scalar_columns = zip(*(row[4] for row in rows)) if rows else repeat(())
    for name, values in zip(_SCALARS, scalar_columns):
        columns[name] = np.asarray(
            values, dtype=bool if name == "mergeable" else np.int64
        )
    return ColumnarStore(source, columns, vlabel_ids, elabel_ids)
