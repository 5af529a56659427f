"""The spatio-temporal FoV index (paper Section V-A).

Each representative FoV ``(p_bar, theta_bar, t_s, t_e)`` is stored as a
*degenerate* 3-D rectangle -- ``min = [lng, lat, t_s]``, ``max = [lng,
lat, t_e]`` -- a vertical segment in (longitude, latitude, time) space.
A query ``Q = (t_s, t_e, p, r)`` becomes a full 3-D box after the
metre radius is converted to local degree scales (Section V-B /
:func:`repro.geo.earth.radius_to_degrees`).

The backing structure is pluggable: the from-scratch R-tree by default,
or the linear-scan baseline for the Fig. 6(c) comparison.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Literal, Sequence

import numpy as np

from repro.core.fov import RepresentativeFoV
from repro.core.query import Query
from repro.geo.coords import GeoPoint
from repro.geo.earth import metres_per_degree, radius_to_degrees
from repro.spatial.bulk import str_bulk_load
from repro.spatial.grid import PackedPointGrid
from repro.spatial.knn import knn_search, mindist
from repro.spatial.linear import LinearScanIndex
from repro.spatial.packed import PackedRTree, SearchObserver
from repro.spatial.rtree import RTree, RTreeConfig

__all__ = ["FoVIndex", "PackedFoVIndex", "fov_box", "query_box",
           "query_box_floats"]

#: Batch size at which ``insert_many`` stops descending the R-tree per
#: record and instead STR bulk-rebuilds the whole tree (existing
#: records + batch) in one O(n log n) pass.  A per-record insert costs
#: ~100x a bulk-loaded record, so the rebuild wins whenever the batch
#: is a non-trivial fraction of the index; see also
#: :data:`BULK_APPEND_MAX_RATIO`.
BULK_APPEND_MIN = 512
#: The bulk rebuild is skipped when the existing index is more than
#: this many times larger than the incoming batch (rebuilding 1M
#: records to append 1k would be a regression).
BULK_APPEND_MAX_RATIO = 64


def fov_box(fov: RepresentativeFoV) -> tuple[np.ndarray, np.ndarray]:
    """Degenerate 3-D rectangle of one representative FoV (Section V-A)."""
    return (
        np.array([fov.lng, fov.lat, fov.t_start], dtype=float),
        np.array([fov.lng, fov.lat, fov.t_end], dtype=float),
    )


def query_box(query: Query) -> tuple[np.ndarray, np.ndarray]:
    """3-D query rectangle of ``Q = (t_s, t_e, p, r)`` (Section V-B)."""
    bmin0, bmin1, bmin2, bmax0, bmax1, bmax2 = query_box_floats(query)
    return (
        np.array([bmin0, bmin1, bmin2], dtype=float),
        np.array([bmax0, bmax1, bmax2], dtype=float),
    )


def query_box_floats(
        query: Query) -> tuple[float, float, float, float, float, float]:
    """:func:`query_box` corners as six plain floats.

    ``(min_lng, min_lat, min_t, max_lng, max_lat, max_t)`` -- the same
    arithmetic as :func:`query_box` (both derive from this function), so
    every engine tests candidates against bit-identical box corners.
    The single-query latency path uses this form to skip two ndarray
    constructions per query.
    """
    r_lng, r_lat = radius_to_degrees(query.radius, query.center.lat)
    return (query.center.lng - r_lng, query.center.lat - r_lat,
            query.t_start,
            query.center.lng + r_lng, query.center.lat + r_lat,
            query.t_end)


class _ColumnRecords(Sequence):
    """Lazy ``records`` side table over snapshot columns.

    Zero-copy consumers (flat snapshot attach, docs/PERFORMANCE.md)
    reconstruct columns without ever holding Python record objects;
    this sequence materialises a :class:`RepresentativeFoV` only when a
    ranked result actually needs one, so attaching a flat snapshot
    stays O(1) in record count.
    """

    __slots__ = ("_lat", "_lng", "_theta", "_t_start", "_t_end",
                 "_video_ids", "_segment_ids")

    def __init__(self, lat: np.ndarray, lng: np.ndarray, theta: np.ndarray,
                 t_start: np.ndarray, t_end: np.ndarray,
                 video_ids: np.ndarray, segment_ids: np.ndarray) -> None:
        self._lat = lat
        self._lng = lng
        self._theta = theta
        self._t_start = t_start
        self._t_end = t_end
        self._video_ids = video_ids
        self._segment_ids = segment_ids

    def __len__(self) -> int:
        return int(self._lat.shape[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return RepresentativeFoV(
            lat=float(self._lat[i]), lng=float(self._lng[i]),
            theta=float(self._theta[i]),
            t_start=float(self._t_start[i]), t_end=float(self._t_end[i]),
            video_id=str(self._video_ids[i]),
            segment_id=int(self._segment_ids[i]),
        )


def _key_rank(video_ids: np.ndarray, segment_ids: np.ndarray) -> np.ndarray:
    """Canonical rank of each record's ``(video_id, segment_id)`` key.

    ``key_rank[i] < key_rank[j]`` iff ``records[i].key() <
    records[j].key()`` (NumPy ``<U`` comparison is code-point order,
    same as Python ``str``).  The stable lexsort gives equal keys
    ranks in payload order, so tie-breaking on ``key_rank`` reproduces
    the previous "stable sort then re-sort tie runs by key" behaviour.
    Ranking by this integer column replaces per-result Python key
    tuples on the hot path.
    """
    n = int(video_ids.shape[0])
    order = np.lexsort((segment_ids, video_ids))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    return rank


class PackedFoVIndex:
    """Frozen columnar (SoA) snapshot of a :class:`FoVIndex`.

    The read-optimised serving form: parallel ``lat``/``lng``/``theta``/
    ``t_start``/``t_end``/``video_ids``/``segment_ids`` arrays in
    payload order, a :class:`~repro.spatial.grid.PackedPointGrid` CSR
    cell grid answering range queries over the (degenerate) record
    boxes, a precomputed ``key_rank`` column encoding the canonical
    ``(video_id, segment_id)`` order for vectorised ranking, and a
    ``records`` sequence mapping payload id back to the indexed object
    (lazy when the snapshot was attached zero-copy).  The retrieval
    engine consumes candidates by fancy-indexing these columns instead
    of touching Python attributes per candidate.

    ``tree`` retains the level-order packed R-tree when the snapshot
    was built from a dynamic index (``None`` on zero-copy attach): the
    grid answers the same box queries in fewer passes, but the tree
    remains the reference structure for cross-checks and kNN-style
    descents.

    ``epoch`` records the backing index's mutation counter at snapshot
    time; ``FoVIndex.packed_view`` rebuilds the snapshot when they
    diverge.
    """

    __slots__ = ("tree", "records", "lat", "lng", "theta",
                 "t_start", "t_end", "video_ids", "segment_ids",
                 "key_rank", "grid", "epoch")

    def __init__(self, tree: PackedRTree, epoch: int = 0) -> None:
        self.tree = tree
        self.epoch = epoch
        recs: list[RepresentativeFoV] = list(tree.items)
        self.records: Sequence[RepresentativeFoV] = recs
        n = len(recs)
        self.lat = np.fromiter((r.lat for r in recs), dtype=float, count=n)
        self.lng = np.fromiter((r.lng for r in recs), dtype=float, count=n)
        self.theta = np.fromiter((r.theta for r in recs), dtype=float, count=n)
        self.t_start = np.fromiter((r.t_start for r in recs), dtype=float,
                                   count=n)
        self.t_end = np.fromiter((r.t_end for r in recs), dtype=float, count=n)
        if n:
            self.video_ids = np.array([r.video_id for r in recs])
            self.segment_ids = np.fromiter((r.segment_id for r in recs),
                                           dtype=np.int64, count=n)
        else:
            self.video_ids = np.empty(0, dtype="<U1")
            self.segment_ids = np.empty(0, dtype=np.int64)
        self.key_rank = _key_rank(self.video_ids, self.segment_ids)
        self.grid = PackedPointGrid.build(self.lng, self.lat,
                                          self.t_start, self.t_end,
                                          self.theta)

    def __len__(self) -> int:
        return len(self.records)

    @classmethod
    def from_rtree(cls, tree: RTree, epoch: int = 0) -> "PackedFoVIndex":
        """Snapshot a dynamic R-tree of representative FoVs."""
        return cls(PackedRTree.from_rtree(tree), epoch=epoch)

    @classmethod
    def from_columns(cls, *, lat: np.ndarray, lng: np.ndarray,
                     theta: np.ndarray, t_start: np.ndarray,
                     t_end: np.ndarray, video_ids: np.ndarray,
                     segment_ids: np.ndarray, key_rank: np.ndarray,
                     grid: PackedPointGrid, epoch: int = 0
                     ) -> "PackedFoVIndex":
        """Assemble a snapshot directly from columns (zero-copy attach).

        Used by the flat snapshot codec (:mod:`repro.core.flatsnap`):
        the columns and grid typically view a packed buffer or a
        ``.fovpack`` file mapping, nothing is copied, and ``records``
        materialises objects lazily -- so this constructor is O(1) in
        record count.  ``tree`` is ``None``; all
        range searches go through the grid.
        """
        view = cls.__new__(cls)
        view.tree = None
        view.epoch = epoch
        view.lat = lat
        view.lng = lng
        view.theta = theta
        view.t_start = t_start
        view.t_end = t_end
        view.video_ids = video_ids
        view.segment_ids = segment_ids
        view.key_rank = key_rank
        view.grid = grid
        view.records = _ColumnRecords(lat, lng, theta, t_start, t_end,
                                      video_ids, segment_ids)
        return view

    def range_search_ids(self, query: Query,
                         observer: SearchObserver | None = None
                         ) -> np.ndarray:
        """Payload ids of records intersecting the query's 3-D box."""
        b = query_box_floats(query)
        return self.grid.search_ids(b[:3], b[3:], observer=observer)

    def range_search(self, query: Query) -> list[RepresentativeFoV]:
        """Same candidate set as ``FoVIndex.range_search`` (as objects)."""
        return [self.records[i] for i in self.range_search_ids(query)]

    def search_many_ids(self, queries: list[Query],
                        observer: SearchObserver | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Batched range search: ``(query_ids, payload_ids)`` pairs.

        ``query_ids`` comes back sorted, so each query's hits are a
        contiguous run recoverable with ``np.searchsorted``.
        ``observer`` receives per-level descent statistics.
        """
        if not queries:
            return (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
        boxes = np.array([query_box_floats(q) for q in queries], dtype=float)
        return self.grid.search_many(boxes[:, :3], boxes[:, 3:],
                                     observer=observer)


class FoVIndex:
    """Dynamic index of representative FoVs with 3-D range lookup.

    Parameters
    ----------
    backend : {"rtree", "linear"}
        ``"rtree"`` (default) is the paper's design; ``"linear"`` swaps
        in the brute-force baseline with an identical interface.
    rtree_config : RTreeConfig, optional
        Structural parameters for the R-tree backend.

    Every mutation bumps :attr:`epoch`, which invalidates derived
    read-optimised state (the packed snapshot, server-side result
    caches) without those consumers scanning the index.
    """

    def __init__(self, backend: Literal["rtree", "linear"] = "rtree",
                 rtree_config: RTreeConfig | None = None):
        self.backend = backend
        self._rtree_config = rtree_config
        if backend == "rtree":
            self._index = RTree(3, config=rtree_config)
        elif backend == "linear":
            if rtree_config is not None:
                raise ValueError("rtree_config only applies to the rtree backend")
            self._index = LinearScanIndex(3)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self._epoch = 0
        self._packed: PackedFoVIndex | None = None

    def __len__(self) -> int:
        return len(self._index)

    @property
    def epoch(self) -> int:
        """Mutation counter; changes whenever indexed content changes."""
        return self._epoch

    def packed_view(self) -> PackedFoVIndex:
        """The current columnar snapshot, rebuilt lazily per epoch.

        Requires the R-tree backend (the linear baseline has no tree to
        pack).  Successive calls between mutations return the same
        object, so a query burst pays the packing cost once.
        """
        if not isinstance(self._index, RTree):
            raise TypeError("packed_view() requires the rtree backend")
        if self._packed is None or self._packed.epoch != self._epoch:
            self._packed = PackedFoVIndex.from_rtree(self._index,
                                                     epoch=self._epoch)
        return self._packed

    def insert(self, fov: RepresentativeFoV) -> None:
        """Index one uploaded representative FoV."""
        bmin, bmax = fov_box(fov)
        self._index.insert(bmin, bmax, fov)
        self._epoch += 1

    def insert_many(self, fovs: Iterable[RepresentativeFoV]) -> int:
        """Index a batch of records atomically; returns the count.

        All boxes are computed and checked finite *before* the first
        insert, so a bad record rejects the whole batch with the index
        untouched (no partial bundles), and the epoch bumps once for
        the batch instead of once per record -- one cache/packed-view
        invalidation per commit group, however many bundles it merged.

        Geometry validation is one vectorised pass over the batch's
        box matrix.  Large batches on the R-tree backend
        (:data:`BULK_APPEND_MIN`, :data:`BULK_APPEND_MAX_RATIO`) are
        appended by STR bulk-rebuilding the tree over existing plus new
        records instead of descending per record -- the ~100x
        amortisation the streaming ingest pipeline's commit groups rely
        on (docs/PERFORMANCE.md).
        """
        items = list(fovs)
        if not items:
            return 0
        mins = np.array([[f.lng, f.lat, f.t_start] for f in items],
                        dtype=float)
        maxs = np.array([[f.lng, f.lat, f.t_end] for f in items], dtype=float)
        finite = np.isfinite(mins).all(axis=1) & np.isfinite(maxs).all(axis=1)
        if not bool(finite.all()):
            bad = items[int(np.argmin(finite))]
            raise ValueError(
                f"non-finite geometry in record {bad.key()!r}; "
                f"nothing from this batch was indexed"
            )
        n = len(items)
        if (self.backend == "rtree" and n >= BULK_APPEND_MIN
                and len(self._index) <= n * BULK_APPEND_MAX_RATIO):
            existing = list(self._index.items())
            if existing:
                old_mins = np.array([b for b, _, _ in existing], dtype=float)
                old_maxs = np.array([b for _, b, _ in existing], dtype=float)
                mins = np.vstack([old_mins, mins])
                maxs = np.vstack([old_maxs, maxs])
                merged = [f for _, _, f in existing] + items
            else:
                merged = items
            self._index = str_bulk_load(mins, maxs, merged, dim=3,
                                        config=self._rtree_config)
        else:
            for i, fov in enumerate(items):
                self._index.insert(mins[i].copy(), maxs[i].copy(), fov)
        self._epoch += 1
        return n

    def records(self) -> list[RepresentativeFoV]:
        """Every indexed record (index order; audits and parity checks)."""
        return [fov for _, _, fov in self._index.items()]

    def content_digest(self) -> str:
        """Order-independent SHA-256 over the canonical record tuples.

        Two indexes hold bit-identical content iff their digests match,
        regardless of insertion order or tree shape -- the convergence
        check for fault-injection and WAL crash-replay runs
        (``repr`` round-trips floats exactly, so equal digests mean
        equal bits, not merely close values).
        """
        canon = sorted(
            (f.video_id, f.segment_id, f.lat, f.lng, f.theta,
             f.t_start, f.t_end)
            for f in self.records()
        )
        h = hashlib.sha256()
        h.update(repr(canon).encode("utf-8"))
        return h.hexdigest()

    def delete(self, fov: RepresentativeFoV) -> bool:
        """Remove one record (e.g. a provider revoking a contribution)."""
        bmin, bmax = fov_box(fov)
        deleted = self._index.delete(bmin, bmax, fov)
        if deleted:
            self._epoch += 1
        return deleted

    def evict_older_than(self, cutoff_t: float) -> int:
        """Drop every segment that *ended* before ``cutoff_t``.

        Retention enforcement: a deployment keeps descriptors for a
        bounded window (storage, policy, or provider consent expiry).
        Returns the number of records evicted.
        """
        victims = [(bmin, bmax, fov) for bmin, bmax, fov in self._index.items()
                   if fov.t_end < cutoff_t]
        for bmin, bmax, fov in victims:
            self._index.delete(bmin, bmax, fov)
        if victims:
            self._epoch += 1
        return len(victims)

    def range_search(self, query: Query) -> list[RepresentativeFoV]:
        """All records whose 3-D rectangles intersect the query box.

        This is the raw R-tree stage; the orientation filter and
        ranking live in :mod:`repro.core.retrieval`.
        """
        bmin, bmax = query_box(query)
        return self._index.search(bmin, bmax)

    def count_in_range(self, query: Query) -> int:
        """Number of records the query box intersects."""
        bmin, bmax = query_box(query)
        return self._index.count_intersecting(bmin, bmax)

    def nearest(self, center: GeoPoint, t: float, k: int = 10,
                time_weight_m_per_s: float = 0.0
                ) -> list[tuple[float, RepresentativeFoV]]:
        """The k records nearest to ``(center, t)`` -- no radius needed.

        Section V-B notes that picking the query radius trades accuracy
        against efficiency; a k-NN lookup sidesteps the choice.  The
        distance is Euclidean in local metres, optionally plus a
        temporal term: ``time_weight_m_per_s`` converts each second of
        temporal gap (outside the record's ``[t_s, t_e]`` interval) into
        that many metres.  The default 0 ranks purely spatially among
        records regardless of time; pass e.g. ``1.0`` to treat a minute
        of staleness like 60 m of distance.

        Returns ``(distance_m, record)`` pairs sorted ascending.  Only
        available on the R-tree backend (the linear baseline answers
        the same question via :meth:`range_search` sweeps).
        """
        if not isinstance(self._index, RTree):
            raise TypeError("nearest() requires the rtree backend")
        m_lng, m_lat = metres_per_degree(center.lat)
        weights = np.array([m_lng, m_lat, time_weight_m_per_s])
        point = np.array([center.lng, center.lat, t])
        return knn_search(self._index, point, k, weights=weights)

    def nearest_bruteforce(self, center: GeoPoint, t: float, k: int = 10,
                           time_weight_m_per_s: float = 0.0
                           ) -> list[tuple[float, RepresentativeFoV]]:
        """Reference O(n) implementation of :meth:`nearest` (tests)."""
        m_lng, m_lat = metres_per_degree(center.lat)
        weights = np.array([m_lng, m_lat, time_weight_m_per_s])
        point = np.array([center.lng, center.lat, t])
        rows = []
        for bmin, bmax, item in self._index.items():
            d = float(mindist(point, bmin[None, :], bmax[None, :], weights)[0])
            rows.append((d, item))
        rows.sort(key=lambda r: r[0])
        return rows[:k]

    @classmethod
    def bulk(cls, fovs: list[RepresentativeFoV],
             rtree_config: RTreeConfig | None = None) -> "FoVIndex":
        """STR bulk-load an index from a collected dataset (O(n log n))."""
        idx = cls(backend="rtree", rtree_config=rtree_config)
        if fovs:
            mins = np.array([[f.lng, f.lat, f.t_start] for f in fovs])
            maxs = np.array([[f.lng, f.lat, f.t_end] for f in fovs])
            idx._index = str_bulk_load(mins, maxs, fovs, dim=3, config=rtree_config)
        return idx
