"""Rank-based retrieval with the Section V-B filtering mechanism.

The raw R-tree range search finds FoVs whose *camera positions* fall
near the query -- but inquirers do not care where the cameras were,
only whether a camera's viewing sector **covers** the queried spot.
The engine therefore:

1. runs the 3-D range search (query radius per the empirical area
   presets, Section V-B item 1);
2. applies the orientation filter -- drop FoVs whose sector does not
   cover the query centre (items 2-3; "a video of Merkel on the
   grandstand is useless for a World Cup query");
3. ranks survivors by distance to the query centre, nearer first
   (closer FoVs are less likely to be occluded);
4. truncates to the inquirer's top-N (item 4).

Two execution engines share that pipeline:

* ``"dynamic"`` -- the seed path: search the mutable R-tree, then build
  evidence arrays from the candidate objects.  Right for ingest-heavy
  workloads where the index churns between queries.
* ``"packed"`` -- the read-optimised path: search the frozen
  structure-of-arrays snapshot (``FoVIndex.packed_view``) and gather
  evidence by fancy-indexing its columns; ``execute_many`` additionally
  answers the whole batch per tree level and runs one combined
  orientation-filter pass across all (query, candidate) pairs.  Both
  engines produce identical rankings and funnel counters (the parity
  tests pin this), so the choice is purely a throughput trade.

Latency accounting never reads a clock directly (fovlint RF005): the
engine takes an injectable ``clock`` callable, defaulting to
:func:`repro.net.clock.default_timer`.  Observability follows the same
discipline: the engine accepts an :class:`~repro.obs.runtime.Observability`
bundle and emits per-stage spans (tree descent, projection, orientation
filter, rank) through its tracer -- a no-op
:data:`~repro.obs.trace.NULL_TRACER` unless the owner opted into
tracing -- plus packed-descent counters through a
:class:`~repro.obs.runtime.PackedSearchRecorder`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.index import FoVIndex, PackedFoVIndex, query_box_floats
from repro.core.query import Query, QueryResult, RankedFoV
from repro.core.ranking import DistanceRanker
from repro.geo.earth import _M_PER_DEG, LocalProjection, pairwise_local_xy
from repro.geometry.angles import angular_difference
from repro.net.clock import default_timer
from repro.obs.runtime import Observability, PackedSearchRecorder
from repro.obs.trace import NULL_TRACER, TracerLike
from repro.spatial.packed import SearchObserver

__all__ = ["RetrievalEngine"]

_ENGINES = ("dynamic", "packed")


def _sector_evidence(camera: CameraModel, strict_cover: bool,
                     xy: np.ndarray, thetas: np.ndarray, radii: Any
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Orientation-filter evidence for candidate cameras.

    ``xy`` holds camera positions in each query's local plane (query
    centre at the origin); ``radii`` is the query radius -- a scalar for
    a single query or a per-row array for a cross-query batch.  Every
    operation is elementwise, so batching queries together produces
    bit-identical per-row results to running them one at a time.

    Returns ``(dist, dtheta, covers_center, keep)``.
    """
    dist = np.linalg.norm(xy, axis=-1)             # (n,)

    # Bearing from each camera to the query centre (the origin).
    bearings = np.degrees(np.arctan2(-xy[:, 0], -xy[:, 1]))
    dtheta = np.asarray(angular_difference(bearings, thetas))
    in_wedge = (dtheta <= camera.half_angle) | (dist == 0.0)
    covers_center = in_wedge & (dist <= camera.radius)

    if strict_cover:
        keep = covers_center
    else:
        # Sector-disc overlap, vectorised over the common cases:
        # centre covered, or apex within the query disc, or the
        # wedge pointing at the disc with the arc within reach.
        apex_in_disc = dist <= radii
        half_width = np.degrees(
            np.arcsin(np.clip(radii / np.maximum(dist, 1e-9), 0.0, 1.0))
        )
        wedge_touches = dtheta <= camera.half_angle + half_width
        near_enough = dist <= camera.radius + radii
        keep = covers_center | apex_in_disc | (wedge_touches & near_enough)
    return dist, dtheta, covers_center, keep


def _ranked_rows(query: Query, camera: CameraModel, ranker: Any,
                 fov_at: Callable[[int], RepresentativeFoV],
                 dist: np.ndarray, dtheta: np.ndarray,
                 covers_center: np.ndarray, keep: np.ndarray,
                 t_start: np.ndarray, t_end: np.ndarray) -> list[RankedFoV]:
    """Score, sort and materialise the surviving candidates.

    The orientation-filter mask is applied *first*, so the ranker and
    the argsort only ever see survivors; ``fov_at`` maps a candidate
    row back to its record.

    The output order is the *canonical* ranking: descending score, with
    exact score ties broken by the record key ``(video_id,
    segment_id)``.  A plain stable argsort would leave tie order at the
    mercy of candidate order -- i.e. of index layout -- which would make
    two indexes holding the same records rank differently.  The
    canonical order depends only on record content, so the dynamic,
    packed and geo-sharded engines agree bit for bit and a sharded
    top-N merge reproduces the single-server ranking exactly
    (docs/SHARDING.md).  Tie runs are re-sorted at Python level, so the
    common all-distinct case stays one vectorised argsort.
    """
    kept = np.flatnonzero(keep)
    if kept.size == 0:
        return []
    scores = np.asarray(ranker.scores(
        query, camera, dist[kept], dtheta[kept],
        t_start[kept], t_end[kept]), dtype=float)
    perm = np.argsort(-scores, kind="stable")
    ss = scores[perm]
    if ss.size > 1 and bool(np.any(ss[:-1] == ss[1:])):
        ordered: list[int] = []
        flat = [int(p) for p in perm]
        i = 0
        while i < len(flat):
            j = i + 1
            while j < len(flat) and ss[j] == ss[i]:
                j += 1
            if j - i > 1:
                ordered.extend(sorted(
                    flat[i:j], key=lambda p: fov_at(int(kept[p])).key()))
            else:
                ordered.append(flat[i])
            i = j
        perm = np.asarray(ordered, dtype=np.intp)
    return [
        RankedFoV(fov=fov_at(int(kept[p])),
                  distance=float(dist[kept[p]]),
                  covers=bool(covers_center[kept[p]]),
                  score=float(scores[p]))
        for p in perm
    ]


def _rank_survivors(view: PackedFoVIndex, ids: np.ndarray, query: Query,
                    camera: CameraModel, ranker: Any,
                    dist: np.ndarray, dtheta: np.ndarray,
                    covers_center: np.ndarray, keep: np.ndarray
                    ) -> tuple[list[RankedFoV], int]:
    """Vectorised canonical rank of one packed query's survivors.

    The single-query counterpart of the batch rank pass: the mask is
    applied first (the ranker only ever sees survivors), the canonical
    ``(-score, key)`` order comes from one ``np.lexsort`` over the
    precomputed ``key_rank`` column, and only the ``top_n`` winning
    rows are materialised into :class:`RankedFoV` objects.  Returns
    ``(ranked rows, survivor count)``.
    """
    kept = np.flatnonzero(keep)
    n_kept = int(kept.size)
    if n_kept == 0:
        return [], 0
    kids = ids[kept]
    scores = np.asarray(ranker.scores(
        query, camera, dist[kept], dtheta[kept],
        view.t_start[kids], view.t_end[kids]), dtype=float)
    order = np.lexsort((view.key_rank[kids], -scores))
    records = view.records
    ranked = []
    for p in order[: query.top_n].tolist():
        row = int(kept[p])
        ranked.append(RankedFoV(fov=records[int(kids[p])],
                                distance=float(dist[row]),
                                covers=bool(covers_center[row]),
                                score=float(scores[p])))
    return ranked, n_kept


#: Candidate-count ceiling for the scalar single-query path: below it,
#: per-element Python floats beat NumPy's fixed per-op dispatch cost
#: (a handful of candidates is the common case for the paper's V-B
#: radii); above it the vectorised kernels win and we fall back.
_SCALAR_MAX_CANDIDATES = 16

#: Scanned-row ceiling for the fused grid fast path: above it the grid
#: falls back to ``search_ids`` + the vectorised rank, which wins once
#: the frontier is large enough to amortise NumPy dispatch.
_SCAN_MAX_ROWS = 256


def _query_packed_fused(view: PackedFoVIndex, rows: list[list[float]],
                        query: Query, camera: CameraModel,
                        strict_cover: bool, ranker: Any
                        ) -> tuple[list[RankedFoV], int]:
    """Single-loop scalar twin of filter + rank over fused hit rows.

    ``rows`` is a grid hit set (:meth:`PackedPointGrid.search_rows`) --
    the query box's exact matches, each row ``[lng, -lng, lat, -lat,
    t_s, -t_e, theta, row_id]`` in plain floats.  One Python loop runs
    the same scalar projection/sector arithmetic as
    :func:`_rank_packed_scalar` straight off those rows, so the
    few-candidate common case never touches the column arrays or pays
    NumPy per-op dispatch.  Returns ``(ranked, survivors)``.

    Scalar/vector bit-parity holds for the reasons spelled out in
    :func:`_rank_packed_scalar`; the parity props drive this path
    against the dynamic engine on both sides of every cutoff.
    """
    olat, olng = query.center.lat, query.center.lng
    radius = query.radius
    half, cam_r = camera.half_angle, camera.radius
    cos, radians, sqrt = math.cos, math.radians, math.sqrt
    atan2, degrees, asin = math.atan2, math.degrees, math.asin
    kept: list[int] = []
    dists: list[float] = []
    dthetas: list[float] = []
    covers: list[bool] = []
    for r in rows:
        lat = r[2]
        # LocalProjection.to_local_arrays, one row:
        scale = cos(radians((olat + lat) / 2.0))
        x = _M_PER_DEG * scale * (r[0] - olng)
        y = _M_PER_DEG * (lat - olat)
        # _sector_evidence, one row:
        dist = sqrt(x * x + y * y)
        bearing = degrees(atan2(-x, -y))
        d = abs((r[6] - bearing) % 360.0)
        dtheta = min(d, 360.0 - d)
        covers_center = (dtheta <= half or dist == 0.0) and dist <= cam_r
        if strict_cover:
            keep = covers_center
        else:
            half_width = degrees(asin(
                min(max(radius / max(dist, 1e-9), 0.0), 1.0)))
            keep = (covers_center or dist <= radius
                    or (dtheta <= half + half_width
                        and dist <= cam_r + radius))
        if keep:
            kept.append(int(r[7]))
            dists.append(dist)
            dthetas.append(dtheta)
            covers.append(covers_center)
    n_kept = len(kept)
    if n_kept == 0:
        return [], 0
    if type(ranker) is DistanceRanker:
        scores: list[float] = [-v for v in dists]
    else:
        kid_arr = np.asarray(kept, dtype=np.intp)
        scores = np.asarray(ranker.scores(
            query, camera, np.asarray(dists), np.asarray(dthetas),
            view.t_start[kid_arr], view.t_end[kid_arr]),
            dtype=float).tolist()
    # Canonical (-score, key) order via a decorated sort of plain
    # tuples -- same order np.lexsort((key_rank, -scores)) yields.
    krank = view.key_rank.item
    order = sorted(zip([-s for s in scores],
                       [krank(i) for i in kept], range(n_kept)))
    records = view.records
    ranked = [RankedFoV(fov=records[kept[p]], distance=dists[p],
                        covers=covers[p], score=scores[p])
              for _, _, p in order[: query.top_n]]
    return ranked, n_kept


def _rank_packed_scalar(view: PackedFoVIndex, ids: np.ndarray, query: Query,
                        camera: CameraModel, strict_cover: bool, ranker: Any
                        ) -> tuple[list[RankedFoV], int]:
    """Scalar-math twin of projection + `_sector_evidence` + rank.

    For the few-candidate case the vectorised pipeline pays ~30 NumPy
    dispatches to process a handful of rows; this path runs the same
    arithmetic per candidate in plain Python floats.  Every expression
    mirrors its array counterpart operation for operation
    (``LocalProjection.to_local_arrays``, :func:`_sector_evidence`,
    :func:`repro.geometry.angles.angular_difference`), and libm scalar
    ops produce the same doubles as NumPy's elementwise loops, so
    results are bit-identical to the vector path -- the engine parity
    props exercise both sides of the `_SCALAR_MAX_CANDIDATES` cutoff.
    The ranker still receives survivor *arrays* (its contract), and the
    canonical ``(-score, key_rank)`` order is identical to the
    ``np.lexsort`` used by the vector rank.
    """
    olat, olng = query.center.lat, query.center.lng
    radius = query.radius
    half, cam_r = camera.half_angle, camera.radius
    lat_at, lng_at, th_at = view.lat.item, view.lng.item, view.theta.item
    cos, radians, sqrt = math.cos, math.radians, math.sqrt
    atan2, degrees, asin = math.atan2, math.degrees, math.asin
    kept: list[int] = []
    dists: list[float] = []
    dthetas: list[float] = []
    covers: list[bool] = []
    for i in ids.tolist():
        lat = lat_at(i)
        # LocalProjection.to_local_arrays, one row:
        scale = cos(radians((olat + lat) / 2.0))
        x = _M_PER_DEG * scale * (lng_at(i) - olng)
        y = _M_PER_DEG * (lat - olat)
        # _sector_evidence, one row:
        dist = sqrt(x * x + y * y)
        bearing = degrees(atan2(-x, -y))
        d = abs((th_at(i) - bearing) % 360.0)
        dtheta = min(d, 360.0 - d)
        covers_center = (dtheta <= half or dist == 0.0) and dist <= cam_r
        if strict_cover:
            keep = covers_center
        else:
            half_width = degrees(asin(
                min(max(radius / max(dist, 1e-9), 0.0), 1.0)))
            keep = (covers_center or dist <= radius
                    or (dtheta <= half + half_width
                        and dist <= cam_r + radius))
        if keep:
            kept.append(i)
            dists.append(dist)
            dthetas.append(dtheta)
            covers.append(covers_center)
    n_kept = len(kept)
    if n_kept == 0:
        return [], 0
    if type(ranker) is DistanceRanker:
        # The default ranker's score is exactly ``-dist`` (its array
        # form is ``-np.asarray(dist)``); negating the Python floats we
        # already hold gives the same doubles without round-tripping
        # four arrays through the ranker protocol.
        scores: list[float] = [-d for d in dists]
    else:
        kid_arr = np.asarray(kept, dtype=np.intp)
        scores = np.asarray(ranker.scores(
            query, camera, np.asarray(dists), np.asarray(dthetas),
            view.t_start[kid_arr], view.t_end[kid_arr]),
            dtype=float).tolist()
    key_rank = view.key_rank
    order = sorted(range(n_kept),
                   key=lambda p: (-scores[p], key_rank[kept[p]]))
    records = view.records
    ranked = [RankedFoV(fov=records[kept[p]], distance=dists[p],
                        covers=covers[p], score=scores[p])
              for p in order[: query.top_n]]
    return ranked, n_kept


def _batch_execute(view: PackedFoVIndex, camera: CameraModel,
                   strict_cover: bool, ranker: Any,
                   queries: list[Query],
                   clock: Callable[[], float],
                   tracer: TracerLike = NULL_TRACER,
                   observer: SearchObserver | None = None
                   ) -> list[QueryResult]:
    """Answer a query batch against a packed snapshot in shared passes.

    Every stage of the funnel is one array kernel over the combined
    ``(query, candidate)`` pair arrays: the grid/tree descent, the
    local projection, the orientation filter, scoring (via the ranker's
    ``scores_batch`` when it has one -- rankers without it are scored
    per query on their survivor segments, preserving mask-first
    semantics for custom rankers), and a single ``np.lexsort`` under
    ``(query, -score, key_rank)`` that yields every query's canonical
    ranking at once.  Only the winning ``top_n`` rows per query are
    materialised into Python objects.

    ``elapsed_s`` is the batch wall time split evenly across the
    queries -- per-query timing has no meaning once the funnel is
    shared.  Each shared pass gets one span on ``tracer`` (the no-op
    tracer by default), and the descent reports frontier statistics to
    ``observer``.
    """
    t0 = clock()
    n_q = len(queries)
    with tracer.span("query.tree_descent", queries=n_q):
        qids, ids = view.search_many_ids(queries, observer=observer)

    with tracer.span("query.projection", pairs=int(ids.size)):
        origin_lat = np.fromiter((q.center.lat for q in queries), dtype=float,
                                 count=n_q)
        origin_lng = np.fromiter((q.center.lng for q in queries), dtype=float,
                                 count=n_q)
        radii = np.fromiter((q.radius for q in queries), dtype=float,
                            count=n_q)
        xy = pairwise_local_xy(origin_lat[qids], origin_lng[qids],
                               view.lat[ids], view.lng[ids])

    with tracer.span("query.orientation_filter"):
        dist, dtheta, covers_center, keep = _sector_evidence(
            camera, strict_cover, xy, view.theta[ids], radii[qids])
        bounds = np.searchsorted(qids, np.arange(n_q + 1))

    with tracer.span("query.rank"):
        kept = np.flatnonzero(keep)
        kq = qids[kept]                    # sorted: qids is sorted
        kids = ids[kept]
        kdist = dist[kept]
        kdtheta = dtheta[kept]
        kcov = covers_center[kept]
        kts = view.t_start[kids]
        kte = view.t_end[kids]
        kbounds = np.searchsorted(kq, np.arange(n_q + 1))
        scores_batch = getattr(ranker, "scores_batch", None)
        if scores_batch is not None:
            q_ts = np.fromiter((q.t_start for q in queries), dtype=float,
                               count=n_q)
            q_te = np.fromiter((q.t_end for q in queries), dtype=float,
                               count=n_q)
            scores = np.asarray(scores_batch(
                camera, q_ts[kq], q_te[kq], kdist, kdtheta, kts, kte),
                dtype=float)
        else:
            # Mask-first fallback for custom rankers: each query's
            # ranker call sees exactly its survivor segment, same as
            # the sequential path.
            scores = np.empty(kept.size, dtype=float)
            for qi, q in enumerate(queries):
                lo, hi = int(kbounds[qi]), int(kbounds[qi + 1])
                if lo == hi:
                    continue
                scores[lo:hi] = np.asarray(ranker.scores(
                    q, camera, kdist[lo:hi], kdtheta[lo:hi],
                    kts[lo:hi], kte[lo:hi]), dtype=float)
        # One global canonical sort: primary query id (keeps segments
        # contiguous at their searchsorted bounds), then descending
        # score, then canonical record key -- each query's segment of
        # ``order`` is its full canonical ranking.
        order = np.lexsort((view.key_rank[kids], -scores, kq))
        records = view.records
        rows: list[tuple[Query, list[RankedFoV], int, int]] = []
        for qi, q in enumerate(queries):
            lo, hi = int(kbounds[qi]), int(kbounds[qi + 1])
            ranked = []
            for p in order[lo: min(hi, lo + q.top_n)].tolist():
                ranked.append(RankedFoV(fov=records[int(kids[p])],
                                        distance=float(kdist[p]),
                                        covers=bool(kcov[p]),
                                        score=float(scores[p])))
            rows.append((q, ranked, int(bounds[qi + 1] - bounds[qi]),
                         hi - lo))

    elapsed = clock() - t0
    share = elapsed / n_q if n_q else 0.0
    return [
        QueryResult(query=q, ranked=ranked, candidates=n_cand,
                    after_filter=n_kept, elapsed_s=share)
        for q, ranked, n_cand, n_kept in rows
    ]


class RetrievalEngine:
    """Executes queries against an :class:`FoVIndex`.

    Parameters
    ----------
    index : FoVIndex
        Backing spatio-temporal index.
    camera : CameraModel
        Camera constants used by the orientation filter (the sector
        half-angle; the sector radius defaults to the camera's ``R``).
    strict_cover : bool
        If True (default) a candidate survives only when its sector
        covers the query *centre*.  If False, intersecting the query
        *disc* suffices -- a more forgiving variant measured by the
        accuracy ablation.
    ranker : optional
        Scoring strategy (see :mod:`repro.core.ranking`); default is the
        paper's nearest-camera-first :class:`DistanceRanker`.
    engine : {"dynamic", "packed"}
        ``"dynamic"`` (default) searches the mutable R-tree per query;
        ``"packed"`` serves reads from the columnar snapshot
        (``FoVIndex.packed_view``), which also unlocks the batched
        ``execute_many`` funnel.  Results are identical either way.
    clock : callable, optional
        Zero-argument monotonic timer used for ``elapsed_s``; defaults
        to :func:`repro.net.clock.default_timer`.  Injectable so the
        deterministic core never reads a clock itself.
    obs : Observability, optional
        Instrument bundle.  When given, every pipeline stage emits a
        span through ``obs.tracer`` (tree descent, projection,
        orientation filter, rank) and packed descents feed the
        ``packed.*`` counter families via a
        :class:`~repro.obs.runtime.PackedSearchRecorder`.  When omitted
        the engine runs bare: the no-op tracer, no recorder, zero
        bookkeeping on the hot path.
    """

    def __init__(self, index: FoVIndex, camera: CameraModel,
                 strict_cover: bool = True, ranker: Any = None,
                 engine: str = "dynamic",
                 clock: Callable[[], float] | None = None,
                 obs: Observability | None = None):
        from repro.core.ranking import DistanceRanker
        if engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {_ENGINES}")
        self.index = index
        self.camera = camera
        self.strict_cover = strict_cover
        self.ranker = ranker if ranker is not None else DistanceRanker()
        self.engine = engine
        self._clock = clock if clock is not None else default_timer
        self._tracer: TracerLike = obs.tracer if obs is not None else NULL_TRACER
        self._recorder: PackedSearchRecorder | None = (
            PackedSearchRecorder(obs.registry) if obs is not None else None)

    def execute(self, query: Query) -> QueryResult:
        """Run the full filter/rank pipeline; returns a timed result."""
        if (self.engine == "packed" and self._tracer is NULL_TRACER
                and self._recorder is None):
            # Bare latency path: no span contexts, no recorder -- the
            # arithmetic is identical to the traced path below (same
            # kernels, same clock reads), only the bookkeeping differs.
            t0 = self._clock()
            view = self.index.packed_view()
            box = query_box_floats(query)
            rows = view.grid.search_rows(box[:3], box[3:], _SCAN_MAX_ROWS)
            if rows is not None:
                ranked, survivors = _query_packed_fused(
                    view, rows, query, self.camera,
                    self.strict_cover, self.ranker)
                elapsed = self._clock() - t0
                return QueryResult(query=query, ranked=ranked,
                                   candidates=len(rows),
                                   after_filter=survivors,
                                   elapsed_s=elapsed)
            ids = view.range_search_ids(query)
            if ids.size <= _SCALAR_MAX_CANDIDATES:
                ranked, survivors = _rank_packed_scalar(
                    view, ids, query, self.camera, self.strict_cover,
                    self.ranker)
            else:
                ranked, survivors = self._rank_packed(view, ids, query,
                                                      traced=False)
            elapsed = self._clock() - t0
            return QueryResult(query=query, ranked=ranked,
                               candidates=int(ids.size),
                               after_filter=survivors, elapsed_s=elapsed)
        with self._tracer.span("query.execute", engine=self.engine):
            t0 = self._clock()
            if self.engine == "packed":
                view = self.index.packed_view()
                with self._tracer.span("query.tree_descent"):
                    ids = view.range_search_ids(query,
                                                observer=self._recorder)
                ranked, survivors = self._rank_packed(view, ids, query)
                elapsed = self._clock() - t0
                return QueryResult(query=query, ranked=ranked,
                                   candidates=int(ids.size),
                                   after_filter=survivors,
                                   elapsed_s=elapsed)
            with self._tracer.span("query.tree_descent"):
                candidates = self.index.range_search(query)
            ranked = self._filter_and_rank(candidates, query)
            elapsed = self._clock() - t0
            return QueryResult(
                query=query,
                ranked=ranked[: query.top_n],
                candidates=len(candidates),
                after_filter=len(ranked),
                elapsed_s=elapsed,
            )

    def execute_many(self, queries: Sequence[Query]) -> list[QueryResult]:
        """Answer a batch of queries.

        Semantically identical to ``[execute(q) for q in queries]`` --
        same rankings, same funnel counters -- but the ``"packed"``
        engine answers the whole batch in shared array passes
        (:func:`_batch_execute`) and reports ``elapsed_s`` as the batch
        wall time split evenly across its queries.
        """
        batch = list(queries)
        if self.engine == "packed":
            with self._tracer.span("query.execute_many", batch=len(batch)):
                return _batch_execute(self.index.packed_view(), self.camera,
                                      self.strict_cover, self.ranker, batch,
                                      self._clock, tracer=self._tracer,
                                      observer=self._recorder)
        return [self.execute(q) for q in batch]

    def _rank_packed(self, view: PackedFoVIndex, ids: np.ndarray,
                     query: Query, traced: bool = True
                     ) -> tuple[list[RankedFoV], int]:
        """Filter/rank candidates given as packed-snapshot payload ids.

        Returns ``(top_n ranked rows, survivor count)``.  With
        ``traced=False`` the same kernels run without span contexts
        (the bare single-query latency path).
        """
        if ids.size == 0:
            return [], 0
        if not traced:
            proj = LocalProjection(query.center)
            xy = proj.to_local_arrays(view.lat[ids], view.lng[ids])
            dist, dtheta, covers_center, keep = _sector_evidence(
                self.camera, self.strict_cover, xy, view.theta[ids],
                query.radius)
            return _rank_survivors(view, ids, query, self.camera,
                                   self.ranker, dist, dtheta,
                                   covers_center, keep)
        with self._tracer.span("query.projection", candidates=int(ids.size)):
            proj = LocalProjection(query.center)
            xy = proj.to_local_arrays(view.lat[ids], view.lng[ids])
        with self._tracer.span("query.orientation_filter"):
            dist, dtheta, covers_center, keep = _sector_evidence(
                self.camera, self.strict_cover, xy, view.theta[ids],
                query.radius)
        with self._tracer.span("query.rank"):
            return _rank_survivors(view, ids, query, self.camera,
                                   self.ranker, dist, dtheta,
                                   covers_center, keep)

    def _filter_and_rank(self, candidates: list[RepresentativeFoV],
                         query: Query) -> list[RankedFoV]:
        if not candidates:
            return []
        with self._tracer.span("query.projection",
                               candidates=len(candidates)):
            proj = LocalProjection(query.center)
            lats = np.array([f.lat for f in candidates])
            lngs = np.array([f.lng for f in candidates])
            thetas = np.array([f.theta for f in candidates])
            xy = proj.to_local_arrays(lats, lngs)   # camera positions, query at origin
        with self._tracer.span("query.orientation_filter"):
            dist, dtheta, covers_center, keep = _sector_evidence(
                self.camera, self.strict_cover, xy, thetas, query.radius)
        with self._tracer.span("query.rank"):
            t_start = np.array([f.t_start for f in candidates])
            t_end = np.array([f.t_end for f in candidates])
            return _ranked_rows(
                query, self.camera, self.ranker,
                lambda i: candidates[i],
                dist, dtheta, covers_center, keep, t_start, t_end)
