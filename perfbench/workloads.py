"""Seeded inputs for the three benchmark workloads.

Everything a run sends to the program is generated here, from the seed,
before any clock starts: the corpus bundles, the point queries, the
query videos and the ingest/churn cycles.  Each component draws from
its own ``np.random.default_rng([seed, stream])`` stream, so changing
one workload's shape never perturbs another's inputs, and
:func:`stream_digest` pins the whole operation stream bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from repro.core.fov import RepresentativeFoV
from repro.core.query import Query
from repro.core.server import IngestStatus
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection
from repro.net.protocol import encode_bundle
from repro.sim.cityload import zipf_weights
from repro.traces.dataset import random_video_trajectories
from repro.traces.scenarios import CITY_ORIGIN
from repro.video import VideoQuery

WORKLOADS = ("point_read", "video_search", "ingest_churn")

# Independent RNG streams per input component.
_CORPUS, _HOTSPOTS, _POINTS, _VIDEOS, _CHURN, _SAMPLE = range(6)

SEGMENT_S = 10.0          # random_video_trajectories' segment length
HOURS_2 = 7200.0          # point-query window (paper §V-B scale)
DAY_S = 86400.0           # retention window of the churn workload

# The fixed workload shape.  ``Sizes`` holds only what the tests shrink.
SEGMENTS_PER_VIDEO = 8
HORIZON_S = DAY_S
N_SHARDS = 4
N_HOTSPOTS = 64
ZIPF_EXPONENT = 1.1
JITTER_M = 80.0
REPEAT_EVERY = 4          # one point request in four repeats ...
REPEAT_WINDOW = 256       # ... one of the last 256
VIDEO_SEGMENTS = 32
BUNDLES_PER_GROUP = 32
QUERIES_PER_CYCLE = 8
SWEEP_EVERY = 8
P_REDELIVER = 1 / 20
P_CORRUPT = 1 / 100

SHAPE = {
    "segments_per_video": SEGMENTS_PER_VIDEO, "horizon_s": HORIZON_S,
    "n_shards": N_SHARDS, "n_hotspots": N_HOTSPOTS,
    "zipf_exponent": ZIPF_EXPONENT, "jitter_m": JITTER_M,
    "repeat_every": REPEAT_EVERY, "repeat_window": REPEAT_WINDOW,
    "video_segments": VIDEO_SEGMENTS, "bundles_per_group": BUNDLES_PER_GROUP,
    "queries_per_cycle": QUERIES_PER_CYCLE, "sweep_every": SWEEP_EVERY,
    "p_redeliver": P_REDELIVER, "p_corrupt": P_CORRUPT,
}


@dataclass(frozen=True)
class Sizes:
    """Corpus scale.  The defaults are the recorded benchmark; tests
    shrink them."""

    n_videos: int = 6250
    extent_m: float = 5000.0
    video_margin_m: float = 500.0
    verify_samples: int = 256

    @property
    def n_records(self) -> int:
        return self.n_videos * SEGMENTS_PER_VIDEO

    @property
    def cycle_s(self) -> float:
        """Clock advance per churn cycle: one commit group's worth of
        records per ``horizon / n_records`` seconds, so ingest balances
        the retention sweep and the live set stays near ``n_records``."""
        per_cycle = BUNDLES_PER_GROUP * SEGMENTS_PER_VIDEO
        return round(HORIZON_S * per_cycle / self.n_records)

    def as_dict(self) -> dict[str, float]:
        """The whole workload shape, for the run record."""
        return {**{k: getattr(self, k) for k in self.__dataclass_fields__},
                **SHAPE}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def bundles_by_video(records: list[RepresentativeFoV]) -> list[bytes]:
    """One FOV2 bundle per video, in first-seen video order."""
    by_vid: dict[str, list[RepresentativeFoV]] = {}
    for rec in records:
        by_vid.setdefault(rec.video_id, []).append(rec)
    return [encode_bundle(vid, fovs) for vid, fovs in by_vid.items()]


def corpus(seed: int, sizes: Sizes) -> list[bytes]:
    """The fleet's starting content as encoded bundles (the WAL input)."""
    records = random_video_trajectories(
        sizes.n_videos, SEGMENTS_PER_VIDEO, _rng(seed, _CORPUS),
        extent_m=sizes.extent_m, horizon_s=HORIZON_S)
    return bundles_by_video(records)


class _PointSampler:
    """Zipf-over-hotspots query centres with Gaussian jitter."""

    def __init__(self, seed: int, sizes: Sizes, rng: np.random.Generator):
        hot = _rng(seed, _HOTSPOTS)
        margin = 2 * JITTER_M
        self._hotspots = hot.uniform(margin, sizes.extent_m - margin,
                                     size=(N_HOTSPOTS, 2))
        self._weights = zipf_weights(N_HOTSPOTS, ZIPF_EXPONENT)
        self._proj = LocalProjection(CITY_ORIGIN)
        self._sizes = sizes
        self._rng = rng

    def queries(self, n: int, windows: np.ndarray) -> list[Query]:
        """``n`` fresh queries; ``windows`` is an ``(n, 2)`` array of
        ``[t_start, t_end]``."""
        rng, s = self._rng, self._sizes
        spot = rng.choice(N_HOTSPOTS, size=n, p=self._weights)
        xy = self._hotspots[spot] + rng.normal(0.0, JITTER_M, size=(n, 2))
        radius = rng.choice([20.0, 100.0], size=n)
        lats, lngs = self._proj.to_geo_arrays(xy)
        return [Query(t_start=float(w[0]), t_end=float(w[1]),
                      center=GeoPoint(lat=float(la), lng=float(lo)),
                      radius=float(r), top_n=10)
                for la, lo, r, w in zip(lats, lngs, radius, windows)]


def point_queries(seed: int, sizes: Sizes, n: int) -> list[Query]:
    """``point_read`` traffic: 2 h windows anywhere in the horizon, and
    one request in ``REPEAT_EVERY`` an exact repeat of one of the last
    ``REPEAT_WINDOW`` (an investigator re-running a query)."""
    rng = _rng(seed, _POINTS)
    t0 = rng.uniform(0.0, HORIZON_S - HOURS_2, size=n)
    fresh = _PointSampler(seed, sizes, rng).queries(
        n, np.stack([t0, t0 + HOURS_2], axis=1))
    repeat = rng.random(n) < 1.0 / REPEAT_EVERY
    back = rng.integers(1, REPEAT_WINDOW + 1, size=n)
    out: list[Query] = []
    for i in range(n):
        if repeat[i] and i > 0:
            out.append(out[i - min(int(back[i]), i)])
        else:
            out.append(fresh[i])
    return out


def _interior_walk(rng: np.random.Generator, sizes: Sizes,
                   proj: LocalProjection) -> list[RepresentativeFoV]:
    lo, hi = sizes.video_margin_m, sizes.extent_m - sizes.video_margin_m
    for _ in range(256):
        walk = random_video_trajectories(1, VIDEO_SEGMENTS, rng,
                                         extent_m=sizes.extent_m,
                                         horizon_s=HORIZON_S)
        xy = proj.to_local_arrays([f.lat for f in walk],
                                  [f.lng for f in walk])
        if bool(((xy >= lo) & (xy <= hi)).all()):
            return walk
    raise RuntimeError("no interior query walk in 256 draws")


def video_queries(seed: int, sizes: Sizes, n: int) -> list[VideoQuery]:
    """``video_search`` traffic: distinct interior 32-segment walks over
    the whole horizon, scorer alternating LCV / DTW."""
    rng = _rng(seed, _VIDEOS)
    proj = LocalProjection(CITY_ORIGIN)
    t_end = HORIZON_S + SEGMENT_S * SEGMENTS_PER_VIDEO
    out = []
    for i in range(n):
        walk = _interior_walk(rng, sizes, proj)
        segments = tuple(replace(f, video_id=f"query-{i}") for f in walk)
        out.append(VideoQuery(segments=segments, t_start=0.0, t_end=t_end,
                              radius=100.0, top_k=10,
                              scorer=("lcv", "dtw")[i % 2],
                              per_segment_top_n=32))
    return out


@dataclass(frozen=True)
class Cycle:
    """One ``ingest_churn`` cycle: commit group, trailing reads, sweep."""

    clock: float
    payloads: tuple[bytes, ...]
    expected: tuple[IngestStatus, ...]
    queries: tuple[Query, ...]
    sweep_cutoff: float | None


def churn_cycles(seed: int, sizes: Sizes, n: int) -> list[Cycle]:
    """``ingest_churn`` traffic.

    Each cycle's fresh bundles are stamped in the ``cycle_s`` before the
    clock; about ``P_REDELIVER`` of the slots carry a byte-identical
    redelivery of an earlier churn bundle (expected ``DUPLICATE``) and
    about ``P_CORRUPT`` a fresh bundle with one byte flipped (expected
    ``REJECTED``).  A redelivery is drawn only from bundles whose every
    record is still inside the retention window at the clock, so no
    sweep has touched it and its expected outcome does not depend on
    whether eviction forgets a bundle's digest.
    """
    rng = _rng(seed, _CHURN)
    sampler = _PointSampler(seed, sizes, rng)
    span = SEGMENT_S * SEGMENTS_PER_VIDEO
    clock = HORIZON_S + span               # the corpus horizon's end
    history: list[tuple[float, bytes]] = []    # (earliest stamp, bundle)
    live = 0                               # first history entry in window
    out = []
    for c in range(n):
        clock += sizes.cycle_s
        walks = random_video_trajectories(
            BUNDLES_PER_GROUP, SEGMENTS_PER_VIDEO, rng,
            extent_m=sizes.extent_m, horizon_s=sizes.cycle_s)
        base = clock - sizes.cycle_s - span
        fresh = [replace(f, t_start=f.t_start + base, t_end=f.t_end + base,
                         video_id=f"churn-{c:05d}-{f.video_id}")
                 for f in walks]
        # Every sweep so far cut at or before clock - HORIZON_S.
        while live < len(history) and history[live][0] < clock - HORIZON_S:
            live += 1
        window = len(history) - live
        u = rng.random(BUNDLES_PER_GROUP)
        pick = rng.integers(0, 1 << 30, size=BUNDLES_PER_GROUP)
        payloads, expected, accepted = [], [], []
        for slot, payload in enumerate(bundles_by_video(fresh)):
            redeliver = u[slot] < P_REDELIVER
            if redeliver and window:
                payloads.append(history[live + int(pick[slot]) % window][1])
                expected.append(IngestStatus.DUPLICATE)
            elif not redeliver and u[slot] < P_REDELIVER + P_CORRUPT:
                flipped = bytearray(payload)
                flipped[int(pick[slot]) % len(flipped)] ^= 0xFF
                payloads.append(bytes(flipped))
                expected.append(IngestStatus.REJECTED)
            else:
                payloads.append(payload)
                expected.append(IngestStatus.ACCEPTED)
                accepted.append((base, payload))
        history.extend(accepted)
        windows = np.tile([clock - HOURS_2, clock], (QUERIES_PER_CYCLE, 1))
        queries = sampler.queries(QUERIES_PER_CYCLE, windows)
        sweep = (clock - HORIZON_S if (c + 1) % SWEEP_EVERY == 0 else None)
        out.append(Cycle(clock=clock, payloads=tuple(payloads),
                         expected=tuple(expected), queries=tuple(queries),
                         sweep_cutoff=sweep))
    return out


def operations(workload: str, seed: int, sizes: Sizes, n: int) -> list:
    """The ``n`` operations of ``workload`` for ``seed``."""
    generate = {"point_read": point_queries, "video_search": video_queries,
                "ingest_churn": churn_cycles}
    if workload not in generate:
        raise ValueError(f"unknown workload {workload!r}")
    return generate[workload](seed, sizes, n)


def verify_sample(seed: int, n: int, k: int) -> frozenset[int]:
    """The fixed, seed-derived request indices whose answers are checked
    against the reference engine."""
    rng = _rng(seed, _SAMPLE)
    return frozenset(int(i) for i in rng.choice(n, size=min(k, n),
                                                 replace=False))


def _query_repr(q: Query) -> str:
    return repr((q.t_start, q.t_end, q.center.lat, q.center.lng,
                 q.radius, q.top_n))


def stream_digest(corpus_payloads: list[bytes], ops: list[object]) -> str:
    """SHA-256 over the corpus bundles and the whole operation stream."""
    h = hashlib.sha256()
    for payload in corpus_payloads:
        h.update(payload)
    for op in ops:
        if isinstance(op, Query):
            h.update(_query_repr(op).encode())
        elif isinstance(op, VideoQuery):
            h.update(repr(op).encode())
        elif isinstance(op, Cycle):
            h.update(repr((op.clock, op.sweep_cutoff,
                           [s.value for s in op.expected])).encode())
            for payload in op.payloads:
                h.update(payload)
            for q in op.queries:
                h.update(_query_repr(q).encode())
        else:
            raise TypeError(f"unknown operation {type(op).__name__}")
    return h.hexdigest()
