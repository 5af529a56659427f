"""In-memory span recording around the program's public entry points.

The traced run wraps layer entry points from the outside (class
attributes, and module bindings where a caller imported a name) and
restores them afterwards; nothing under ``src/`` changes, and the
program's own ``Observability.tracing()`` stays off, because turning
it on moves ``RetrievalEngine.execute`` onto a different code path.

A span is one row: id, parent id, name, start, end, request id.  Rows
live in typed arrays while the run lasts and are written out once, at
exit.  A layer's *self time* is its span's duration minus the time its
child spans cover; summed over a request's span tree, the self times
add up to the request's root duration exactly, and the root's own self
time is the part no layer accounts for.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from typing import Any, Callable

import numpy as np


class SpanRecorder:
    """Append-only span store for one single-threaded client."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.request = array("q")
        self.request_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._next = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self) -> tuple[int, int]:
        """Start a span; returns ``(span id, parent id)``."""
        sid = self._next
        self._next = sid + 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def close(self, name_id: int, sid: int, parent: int, start: float,
              end: float, keep: bool = True) -> None:
        """Finish the innermost span; ``keep=False`` forgets it, so its
        time stays in the parent's self time."""
        self._stack.pop()
        if keep:
            self.span_id.append(sid)
            self.parent.append(parent)
            self.name.append(name_id)
            self.start.append(start)
            self.end.append(end)
            self.request.append(self.request_id)

    def arrays(self) -> dict[str, np.ndarray]:
        """Zero-copy views of the span columns; call once recording is
        over (the views pin the buffers, so appends would fail)."""
        cols = {"span_id": self.span_id, "parent": self.parent,
                "name": self.name, "request": self.request}
        out = {k: np.frombuffer(v, dtype=np.int64) for k, v in cols.items()}
        out["start"] = np.frombuffer(self.start, dtype=np.float64)
        out["end"] = np.frombuffer(self.end, dtype=np.float64)
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            **self.arrays())


def parent_positions(span_id: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Row of each span's parent, or -1 for a root or a dropped parent."""
    if span_id.size == 0:
        return np.empty(0, dtype=np.int64)
    pos = np.full(int(max(span_id.max(), parent.max())) + 1, -1,
                  dtype=np.int64)
    pos[span_id] = np.arange(span_id.size)
    return np.where(parent >= 0, pos[np.maximum(parent, 0)], -1)


def self_times(span_id: np.ndarray, parent: np.ndarray,
               start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its children.

    Spans of one thread nest without overlapping, so the children's
    durations are exactly the part of the parent they cover.  A parent
    id that names no recorded span (a root) contributes nothing.
    """
    dur = end - start
    ppos = parent_positions(span_id, parent)
    child = np.zeros(span_id.size)
    has = ppos >= 0
    np.add.at(child, ppos[has], dur[has])
    return dur - child


Hook = Callable[[tuple, Any], None]
Keep = Callable[[tuple, Any], bool]


class Instrumentation:
    """Wraps entry points so each call records a span; :meth:`remove`
    puts the originals back."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str,
             hook: Hook | None = None, keep: Keep | None = None) -> None:
        orig = getattr(owner, attr)
        rec = self.recorder
        nid = rec.name_id(name)
        clock = rec.clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            sid, parent = rec.open()
            t0 = clock()
            out: Any = None
            try:
                out = orig(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                rec.close(nid, sid, parent, t0, t1,
                          keep(args, out) if keep is not None else True)
                if hook is not None:
                    hook(args, out)

        self._undo.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.remove()


def instrument_program(recorder: SpanRecorder) -> Instrumentation:
    """Wrap every layer entry point the per-layer metrics read."""
    import repro.shard.server as shard_server
    import repro.video.retrieval as video_retrieval
    from repro.core.index import FoVIndex
    from repro.core.retrieval import RetrievalEngine
    from repro.core.wal import WriteAheadLog
    from repro.shard.partition import GridPartitioner
    from repro.spatial.grid import PackedPointGrid

    counters = recorder.counters

    def engine_one(_args: tuple, out: Any) -> None:
        if out is not None:
            counters["engine.candidates"] += out.candidates
            counters["engine.after_filter"] += out.after_filter

    def engine_many(_args: tuple, out: Any) -> None:
        for result in out or ():
            engine_one(_args, result)

    def grid_hits(_args: tuple, out: Any) -> None:
        if out is None:
            return
        hits = out[1] if isinstance(out, tuple) else out
        counters["grid.candidates"] += len(hits)

    def evicted(_args: tuple, out: Any) -> None:
        counters["index.evicted"] += out or 0

    def wal_bytes(args: tuple, _out: Any) -> None:
        counters["wal.payload_bytes"] += len(args[1])

    last_view: dict[int, object] = {}

    def rebuilt(args: tuple, view: Any) -> bool:
        # A packed_view() call that returns the view it returned last
        # time did no work; only rebuilds are spans.
        prev = last_view.get(id(args[0]))
        last_view[id(args[0])] = view
        return view is not None and view is not prev

    inst = Instrumentation(recorder)
    inst.wrap(shard_server.ShardedCloudServer, "query_many",
              "router.query_many")
    inst.wrap(shard_server.ShardedCloudServer, "query_video", "video.query")
    inst.wrap(shard_server.ShardedCloudServer, "ingest_batch",
              "ingest.ingest_batch")
    inst.wrap(shard_server.ShardedCloudServer, "replay_wal",
              "setup.replay_wal")
    inst.wrap(shard_server, "decode_bundle_columns", "protocol.decode")
    inst.wrap(GridPartitioner, "shards_for_query", "partition.route")
    inst.wrap(GridPartitioner, "split", "partition.split")
    inst.wrap(RetrievalEngine, "execute", "engine.execute", engine_one)
    inst.wrap(RetrievalEngine, "execute_many", "engine.execute", engine_many)
    for method in ("search_ids", "search_rows", "search_many"):
        inst.wrap(PackedPointGrid, method, "grid.search", grid_hits)
    inst.wrap(FoVIndex, "packed_view", "index.pack", keep=rebuilt)
    inst.wrap(FoVIndex, "insert_many", "index.insert_many")
    inst.wrap(FoVIndex, "evict_older_than", "index.evict", evicted)
    inst.wrap(WriteAheadLog, "append", "wal.append", wal_bytes)
    inst.wrap(WriteAheadLog, "commit", "wal.commit")
    for fn in ("cross_similarity", "lcv_run_length", "alignment_score"):
        inst.wrap(video_retrieval, fn, "video.score")
    return inst
