"""Set-up, timed phase, verification and metrics for one benchmark run.

One run is one workload in one process:

1. inputs are generated from the seed (``workloads``) and the corpus is
   written to a write-ahead log inside the checkout;
2. set-up is the production restart path -- ``replay_wal`` into a
   fresh 4-shard packed fleet plus the first ``packed_view()`` per
   shard -- timed ``SETUP_REPS`` times, each in a new interpreter that
   holds nothing but that fleet, the median reported;
3. the timed phase sets up one more fleet in this process and drives
   it from one closed-loop client over a fixed, pre-generated
   operation list;
4. peak RSS is read, then every ingest outcome, every sweep, a
   seed-derived sample of answers and the final content digest are
   checked against the paper's dynamic R-tree server replaying the
   same stream.

With tracing, the untraced phase runs first on one fleet, then a second
fleet is set up and driven with every layer entry point wrapped
(``spans``), and the per-layer metrics come from that second phase.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import workloads as wl
import repro
from repro.core.camera import CameraModel
from repro.core.index import FoVIndex
from repro.core.server import CloudServer
from repro.core.wal import WriteAheadLog
from repro.eval.statistics import percentile
from repro.shard import ShardedCloudServer
from repro.traces.scenarios import CITY_ORIGIN
from spans import (SpanRecorder, instrument_program, parent_positions,
                   self_times)

CAMERA = CameraModel(half_angle=30.0, radius=100.0)
SETUP_REPS = 5

#: Nominal operations per second of ``--seconds``: a run's operation
#: count is fixed by its ``--seconds`` argument, never by the clock.
#: ``ingest_churn`` counts cycles.
OPS_PER_SECOND = {"point_read": 15000, "video_search": 100,
                  "ingest_churn": 14}

#: The request kind each workload's ``p50_ms``/``p90_ms`` time, and the
#: read whose median is ``read_p50_ms``.  In ``ingest_churn`` that read
#: is a query that is not the first after a commit group: the first
#: one pays the packed-view rebuilds, which are memory-bound and swing
#: with the host's memory bandwidth (it is printed, and it dominates
#: ``requests_per_s``).
PRIMARY = {"point_read": "point", "video_search": "video",
           "ingest_churn": "ingest"}
READ = {"point_read": "point", "video_search": "video",
        "ingest_churn": "point"}

#: name -> (unit, better); the order BENCHMARK.json lists them in.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "requests_per_s": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "p90_ms": ("ms", "lower"),
    "read_p50_ms": ("ms", "lower"),
}
PER_LAYER = {
    "router.engine_calls_per_req": ("count", "lower"),
    "router.self_ms_per_req": ("ms", "lower"),
    "router.fanout_mean": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.stale_drops": ("count", "lower"),
    "partition.route_ms_per_req": ("ms", "lower"),
    "partition.split_ms_per_group": ("ms", "lower"),
    "engine.self_ms_per_call": ("ms", "lower"),
    "engine.useful_ratio": ("ratio", "higher"),
    "grid.search_ms_per_call": ("ms", "lower"),
    "grid.candidates_per_call": ("count", "lower"),
    "index.pack_count": ("count", "lower"),
    "index.pack_ms_per_build": ("ms", "lower"),
    "index.insert_ms_per_group": ("ms", "lower"),
    "index.evict_ms_per_sweep": ("ms", "lower"),
    "index.evicted_per_sweep": ("count", "higher"),
    "protocol.decode_ms_per_bundle": ("ms", "lower"),
    "wal.commit_ms_per_group": ("ms", "lower"),
    "wal.bytes_per_payload_byte": ("ratio", "lower"),
    "ingest.self_ms_per_group": ("ms", "lower"),
    "video.harvest_ms_per_req": ("ms", "lower"),
    "video.score_ms_per_req": ("ms", "lower"),
    "setup.replay_ms": ("ms", "lower"),
    "setup.pack_ms": ("ms", "lower"),
    "setup.decode_ms_per_bundle": ("ms", "lower"),
    "trace.unattributed_ms_per_req": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}

Request = tuple[str, Any, Any]          # (kind, argument, expected)


def op_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds * OPS_PER_SECOND[workload]))


def flatten(workload: str, ops: list[Any]) -> list[Request]:
    """The workload's operations as one closed-loop request list."""
    if workload == "point_read":
        return [("point", q, None) for q in ops]
    if workload == "video_search":
        return [("video", vq, None) for vq in ops]
    out: list[Request] = []
    for cycle in ops:
        out.append(("ingest", list(cycle.payloads), cycle.expected))
        for j, q in enumerate(cycle.queries):
            out.append(("fresh" if j == 0 else "point", q, None))
        if cycle.sweep_cutoff is not None:
            out.append(("sweep", cycle.sweep_cutoff, None))
    return out


def content_digest(server: CloudServer | ShardedCloudServer) -> str:
    """The program's own order-independent content digest
    (``FoVIndex.content_digest``) over everything ``server`` holds."""
    return FoVIndex.content_digest(server)  # type: ignore[arg-type]


def new_fleet(workload: str, wal_path: str) -> ShardedCloudServer:
    """A fresh, empty fleet as it ships (default observability,
    1024-entry router cache); ``ingest_churn`` adds a router WAL."""
    wal = WriteAheadLog(wal_path) if workload == "ingest_churn" else None
    return ShardedCloudServer(CAMERA, wl.N_SHARDS, CITY_ORIGIN,
                              engine="packed", wal=wal)


def timed_setup(fleet: ShardedCloudServer, corpus_log: str) -> float:
    """Time the restart path on ``fleet``; returns seconds."""
    gc.collect()
    t0 = time.perf_counter()
    fleet.replay_wal(corpus_log)
    for shard in fleet.shards:
        shard.index.packed_view()
    return time.perf_counter() - t0


class Bench:
    """A workload's inputs and the files its fleets are built from."""

    def __init__(self, workload: str, seed: int, sizes: wl.Sizes,
                 n_ops: int, workdir: str):
        self.workload = workload
        self.sizes = sizes
        self.workdir = workdir
        self.corpus = wl.corpus(seed, sizes)
        ops = wl.operations(workload, seed, sizes, n_ops)
        self.digest = wl.stream_digest(self.corpus, ops)
        self.requests = flatten(workload, ops)
        sample = wl.verify_sample(seed, len(self.requests),
                                  sizes.verify_samples)
        self.keep = [i in sample or kind in ("ingest", "sweep")
                     for i, (kind, _, _) in enumerate(self.requests)]
        os.makedirs(workdir, exist_ok=True)
        self.corpus_log = os.path.join(workdir, "corpus.wal")
        with WriteAheadLog(self.corpus_log) as log:
            for payload in self.corpus:
                log.append(payload)
            log.commit()
        self._fleets = 0

    def _router_wal(self) -> str:
        """A new router WAL path for each fleet of the run."""
        self._fleets += 1
        return os.path.join(self.workdir, f"router-{self._fleets}.wal")

    def fleet(self) -> ShardedCloudServer:
        return new_fleet(self.workload, self._router_wal())

    def setup(self, fleet: ShardedCloudServer) -> float:
        return timed_setup(fleet, self.corpus_log)

    def setup_in_fresh_process(self) -> float:
        """Time the restart path once in a new interpreter, so set-up
        time does not depend on what this process did before."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), self.workload,
             self.corpus_log, self._router_wal()],
            env=env, check=True, capture_output=True, text=True,
            timeout=120)
        return float(out.stdout.split()[-1])

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def retire(fleet: ShardedCloudServer) -> None:
    """Release a fleet's engines and its WAL handle."""
    fleet.close()
    if fleet.wal is not None:
        fleet.wal.close()


@dataclass
class Phase:
    """What one timed phase did and returned."""

    wall: float
    latency: list[float]
    outputs: dict[int, Any]
    errors: dict[int, str]
    digest: str = ""
    registry: dict[str, float] = field(default_factory=dict)
    wal_growth: int = 0


def _registry_state(fleet: ShardedCloudServer) -> dict[str, float]:
    reg = fleet.obs.registry
    fan = reg.get("shard.fanout_width")
    state = {"fanout_sum": fan.sum, "fanout_count": fan.count}
    for name in ("cache.hits", "cache.misses", "cache.stale_drops"):
        family = reg.get(name)
        state[name] = family.value if family is not None else 0.0
    return state


def _wal_size(fleet: ShardedCloudServer) -> int:
    return os.path.getsize(fleet.wal.path) if fleet.wal is not None else 0


def run_phase(bench: Bench, fleet: ShardedCloudServer,
              recorder: SpanRecorder | None = None) -> Phase:
    """Drive ``fleet`` through the request list from one client."""
    calls: dict[str, Callable[[Any], Any]] = {
        "point": fleet.query, "fresh": fleet.query,
        "video": fleet.query_video, "ingest": fleet.ingest_batch,
        "sweep": fleet.evict_older_than,
    }
    roots = ({kind: recorder.name_id(f"request.{kind}") for kind in calls}
             if recorder is not None else {})
    requests, keep = bench.requests, bench.keep
    latency = [0.0] * len(requests)
    outputs: dict[int, Any] = {}
    errors: dict[int, str] = {}
    before = _registry_state(fleet)
    wal_before = _wal_size(fleet)
    clock = time.perf_counter
    gc.collect()
    t_run = clock()
    for i, (kind, arg, _expected) in enumerate(requests):
        fn = calls[kind]
        if recorder is not None:
            recorder.request_id = i
            sid, parent = recorder.open()
        out = None
        t0 = clock()
        try:
            out = fn(arg)
        except Exception as exc:  # a failed operation, counted below
            errors[i] = repr(exc)
        t1 = clock()
        latency[i] = t1 - t0
        if recorder is not None:
            recorder.close(roots[kind], sid, parent, t0, t1)
        if keep[i]:
            outputs[i] = out
    wall = clock() - t_run
    if recorder is not None:
        recorder.request_id = -1
    after = _registry_state(fleet)
    return Phase(wall=wall, latency=latency, outputs=outputs, errors=errors,
                 registry={k: after[k] - before[k] for k in after},
                 wal_growth=_wal_size(fleet) - wal_before)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _comparable(kind: str, out: Any) -> Any:
    """The part of an output the reference must reproduce exactly."""
    if kind == "ingest":
        return [o.status for o in out]
    if kind == "sweep":
        return out
    if kind == "video":
        return [(m.video_id, m.score) for m in out.ranked]
    return out.keys()


def verify(bench: Bench, phases: list[Phase]) -> list[set[int]]:
    """Replay the stream on the dynamic R-tree reference; returns each
    phase's failed request indices (``-1`` marks a digest mismatch).

    Every ingest and sweep is replayed (they change state); reads are
    checked on the seed-derived sample only.
    """
    ref = CloudServer(CAMERA, engine="dynamic", cache_size=0)
    ref.replay_wal(bench.corpus_log)
    calls = {"point": ref.query, "fresh": ref.query,
             "video": ref.query_video, "ingest": ref.ingest_batch,
             "sweep": ref.evict_older_than}
    failed: list[set[int]] = [set(p.errors) for p in phases]
    for i, (kind, arg, expected) in enumerate(bench.requests):
        if not bench.keep[i]:
            continue
        want = _comparable(kind, calls[kind](arg))
        for phase, bad in zip(phases, failed):
            out = phase.outputs.get(i)
            if (out is None or _comparable(kind, out) != want
                    or (expected is not None and want != list(expected))):
                bad.add(i)
    want_digest = content_digest(ref)
    for phase, bad in zip(phases, failed):
        if phase.digest != want_digest:
            bad.add(-1)
    ref.close()
    return failed


def latency_table(bench: Bench, phase: Phase) -> dict[str, list[float]]:
    """Latencies in ms grouped by request kind."""
    out: dict[str, list[float]] = {}
    for (kind, _, _), dt in zip(bench.requests, phase.latency):
        out.setdefault(kind, []).append(dt * 1e3)
    return out


def end_to_end(bench: Bench, phase: Phase, setup: list[float],
               rss_mb: float) -> dict[str, float]:
    lat = latency_table(bench, phase)
    primary = lat[PRIMARY[bench.workload]]
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "requests_per_s": len(bench.requests) / phase.wall,
        "p50_ms": percentile(primary, 50),
        "p90_ms": percentile(primary, 90),
        "read_p50_ms": percentile(lat[READ[bench.workload]], 50),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(bench: Bench, phase: Phase, rec: SpanRecorder,
              untraced_rps: float) -> dict[str, float]:
    """Per-layer metrics from the traced phase's spans and counters."""
    a = rec.arrays()
    st = self_times(a["span_id"], a["parent"], a["start"], a["end"])
    dur = a["end"] - a["start"]
    timed = a["request"] >= 0
    setup = ~timed
    ids = {name: i for i, name in enumerate(rec.names)}

    def spans(name: str, mask: np.ndarray) -> np.ndarray:
        return mask & (a["name"] == ids.get(name, -1))

    def self_ms(name: str, mask: np.ndarray = timed) -> float:
        return float(st[spans(name, mask)].sum()) * 1e3

    def total_ms(name: str, mask: np.ndarray = timed) -> float:
        return float(dur[spans(name, mask)].sum()) * 1e3

    def count(name: str, mask: np.ndarray = timed) -> int:
        return int(spans(name, mask).sum())

    kinds = [kind for kind, _, _ in bench.requests]
    reads = sum(k in ("point", "fresh", "video") for k in kinds)
    videos = kinds.count("video")
    groups = kinds.count("ingest")
    sweeps = kinds.count("sweep")
    bundles = sum(len(arg) for kind, arg, _ in bench.requests
                  if kind == "ingest")
    c = rec.counters
    reg = phase.registry

    ppos = parent_positions(a["span_id"], a["parent"])
    parent_name = np.where(ppos >= 0, a["name"][np.maximum(ppos, 0)], -1)
    harvest = spans("router.query_many", timed) & (
        parent_name == ids.get("video.query", -2))
    roots = timed & (a["parent"] < 0)
    engine_calls = count("engine.execute")
    grid_calls = count("grid.search")
    packs = count("index.pack")
    setup_bundles = len(bench.corpus)
    return {
        "router.engine_calls_per_req": _ratio(engine_calls, reads),
        "router.self_ms_per_req": _ratio(self_ms("router.query_many"),
                                         reads),
        "router.fanout_mean": _ratio(reg["fanout_sum"], reg["fanout_count"]),
        "cache.hit_ratio": _ratio(reg["cache.hits"],
                                  reg["cache.hits"] + reg["cache.misses"]),
        "cache.stale_drops": reg["cache.stale_drops"],
        "partition.route_ms_per_req": _ratio(self_ms("partition.route"),
                                             reads),
        "partition.split_ms_per_group": _ratio(self_ms("partition.split"),
                                               groups),
        "engine.self_ms_per_call": _ratio(self_ms("engine.execute"),
                                          engine_calls),
        "engine.useful_ratio": _ratio(c["engine.after_filter"],
                                      c["engine.candidates"]),
        "grid.search_ms_per_call": _ratio(self_ms("grid.search"), grid_calls),
        "grid.candidates_per_call": _ratio(c["grid.candidates"], grid_calls),
        "index.pack_count": packs,
        "index.pack_ms_per_build": _ratio(self_ms("index.pack"), packs),
        "index.insert_ms_per_group": _ratio(self_ms("index.insert_many"),
                                            groups),
        "index.evict_ms_per_sweep": _ratio(self_ms("index.evict"), sweeps),
        "index.evicted_per_sweep": _ratio(c["index.evicted"], sweeps),
        "protocol.decode_ms_per_bundle": _ratio(self_ms("protocol.decode"),
                                                bundles),
        "wal.commit_ms_per_group": _ratio(self_ms("wal.commit"), groups),
        "wal.bytes_per_payload_byte": _ratio(phase.wal_growth,
                                             c["wal.payload_bytes"]),
        "ingest.self_ms_per_group": _ratio(self_ms("ingest.ingest_batch"),
                                           groups),
        "video.harvest_ms_per_req": _ratio(
            float(dur[harvest].sum()) * 1e3, videos),
        "video.score_ms_per_req": _ratio(total_ms("video.score"), videos),
        "setup.replay_ms": total_ms("setup.replay_wal", setup),
        "setup.pack_ms": self_ms("index.pack", setup),
        "setup.decode_ms_per_bundle": _ratio(
            self_ms("protocol.decode", setup), setup_bundles),
        "trace.unattributed_ms_per_req": _ratio(
            float(st[roots].sum()) * 1e3, len(kinds)),
        "trace.overhead_ratio": _ratio(len(kinds) / phase.wall, untraced_rps),
    }


@dataclass
class RunResult:
    """Everything one run measured and checked."""

    bench: Bench
    setup: list[float]              # fresh-process set-ups (``setup_s``)
    inprocess_setup: float          # the serving fleet's own set-up
    phases: list[Phase]
    inputs_rss_mb: float            # peak RSS once the inputs exist
    rss_mb: float
    failed: list[set[int]]
    layers: dict[str, float]
    recorder: SpanRecorder | None

    @property
    def attempted(self) -> int:
        return len(self.bench.requests) * len(self.phases)

    @property
    def n_failed(self) -> int:
        return sum(len(bad) for bad in self.failed)


def run_workload(workload: str, seed: int, sizes: wl.Sizes, n_ops: int,
                 trace: bool, workdir: str) -> RunResult:
    """Set up, drive, optionally trace, and verify one workload."""
    bench = Bench(workload, seed, sizes, n_ops, workdir)
    try:
        inputs_rss = peak_rss_mb()
        setup = [bench.setup_in_fresh_process() for _ in range(SETUP_REPS)]
        fleet = bench.fleet()
        inprocess_setup = bench.setup(fleet)
        phases = [run_phase(bench, fleet)]
        rss = peak_rss_mb()
        phases[0].digest = content_digest(fleet)
        retire(fleet)
        del fleet
        layers: dict[str, float] = {}
        rec = None
        if trace:
            rec = SpanRecorder()
            with instrument_program(rec):
                traced = bench.fleet()
                bench.setup(traced)
                rec.counters.clear()
                phases.append(run_phase(bench, traced, rec))
            phases[1].digest = content_digest(traced)
            retire(traced)
            del traced
            layers = per_layer(bench, phases[1], rec,
                               len(bench.requests) / phases[0].wall)
        failed = verify(bench, phases)
    finally:
        bench.close()
    return RunResult(bench=bench, setup=setup,
                     inprocess_setup=inprocess_setup, phases=phases,
                     inputs_rss_mb=inputs_rss, rss_mb=rss, failed=failed,
                     layers=layers, recorder=rec)


def _setup_once(argv: list[str]) -> None:
    """Child-process entry point: ``harness.py <workload> <corpus_log>
    <router_wal>`` (``src/`` on ``PYTHONPATH``) prints one set-up time
    in seconds."""
    workload, corpus_log, wal_path = argv
    fleet = new_fleet(workload, wal_path)
    print(repr(timed_setup(fleet, corpus_log)))
    retire(fleet)


if __name__ == "__main__":
    _setup_once(sys.argv[1:])
