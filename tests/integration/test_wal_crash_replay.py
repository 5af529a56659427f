"""WAL crash-replay: kill the server between the WAL commit and the
index insert, then replay the log into a fresh server and require the
same content digest an uninterrupted run produces.

Every case runs against a single ``CloudServer`` and a 4-shard
``ShardedCloudServer``; both ingest through the same pipeline, so the
crash window is the moment its sink (``land``) would index the group.
``FUZZ_SEED`` (set by the CI fuzz-smoke matrix) varies the workload and
the crash point, so each CI job kills the server mid-stream at a
different commit group.
"""

import os

import numpy as np
import pytest

from repro import CloudServer
from repro.core.index import FoVIndex
from repro.core.wal import WriteAheadLog, replay
from repro.shard import ShardedCloudServer
from repro.traces.dataset import CityDataset
from repro.traces.scenarios import CITY_ORIGIN

FUZZ_SEED = int(os.environ.get("FUZZ_SEED", "0"))

GROUP = 4


@pytest.fixture(scope="module")
def city():
    return CityDataset(n_providers=16, seed=1000 + FUZZ_SEED)


@pytest.fixture(params=["server", "router"])
def make(request, city):
    """Builds the parametrised server kind over the city's camera."""
    def build(**kwargs):
        if request.param == "server":
            return CloudServer(city.camera, **kwargs)
        return ShardedCloudServer(city.camera, n_shards=4,
                                  origin=CITY_ORIGIN, **kwargs)
    return build


def digest(server):
    return FoVIndex.content_digest(server)


def groups(city):
    payloads = [rec.bundle.payload for rec in city.recordings]
    return [payloads[i:i + GROUP] for i in range(0, len(payloads), GROUP)]


class _CrashBeforeIndex(RuntimeError):
    """Stands in for the process dying after the WAL fsync."""


def crash_point(city):
    rng = np.random.default_rng(FUZZ_SEED)
    return int(rng.integers(1, len(groups(city))))


def uninterrupted_digest(make, city):
    want = make()
    for group in groups(city):
        want.ingest_batch(group)
    return digest(want), want.indexed_count


def crash_before_index(server, group, monkeypatch):
    """Ingest ``group`` with the sink dying after the WAL fsync: the
    entries are durable, the index never sees them."""
    def dying_land(records):
        raise _CrashBeforeIndex()
    with monkeypatch.context() as patch:
        patch.setattr(server._pipeline, "land", dying_land)
        with pytest.raises(_CrashBeforeIndex):
            server.ingest_batch(group)


def test_crash_between_wal_commit_and_index_insert(city, tmp_path, make,
                                                   monkeypatch):
    # The uninterrupted run defines the digest replay must reach.
    want_digest, want_count = uninterrupted_digest(make, city)
    crash_at = crash_point(city)

    path = tmp_path / "ingest.wal"
    wal = WriteAheadLog(path)
    victim = make(wal=wal)
    for group in groups(city)[:crash_at]:
        victim.ingest_batch(group)
    crash_before_index(victim, groups(city)[crash_at], monkeypatch)
    wal.close()

    # The dead group's payloads are in the log even though the index
    # never saw them.
    logged = replay(path)
    assert len(logged) == (crash_at + 1) * GROUP
    assert victim.indexed_count < want_count

    # Recovery: replay the WAL into a fresh server, then re-offer the
    # rest of the stream exactly as the uploaders would.
    recovered = make()
    assert recovered.replay_wal(path) == len(logged)
    for group in groups(city)[crash_at + 1:]:
        recovered.ingest_batch(group)
    assert digest(recovered) == want_digest


def test_live_server_converges_after_redelivery(city, tmp_path, make,
                                                monkeypatch):
    # No restart: the same server survives the failed group, and the
    # uploaders' redelivery of it must be indexed, not deduplicated.
    want_digest, _ = uninterrupted_digest(make, city)
    crash_at = crash_point(city)
    with WriteAheadLog(tmp_path / "ingest.wal") as wal:
        server = make(wal=wal)
        for i, group in enumerate(groups(city)):
            if i == crash_at:
                crash_before_index(server, group, monkeypatch)
            server.ingest_batch(group)
        assert digest(server) == want_digest


def test_replay_into_warm_server_is_idempotent(city, tmp_path, make):
    # Crash *after* the index insert instead: the group is in both the
    # WAL and the snapshot the operator restores from.  Replay must
    # dedup, not double-index.
    path = tmp_path / "ingest.wal"
    with WriteAheadLog(path) as wal:
        server = make(wal=wal)
        for group in groups(city):
            server.ingest_batch(group)
        want = digest(server)
        assert server.replay_wal() == 0
        assert digest(server) == want


def test_torn_tail_replay_still_converges(city, tmp_path, make):
    # A crash mid-write leaves a torn final entry; recovery drops it
    # (it was never acknowledged) and replay covers everything else.
    path = tmp_path / "ingest.wal"
    wal = WriteAheadLog(path)
    server = make(wal=wal)
    gs = groups(city)
    for group in gs[:-1]:
        server.ingest_batch(group)
    wal.close()
    data = path.read_bytes()
    path.write_bytes(data[:-11])     # tear the final committed entry

    recovered = make()
    n = recovered.replay_wal(path)
    # One bundle of the final committed group was torn away...
    assert n == sum(len(g) for g in gs[:-1]) - 1
    # ...so re-offering the whole stream (at-least-once) converges.
    for group in gs:
        recovered.ingest_batch(group)
    want = make()
    for group in gs:
        want.ingest_batch(group)
    assert digest(recovered) == digest(want)
