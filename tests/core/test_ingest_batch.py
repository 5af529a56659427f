"""Commit-group ingest, WAL durability, and back-pressure
(``CloudServer.ingest_batch`` / ``replay_wal`` / ``AdmissionQueue``).

The batched path must be observationally identical to one-at-a-time
ingest -- same content digest, same dedup decisions, same quarantine
entries -- while amortising the epoch bump and fsync across the group.
"""

import threading

import pytest

from repro import CameraModel, CloudServer
from repro.core.fov import RepresentativeFoV
from repro.core.ingest import AdmissionQueue
from repro.core.server import IngestStatus
from repro.core.wal import WriteAheadLog
from repro.net.channel import FaultProfile, FaultyChannel, RetryPolicy
from repro.net.protocol import encode_bundle
from repro.shard import ShardedCloudServer
from repro.traces.scenarios import CITY_ORIGIN


def bundle(vid="vid-x", n=5, lat=40.0):
    return encode_bundle(vid, [
        RepresentativeFoV(lat=lat, lng=116.3, theta=(30.0 * i) % 360.0,
                          t_start=float(i), t_end=float(i) + 2.0,
                          video_id=vid, segment_id=i)
        for i in range(n)
    ])


def corrupt(payload: bytes) -> bytes:
    flipped = bytearray(payload)
    flipped[-1] ^= 0xFF
    return bytes(flipped)


@pytest.fixture
def server(camera):
    return CloudServer(camera)


class TestIngestBatch:
    def test_outcomes_positional_and_mixed(self, server):
        dup = bundle("dup")
        server.ingest_bundle(dup)
        payloads = [bundle("a"), dup, corrupt(bundle("bad")), bundle("b")]
        outcomes = server.ingest_batch(payloads)
        assert [o.status for o in outcomes] == [
            IngestStatus.ACCEPTED, IngestStatus.DUPLICATE,
            IngestStatus.REJECTED, IngestStatus.ACCEPTED]
        assert len(server.quarantine) == 1
        assert server.indexed_count == 15

    def test_intra_group_duplicate(self, server):
        same = bundle("twice")
        outcomes = server.ingest_batch([same, same])
        assert [o.status for o in outcomes] == [
            IngestStatus.ACCEPTED, IngestStatus.DUPLICATE]
        assert server.indexed_count == 5

    def test_one_epoch_bump_per_group(self, server):
        epoch = server.index.epoch
        server.ingest_batch([bundle(f"v{i}") for i in range(8)])
        assert server.index.epoch == epoch + 1

    def test_bit_identical_to_one_at_a_time(self, camera):
        payloads = [bundle(f"v{i}", n=10, lat=40.0 + i * 1e-3)
                    for i in range(6)]
        payloads[3] = corrupt(payloads[3])
        one = CloudServer(camera)
        for p in payloads:
            one.ingest_bundle(p)
        batched = CloudServer(camera)
        batched.ingest_batch(payloads)
        assert batched.index.content_digest() == one.index.content_digest()
        assert batched.indexed_count == one.indexed_count
        assert len(batched.quarantine) == len(one.quarantine) == 1
        (b_entry,) = list(batched.quarantine)
        (o_entry,) = list(one.quarantine)
        assert b_entry.payload == o_entry.payload
        assert b_entry.reason == o_entry.reason

    def test_corrupt_bundle_mid_group_isolated(self, camera):
        # The corrupt member is quarantined alone; everything else in
        # the commit group lands exactly as if it had never been there.
        clean = [bundle(f"v{i}", n=7) for i in range(5)]
        with_bad = clean[:2] + [corrupt(bundle("evil"))] + clean[2:]
        reference = CloudServer(camera)
        reference.ingest_batch(clean)
        victim = CloudServer(camera)
        outcomes = victim.ingest_batch(with_bad)
        assert outcomes[2].status is IngestStatus.REJECTED
        assert sum(o.status is IngestStatus.ACCEPTED for o in outcomes) == 5
        assert victim.index.content_digest() == \
            reference.index.content_digest()

    def test_empty_group(self, server):
        assert server.ingest_batch([]) == []


class TestWalDurability:
    def test_batch_appends_then_one_sync(self, tmp_path, camera):
        wal = WriteAheadLog(tmp_path / "ingest.wal")
        server = CloudServer(camera, wal=wal)
        server.ingest_batch([bundle(f"v{i}") for i in range(10)])
        assert wal.stats.appends == 10
        assert wal.stats.syncs == 1
        assert server.stats.wal_appends == 10
        assert server.stats.wal_syncs == 1
        assert server.stats.wal_bytes > 0

    def test_rejected_and_duplicate_not_logged(self, tmp_path, camera):
        wal = WriteAheadLog(tmp_path / "ingest.wal")
        server = CloudServer(camera, wal=wal)
        good = bundle("good")
        server.ingest_batch([good, good, corrupt(bundle("bad"))])
        assert wal.stats.appends == 1

    def test_replay_converges_to_same_digest(self, tmp_path, camera):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            origin = CloudServer(camera, wal=wal)
            origin.ingest_batch([bundle(f"v{i}", n=8) for i in range(12)])
            want = origin.index.content_digest()
        recovered = CloudServer(camera)
        assert recovered.replay_wal(path) == 12
        assert recovered.index.content_digest() == want
        assert recovered.stats.wal_replayed == 12

    def test_replay_is_idempotent_against_dedup(self, tmp_path, camera):
        # Crash *after* index insert: the bundle is both in the WAL and
        # the index; replay must dedup it, not double-insert.
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            server = CloudServer(camera, wal=wal)
            server.ingest_batch([bundle("v0"), bundle("v1")])
            want = server.index.content_digest()
            assert server.replay_wal() == 0   # all duplicates
            assert server.index.content_digest() == want
            assert server.indexed_count == 10


class TestAdmissionQueue:
    def test_partial_admission(self):
        q = AdmissionQueue(4)
        assert q.try_admit(3) == 3
        assert q.try_admit(3) == 1     # only one slot left
        assert q.try_admit() == 0      # full
        q.release(4)
        assert q.depth == 0

    def test_over_release_raises(self):
        q = AdmissionQueue(2)
        q.try_admit()
        with pytest.raises(ValueError):
            q.release(2)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)

    def test_thread_safety_never_oversubscribes(self):
        q = AdmissionQueue(10)
        peak = []

        def worker():
            for _ in range(500):
                got = q.try_admit(3)
                peak.append(q.depth)
                q.release(got)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert q.depth == 0
        assert max(peak) <= 10


class TestBackPressure:
    def test_batch_sheds_tail_and_releases(self, camera):
        server = CloudServer(camera, admission_capacity=4)
        outcomes = server.ingest_batch([bundle(f"v{i}") for i in range(7)])
        statuses = [o.status for o in outcomes]
        assert statuses.count(IngestStatus.ACCEPTED) == 4
        assert statuses.count(IngestStatus.SHED) == 3
        assert server.stats.bundles_shed == 3
        # Slots freed: a follow-up group is admitted in full.
        again = server.ingest_batch([bundle(f"w{i}") for i in range(4)])
        assert all(o.status is IngestStatus.ACCEPTED for o in again)

    def test_shed_outcome_is_retryable(self, camera):
        # An uploader facing a saturated server retries shed bundles
        # until they land -- shed is not an ack and not a reject.
        server = CloudServer(camera, admission_capacity=1)
        channel = FaultyChannel(FaultProfile(), seed=7)
        uploader = server.make_uploader(channel, RetryPolicy(max_attempts=5))
        receipts = [uploader.upload(bundle(f"v{i}")) for i in range(6)]
        assert all(r.accepted for r in receipts)
        assert server.indexed_count == 30
        assert uploader.stats.acks_shed == 0  # serial sends never saturate

    def test_single_bundle_shed_when_saturated(self, camera):
        server = CloudServer(camera, admission_capacity=1)
        assert server._admission.try_admit() == 1   # simulate an in-flight peer
        outcome = server.ingest_bundle(bundle("v"))
        assert outcome.status is IngestStatus.SHED
        assert outcome.records_indexed == 0
        server._admission.release()
        assert server.ingest_bundle(bundle("v")).status is \
            IngestStatus.ACCEPTED

    @pytest.mark.parametrize("make", [
        lambda cam: CloudServer(cam, admission_capacity=1),
        lambda cam: ShardedCloudServer(cam, n_shards=2, origin=CITY_ORIGIN,
                                       admission_capacity=1),
    ], ids=["server", "router"])
    def test_missing_outcome_is_a_runtime_error(self, camera, monkeypatch,
                                                make):
        # The one-outcome-per-payload invariant is a real error, not an
        # assert that ``python -O`` would strip.
        server = make(camera)
        monkeypatch.setattr(server, "_shed_outcome", lambda payload: None)
        with pytest.raises(RuntimeError, match="outcomes"):
            server.ingest_batch([bundle("a"), bundle("b")])
