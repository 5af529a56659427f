"""Commit-group ingest, WAL durability, and back-pressure
(``ingest_batch`` / ``replay_wal`` / ``AdmissionQueue``) on both server
kinds, which share one :class:`~repro.core.ingest.IngestPipeline`.

The batched path must be observationally identical to one-at-a-time
ingest -- same content digest, same dedup decisions, same quarantine
entries -- while amortising the epoch bump and fsync across the group.
"""

import threading

import pytest

from repro import CloudServer
from repro.core.fov import RepresentativeFoV
from repro.core.index import FoVIndex
from repro.core.ingest import AdmissionQueue
from repro.core.server import IngestStatus, ServerStats
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


def build(kind, camera, **kwargs):
    if kind == "server":
        return CloudServer(camera, **kwargs)
    return ShardedCloudServer(camera, n_shards=4, origin=CITY_ORIGIN,
                              **kwargs)


def digest(server):
    return FoVIndex.content_digest(server)


def epochs(server):
    if isinstance(server, ShardedCloudServer):
        return server.epoch_vector()
    return (server.index.epoch,)


def stat_values(server):
    return {name: getattr(server.stats, name) for name, attr
            in vars(ServerStats).items() if isinstance(attr, property)}


class ServerKind:
    """Runs a test class's cases on a single ``CloudServer``; each
    ``...OnRouter`` subclass reruns the same cases on a 4-shard router."""

    KIND = "server"

    @pytest.fixture
    def make(self, camera):
        return lambda **kwargs: build(self.KIND, camera, **kwargs)

    @pytest.fixture
    def server(self, make):
        return make()


class TestIngestBatch(ServerKind):
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
        # At most one bump per index (shard) for the whole group.
        before = epochs(server)
        server.ingest_batch([bundle(f"v{i}", lat=40.0 + i * 1e-2)
                             for i in range(8)])
        bumps = [a - b for a, b in zip(epochs(server), before)]
        assert set(bumps) <= {0, 1} and 1 in bumps

    def test_bit_identical_to_one_at_a_time(self, make):
        payloads = [bundle(f"v{i}", n=10, lat=40.0 + i * 1e-3)
                    for i in range(6)]
        payloads[3] = corrupt(payloads[3])
        one = make()
        for p in payloads:
            one.ingest_bundle(p)
        batched = make()
        batched.ingest_batch(payloads)
        assert digest(batched) == digest(one)
        assert batched.indexed_count == one.indexed_count
        assert len(batched.quarantine) == len(one.quarantine) == 1
        (b_entry,) = list(batched.quarantine)
        (o_entry,) = list(one.quarantine)
        assert b_entry.payload == o_entry.payload
        assert b_entry.reason == o_entry.reason

    def test_corrupt_bundle_mid_group_isolated(self, make):
        # The corrupt member is quarantined alone; everything else in
        # the commit group lands exactly as if it had never been there.
        clean = [bundle(f"v{i}", n=7) for i in range(5)]
        with_bad = clean[:2] + [corrupt(bundle("evil"))] + clean[2:]
        reference = make()
        reference.ingest_batch(clean)
        victim = make()
        outcomes = victim.ingest_batch(with_bad)
        assert outcomes[2].status is IngestStatus.REJECTED
        assert sum(o.status is IngestStatus.ACCEPTED for o in outcomes) == 5
        assert digest(victim) == digest(reference)

    def test_bundle_is_a_batch_of_one(self, make):
        # ingest_bundle(p) and ingest_batch([p])[0] leave the same
        # trace: outcome, counters, journal and quarantine.
        good = bundle("good")
        payloads = [good, good, corrupt(bundle("bad")), bundle("more")]
        one, batched = make(admission_capacity=2), make(admission_capacity=2)
        want = [one.ingest_bundle(p, "dev") for p in payloads]
        got = [batched.ingest_batch([p], ["dev"])[0] for p in payloads]
        for srv in (one, batched):   # a saturated peer: both shed
            srv._pipeline.admission.try_admit(2)
        want.append(one.ingest_bundle(bundle("late")))
        got.append(batched.ingest_batch([bundle("late")])[0])
        assert got == want
        assert [o.status for o in got] == [
            IngestStatus.ACCEPTED, IngestStatus.DUPLICATE,
            IngestStatus.REJECTED, IngestStatus.ACCEPTED, IngestStatus.SHED]
        assert stat_values(batched) == stat_values(one)
        assert [(e.kind, dict(e.fields)) for e in batched.obs.journal] == \
            [(e.kind, dict(e.fields)) for e in one.obs.journal]
        assert [(q.digest, q.reason, q.payload) for q in batched.quarantine] \
            == [(q.digest, q.reason, q.payload) for q in one.quarantine]
        assert digest(batched) == digest(one)

    def test_empty_group(self, server):
        assert server.ingest_batch([]) == []


class TestIngestBatchOnRouter(TestIngestBatch):
    KIND = "router"


class TestWalDurability(ServerKind):
    def test_batch_appends_then_one_sync(self, tmp_path, make):
        wal = WriteAheadLog(tmp_path / "ingest.wal")
        server = make(wal=wal)
        server.ingest_batch([bundle(f"v{i}") for i in range(10)])
        assert wal.stats.appends == 10
        assert wal.stats.syncs == 1
        assert server.stats.wal_appends == 10
        assert server.stats.wal_syncs == 1
        assert server.stats.wal_bytes > 0

    def test_rejected_and_duplicate_not_logged(self, tmp_path, make):
        wal = WriteAheadLog(tmp_path / "ingest.wal")
        server = make(wal=wal)
        good = bundle("good")
        server.ingest_batch([good, good, corrupt(bundle("bad"))])
        assert wal.stats.appends == 1

    def test_replay_converges_to_same_digest(self, tmp_path, make):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            origin = make(wal=wal)
            origin.ingest_batch([bundle(f"v{i}", n=8, lat=40.0 + i * 1e-2)
                                 for i in range(12)])
            want = digest(origin)
        recovered = make()
        assert recovered.replay_wal(path) == 12
        assert digest(recovered) == want
        assert recovered.stats.wal_replayed == 12

    def test_replay_is_idempotent_against_dedup(self, tmp_path, make):
        # Crash *after* index insert: the bundle is both in the WAL and
        # the index; replay must dedup it, not double-insert.
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            server = make(wal=wal)
            server.ingest_batch([bundle("v0"), bundle("v1")])
            want = digest(server)
            assert server.replay_wal() == 0   # all duplicates
            assert digest(server) == want
            assert server.indexed_count == 10


class TestWalDurabilityOnRouter(TestWalDurability):
    KIND = "router"


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


class TestBackPressure(ServerKind):
    def test_batch_sheds_tail_and_releases(self, make):
        server = make(admission_capacity=4)
        outcomes = server.ingest_batch([bundle(f"v{i}") for i in range(7)])
        statuses = [o.status for o in outcomes]
        assert statuses.count(IngestStatus.ACCEPTED) == 4
        assert statuses.count(IngestStatus.SHED) == 3
        assert server.stats.bundles_shed == 3
        # Slots freed: a follow-up group is admitted in full.
        again = server.ingest_batch([bundle(f"w{i}") for i in range(4)])
        assert all(o.status is IngestStatus.ACCEPTED for o in again)

    def test_shed_outcome_is_retryable(self, make):
        # An uploader facing a saturated server retries shed bundles
        # until they land -- shed is not an ack and not a reject.
        server = make(admission_capacity=1)
        channel = FaultyChannel(FaultProfile(), seed=7)
        uploader = server.make_uploader(channel, RetryPolicy(max_attempts=5))
        receipts = [uploader.upload(bundle(f"v{i}")) for i in range(6)]
        assert all(r.accepted for r in receipts)
        assert server.indexed_count == 30
        assert uploader.stats.acks_shed == 0  # serial sends never saturate

    def test_single_bundle_shed_when_saturated(self, make):
        server = make(admission_capacity=1)
        admission = server._pipeline.admission
        assert admission.try_admit() == 1   # simulate an in-flight peer
        outcome = server.ingest_bundle(bundle("v"))
        assert outcome.status is IngestStatus.SHED
        assert outcome.records_indexed == 0
        admission.release()
        assert server.ingest_bundle(bundle("v")).status is \
            IngestStatus.ACCEPTED

    @pytest.mark.parametrize("kind", ["server", "router"])
    def test_missing_outcome_is_a_runtime_error(self, camera, monkeypatch,
                                                kind):
        # The one-outcome-per-payload invariant is a real error, not an
        # assert that ``python -O`` would strip.
        server = build(kind, camera, admission_capacity=1)
        monkeypatch.setattr(server._pipeline, "_shed", lambda payload: None)
        with pytest.raises(RuntimeError, match="outcomes"):
            server.ingest_batch([bundle("a"), bundle("b")])


class TestBackPressureOnRouter(TestBackPressure):
    KIND = "router"
    # Already parametrised over both server kinds in the base class.
    test_missing_outcome_is_a_runtime_error = None


class TestFailedCommitRedelivery:
    """A group whose WAL fsync or landing raises was never acknowledged,
    so its redelivery must be indexed, not acked as a duplicate."""

    @pytest.mark.parametrize("fault", ["fsync", "land"])
    @pytest.mark.parametrize("entry", ["ingest_bundle", "ingest_batch"])
    @pytest.mark.parametrize("kind", ["server", "router"])
    def test_redelivery_after_failure_is_accepted(self, tmp_path, camera,
                                                  monkeypatch, kind, entry,
                                                  fault):
        payloads = [bundle(f"v{i}", n=6, lat=40.0 + i * 1e-2)
                    for i in range(3)]
        if entry == "ingest_bundle":
            payloads = payloads[:1]

        def deliver(srv):
            if entry == "ingest_bundle":
                return [srv.ingest_bundle(payloads[0])]
            return srv.ingest_batch(payloads)

        control = build(kind, camera)
        deliver(control)
        path = tmp_path / "ingest.wal"
        wal = WriteAheadLog(path)
        server = build(kind, camera, wal=wal)
        target, name = ((wal, "commit") if fault == "fsync"
                        else (server._pipeline, "land"))
        real = getattr(target, name)

        def fail_once(*args):
            monkeypatch.setattr(target, name, real)
            raise OSError(f"{fault} failed")
        monkeypatch.setattr(target, name, fail_once)
        with pytest.raises(OSError):
            deliver(server)
        assert server.indexed_count == 0

        outcomes = deliver(server)
        assert [o.status for o in outcomes] == \
            [IngestStatus.ACCEPTED] * len(payloads)
        assert digest(server) == digest(control)
        assert server.stats.bundles_received == len(payloads)
        wal.close()
        recovered = build(kind, camera)
        assert recovered.replay_wal(path) == len(payloads)
        assert digest(recovered) == digest(control)
