"""The bundle-ingest pipeline both servers share, and its admission
control (``docs/PROTOCOL.md``).

:class:`IngestPipeline` runs each commit group through admission,
SHA-256 dedup, columnar decode, WAL append plus one fsync, and then the
owning server's sink -- ``land(records) -> int`` -- the only step that
differs between a :class:`~repro.core.server.CloudServer` and a
:class:`~repro.shard.server.ShardedCloudServer`.  It owns the dedup
digests, the video owners, the admission queue, the outcome accounting
and WAL replay.  A single ``ingest_bundle`` is a commit group of one.

Back-pressure sheds the excess beyond a configured number of in-flight
bundles with a retryable ``SHED`` ack instead of buffering without
bound; the :class:`~repro.net.channel.RetryingUploader` re-offers it
after backoff, and the digest dedup keeps the outcome exactly-once.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable

from repro.core.fov import RepresentativeFoV
from repro.core.quarantine import QuarantineStore
from repro.core.wal import ENTRY_OVERHEAD, WriteAheadLog
from repro.core.wal import replay as wal_replay
from repro.net.channel import FaultyChannel, RetryPolicy, RetryingUploader
from repro.net.protocol import BundleColumns, decode_bundle_columns
from repro.obs.journal import EventJournal
from repro.obs.trace import SpanContext

if TYPE_CHECKING:
    from repro.core.server import ServerStats

__all__ = ["AdmissionQueue", "IngestOutcome", "IngestPipeline",
           "IngestStatus"]


class IngestStatus(Enum):
    """What happened to one delivered bundle."""

    ACCEPTED = "accepted"
    DUPLICATE = "duplicate"
    REJECTED = "rejected"
    #: Refused admission by back-pressure; retryable (the uploader
    #: backs off and re-offers), unlike the terminal ``REJECTED``.
    SHED = "shed"


@dataclass(frozen=True)
class IngestOutcome:
    """The ingest path's acknowledgement for one delivered payload."""

    status: IngestStatus
    records_indexed: int
    digest: str
    video_id: str | None = None
    reason: str | None = None


class AdmissionQueue:
    """A capacity-bounded in-flight counter, not a buffer.

    ``try_admit(n)`` grants between 0 and ``n`` slots atomically (a
    batch larger than the free capacity is *partially* admitted; the
    caller sheds the remainder), ``release`` returns slots.  Nothing
    is ever queued here -- holding real payloads would be the
    unbounded buffering this class exists to prevent.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"admission capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._depth = 0
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def depth(self) -> int:
        """Currently admitted (in-flight) bundles."""
        with self._lock:
            return self._depth

    def try_admit(self, n: int = 1) -> int:
        """Atomically claim up to ``n`` slots; returns how many were
        granted (0 when saturated -- the caller sheds)."""
        if n < 0:
            raise ValueError(f"cannot admit {n} bundles")
        with self._lock:
            granted = min(n, self._capacity - self._depth)
            self._depth += granted
        return granted

    def release(self, n: int = 1) -> None:
        """Return ``n`` previously granted slots."""
        with self._lock:
            if n > self._depth:
                raise ValueError(
                    f"releasing {n} slots but only {self._depth} in flight")
            self._depth -= n


class IngestPipeline:
    """One commit-group ingest path; the owning server supplies the sink.

    Each admitted payload's digest is reserved before decode (a digest
    already reserved acks ``DUPLICATE``); a decode ``ValueError``
    quarantines it as ``REJECTED`` and drops the reservation.  The
    survivors are logged with one fsync and reach ``land`` in one call
    (the sink indexes them, counts ``records_indexed`` and returns n).
    Any exception before ``land`` returns also drops the group's
    reservations, so a redelivery after a failed fsync or insert is
    indexed rather than mistaken for a duplicate.  ``span(n)`` opens the
    server's commit-group span; ``decode`` defaults to
    :func:`~repro.net.protocol.decode_bundle_columns`.
    """

    def __init__(self, stats: ServerStats, journal: EventJournal,
                 quarantine: QuarantineStore,
                 land: Callable[[list[RepresentativeFoV]], int],
                 span: Callable[[int], SpanContext], *,
                 wal: WriteAheadLog | None = None,
                 admission_capacity: int | None = None,
                 decode: Callable[[bytes], BundleColumns]
                 = decode_bundle_columns) -> None:
        self.stats = stats
        self.journal = journal
        self.quarantine = quarantine
        self.land = land
        self.wal = wal
        self.admission = (AdmissionQueue(admission_capacity)
                          if admission_capacity is not None else None)
        self.seen_digests: set[str] = set()
        self.owners: dict[str, str] = {}  # video_id -> device_id
        self._span = span
        self._decode = decode
        self._lock = threading.Lock()

    def run(self, payloads: list[bytes],
            device_ids: list[str | None] | None = None,
            *, replaying: bool = False) -> list[IngestOutcome]:
        """Ingest one commit group; returns one outcome per payload.

        ``replaying`` re-offers WAL entries: no admission, no WAL
        append, and every accepted bundle counts as replayed.
        """
        if device_ids is None:
            device_ids = [None] * len(payloads)
        if len(device_ids) != len(payloads):
            raise ValueError("device_ids must match payloads one to one")
        admission = None if replaying else self.admission
        with self._span(len(payloads)):
            admitted = len(payloads)
            if admission is not None:
                admitted = admission.try_admit(len(payloads))
            try:
                outcomes = self._commit(payloads[:admitted],
                                        device_ids[:admitted], replaying)
            finally:
                if admission is not None and admitted:
                    admission.release(admitted)
            outcomes.extend(self._shed(p) for p in payloads[admitted:])
            done = [o for o in outcomes if o is not None]
            if len(done) != len(payloads):
                raise RuntimeError(
                    f"commit group produced {len(done)} outcomes for "
                    f"{len(payloads)} payloads")
            return done

    def _commit(self, payloads: list[bytes], device_ids: list[str | None],
                replaying: bool) -> list[IngestOutcome | None]:
        outcomes: list[IngestOutcome | None] = [None] * len(payloads)
        group: list[tuple[int, str, BundleColumns]] = []
        reserved: list[str] = []  # digests to release unless landed
        try:
            for pos, payload in enumerate(payloads):
                digest = hashlib.sha256(payload).hexdigest()
                with self._lock:
                    duplicate = digest in self.seen_digests
                    self.seen_digests.add(digest)
                if duplicate:
                    self.stats._duplicated.inc()
                    self.journal.emit("ingest.duplicate", digest=digest)
                    outcomes[pos] = IngestOutcome(
                        status=IngestStatus.DUPLICATE, records_indexed=0,
                        digest=digest)
                    continue
                reserved.append(digest)
                try:
                    columns = self._decode(payload)
                except ValueError as exc:
                    self._release([reserved.pop()])
                    self.stats._rejected.inc()
                    self.quarantine.add(payload, str(exc))
                    self.journal.emit("ingest.rejected", digest=digest,
                                      reason=str(exc))
                    outcomes[pos] = IngestOutcome(
                        status=IngestStatus.REJECTED, records_indexed=0,
                        digest=digest, reason=str(exc))
                    continue
                group.append((pos, digest, columns))
            if group:
                if self.wal is not None and not replaying:
                    self._log(self.wal, [payloads[pos] for pos, _, _ in group])
                records: list[RepresentativeFoV] = []
                for _, _, columns in group:
                    records.extend(columns.records())
                self.land(records)
            reserved.clear()  # landed: the digests stay seen
        finally:
            self._release(reserved)
        for pos, digest, columns in group:
            dev = device_ids[pos]
            if dev is not None:
                with self._lock:
                    self.owners[columns.video_id] = dev
            self.stats._accepted.inc()
            self.stats._bytes_in.inc(len(payloads[pos]))
            if replaying:
                self.stats._wal_replayed.inc()
            self.journal.emit("ingest.accepted", digest=digest,
                              video_id=columns.video_id, records=len(columns))
            outcomes[pos] = IngestOutcome(
                status=IngestStatus.ACCEPTED, records_indexed=len(columns),
                digest=digest, video_id=columns.video_id)
        return outcomes

    def _release(self, digests: list[str]) -> None:
        if digests:
            with self._lock:
                self.seen_digests.difference_update(digests)

    def _log(self, wal: WriteAheadLog, payloads: list[bytes]) -> None:
        """Buffered appends, then exactly one fsync for the group."""
        for payload in payloads:
            wal.append(payload)
            self.stats._wal_appends.inc()
            self.stats._wal_bytes.inc(len(payload) + ENTRY_OVERHEAD)
        wal.commit()
        self.stats._wal_syncs.inc()

    def _shed(self, payload: bytes) -> IngestOutcome:
        digest = hashlib.sha256(payload).hexdigest()
        self.stats._shed.inc()
        self.journal.emit("ingest.shed", digest=digest)
        return IngestOutcome(status=IngestStatus.SHED, records_indexed=0,
                             digest=digest, reason="admission queue full")

    def replay(self, path: str | os.PathLike[str] | None = None) -> int:
        """Re-offer every committed WAL payload as one replay group.

        ``path`` defaults to the configured WAL.  Bundles already
        indexed deduplicate; returns how many were newly indexed.
        """
        if path is None:
            if self.wal is None:
                raise ValueError("no WAL configured and no path given")
            path = self.wal.path
        payloads = wal_replay(path)
        outcomes = self.run(payloads, replaying=True)
        recovered = sum(1 for o in outcomes
                        if o.status is IngestStatus.ACCEPTED)
        self.journal.emit("ingest.wal_replay", offered=len(payloads),
                          recovered=recovered)
        return recovered

    def uploader(self, channel: FaultyChannel, deliver: Callable[[bytes], Any],
                 policy: RetryPolicy | None = None) -> RetryingUploader:
        """A retrying uploader over ``deliver`` whose retransmissions
        count into ``stats.bundles_retried``."""
        return RetryingUploader(channel, deliver, policy=policy,
                                on_retry=self.stats._retried.inc,
                                registry=self.stats.registry,
                                journal=self.journal)
