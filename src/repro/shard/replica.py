"""Warm shard replicas: capture, verify, promote.

Each shard of a :class:`~repro.shard.server.ShardedCloudServer` can
keep one **warm standby**: the shard's frozen columnar view packed
into the same flat ``FOVPACK1`` buffer a ``.fovpack`` sidecar holds
(:meth:`ShardedCloudServer.capture_shard`), plus a small manifest
pinning what the buffer must contain.  A standby that
re-syncs after every commit group is always one epoch behind at most
-- and because writes are refused fleet-wide while a primary is absent
(fail-stop, :class:`~repro.shard.server.ShardUnavailableError`), "at
most one epoch behind at the moment of death" means *exactly the
primary's content*, which is what makes promotion bit-identical.

Promotion is paranoid by design, mirroring the sharded-snapshot
loader's tamper checks (``docs/SHARDING.md``):

1. the buffer's sha256 must match the manifest digest recorded at
   sync time (a tampered or torn standby is rejected before any byte
   is trusted);
2. :func:`repro.core.flatsnap.unpack_snapshot` re-verifies the
   ``FOVPACK1`` CRC and structure;
3. the record count and epoch must match the manifest.

Only then is a fresh per-shard server rebuilt from the buffer's
records and swapped into the slot
(:meth:`ShardedCloudServer.install_shard`).  The rebuilt index's
ranking is bit-identical to the dead primary's because retrieval
ranks under the canonical ``(-score, key)`` total order, which is
insensitive to insertion order (the engine-parity property suite pins
this).

Failure accounting lands in the router's registry as ``failover.*``
families: kills, promotions, replica syncs, dropped queries and the
measured promotion downtime -- the availability numbers the
city-scale harness (:mod:`repro.sim.cityload`) reports next to its
latency percentiles.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from repro.core.flatsnap import unpack_snapshot
from repro.core.server import CloudServer
from repro.net.clock import default_timer
from repro.shard.server import ShardedCloudServer

__all__ = ["ReplicaManifest", "ShardReplica", "ReplicaSet"]


@dataclass(frozen=True)
class ReplicaManifest:
    """What a standby's packed buffer must decode to, pinned at sync."""

    shard_id: int
    epoch: int
    records: int
    digest: str                 #: sha256 hex over the packed buffer


@dataclass(frozen=True)
class ShardReplica:
    """One warm standby: a packed ``FOVPACK1`` buffer plus its manifest."""

    manifest: ReplicaManifest
    packed: bytes

    def __len__(self) -> int:
        return self.manifest.records


class ReplicaSet:
    """One warm standby per shard of a :class:`ShardedCloudServer`.

    Parameters
    ----------
    server : ShardedCloudServer
        The fleet to shadow.  Metrics register on its router registry.
    clock : callable, optional
        Monotonic timer for downtime accounting (injectable; defaults
        to :func:`repro.net.clock.default_timer`).
    """

    def __init__(self, server: ShardedCloudServer,
                 clock: Callable[[], float] | None = None) -> None:
        self._server = server
        self._clock = clock if clock is not None else default_timer
        self._replicas: list[ShardReplica | None] = [None] * server.n_shards
        self._killed_at: dict[int, float] = {}
        self._downtime_s: dict[int, float] = {}
        reg = server.obs.registry
        self._kills = reg.counter(
            "failover.kills", "shard primaries killed mid-run")
        self._promotions = reg.counter(
            "failover.promotions", "warm standbys promoted to primary")
        self._syncs = reg.counter(
            "failover.replica_syncs", "standby captures of a shard's view")
        self._sync_bytes = reg.counter(
            "failover.replica_bytes", "packed bytes captured by standby syncs")
        self._dropped = reg.counter(
            "failover.dropped_queries",
            "queries refused while a needed shard was down")
        self._downtime = reg.gauge(
            "failover.downtime_s",
            "seconds between the last kill and its promotion",
            labelnames=("shard",))

    @property
    def n_shards(self) -> int:
        return self._server.n_shards

    def replica(self, sid: int) -> ShardReplica | None:
        """The current standby for shard ``sid`` (None before first sync)."""
        return self._replicas[sid]

    def epochs(self) -> tuple[int, ...]:
        """Per-shard standby epochs (``-1`` where nothing is captured)."""
        return tuple(-1 if r is None else r.manifest.epoch
                     for r in self._replicas)

    # -- sync -------------------------------------------------------------

    def sync_shard(self, sid: int) -> ShardReplica:
        """Capture shard ``sid``'s current view into its standby slot."""
        epoch, packed = self._server.capture_shard(sid)
        view = unpack_snapshot(packed, verify=False)
        manifest = ReplicaManifest(
            shard_id=sid, epoch=epoch, records=len(view),
            digest=hashlib.sha256(packed).hexdigest())
        replica = ShardReplica(manifest=manifest, packed=packed)
        self._replicas[sid] = replica
        self._syncs.inc()
        self._sync_bytes.inc(len(packed))
        return replica

    def sync(self) -> int:
        """Re-capture every shard whose epoch moved; returns how many.

        Cheap to call after every commit group: a shard whose epoch
        matches its standby's is skipped without packing a byte.
        """
        synced = 0
        epochs = self._server.epoch_vector()
        for sid, replica in enumerate(self._replicas):
            if replica is not None and replica.manifest.epoch == epochs[sid]:
                continue
            self.sync_shard(sid)
            synced += 1
        return synced

    # -- failure and promotion --------------------------------------------

    def kill(self, sid: int) -> CloudServer:
        """Kill shard ``sid``'s primary and start the downtime clock."""
        dead = self._server.kill_shard(sid)
        self._killed_at[sid] = self._clock()
        self._kills.inc()
        return dead

    def note_dropped_query(self) -> None:
        """Count one query refused because a needed shard was down."""
        self._dropped.inc()

    @property
    def dropped_queries(self) -> int:
        return int(self._dropped.value)

    def downtime_s(self, sid: int) -> float:
        """Measured kill-to-promotion seconds for shard ``sid`` (0 if
        never killed or not yet promoted)."""
        return self._downtime_s.get(sid, 0.0)

    def promote(self, sid: int) -> CloudServer:
        """Verify shard ``sid``'s standby and promote it to primary.

        Raises ``ValueError`` when the standby is missing, its buffer
        digest disagrees with the manifest (tampered/torn), the
        ``FOVPACK1`` CRC fails, or the decoded record count or epoch
        drifts from the manifest.  On success the rebuilt server is
        installed, the slot serves again, and the measured downtime is
        recorded.
        """
        replica = self._replicas[sid]
        if replica is None:
            raise ValueError(f"no standby captured for shard {sid}")
        manifest = replica.manifest
        with self._server.obs.tracer.span("failover.promote", shard=sid):
            digest = hashlib.sha256(replica.packed).hexdigest()
            if digest != manifest.digest:
                raise ValueError(
                    f"standby for shard {sid} rejected: buffer digest "
                    f"{digest[:12]} != manifest {manifest.digest[:12]} "
                    f"(tampered or torn replica)")
            view = unpack_snapshot(replica.packed)      # CRC re-verified
            if len(view) != manifest.records:
                raise ValueError(
                    f"standby for shard {sid} rejected: {len(view)} "
                    f"records decoded, manifest says {manifest.records}")
            if view.epoch != manifest.epoch:
                raise ValueError(
                    f"standby for shard {sid} rejected: snapshot epoch "
                    f"{view.epoch}, manifest says {manifest.epoch}")
            fresh = self._server.spawn_shard_server()
            records = list(view.records)
            if records:
                fresh.ingest(records)
            self._server.install_shard(sid, fresh)
        self._promotions.inc()
        killed_at = self._killed_at.pop(sid, None)
        if killed_at is not None:
            downtime = self._clock() - killed_at
            self._downtime_s[sid] = downtime
            self._downtime.labels(shard=str(sid)).set(downtime)
        return fresh
