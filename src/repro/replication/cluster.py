"""A replicated deployment: one primary, N followers, one shipping fleet.

The cluster owns the shared simulated clock (every machine — primary and
followers — advances on one timeline), builds the primary's database and
shipping log, wires the replicator into the commit path of a
:class:`~repro.service.server.DatabaseService`, and runs the failover
protocol:

1. the primary machine power-fails (``kill_primary``);
2. ``promote`` elects the live follower with the *longest durable
   prefix* (highest shipped seq; ties broken toward the lowest node id),
   scrubs its WAL with ``verify_log`` as a sanity check, and bumps the
   replication term — fencing any segment the dead primary still had in
   flight;
3. the promoted node becomes an ordinary primary: a fresh shipping log
   (based at the promotion watermark) taps its WAL, and the surviving
   followers are re-seeded through a full-state snapshot segment, which
   degenerates to a cheap watermark bump for followers already at the
   watermark (differential logging ships only the pages that differ).

Epochs past the watermark are *lost* — they were durable only on the
dead primary.  Whether any of them was promised to a client is exactly
what the replication oracle audits (see
:mod:`repro.replication.chaos`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import tuna
from repro.db.database import Database
from repro.faults.inject import BlockIoFaultInjector
from repro.hw.clock import SimClock
from repro.hw.stats import Stats
from repro.replication.node import FollowerNode
from repro.replication.segment import FLAG_SNAPSHOT, Segment
from repro.replication.ship import Replicator, ReplicatorConfig, ShippingLog
from repro.service.server import DatabaseService
from repro.storage.blockdev import BlockDevice
from repro.storage.ext4 import Ext4FileSystem
from repro.system import System
from repro.torture.workload import TABLE
from repro.wal.frames import NvFrame
from repro.wal.nvwal import SCHEMES, NvwalBackend

_CREATE_SQL = f"CREATE TABLE {TABLE} (k INTEGER PRIMARY KEY, v TEXT)"


@dataclass(frozen=True)
class ReplicationConfig:
    """Shape of one replicated deployment."""

    followers: int = 2
    mode: str = "semisync"
    scheme: str = "uh_ls_diff"
    checkpoint_threshold: int = 48
    latency_ns: int = 300_000
    poll_ns: int = 150_000
    resend_ns: int = 1_500_000
    send_window: int = 4
    #: Sabotage: followers skip segment verification, and the primary
    #: tears the wire blob of the first eligible epoch at/after this seq.
    lenient_followers: bool = False
    sabotage_seq: int = 0
    #: The ext4 cold store.  On by default: sealed epochs spill to
    #: segment files, reseeds come from disk, and the in-memory shipping
    #: log stays bounded.  ``archive=False`` is the legacy memory-resident
    #: mode (live snapshot reseed) kept for byte-identity comparison.
    archive: bool = True
    archive_epochs_per_file: int = 8
    archive_sync_every: int = 4
    archive_snapshot_every: int = 24
    archive_gc_every: int = 8
    #: Sabotage: plant a GC-past-durable-cursor bug in the archive trim.
    gc_sabotage: bool = False


class Cluster:
    """One primary + followers sharing a clock and a shipping fleet."""

    def __init__(
        self,
        config: ReplicationConfig,
        seed: int = 0,
        ship_spec=None,
        on_seal=None,
        on_release=None,
        profile=None,
        archive_io_spec=None,
        on_gc=None,
        on_snapshot=None,
    ) -> None:
        self.config = config
        self.seed = seed
        self.ship_spec = ship_spec
        self.on_seal = on_seal
        self.on_release = on_release
        self.profile = profile
        self.clock = SimClock()
        self.term = 1
        self.promotions = 0
        self.kill_ns: int | None = None
        #: High-water mark of in-memory shiplog entries across the
        #: cluster's lifetime (bounded-archive probe).
        self.peak_log_entries = 0

        system = System(profile or tuna(), seed=seed, clock=self.clock)
        wal = NvwalBackend(
            system,
            SCHEMES[config.scheme](),
            checkpoint_threshold=config.checkpoint_threshold,
        )
        db = Database(system, wal=wal, name="primary.db")
        # The cold store is its own ext4 volume on its own (seeded)
        # device: archive I/O shares the timeline but never the WAL
        # device's bandwidth or fault plan.
        self.archive = None
        self.archive_device: BlockDevice | None = None
        if config.archive:
            # Imported here, not at module top: repro.archive decodes the
            # shipped-segment wire format, so it imports this package.
            from repro.archive import ArchiveConfig, SegmentArchive

            self._archive_stats = Stats()
            self.archive_device = BlockDevice(
                (profile or tuna()).blockdev,
                self.clock,
                self._archive_stats,
                seed=(seed * 977 + 61) & 0x7FFFFFFF,
            )
            if archive_io_spec is not None:
                self.archive_device.fault_injector = BlockIoFaultInjector(
                    archive_io_spec, (seed * 53 + 11) & 0x7FFFFFFF
                )
            archive_fs = Ext4FileSystem(self.archive_device)
            archive_fs.format()
            self.archive = SegmentArchive(
                archive_fs,
                self.clock,
                config=ArchiveConfig(
                    epochs_per_file=config.archive_epochs_per_file,
                    sync_every=config.archive_sync_every,
                    snapshot_every=config.archive_snapshot_every,
                    gc_every=config.archive_gc_every,
                ),
                telemetry=system.telemetry,
                on_gc=on_gc,
                on_snapshot=on_snapshot,
            )
            # The seq-0 floor: the pristine pre-schema database, so any
            # follower — however far behind — can be reseeded from disk.
            self.archive.bootstrap(_pager_frames(db), term=self.term)
        # The shipping log taps the WAL *before* the schema exists, so
        # followers build their entire state — schema included — from
        # the stream alone.
        self.shiplog = ShippingLog(wal, self.clock, on_seal=on_seal)
        db.execute(_CREATE_SQL)
        self.shiplog.seal(())  # seq 1: the bootstrap (schema) epoch

        self.primary_system = system
        self.db = db
        #: The promoted FollowerNode once a failover happened (None while
        #: the original primary is alive).
        self.primary_node: FollowerNode | None = None
        self.followers = [
            FollowerNode(
                node_id,
                self.clock,
                seed,
                scheme=config.scheme,
                checkpoint_threshold=config.checkpoint_threshold,
                lenient=config.lenient_followers,
                profile=profile,
            )
            for node_id in range(config.followers)
        ]
        self.replicator = self._make_replicator(self.followers, None)
        self.service: DatabaseService | None = None
        #: Replicators retired by promotion (their lag samples count).
        self.retired_replicators: list[Replicator] = []

    def _make_replicator(self, followers, base_snapshot) -> Replicator:
        return Replicator(
            self.clock,
            self.shiplog,
            followers,
            ReplicatorConfig(
                mode=self.config.mode,
                latency_ns=self.config.latency_ns,
                poll_ns=self.config.poll_ns,
                resend_ns=self.config.resend_ns,
                send_window=self.config.send_window,
            ),
            term=self.term,
            ship_spec=self.ship_spec,
            ship_seed=self.seed,
            on_release=self.on_release,
            sabotage_seq=self.config.sabotage_seq,
            base_snapshot=base_snapshot,
            # The *current* primary machine's registry: after a promotion
            # this is the promoted follower's, not the dead machine's.
            telemetry=self.db.system.telemetry,
            archive=self.archive,
            gc_sabotage=self.config.gc_sabotage,
        )

    # -- service wiring -----------------------------------------------------

    def start_service(
        self,
        service_config=None,
        seed: int = 0,
        on_ack=None,
        on_checkpoint=None,
        on_apply=None,
    ) -> DatabaseService:
        """Build a service over the current primary, gated on shipping."""
        service = DatabaseService(
            self.db,
            service_config,
            seed=seed,
            on_ack=on_ack,
            on_checkpoint=on_checkpoint,
            on_apply=on_apply,
        )
        service.replicator = self.replicator
        self.replicator.service = service
        self.service = service
        return service

    # -- failover -----------------------------------------------------------

    def live_followers(self) -> list[FollowerNode]:
        return [f for f in self.followers if f.alive and f.role == "follower"]

    def kill_primary(self) -> None:
        """Power-fail the current primary machine (and the cold store).

        The archive volume loses its OS page cache and gambles its device
        cache like any other disk at power loss — buffered epoch appends
        may tear mid-segment, which is exactly what
        :meth:`SegmentArchive.recover` must salvage at promotion.
        """
        self.kill_ns = self.clock.now_ns
        if self.primary_node is not None:
            self.primary_node.alive = False
            self.primary_node.system.power_fail()
        else:
            self.primary_system.power_fail()
        if self.archive is not None:
            self.archive.power_fail()

    def promote(self):
        """Elect and promote the longest-prefix live follower.

        Returns ``(node, watermark, scrub_report)`` or ``None`` when no
        live follower exists.  Epochs above the watermark are gone; the
        caller (driver/oracle) decides whether any of them had been
        promised.
        """
        candidates = self.live_followers()
        if not candidates:
            return None
        best = max(candidates, key=lambda f: (f.durable_seq, -f.node_id))
        scrub = best.wal.verify_log()
        watermark = best.durable_seq
        self.term += 1
        self.promotions += 1
        best.become_primary(self.term)
        if self.archive is not None:
            # Recover the cold store (journal replay + torn-tail
            # salvage), fence epochs past the watermark, and make sure a
            # reseed chain through the watermark exists on disk — falling
            # back to a snapshot of the promoted node's live pages only
            # when the crash broke the archived chain.
            self.archive.recover()
            self.archive.truncate_above(watermark)
            self.archive.ensure_floor(watermark, self.term, best.snapshot_frames)
            snapshot = None
        else:
            snapshot = Segment(
                seq=watermark,
                term=self.term,
                txns=0,
                frames=best.snapshot_frames(),
                flags=FLAG_SNAPSHOT,
            )
        self.peak_log_entries = max(self.peak_log_entries, self.shiplog.peak_entries)
        self.shiplog = ShippingLog(
            best.wal, self.clock, base_seq=watermark, on_seal=self.on_seal
        )
        self.db = best.db
        self.primary_node = best
        self.retired_replicators.append(self.replicator)
        survivors = [f for f in self.followers if f is not best]
        self.replicator = self._make_replicator(survivors, snapshot)
        self.service = None
        if not best.db.table_exists(TABLE):
            # Total-loss corner: the cluster died before the bootstrap
            # epoch ever shipped.  Re-create the schema so the promoted
            # primary can serve resubmitted transactions.
            best.db.execute(_CREATE_SQL)
            self.shiplog.seal(())
        return best, watermark, scrub

    # -- probes -------------------------------------------------------------

    @property
    def head_seq(self) -> int:
        return self.shiplog.head_seq

    def lag_samples(self) -> list[int]:
        samples: list[int] = []
        for replicator in (*self.retired_replicators, self.replicator):
            samples.extend(replicator.lag_samples)
        return samples

    def log_peak(self) -> int:
        """Lifetime high-water mark of in-memory shiplog entries."""
        return max(self.peak_log_entries, self.shiplog.peak_entries)

    def reseed_counts(self) -> tuple[int, int]:
        """(reseeds from the archive, reseeds from a live snapshot)."""
        from_archive = from_snapshot = 0
        for replicator in (*self.retired_replicators, self.replicator):
            from_archive += replicator.reseeds_from_archive
            from_snapshot += replicator.reseeds_from_snapshot
        return from_archive, from_snapshot


def _pager_frames(db) -> tuple:
    """Full page images of a database's current state (state transfer)."""
    pager = db.pager
    return tuple(
        NvFrame(pno, 0, bytes(pager.page_image(pno)), 0, commit=False)
        for pno in range(1, pager.n_pages + 1)
    )
