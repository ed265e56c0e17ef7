"""Replication chaos: storms against the shipped log, and the oracle.

One scenario runs a full replicated deployment — primary service under
concurrent client sessions, N follower machines, a fault-injected
shipping channel — and audits the replication promises:

* **bounded staleness** — a follower's snapshot reads always equal the
  sealed history *at its own durable cursor*: never a torn or unsealed
  write, never rows outside the committed prefix;
* **mode-durability** — a transaction acknowledged under
  ``sync``/``semisync`` survives primary power loss as long as one of
  the followers that held it durable at ack time survives; ``async``
  promises local durability only;
* **failover** — promotion elects the longest durable prefix among live
  followers; everything acknowledged under the mode's promise is still
  there after the new primary takes over, and every surviving follower
  converges to the new history;
* **liveness** — clients never wedge behind the replication gate
  (enforced with the scheduler's deadline watchdog), and followers
  catch up to the head once the storm ends.

The model is keyed to *sealed epochs*: ``states[s]`` is the row set
after the first ``s`` sealed epochs, maintained by the shipping log's
``on_seal`` callback — the exact stream followers replay.  Failover
truncates the model to the promotion watermark; released epochs above
it are checked against the ack records (who held them durable) before
being declared legitimately lost.

With the segment archive enabled (the default), the same storms also
exercise the cold store: sealed epochs spill to ext4 segment files,
power cuts land mid-archive-write, GC races slow followers, and
post-failover catch-up reseeds from disk.  Two archive-specific oracles
ride along: every GC'd epoch must be at or below ``min(live fleet's
durable cursor, checkpoint floor)`` (``gc-premature`` otherwise), and a
caught-up follower's pages must be *byte-identical* to the primary's —
reseed-from-disk is held to the same standard as live snapshot reseed.

``sabotage`` plants a planted-bug self-test the oracle must catch:
``"torn"`` — followers skip segment verification and the primary ships
one deliberately torn segment; ``"gc"`` — the archive GC ignores
follower cursors and the floor (trimming epochs a follower still
needs).  The legacy boolean form maps to ``"torn"``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace

from repro.errors import PowerFailure
from repro.faults import FaultPlan, IoFaultSpec, ShipFaultSpec
from repro.harness.codec import load_scenario, scenario_to_dict
from repro.harness.minimize import SESSION_PASSES, shrink_each, try_each
from repro.harness.minimize import minimize as minimize_scenario
from repro.harness.kernel import Outcome, job_failures, rotate
from repro.harness.streams import fold_ops, session_streams
from repro.replication.cluster import Cluster, ReplicationConfig
from repro.service.sched import Scheduler
from repro.service.server import ServiceConfig
from repro.service.session import ClientSession
from repro.torture.workload import TABLE
from repro.wal.base import SyncMode
from repro.wal.nvwal import SCHEMES

#: Per-seed scheme rotation: one eager, one lazy-sync, one checksum.
ROTATION = ("uh_ls_diff", "eager", "uh_cs_diff")

#: Per-seed durability-mode rotation.
MODE_ROTATION = ("semisync", "sync", "async")

_READ_SQL = f"SELECT k, v FROM {TABLE}"

_GRIM_POLL_NS = 100_000
_SETTLE_POLL_NS = 200_000


@dataclass(frozen=True)
class ReplicationScenario:
    """One reproducible replication chaos experiment (JSON round-trips)."""

    seed: int
    scheme: str
    mode: str
    #: per-session transaction streams (see service chaos).
    streams: tuple
    followers: int = 2
    #: only ``plan.ship`` is used — channel faults, not device faults.
    plan: FaultPlan | None = None
    #: simulated time at which the primary machine power-fails (0 = never).
    writer_kill_ns: int = 0
    #: ((follower_idx, down_ns, up_ns), ...); up_ns 0 = stays down.
    follower_kills: tuple = ()
    #: "" (off), "torn" (torn-segment + lenient followers), or "gc"
    #: (GC-past-durable-cursor bug in the archive trim).
    sabotage: str = ""
    read_interval_ns: int = 600_000
    #: The ext4 cold store; False runs the legacy memory-resident mode.
    archive: bool = True
    #: Aggressive cadences (vs the production defaults) so short storms
    #: still roll files, advance the floor, and GC.
    archive_epochs_per_file: int = 4
    archive_snapshot_every: int = 12
    archive_gc_every: int = 4
    checkpoint_threshold: int = 48
    group_commit: bool = True
    #: budget for followers to reach the head after the clients drain.
    settle_ns: int = 60_000_000
    #: absolute sim-time liveness deadline for the client phase.
    deadline_ns: int = 4_000_000_000


def build_ship_plan(seed: int, faults) -> FaultPlan | None:
    """The standard replication fault plan.

    Channel rates are aggressive — a third of batches suffer
    *something* — but every fault is absorbable: drops are
    consecutive-capped so resends always land, duplicates and reorders
    are no-ops against the seq cursor, and corruption is rejected by
    segment verification.  The ``"archive"`` kind adds transient I/O
    errors on the cold-store device, absorbed by the filesystem's
    bounded retry.
    """
    faults = set(faults)
    unknown = faults - {"drop", "dup", "reorder", "corrupt", "archive"}
    if unknown:
        raise ValueError(f"unknown ship fault kinds: {sorted(unknown)}")
    if not faults:
        return None
    spec = ShipFaultSpec(
        drop_rate=0.15 if "drop" in faults else 0.0,
        duplicate_rate=0.15 if "dup" in faults else 0.0,
        reorder_rate=0.20 if "reorder" in faults else 0.0,
        corrupt_rate=0.08 if "corrupt" in faults else 0.0,
    )
    archive_io = (
        IoFaultSpec(read_error_rate=0.04, write_error_rate=0.04)
        if "archive" in faults
        else None
    )
    return FaultPlan(seed=seed, ship=spec, archive_io=archive_io)


def _sabotage_kind(value) -> str:
    """Normalize the sabotage field (legacy bool traces map to torn)."""
    if value is True:
        return "torn"
    if value is False or value is None:
        return ""
    if value not in ("", "torn", "gc"):
        raise ValueError(f"unknown sabotage kind {value!r}")
    return value


def make_scenario(
    seed: int,
    sessions: int = 4,
    txns: int = 36,
    txn_size: int = 3,
    scheme: str = "uh_ls_diff",
    mode: str = "semisync",
    followers: int = 2,
    faults=("drop", "dup", "reorder", "corrupt", "archive"),
    writer_kill: bool = False,
    follower_kills: int = 0,
    sabotage="",
    group_commit: bool = True,
    archive: bool = True,
) -> ReplicationScenario:
    """Build a scenario; kill times are placed by a clean profiling run.

    The scenario is first run without any kills to measure its simulated
    duration, and the writer/follower kill times are placed at seeded
    fractions of it — deterministic, and dense enough across seeds to
    land mid-epoch.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick from {sorted(SCHEMES)}")
    scenario = ReplicationScenario(
        seed=seed,
        scheme=scheme,
        mode=mode,
        streams=session_streams(seed, sessions, txns, txn_size),
        followers=followers,
        plan=build_ship_plan(seed, faults),
        sabotage=_sabotage_kind(sabotage),
        group_commit=group_commit,
        archive=archive,
    )
    if not writer_kill and follower_kills <= 0:
        return scenario
    duration = _measure_duration(scenario)
    rng = random.Random((seed * 0x2545F491 + 0x3C6EF35F) & 0xFFFFFFFF)
    writer_kill_ns = 0
    if writer_kill:
        writer_kill_ns = max(1, int(duration * (0.30 + 0.40 * rng.random())))
    kills = []
    for _ in range(max(0, follower_kills)):
        idx = rng.randrange(followers)
        down_ns = max(1, int(duration * (0.10 + 0.60 * rng.random())))
        if rng.random() < 0.3:
            up_ns = 0  # stays down
        else:
            up_ns = down_ns + max(1, int(duration * (0.15 + 0.25 * rng.random())))
        kills.append((idx, down_ns, up_ns))
    if writer_kill_ns and kills:
        # Never leave the cluster unrecoverable by construction: if every
        # follower is scheduled to die for good, grant the last kill a
        # restart before the failover would need it.
        doomed = {idx for idx, _down, up in kills if up == 0}
        if doomed >= set(range(followers)):
            idx, down_ns, _up = kills[-1]
            kills[-1] = (idx, down_ns, down_ns + max(1, duration // 5))
    return replace(
        scenario, writer_kill_ns=writer_kill_ns, follower_kills=tuple(kills)
    )


def _measure_duration(scenario: ReplicationScenario) -> int:
    """Simulated duration of the kill-free run (kill-point space)."""
    probe = replace(
        scenario, writer_kill_ns=0, follower_kills=(), sabotage=""
    )
    driver = _Driver(probe)
    driver.run()
    return max(1, int(driver.clock.now_ns - driver.start_ns))


class _Driver:
    """Mutable state of one replication chaos run."""

    def __init__(self, scenario: ReplicationScenario) -> None:
        self.scenario = scenario
        #: Checksum (asynchronous) commit may shed the last commit window
        #: of a follower's own WAL at its power loss, legitimately
        #: regressing its durable cursor — the one scheme-sanctioned
        #: excuse for losing a released epoch at failover.
        self.relaxed = SCHEMES[scenario.scheme]().sync is SyncMode.CHECKSUM
        self.violations: list[str] = []
        self.kv: dict = {}
        #: states[s]: sorted rows after s sealed epochs.
        self.states: list = [[]]
        #: commit_log[s]: the (session_id, ops) metas epoch s carried.
        self.commit_log: list = [()]
        #: group commit: epoch members applied but not yet sealed.
        self.applied_tail: list = []
        #: seq -> frozenset of follower ids durable at release time.
        self.ack_records: dict[int, frozenset] = {}
        self.released = 0
        self.lost_released = 0
        self.crashes = 0
        self.follower_crashes = 0
        self.follower_restarts = 0
        self.follower_reads = 0
        self.stale_reads = 0
        self.gc_deleted = 0
        self.gc_events = 0
        self.floor_advances = 0
        self.stats_total: Counter = Counter()
        self.failover_ms: float | None = None
        self.first_ack_after_failover_ms: float | None = None
        self._writer_killed = False
        self._kills_done: set[int] = set()
        self._restarts_done: set[int] = set()
        self.cluster: Cluster | None = None
        self.clock = None
        #: Clock reading once the cluster is built (machine boots advance
        #: the shared clock); every scenario time is relative to this.
        self.start_ns = 0

    # -- model hooks ---------------------------------------------------

    def _on_seal(self, entry) -> None:
        for meta in entry.metas:
            if self.applied_tail and self.applied_tail[0] == meta:
                self.applied_tail.pop(0)
            self.kv = fold_ops(self.kv, meta[1])
        self.states.append(sorted(self.kv.items()))
        self.commit_log.append(entry.metas)
        if entry.seq != len(self.states) - 1:
            self.violations.append(
                f"error: sealed epoch {entry.seq} does not extend the model "
                f"head {len(self.states) - 1}"
            )

    def _on_release(self, seq: int, acked_by: frozenset) -> None:
        self.ack_records[seq] = acked_by
        self.released = max(self.released, seq)
        if (
            self._writer_killed
            and self.first_ack_after_failover_ms is None
            and self.cluster.kill_ns is not None
        ):
            self.first_ack_after_failover_ms = (
                self.clock.now_ns - self.cluster.kill_ns
            ) / 1e6

    def _on_apply(self, session_id: str, ops) -> None:
        self.applied_tail.append((session_id, ops))

    def _on_snapshot(self, seq: int) -> None:
        self.floor_advances += 1

    def _on_gc(self, deleted_seqs, snap_seqs, limit) -> None:
        """GC oracle: nothing a live follower needs — and nothing above
        the checkpoint floor — is ever deleted."""
        self.gc_events += 1
        self.gc_deleted += len(deleted_seqs)
        if not deleted_seqs:
            return
        live = [
            f
            for f in self.cluster.followers
            if f.alive and f.role == "follower"
        ]
        min_cursor = min((f.durable_seq for f in live), default=None)
        floor = self.cluster.archive.floor if self.cluster.archive else None
        worst = max(deleted_seqs)
        if min_cursor is not None and worst > min_cursor:
            self.violations.append(
                f"gc-premature: archived epoch {worst} deleted while a "
                f"live follower's durable cursor is {min_cursor}"
            )
        elif floor is not None and worst > floor:
            self.violations.append(
                f"gc-premature: archived epoch {worst} deleted above the "
                f"checkpoint floor {floor}"
            )

    # -- read oracles --------------------------------------------------

    def _check_primary_read(self, rows) -> None:
        kv = dict(self.kv)
        for _sid, ops in self.applied_tail:
            kv = fold_ops(kv, ops)
        if sorted(rows) != sorted(kv.items()):
            self.stale_reads += 1
            self.violations.append(
                f"stale-read: primary read diverged from the sealed history "
                f"after {len(self.states) - 1} epoch(s)"
            )

    def _follower_reader(self, node):
        """Daemon: bounded-staleness checked reads against one follower."""
        while True:
            yield self.scenario.read_interval_ns
            if not node.alive or node.role != "follower":
                continue
            if node.term != self.cluster.term:
                continue  # awaiting post-failover state transfer
            seq = node.durable_seq
            if seq >= len(self.states):
                self.violations.append(
                    f"replica-divergence: follower {node.node_id} cursor "
                    f"{seq} is beyond the sealed history "
                    f"({len(self.states) - 1})"
                )
                continue
            try:
                rows = node.db.snapshot_query(_READ_SQL)
            except Exception:  # noqa: BLE001 - cursor 0 / no table yet
                continue
            if sorted(rows) != self.states[seq]:
                self.stale_reads += 1
                self.violations.append(
                    f"replica-divergence: follower {node.node_id} at seq "
                    f"{seq} served rows outside the sealed history"
                )
            else:
                self.follower_reads += 1

    # -- kills ---------------------------------------------------------

    def _grim_job(self):
        """Daemon: scripted follower kills/restarts and the writer kill."""
        sc = self.scenario
        while True:
            yield _GRIM_POLL_NS
            now = self.clock.now_ns - self.start_ns
            for i, (idx, down_ns, up_ns) in enumerate(sc.follower_kills):
                node = self.cluster.followers[idx]
                if i not in self._kills_done and now >= down_ns:
                    self._kills_done.add(i)
                    if node.alive and node.role == "follower":
                        node.kill()
                        self.follower_crashes += 1
                elif (
                    i in self._kills_done
                    and i not in self._restarts_done
                    and up_ns
                    and now >= up_ns
                ):
                    self._restarts_done.add(i)
                    if not node.alive:
                        node.restart()
                        self.follower_restarts += 1
            if (
                sc.writer_kill_ns
                and not self._writer_killed
                and now >= sc.writer_kill_ns
            ):
                self._writer_killed = True
                self.cluster.kill_primary()
                raise PowerFailure("replication chaos: primary power cut")

    # -- failover ------------------------------------------------------

    def _failover(self) -> bool:
        cluster = self.cluster
        if not cluster.live_followers():
            # Everyone is down with the primary; if a restart is
            # scheduled, advance to it — a cold follower boot is the
            # last line of the failover protocol.
            pending = [
                (up_ns, i, idx)
                for i, (idx, _down, up_ns) in enumerate(
                    self.scenario.follower_kills
                )
                if up_ns
                and i not in self._restarts_done
                and not cluster.followers[idx].alive
            ]
            if not pending:
                self.violations.append(
                    "failover-lost: the primary died with every follower "
                    "down and none scheduled to return — unrecoverable"
                )
                return False
            up_ns, i, idx = min(pending)
            if self.start_ns + up_ns > self.clock.now_ns:
                self.clock.advance_to(self.start_ns + up_ns)
            self._restarts_done.add(i)
            cluster.followers[idx].restart()
            self.follower_restarts += 1
        watermark = max(f.durable_seq for f in cluster.live_followers())
        self._truncate_model(watermark)
        promoted = cluster.promote()
        if promoted is None:
            self.violations.append(
                "failover-lost: promotion found no live follower"
            )
            return False
        node, promoted_watermark, _scrub = promoted
        if promoted_watermark != watermark:
            self.violations.append(
                f"error: promotion watermark {promoted_watermark} != the "
                f"longest live durable prefix {watermark}"
            )
        if self.failover_ms is None and cluster.kill_ns is not None:
            self.failover_ms = (self.clock.now_ns - cluster.kill_ns) / 1e6
        return True

    def _truncate_model(self, watermark: int) -> None:
        """Epochs above the watermark died with the primary; audit them."""
        head = len(self.states) - 1
        for seq in range(watermark + 1, head + 1):
            acked_by = self.ack_records.get(seq)
            if acked_by is None:
                continue  # never released: clients will resubmit
            self.lost_released += len(self.commit_log[seq])
            holders_alive = sorted(
                node_id
                for node_id in acked_by
                if self.cluster.followers[node_id].alive
            )
            if holders_alive and not self.relaxed:
                self.violations.append(
                    f"failover-lost: released epoch {seq} vanished at "
                    f"failover although follower(s) {holders_alive} that "
                    "held it durable are still alive"
                )
        del self.states[watermark + 1 :]
        del self.commit_log[watermark + 1 :]
        self.kv = dict(self.states[watermark])
        self.applied_tail = []
        self.ack_records = {
            seq: who for seq, who in self.ack_records.items() if seq <= watermark
        }
        self.released = min(self.released, watermark)

    # -- settle + audit ------------------------------------------------

    def _caught_up(self) -> bool:
        head = len(self.states) - 1
        for node in self.cluster.followers:
            if not node.alive or node.role != "follower":
                continue
            if node.term != self.cluster.term or node.durable_seq != head:
                return False
        return True

    def _settle(self) -> None:
        """Drain the channel until every live follower reaches the head."""
        while True:
            scheduler = Scheduler(self.clock)

            def waiter():
                deadline = self.clock.now_ns + self.scenario.settle_ns
                while self.clock.now_ns < deadline:
                    if self._caught_up():
                        return
                    yield _SETTLE_POLL_NS

            scheduler.spawn("settle", waiter())
            scheduler.spawn(
                "replicator", self.cluster.replicator.daemon(), daemon=True
            )
            if self._grim_pending():
                scheduler.spawn("grim", self._grim_job(), daemon=True)
            try:
                scheduler.run()
            except PowerFailure:
                # The scripted writer kill landed after the clients
                # drained; fail over and settle onto the new primary.
                self.crashes += 1
                scheduler.abandon()
                self.applied_tail.clear()
                if not self._failover():
                    return
                continue
            break
        if not self._caught_up():
            head = len(self.states) - 1
            for node in self.cluster.followers:
                if not node.alive or node.role != "follower":
                    continue
                if node.term != self.cluster.term or node.durable_seq != head:
                    self.violations.append(
                        "replication-stalled: follower "
                        f"{node.node_id} stuck at seq {node.durable_seq} "
                        f"term {node.term} (head {head} term "
                        f"{self.cluster.term}) after the settle budget"
                    )

    def _grim_pending(self) -> bool:
        sc = self.scenario
        if sc.writer_kill_ns and not self._writer_killed:
            return True
        return any(
            i not in self._restarts_done and up_ns
            for i, (_idx, _down, up_ns) in enumerate(sc.follower_kills)
        ) or any(
            i not in self._kills_done
            for i in range(len(sc.follower_kills))
        )

    def _final_audit(self) -> None:
        head = len(self.states) - 1
        expected = self.states[head]
        try:
            rows = sorted(self.cluster.db.dump_table(TABLE))
        except Exception as exc:  # noqa: BLE001 - a broken dump is a finding
            self.violations.append(
                f"ack-lost: primary final dump failed: {type(exc).__name__}"
            )
            rows = None
        if rows is not None and rows != expected:
            self.violations.append(
                f"ack-lost: primary final state ({len(rows)} rows) does not "
                f"match the sealed history at seq {head} "
                f"({len(expected)} rows)"
            )
        for node in self.cluster.followers:
            if not node.alive or node.role != "follower":
                continue
            if node.term != self.cluster.term or node.durable_seq != head:
                continue  # already reported by _settle
            try:
                frows = sorted(node.db.dump_table(TABLE))
            except Exception as exc:  # noqa: BLE001
                self.violations.append(
                    f"replica-divergence: follower {node.node_id} final "
                    f"dump failed: {type(exc).__name__}"
                )
                continue
            if frows != expected:
                self.violations.append(
                    f"replica-divergence: follower {node.node_id} final "
                    f"state ({len(frows)} rows) != sealed history at seq "
                    f"{head} ({len(expected)} rows)"
                )
                continue
            # Byte-identity: however this follower got here — live
            # entries, archived epochs, floor snapshot + roll-forward,
            # or a legacy live snapshot — its pages must equal the
            # primary's bit for bit.
            primary_pager = self.cluster.db.pager
            pager = node.db.pager
            if pager.n_pages != primary_pager.n_pages:
                self.violations.append(
                    f"replica-divergence: follower {node.node_id} has "
                    f"{pager.n_pages} pages, primary has "
                    f"{primary_pager.n_pages}"
                )
                continue
            torn_pages = [
                pno
                for pno in range(1, primary_pager.n_pages + 1)
                if bytes(pager.page_image(pno))
                != bytes(primary_pager.page_image(pno))
            ]
            if torn_pages:
                self.violations.append(
                    f"replica-divergence: follower {node.node_id} pages "
                    f"{torn_pages[:8]} are not byte-identical to the "
                    "primary's"
                )

    # -- main loop -----------------------------------------------------

    def run(self) -> Outcome:
        sc = self.scenario
        cluster = Cluster(
            ReplicationConfig(
                followers=sc.followers,
                mode=sc.mode,
                scheme=sc.scheme,
                checkpoint_threshold=sc.checkpoint_threshold,
                lenient_followers=sc.sabotage == "torn",
                sabotage_seq=2 if sc.sabotage == "torn" else 0,
                archive=sc.archive,
                archive_epochs_per_file=sc.archive_epochs_per_file,
                archive_snapshot_every=sc.archive_snapshot_every,
                archive_gc_every=sc.archive_gc_every,
                gc_sabotage=sc.sabotage == "gc",
            ),
            seed=sc.seed,
            ship_spec=sc.plan.ship if sc.plan is not None else None,
            on_seal=self._on_seal,
            on_release=self._on_release,
            archive_io_spec=sc.plan.archive_io if sc.plan is not None else None,
            on_gc=self._on_gc,
            on_snapshot=self._on_snapshot,
        )
        self.cluster = cluster
        self.clock = cluster.clock
        self.start_ns = self.clock.now_ns
        service_config = ServiceConfig(group_commit=sc.group_commit)
        clients = [
            ClientSession(
                service=None,
                session_id=f"c{s}",
                deadline_budget_ns=(4_000_000 if s % 3 == 2 else 60_000_000),
            )
            for s in range(len(sc.streams))
        ]
        for client, stream in zip(clients, sc.streams):
            for txn in stream:
                client.enqueue(txn)

        stalled = False
        while True:
            scheduler = Scheduler(self.clock)
            service = cluster.start_service(
                service_config, seed=sc.seed, on_apply=self._on_apply
            )
            live = False
            for client in clients:
                client.attach(service)
                if client.pending and not client.gave_up:
                    live = True
                    scheduler.spawn(
                        client.session_id, self._client_job(client, service)
                    )
            if not live:
                break
            scheduler.spawn("maintenance", service.maintenance(), daemon=True)
            if sc.group_commit:
                scheduler.spawn(
                    "batcher", service.commit_batcher(), daemon=True
                )
            scheduler.spawn(
                "replicator", cluster.replicator.daemon(), daemon=True
            )
            for node in cluster.followers:
                scheduler.spawn(
                    f"reader{node.node_id}",
                    self._follower_reader(node),
                    daemon=True,
                )
            if sc.writer_kill_ns or sc.follower_kills:
                scheduler.spawn("grim", self._grim_job(), daemon=True)
            try:
                scheduler.run(deadline_ns=self.start_ns + sc.deadline_ns)
                self.stats_total.update(service.stats.as_dict())
                if any(not j.done and not j.daemon for j in scheduler.jobs):
                    stalled = True
                    self.violations.append(
                        "replication-stalled: client(s) still blocked at "
                        f"the {sc.deadline_ns // 1_000_000} ms liveness "
                        "deadline"
                    )
                    scheduler.abandon()
                    break
                self.violations.extend(job_failures(scheduler))
                break
            except PowerFailure:
                self.crashes += 1
                scheduler.abandon()
                self.stats_total.update(service.stats.as_dict())
                # Open-epoch members died with the primary's DRAM; the
                # clients resubmit anything never acknowledged.
                self.applied_tail.clear()
                if not self._failover():
                    return self._outcome()

        for client in clients:
            if client.gave_up:
                self.violations.append(
                    f"starved: client {client.session_id} gave up with "
                    f"{len(client.pending)} txn(s) pending "
                    f"(rejections: {client.rejections})"
                )

        if not stalled:
            self._settle()
            self._final_audit()
        return self._outcome()

    def _client_job(self, client: ClientSession, service):
        runner = client.run()
        acked_before = len(client.acked)
        for delay in runner:
            yield delay
            if len(client.acked) >= acked_before + 2:
                acked_before = len(client.acked)
                try:
                    rows = yield from service.submit_read(
                        client.session_id, _READ_SQL
                    )
                except Exception:  # noqa: BLE001 - reads may be refused
                    continue
                self._check_primary_read(rows)

    def _ship_fault_counts(self) -> dict:
        counts = {"dropped": 0, "duplicated": 0, "reordered": 0, "corrupted": 0}
        for replicator in (
            *self.cluster.retired_replicators,
            self.cluster.replicator,
        ):
            for channel in replicator.channels.values():
                injector = channel.injector
                if injector is None:
                    continue
                counts["dropped"] += injector.dropped
                counts["duplicated"] += injector.duplicated
                counts["reordered"] += injector.reordered
                counts["corrupted"] += injector.corrupted
        return counts

    def _archive_summary(self) -> dict | None:
        cluster = self.cluster
        if cluster is None or cluster.archive is None:
            return None
        archive = cluster.archive
        from_archive, from_snapshot = cluster.reseed_counts()
        injector = (
            cluster.archive_device.fault_injector
            if cluster.archive_device is not None
            else None
        )
        return {
            "files": archive.files_count,
            "bytes": archive.bytes_total,
            "head": archive.head,
            "min_seq": archive.min_seq,
            "floor": archive.floor,
            "gc_events": self.gc_events,
            "gc_segments": archive.gc_segments,
            "gc_bytes": archive.gc_bytes,
            "snapshots": archive.snapshots_written,
            "floor_fallbacks": archive.floor_fallbacks,
            "floor_advances": self.floor_advances,
            "io_faults": injector.injected if injector is not None else 0,
            "reseeds_from_archive": from_archive,
            "reseeds_from_snapshot": from_snapshot,
            "peak_log_entries": cluster.log_peak(),
        }

    def _outcome(self) -> Outcome:
        lag = sorted(self.cluster.lag_samples()) if self.cluster else []
        summary = {
            "seed": self.scenario.seed,
            "scheme": self.scenario.scheme,
            "mode": self.scenario.mode,
            "sessions": len(self.scenario.streams),
            "followers": self.scenario.followers,
            "acked": self.stats_total.get("txns_acked", 0),
            "sealed": len(self.states) - 1,
            "released": self.released,
            "crashes": self.crashes,
            "follower_crashes": self.follower_crashes,
            "follower_restarts": self.follower_restarts,
            "promotions": self.cluster.promotions if self.cluster else 0,
            "lost_released": self.lost_released,
            "follower_reads": self.follower_reads,
            "stale_reads": self.stale_reads,
            "relaxed": self.relaxed,
            "ship_faults": self._ship_fault_counts() if self.cluster else {},
            "lag_samples": len(lag),
            "lag_mean_us": (sum(lag) / len(lag) / 1e3) if lag else 0.0,
            "lag_p95_us": (lag[int(len(lag) * 0.95) - 1] / 1e3) if lag else 0.0,
            "lag_max_us": (lag[-1] / 1e3) if lag else 0.0,
            "failover_ms": self.failover_ms,
            "first_ack_after_failover_ms": self.first_ack_after_failover_ms,
            "archive": self._archive_summary(),
            "sim_time_ms": int((self.clock.now_ns - self.start_ns) // 1_000_000)
            if self.clock
            else 0,
            "stats": dict(sorted(self.stats_total.items())),
            "violations": list(self.violations),
        }
        return Outcome(
            violations=tuple(self.violations), summary=summary
        )


def run_replication_chaos(scenario: ReplicationScenario) -> Outcome:
    """Run one scenario end to end; unexpected escapes become findings."""
    try:
        return _Driver(scenario).run()
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        return Outcome(
            violations=(
                f"error: unhandled {type(exc).__name__} escaped the "
                f"replication driver: {exc}",
            ),
            summary={
                "seed": scenario.seed,
                "scheme": scenario.scheme,
                "mode": scenario.mode,
            },
        )


# ----------------------------------------------------------------------
# minimization
# ----------------------------------------------------------------------

#: Shrink passes, in order: structural simplifications first (channel
#: faults, the follower kill script, the writer kill, extra followers,
#: group commit; the cold store last — a gc-sabotage failure needs it
#: and keeps it, a channel-level failure sheds it), then fewer follower
#: kills, then the session workload.  A conditional candidate that falls
#: back to the pass-start scenario re-accepts it when an earlier
#: candidate was taken; that order is what the recorded minimized traces
#: were shrunk with.
MINIMIZE_PASSES = (
    try_each(
        lambda s: (
            replace(s, plan=None),
            replace(s, follower_kills=()),
            replace(s, writer_kill_ns=0),
            replace(s, followers=1)
            if s.followers > 1 and not s.follower_kills
            else s,
            replace(s, group_commit=False),
            replace(s, archive=False) if s.archive else s,
        )
    ),
    shrink_each("follower_kills", min_size=1),
    *SESSION_PASSES,
)


def minimize(scenario: ReplicationScenario) -> ReplicationScenario:
    """The smallest scenario still failing the same way (a scenario that
    does not fail comes back unchanged)."""
    return minimize_scenario(scenario, run_replication_chaos, MINIMIZE_PASSES)


# ----------------------------------------------------------------------
# trace (de)serialization
# ----------------------------------------------------------------------


def scenario_from_dict(data: dict) -> ReplicationScenario:
    # Traces recorded before the cold store existed replay in the mode
    # they ran in: archive off.  Legacy boolean sabotage maps to "torn".
    scenario = load_scenario(ReplicationScenario, data, archive=False)
    return replace(scenario, sabotage=_sabotage_kind(scenario.sabotage))


# ----------------------------------------------------------------------
# parallel sweep tasks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReplicationTask:
    """Picklable work item for one chaos run (parallel_map-able)."""

    seed: int
    sessions: int = 4
    txns: int = 36
    txn_size: int = 3
    scheme: str = "rotate"
    mode: str = "rotate"
    followers: int = 2
    faults: tuple = ("drop", "dup", "reorder", "corrupt", "archive")
    writer_kill: bool = False
    follower_kills: int = 0
    sabotage: str = ""
    group_commit: bool = True
    archive: bool = True


def run_task(task: ReplicationTask) -> dict:
    """Run one task; result is the summary plus the scenario trace."""
    scenario = make_scenario(
        task.seed,
        sessions=task.sessions,
        txns=task.txns,
        txn_size=task.txn_size,
        scheme=rotate(task.scheme, ROTATION, task.seed),
        mode=rotate(task.mode, MODE_ROTATION, task.seed),
        followers=task.followers,
        faults=task.faults,
        writer_kill=task.writer_kill,
        follower_kills=task.follower_kills,
        sabotage=task.sabotage,
        group_commit=task.group_commit,
        archive=task.archive,
    )
    outcome = run_replication_chaos(scenario)
    return {**outcome.summary, "scenario": scenario_to_dict(scenario)}
