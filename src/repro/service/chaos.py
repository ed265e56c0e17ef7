"""Chaos harness: concurrent clients + fault storms + power cycles.

One :class:`ChaosScenario` is a fully reproducible concurrent-service
experiment: seeded per-session transaction streams, an NVWAL scheme, a
:class:`~repro.faults.plan.FaultPlan`, runtime NVRAM decay *storms*
(media faults injected mid-run with no power loss — modeling cells that
decay while the machine is up), mid-flight power failures at scripted
primitive-op counts, and an optional final power cycle so every run ends
by proving recoverability.

Oracles (generalizing the torture driver's single-session checks):

* **ack durability** — after every recovery, the database must match the
  fold of the acknowledged-transaction log at an *allowed* boundary: the
  full log (plus at most one unacknowledged in-flight transaction whose
  commit landed) under power faults alone; down to the last completed
  checkpoint when media decay, storms, or an asynchronous-commit scheme
  may legitimately shed the WAL tail.  A violation means a request was
  acknowledged and rolled back — exactly the bug the ``--sabotage``
  self-test plants.
* **read freshness** — every read a client completes must equal the fold
  of the ack log at that moment: an in-flight writer must be invisible,
  and degraded read-only mode must never serve stale-beyond-snapshot
  rows.
* **liveness** — no client may exhaust its resubmission budget, and the
  maintenance daemon must never die.

Results are JSON-able and digested (sha256 over canonical JSON), and the
digest is identical for any ``--jobs`` value.  Failing scenarios shrink
via :func:`minimize` into replayable JSON traces.

Run ``python -m repro.service.chaos --help`` (or ``python -m
repro.service``) for the CLI.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from repro.config import tuna
from repro.db.database import Database
from repro.errors import IoError, PowerFailure
from repro.faults import FaultPlan, IoFaultSpec, MediaFaultSpec
from repro.harness.codec import load_scenario, scenario_to_dict
from repro.harness.minimize import SESSION_PASSES, shrink_each, try_each
from repro.harness.minimize import minimize as minimize_scenario
from repro.harness.kernel import Outcome, job_failures, rotate
from repro.harness.streams import fold_ops, session_streams
from repro.service.sched import Scheduler
from repro.service.server import DatabaseService, ServiceConfig
from repro.service.session import ClientSession
from repro.system import System
from repro.telemetry.collector import Collector
from repro.telemetry.export import build_export, canonical_json, export_digest
from repro.torture.workload import TABLE
from repro.wal.base import SyncMode
from repro.wal.nvwal import ROTATION, SCHEMES, NvwalBackend

DB_NAME = "chaos.db"

#: Checkpoint threshold for chaos runs: small enough that multi-hundred-
#: transaction runs cross many checkpoints (the relaxed oracle's floor).
DEFAULT_CHAOS_THRESHOLD = 48

#: Attempts at rebooting + recovering before recovery counts as dead.
_RECOVERY_ATTEMPTS = 10

_READ_SQL = f"SELECT k, v FROM {TABLE}"


@dataclass(frozen=True)
class ChaosScenario:
    """One reproducible concurrent chaos experiment (JSON round-trips)."""

    seed: int
    scheme: str
    #: per-session transaction streams; streams[s] is a tuple of txns,
    #: each a tuple of ("insert"|"update"|"delete", key, value) ops.
    streams: tuple
    plan: FaultPlan | None = None
    #: runtime NVRAM decay events (requires plan.media); each storm
    #: re-applies the media spec to the durable image mid-run.
    storms: int = 0
    storm_interval_ns: int = 4_000_000
    #: primitive-op counts (per power-on epoch) at which power is cut.
    power_cycles: tuple = ()
    checkpoint_threshold: int = DEFAULT_CHAOS_THRESHOLD
    #: plant the ack-before-commit bug (harness self-test).  With
    #: ``group_commit`` this acks parked writers before the epoch
    #: barrier — the ack-before-epoch-barrier bug class.
    sabotage: bool = False
    #: cut power after the clean drain and prove recovery one last time.
    final_power_cycle: bool = True
    #: issue a freshness-checked read after every Nth acked txn.
    read_every: int = 2
    #: run the service with the commit coalescer (epoch-batched WAL).
    group_commit: bool = False
    #: stream generator: "mobi" (the original free-key insert/update/
    #: delete mix), "ycsb" (zipfian-skewed hot-key read-write mix), or
    #: "queue" (FIFO enqueue/dequeue — durable-queue delivery under
    #: chaos).  All emit the same (kind, key, value) op language, so the
    #: service, fold model, and oracles are workload-agnostic.
    workload: str = "mobi"


# ----------------------------------------------------------------------
# scenario construction
# ----------------------------------------------------------------------


def build_fault_plan(seed: int, faults) -> FaultPlan | None:
    """The standard chaos fault plan.

    IO error rates are mild but ``max_consecutive`` *exceeds* the
    filesystem's bounded retry budget, so transient IoErrors genuinely
    escape to the service layer and exercise its backoff machinery —
    unlike the torture plan, which stays below the budget.
    """
    faults = set(faults)
    unknown = faults - {"power", "media", "io"}
    if unknown:
        raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
    media = None
    io = None
    if "media" in faults:
        media = MediaFaultSpec(bit_flips=1, stuck_units=1, poison_units=2)
    if "io" in faults:
        # The filesystem absorbs up to four consecutive failures, so an
        # IoError reaches the service only after a streak of 4+ — rates
        # must be high for that to happen at all (0.45^4 ~ 4% per op).
        io = IoFaultSpec(
            read_error_rate=0.35, write_error_rate=0.45, max_consecutive=8
        )
    if media is None and io is None:
        return None
    return FaultPlan(seed=seed, media=media, io=io)


def make_scenario(
    seed: int,
    sessions: int = 4,
    txns: int = 40,
    txn_size: int = 3,
    scheme: str = "uh_ls_diff",
    faults=("power",),
    storms: int = 0,
    power_cycles: int = 0,
    checkpoint_threshold: int = DEFAULT_CHAOS_THRESHOLD,
    sabotage: bool = False,
    group_commit: bool = False,
    workload: str = "mobi",
) -> ChaosScenario:
    """Build a scenario; crash points are placed by profiling.

    ``txns`` is the total across all sessions.  When ``power_cycles`` is
    positive, the scenario is first run uncrashed (same seed, same
    storms) to measure its primitive-op count, and the cycles are placed
    at seeded fractions of it — deterministic, and dense enough across
    seeds to land inside commit windows.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick from {sorted(SCHEMES)}")
    scenario = ChaosScenario(
        seed=seed,
        scheme=scheme,
        streams=session_streams(seed, sessions, txns, txn_size, workload),
        plan=build_fault_plan(seed, faults),
        storms=storms,
        checkpoint_threshold=checkpoint_threshold,
        sabotage=sabotage,
        group_commit=group_commit,
        workload=workload,
    )
    if power_cycles > 0:
        total = _measure_ops(scenario)
        import random as _random

        rng = _random.Random((seed * 0x2545F491 + 0x3C6EF35F) & 0xFFFFFFFF)
        cycles = sorted(
            max(1, int(total * (0.10 + 0.80 * rng.random())))
            for _ in range(power_cycles)
        )
        scenario = replace(scenario, power_cycles=tuple(cycles))
    return scenario


def _measure_ops(scenario: ChaosScenario) -> int:
    """Primitive-op count of the uncrashed run (crash-point space)."""
    probe = replace(scenario, power_cycles=(), final_power_cycle=False)
    driver = _Driver(probe, count_ops=True)
    driver.run()
    return driver.ops_counted


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------


class _Driver:
    """Mutable state of one chaos run: model, oracle, epoch loop."""

    def __init__(self, scenario: ChaosScenario, count_ops: bool = False) -> None:
        self.scenario = scenario
        # Media decay (at power loss or via storms) can legitimately shed
        # the un-checkpointed WAL tail, and asynchronous (checksum)
        # commit can shed the last commit window; everything else must
        # hold every acknowledged transaction.
        self.relaxed = (
            (scenario.plan is not None and scenario.plan.media is not None)
            or scenario.storms > 0
            or SCHEMES[scenario.scheme]().sync is SyncMode.CHECKSUM
        )
        self.violations: list[str] = []
        #: commit log: (session_id, ops) in acknowledgement order.
        self.acks: list = []
        #: states[i]: sorted rows after i acknowledged txns.
        self.states: list = [[]]
        self.kv: dict = {}
        #: durability floor (index into acks) from completed checkpoints.
        self.floor = 0
        #: group commit: (session_id, ops) applied into the open epoch —
        #: visible to readers, not yet durable or acknowledged.
        self.applied_tail: list = []
        self.storms_done = 0
        self.crashes = 0
        self.shed_acked = 0
        self.stale_reads = 0
        self.epochs = 0
        self.stats_total: Counter = Counter()
        self.count_ops = count_ops
        self.ops_counted = 0
        #: Telemetry time-series collector (built in run() once the
        #: system exists; one sample list spans every power cycle).
        self.collector = None

    # -- model ---------------------------------------------------------

    _fold = staticmethod(fold_ops)

    def _on_ack(self, session_id: str, ops) -> None:
        if self.applied_tail and self.applied_tail[0] == (session_id, ops):
            self.applied_tail.pop(0)  # the epoch flush is acking in order
        self.kv = self._fold(self.kv, ops)
        self.acks.append((session_id, list(ops)))
        self.states.append(sorted(self.kv.items()))

    def _on_apply(self, session_id: str, ops) -> None:
        """A transaction joined the open epoch: readers see it already,
        the durable ack comes at the epoch barrier."""
        self.applied_tail.append((session_id, ops))

    def _check_read(self, rows) -> None:
        expected = self.states[len(self.acks)]
        if self.applied_tail:
            # Group commit: the snapshot legitimately includes applied-
            # but-unacked epoch members (commit order is fixed the moment
            # they join the epoch).
            kv = dict(self.kv)
            for _sid, ops in self.applied_tail:
                kv = self._fold(kv, ops)
            expected = sorted(kv.items())
        if sorted(rows) != expected:
            self.stale_reads += 1
            self.violations.append(
                f"stale-read: read returned {len(rows)} row(s) not matching "
                f"the committed snapshot after {len(self.acks)} ack(s)"
            )

    # -- world building ------------------------------------------------

    def _build_db(self, system: System) -> Database:
        wal = NvwalBackend(
            system,
            SCHEMES[self.scenario.scheme](),
            checkpoint_threshold=self.scenario.checkpoint_threshold,
        )
        db = Database(system, wal=wal, name=DB_NAME)
        self._track_checkpoints(db)
        return db

    def _track_checkpoints(self, db: Database) -> None:
        inner = db.wal.checkpoint

        def tracked() -> int:
            written = inner()
            self.floor = len(self.acks)
            return written

        db.wal.checkpoint = tracked

    def _recover(self, system: System) -> Database | None:
        """Reboot until the database comes back (bounded IoError retries)."""
        for _attempt in range(_RECOVERY_ATTEMPTS):
            try:
                system.reboot()
                return self._build_db(system)
            except IoError:
                system.power_fail()
        self.violations.append(
            f"error: recovery did not survive {_RECOVERY_ATTEMPTS} attempts "
            "of transient IO failure"
        )
        return None

    # -- oracle --------------------------------------------------------

    def _check_recovery(
        self, db: Database, inflight_heads, epoch_members=()
    ) -> None:
        """Ack-durability oracle; rebases the model on a legitimate shed."""
        if not db.table_exists(TABLE):
            self.violations.append(
                "ack-lost: table missing after recovery despite a durable "
                "pre-run checkpoint"
            )
            self._rebase([])
            return
        rows = sorted(db.dump_table(TABLE))
        n = len(self.acks)
        floor = min(self.floor, n) if self.relaxed else n
        # Whole-epoch landing (group commit): the epoch's close mark
        # persisted before the lights went out, so *all* of its members
        # are durable — none of them acked.  Adopt them in commit order;
        # the clients' resubmissions are idempotent.
        if epoch_members:
            kv = dict(self.kv)
            for _sid, ops in epoch_members:
                kv = self._fold(kv, ops)
            if rows == sorted(kv.items()) and rows != self.states[n]:
                for sid, ops in epoch_members:
                    self._on_ack(sid, ops)
                return
        # In-flight landing: an unacknowledged head-of-queue txn whose
        # commit mark persisted before the lights went out.
        for sid, head in inflight_heads:
            if rows == sorted(self._fold(self.kv, head).items()):
                self._on_ack(sid, head)  # adopt: resubmission is idempotent
                return
        for i in range(n, floor - 1, -1):
            if rows == self.states[i]:
                if i < n:
                    self.shed_acked += n - i
                    self._rebase(self.states[i])
                return
        self.violations.append(
            f"ack-lost: recovered state ({len(rows)} rows) matches no allowed "
            f"boundary in [{floor}, {n}] — an acknowledged transaction was "
            "lost or rolled back"
        )
        self._rebase(rows)

    def _rebase(self, rows) -> None:
        """Restart the model from ``rows``; the durable image IS the floor."""
        self.kv = dict(rows)
        self.acks = []
        self.states = [sorted(self.kv.items())]
        self.floor = 0

    # -- jobs ----------------------------------------------------------

    def _storm_job(self, system: System):
        while self.storms_done < self.scenario.storms:
            yield self.scenario.storm_interval_ns
            if system.nvram_faults is None:
                return
            system.nvram_faults.on_power_loss(system.nvram)
            self.storms_done += 1

    # -- main loop -----------------------------------------------------

    def run(self) -> Outcome:
        scenario = self.scenario
        system = System(tuna(), seed=scenario.seed)
        self.collector = Collector(system.telemetry)
        if scenario.plan is not None:
            system.inject_faults(scenario.plan)
        if self.count_ops:
            counter = [0]

            def hook(_op: str) -> None:
                counter[0] += 1

            system.cpu.crash_hook = hook
        db = self._build_db(system)
        db.execute(f"CREATE TABLE {TABLE} (k INTEGER PRIMARY KEY, v TEXT)")
        # The table's existence must be durable before any chaos; the IO
        # injector caps failure streaks, so a bounded retry always lands.
        for _attempt in range(_RECOVERY_ATTEMPTS):
            try:
                db.checkpoint()
                break
            except IoError:
                continue
        else:
            raise IoError("setup checkpoint did not survive bounded retries")

        config = ServiceConfig(
            ack_before_commit=scenario.sabotage,
            group_commit=scenario.group_commit,
        )
        clients = [
            ClientSession(
                service=None,  # attached per epoch
                session_id=f"c{s}",
                # A third of the clients run tight per-attempt deadlines,
                # exercising DeadlineExceeded + resubmission under load.
                deadline_budget_ns=(
                    4_000_000 if s % 3 == 2 else 60_000_000
                ),
            )
            for s in range(len(scenario.streams))
        ]
        for client, stream in zip(clients, scenario.streams):
            for txn in stream:
                client.enqueue(txn)

        epoch = 0
        service = None
        while True:
            scheduler = Scheduler(system.clock)
            service = DatabaseService(
                db,
                config,
                seed=scenario.seed,
                on_ack=self._on_ack,
                on_apply=self._on_apply,
            )
            live = False
            for client in clients:
                client.attach(service)
                if client.pending and not client.gave_up:
                    live = True
                    scheduler.spawn(
                        client.session_id,
                        self._client_job(client, service),
                    )
            if not live:
                break
            scheduler.spawn("maintenance", service.maintenance(), daemon=True)
            if scenario.group_commit:
                scheduler.spawn(
                    "batcher", service.commit_batcher(), daemon=True
                )
            if self.storms_done < scenario.storms:
                scheduler.spawn(
                    "storms", self._storm_job(system), daemon=True
                )
            # Fresh generator per epoch (abandon() closes the old one);
            # the collector's sample list spans all epochs.
            scheduler.spawn(
                "collector", self.collector.daemon(), daemon=True
            )
            armed = False
            if epoch < len(scenario.power_cycles):
                system.crash.arm(scenario.power_cycles[epoch])
                armed = True
            try:
                scheduler.run()
                if armed:
                    system.crash.disarm()
                self.stats_total.update(service.stats.as_dict())
                self.violations.extend(job_failures(scheduler))
                break
            except PowerFailure:
                self.crashes += 1
                inflight = [
                    (c.session_id, c.pending[0])
                    for c in clients
                    if c.pending and not c.gave_up
                ]
                members = service.epoch_members()
                scheduler.abandon()
                self.stats_total.update(service.stats.as_dict())
                self.applied_tail.clear()  # volatile epoch state is gone
                system.power_fail()
                db = self._recover(system)
                if db is None:
                    return self._outcome(system, None)
                self._check_recovery(db, inflight, epoch_members=members)
                epoch += 1
            self.epochs = epoch

        for client in clients:
            if client.gave_up:
                self.violations.append(
                    f"starved: client {client.session_id} gave up with "
                    f"{len(client.pending)} txn(s) pending "
                    f"(rejections: {client.rejections})"
                )

        if self.count_ops:
            self.ops_counted = counter[0]
            system.cpu.crash_hook = None

        # Every run ends by proving the final state is recoverable.
        if scenario.final_power_cycle:
            self.crashes += 1
            system.power_fail()
            db = self._recover(system)
            if db is None:
                return self._outcome(system, None)
            self._check_recovery(db, inflight_heads=())
        else:
            rows = sorted(db.dump_table(TABLE))
            if rows != self.states[len(self.acks)]:
                self.violations.append(
                    "ack-lost: final state does not match the ack-log fold"
                )
        return self._outcome(system, service)

    def _client_job(self, client: ClientSession, service: DatabaseService):
        """Client run loop plus freshness-checked reads."""
        read_every = self.scenario.read_every
        runner = client.run()
        acked_before = len(client.acked)
        for delay in runner:
            yield delay
            if read_every and len(client.acked) >= acked_before + read_every:
                acked_before = len(client.acked)
                try:
                    rows = yield from service.submit_read(
                        client.session_id, _READ_SQL
                    )
                except Exception:  # noqa: BLE001 - reads may be refused
                    continue
                self._check_read(rows)
        # Drain finished; one final read per client checks the snapshot
        # path once more (degraded mode included).
        if read_every and client.acked:
            try:
                rows = yield from service.submit_read(
                    client.session_id, _READ_SQL
                )
            except Exception:  # noqa: BLE001
                return
            self._check_read(rows)

    def _telemetry_summary(self, system: System) -> dict:
        """Final telemetry state + the oracle's determinism checks.

        Building the export twice must yield identical canonical JSON
        (any hidden nondeterminism — unsorted iteration, host-dependent
        values — trips here), and collector samples must be monotone in
        simulated time.  Both failures are chaos violations.
        """
        registry = system.telemetry
        if not registry.enabled:
            return {"enabled": False}
        doc = build_export(registry, self.collector)
        if canonical_json(doc) != canonical_json(
            build_export(registry, self.collector)
        ):
            self.violations.append("telemetry: export is not deterministic")
        samples = self.collector.samples if self.collector else []
        last_t = -1
        for sample in samples:
            if sample["t_ns"] < last_t:
                self.violations.append(
                    "telemetry: collector samples are not monotone in "
                    "simulated time"
                )
                break
            last_t = sample["t_ns"]
        return {
            "enabled": True,
            "digest": export_digest(doc),
            "samples": len(samples),
            **registry.snapshot(),
        }

    def _outcome(self, system: System, service) -> Outcome:
        telemetry = self._telemetry_summary(system)
        summary = {
            "seed": self.scenario.seed,
            "scheme": self.scenario.scheme,
            "sessions": len(self.scenario.streams),
            "acked": self.stats_total.get("txns_acked", 0),
            "crashes": self.crashes,
            "storms": self.storms_done,
            "shed_acked": self.shed_acked,
            "stale_reads": self.stale_reads,
            "relaxed": self.relaxed,
            "sim_time_ms": int(system.clock.now_ns // 1_000_000),
            "stats": dict(sorted(self.stats_total.items())),
            "telemetry": telemetry,
            "violations": list(self.violations),
        }
        return Outcome(violations=tuple(self.violations), summary=summary)


def run_chaos(scenario: ChaosScenario) -> Outcome:
    """Run one scenario end to end; unexpected escapes become findings."""
    try:
        return _Driver(scenario).run()
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        return Outcome(
            violations=(
                f"error: unhandled {type(exc).__name__} escaped the chaos "
                f"driver: {exc}",
            ),
            summary={"seed": scenario.seed, "scheme": scenario.scheme},
        )


# ----------------------------------------------------------------------
# minimization
# ----------------------------------------------------------------------

#: Shrink passes, in order: structural simplifications first (each drops
#: a whole dimension before the expensive sequence shrinks run), then
#: fewer power cuts, then the session workload.
MINIMIZE_PASSES = (
    try_each(
        lambda s: (
            replace(s, plan=None, storms=0),
            replace(s, storms=0),
            replace(s, power_cycles=()),
            replace(s, final_power_cycle=False),
            replace(s, read_every=0),
        )
    ),
    shrink_each("power_cycles", min_size=1),
    *SESSION_PASSES,
)


def minimize(scenario: ChaosScenario) -> ChaosScenario:
    """The smallest scenario still producing the same failure class (a
    scenario that does not fail comes back unchanged)."""
    return minimize_scenario(scenario, run_chaos, MINIMIZE_PASSES)


# ----------------------------------------------------------------------
# trace (de)serialization
# ----------------------------------------------------------------------


def scenario_from_dict(data: dict) -> ChaosScenario:
    return load_scenario(ChaosScenario, data)


# ----------------------------------------------------------------------
# per-seed task (picklable, for parallel_map)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosTask:
    """Everything one seed's chaos run needs, in picklable form."""

    seed: int
    sessions: int = 4
    txns: int = 40
    txn_size: int = 3
    scheme: str = "rotate"
    faults: tuple = ("power",)
    storms: int = 0
    power_cycles: int = 1
    checkpoint_threshold: int = DEFAULT_CHAOS_THRESHOLD
    sabotage: bool = False
    group_commit: bool = False
    workload: str = "mobi"


def run_task(task: ChaosTask) -> dict:
    """Build and run one seed's scenario; JSON-able result for digests."""
    scenario = make_scenario(
        task.seed,
        sessions=task.sessions,
        txns=task.txns,
        txn_size=task.txn_size,
        scheme=rotate(task.scheme, ROTATION, task.seed),
        faults=task.faults,
        storms=task.storms,
        power_cycles=task.power_cycles,
        checkpoint_threshold=task.checkpoint_threshold,
        sabotage=task.sabotage,
        group_commit=task.group_commit,
        workload=task.workload,
    )
    outcome = run_chaos(scenario)
    return {**outcome.summary, "scenario": scenario_to_dict(scenario)}


if __name__ == "__main__":
    import sys

    from repro.service.cli import main

    sys.exit(main())
