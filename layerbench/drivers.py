"""One measured pass of each workload: set up, run the window, verify.

A pass builds a fresh simulated system (timed as set-up), runs the
workload's fixed input list inside the timed window, then checks every
output outside it.  Given the same inputs a pass is a pure function on
the simulated clock, so every simulated figure it returns repeats bit
for bit; only the host timings vary.
"""

from __future__ import annotations

import gc
import struct
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from inputs import digest
from repro.bench.harness import BackendSpec, make_database
from repro.config import tuna
from repro.db.database import Database
from repro.errors import ReproError
from repro.hw import stats as statnames
from repro.replication.cluster import Cluster, ReplicationConfig
from repro.service.sched import Scheduler
from repro.service.server import ServiceConfig
from repro.service.session import ClientSession
from repro.torture.workload import TABLE as SERVICE_TABLE
from repro.wal.nvwal import NvwalBackend, NvwalScheme

#: NVRAM write latency of the Tuna profile every workload runs on.
NVRAM_WRITE_LATENCY_NS = 500
#: SQLite's default WAL checkpoint threshold (paper Section 5.4).
CHECKPOINT_THRESHOLD = 1000
GROUP_EPOCH = 8
KEY_BYTES = 8  # INTEGER PRIMARY KEY

#: Stats counters compared bit for bit between passes.
_FLEET_COUNTERS = (
    statnames.FLUSHES,
    statnames.DMBS,
    statnames.PERSIST_BARRIERS,
    statnames.NVRAM_BYTES_WRITTEN,
    statnames.BLOCK_WRITES,
    statnames.BLOCK_FLUSHES,
)

_READ_THINK_NS = 200_000
_SETTLE_NS = 2_000_000_000
_SETTLE_POLL_NS = 200_000
_CLIENT_DEADLINE_NS = 120_000_000_000


@dataclass
class PassResult:
    """Everything one pass measured and checked."""

    #: Host seconds, raw and rescaled to the reference speed (HostTimer).
    setup_s: float = 0.0
    setup_nominal_s: float = 0.0
    window_host_s: float = 0.0
    window_nominal_s: float = 0.0
    window_sim_ns: float = 0.0
    txns: int = 0
    write_lat_ns: list = field(default_factory=list)
    read_lat_ns: list = field(default_factory=list)
    user_bytes: int = 0
    fleet: Counter = field(default_factory=Counter)
    page_size: int = 4096
    registry: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    #: Digest of the program's final state (rows and page images).
    state: str = ""

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(message)


def _scheme() -> NvwalScheme:
    return NvwalScheme.uh_ls_diff()


def _stats_total(stats_list) -> Counter:
    total: Counter = Counter()
    for stats in stats_list:
        for name in _FLEET_COUNTERS:
            total[name] += stats.get_count(name)
    return total


#: Host speed on a shared machine drifts by +-20% over minutes, and all
#: interpreted code slows down together.  A fixed reference loop, timed
#: about every REF_INTERVAL_S, measures the current speed; host times are
#: rescaled to the speed at which the loop takes REF_NOMINAL_S (roughly
#: its time on an idle 2-vCPU x86-64 host under CPython 3.11).  That
#: removes the drift from run-to-run comparisons, while a change to the
#: program still moves the rescaled times in full.
REF_INTERVAL_S = 0.05
REF_NOMINAL_S = 0.0005
#: Each reference timing is the best of this many loops.
REF_REPEATS = 3


class _RefNode:
    __slots__ = ("key", "value", "children")

    def __init__(self, key: int, value: bytes) -> None:
        self.key = key
        self.value = value
        self.children: list = []

    def visit(self, key: int) -> int:
        return (self.key ^ key) & 7


def reference_loop() -> float:
    """Host seconds for one fixed unit of interpreter work.

    The mix resembles the simulator's own host work (object attributes,
    method calls, dicts, lists, struct packing, byte slicing) but shares
    no code with it, so a change to the program never moves it.  The
    cyclic collector is off inside it: a collection the program's garbage
    triggers here would slow the loop and hide that cost from the
    program's rescaled time.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    page = bytearray(4096)
    index: dict = {}
    nodes = [_RefNode(i, bytes(16)) for i in range(32)]
    for i in range(600):
        node = nodes[i & 31]
        slot = node.visit(i)
        struct.pack_into("<HI", page, (i * 6) & 4090, slot, i)
        index[i & 127] = page[(i * 8) & 4080:((i * 8) & 4080) + 16]
        node.children.append(slot)
        if len(node.children) > 4:
            node.children.pop(0)
        node.value = bytes(index[i & 127])
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def reference_time() -> float:
    """Best of REF_REPEATS reference loops.  The first loop after a set-up
    has freed a whole simulated system can pay for fresh allocator arenas,
    which says nothing about host speed."""
    return min(reference_loop() for _ in range(REF_REPEATS))


class HostTimer:
    """Host time of a stretch of work, raw and at the reference speed.

    Call :meth:`tick` often (it is one clock read); about every
    REF_INTERVAL_S it closes an interval and takes a reference timing,
    whose own time is left out.  Each interval is rescaled by the mean
    of the reference timings on either side of it.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.nominal_s = 0.0
        #: Reference-loop time spent between the first and last interval.
        self.inner_ref_s = 0.0
        self._ref = reference_time()
        self._t = perf_counter()

    def tick(self) -> None:
        now = perf_counter()
        if now - self._t >= REF_INTERVAL_S:
            self._close(now)
            self.inner_ref_s += perf_counter() - now

    def _close(self, now: float) -> None:
        span = now - self._t
        ref = reference_time()
        self.raw_s += span
        self.nominal_s += span * REF_NOMINAL_S * 2 / (self._ref + ref)
        self._ref = ref
        self._t = perf_counter()

    def stop(self) -> None:
        self._close(perf_counter())


class _Window:
    """Host and simulated timing of the measured window."""

    def __init__(self, clock, tracer, stats_list) -> None:
        self.clock = clock
        self.tracer = tracer
        self.stats_list = stats_list

    def __enter__(self) -> "_Window":
        self.before = _stats_total(self.stats_list)
        self.host = HostTimer()
        if self.tracer is not None:
            self.tracer.start(self.clock)
        self.sim0 = self.clock.now_ns
        return self

    def tick(self) -> None:
        self.host.tick()

    def __exit__(self, *exc) -> None:
        self.sim1 = self.clock.now_ns
        if self.tracer is not None:
            self.tracer.stop()
            # Reference loops ran outside every span; keep them out of
            # the unattributed host time too.
            self.tracer.window_host -= round(self.host.inner_ref_s * 1e9)
        self.host.stop()
        self.fleet = _stats_total(self.stats_list)
        self.fleet.subtract(self.before)

    def record(self, result: PassResult) -> None:
        result.window_host_s = self.host.raw_s
        result.window_nominal_s = self.host.nominal_s
        result.window_sim_ns = self.sim1 - self.sim0
        result.fleet = self.fleet


def timed_setup(setup, inputs, seed):
    """Run a set-up; return (its result, raw seconds, nominal seconds).

    The set-up gets the timer's ``tick`` to call between chunks of a long
    prefill, so its host time is rescaled interval by interval too.
    """
    timer = HostTimer()
    state = setup(inputs, seed, timer.tick)
    timer.stop()
    return state, timer.raw_s, timer.nominal_s


def _nvwal_db(seed: int) -> Database:
    return make_database(
        tuna(NVRAM_WRITE_LATENCY_NS),
        BackendSpec.nvwal(_scheme(), CHECKPOINT_THRESHOLD),
        seed=seed,
    )


def _reopen(db: Database) -> Database:
    """Checkpoint, cut power, reboot, and recover a fresh Database."""
    db.checkpoint()
    system = db.system
    system.power_fail()
    system.reboot()
    wal = NvwalBackend(system, _scheme(), checkpoint_threshold=CHECKPOINT_THRESHOLD)
    return Database(system, wal=wal, name=db.name)


# ----------------------------------------------------------------------
# insert_grouped
# ----------------------------------------------------------------------

INSERT_TABLE = "mobibench"
#: Every 4th key is read back by point query: 2000 reads per 8000 txns,
#: enough samples for a p99 with 20 beyond it.
READ_BACK_STRIDE = 4


def setup_insert_grouped(inputs, seed: int, tick) -> Database:
    db = _nvwal_db(seed)
    db.execute(f"CREATE TABLE {INSERT_TABLE} (key INTEGER PRIMARY KEY, value TEXT)")
    # Checkpoints run between epochs, as Mobibench runs them, so their
    # time is in the window but not in any transaction's latency.
    db.auto_checkpoint = False
    return db


def insert_grouped(inputs, seed: int, tracer=None) -> PassResult:
    result = PassResult()
    db, result.setup_s, result.setup_nominal_s = timed_setup(
        setup_insert_grouped, inputs, seed
    )
    values = inputs.values
    clock = db.system.clock
    sql = f"INSERT INTO {INSERT_TABLE} VALUES (?, ?)"
    begins: list[float] = []
    with _Window(clock, tracer, [db.system.stats]) as window:
        for key, value in enumerate(values):
            if tracer is not None:
                tracer.txn = key
            begins.append(clock.now_ns)
            db.begin()
            db.execute(sql, (key, value))
            db.group_commit()
            if len(begins) == GROUP_EPOCH or key == len(values) - 1:
                db.flush_group()
                durable = clock.now_ns
                result.write_lat_ns.extend(durable - b for b in begins)
                begins.clear()
                if db.wal.should_checkpoint():
                    db.checkpoint()
            window.tick()
        if tracer is not None:
            tracer.txn = -1
        db.close()
    window.record(result)
    result.page_size = db.system.page_size
    result.txns = len(values)
    result.user_bytes = sum(KEY_BYTES + len(v) for v in values)
    result.attempted = len(values)

    # Verification, outside the window: point reads of a stride of keys
    # (these give the workload's read latency), then the whole table,
    # the integrity check, and the rows again after a power cycle.
    query = f"SELECT value FROM {INSERT_TABLE} WHERE key = ?"
    for key in range(0, len(values), READ_BACK_STRIDE):
        value = values[key]
        start = clock.now_ns
        rows = db.query(query, (key,))
        result.read_lat_ns.append(clock.now_ns - start)
        result.attempted += 1
        if rows != [(value,)]:
            result.fail(1, f"read-back of key {key} returned {rows!r}")
    expected = [(key, value) for key, value in enumerate(values)]
    _check_rows(result, db.dump_table(INSERT_TABLE), expected, "final table")
    _check_integrity(result, db)
    db = _reopen(db)
    rows = db.dump_table(INSERT_TABLE)
    _check_rows(result, rows, expected, "after power_fail + reboot")
    result.state = digest(rows)
    return result


def _check_rows(result: PassResult, rows, expected, what: str) -> None:
    if rows == expected:
        return
    wrong = max(len(set(rows) ^ set(expected)), 1)
    result.fail(wrong, f"{what}: {wrong} row(s) missing, extra or wrong")


def _check_integrity(result: PassResult, db: Database) -> None:
    result.attempted += 1
    try:
        db.check_integrity()
    except ReproError as exc:
        result.fail(1, f"check_integrity: {exc}")


# ----------------------------------------------------------------------
# read_mostly
# ----------------------------------------------------------------------

READ_TABLE = "kv"
MIN_DEPTH = 3


def _ticking(rows, tick):
    """Yield ``rows`` unchanged, ticking the host timer between them."""
    for row in rows:
        tick()
        yield row


def setup_read_mostly(inputs, seed: int, tick) -> Database:
    db = _nvwal_db(seed)
    db.execute(f"CREATE TABLE {READ_TABLE} (k INTEGER PRIMARY KEY, g INTEGER, v TEXT)")
    db.execute(f"CREATE INDEX {READ_TABLE}_g ON {READ_TABLE} (g)")
    # One transaction, as one executemany of the list would be.
    db.executemany(
        f"INSERT INTO {READ_TABLE} VALUES (?, ?, ?)", _ticking(inputs.prefill, tick)
    )
    db.checkpoint()
    db.auto_checkpoint = False
    return db


def read_mostly(inputs, seed: int, tracer=None) -> PassResult:
    result = PassResult()
    db, result.setup_s, result.setup_nominal_s = timed_setup(
        setup_read_mostly, inputs, seed
    )
    depth = db.table_tree(db.table(READ_TABLE)).depth()
    if depth < MIN_DEPTH:
        raise RuntimeError(f"prefilled B-tree is {depth} levels deep, need {MIN_DEPTH}")

    model = {k: (g, v) for k, g, v in inputs.prefill}
    clock = db.system.clock
    select = f"SELECT v FROM {READ_TABLE} WHERE k = ?"
    update = f"UPDATE {READ_TABLE} SET v = ? WHERE k = ?"
    with _Window(clock, tracer, [db.system.stats]) as window:
        for i, (kind, key, value) in enumerate(inputs.ops):
            if tracer is not None:
                tracer.txn = i
            start = clock.now_ns
            if kind == "read":
                rows = db.query(select, (key,))
                result.read_lat_ns.append(clock.now_ns - start)
                if rows != [(model[key][1],)]:
                    result.fail(1, f"read of key {key} returned {rows!r}")
            else:
                changed = db.execute(update, (value, key))
                result.write_lat_ns.append(clock.now_ns - start)
                model[key] = (model[key][0], value)
                result.user_bytes += KEY_BYTES + len(value)
                if changed != 1:
                    result.fail(1, f"update of key {key} changed {changed} rows")
                if db.wal.should_checkpoint():
                    db.checkpoint()
            window.tick()
        if tracer is not None:
            tracer.txn = -1
        db.close()
    window.record(result)
    result.page_size = db.system.page_size
    result.txns = len(inputs.ops)
    result.attempted = len(inputs.ops)
    expected = [(k, g, v) for k, (g, v) in sorted(model.items())]
    rows = db.dump_table(READ_TABLE)
    _check_rows(result, rows, expected, "final table")
    _check_integrity(result, db)
    result.state = digest(rows)
    return result


# ----------------------------------------------------------------------
# replicated_service
# ----------------------------------------------------------------------

FOLLOWERS = 2
REPLICATION_MODE = "semisync"


def _fold(model: dict, ops) -> None:
    for kind, key, value in ops:
        if kind == "delete":
            model.pop(key, None)
        else:
            model[key] = value


def _labeled(gen, tracer, label):
    """Scheduler job wrapper: set the tracer's txn id before each step."""
    send_value = None
    while True:
        tracer.txn = label()
        try:
            delay = gen.send(send_value)
        except StopIteration as stop:
            return stop.value
        send_value = yield delay


def setup_replicated_service(inputs, seed: int, tick) -> Cluster:
    """Primary, followers, cold store, and the schema epoch."""
    return Cluster(
        ReplicationConfig(followers=FOLLOWERS, mode=REPLICATION_MODE),
        seed=seed,
        profile=tuna(NVRAM_WRITE_LATENCY_NS),
    )


def replicated_service(inputs, seed: int, tracer=None) -> PassResult:
    result = PassResult()
    cluster, result.setup_s, result.setup_nominal_s = timed_setup(
        setup_replicated_service, inputs, seed
    )
    clock = cluster.clock
    visible: dict = {}
    ack_ns: dict[str, list] = {}

    def on_apply(session_id, ops) -> None:
        _fold(visible, ops)

    def on_ack(session_id, ops) -> None:
        ack_ns[session_id].append(clock.now_ns)

    # A healthy deployment: admission waits and per-attempt deadlines
    # are long enough that no request is refused for contention.
    service = cluster.start_service(
        ServiceConfig(group_commit=True, busy_timeout_ns=_CLIENT_DEADLINE_NS),
        seed=seed,
        on_ack=on_ack,
        on_apply=on_apply,
    )
    # The service observes its own barrier-wait histogram only when no
    # replicator gates the acks.  Take the same interval, commit point to
    # epoch barrier, where the closed epoch is handed to the gate.
    barrier_ns: list = []
    replicator = cluster.replicator
    gate = replicator.gate

    def timed_gate(tickets):
        now = int(clock.now_ns)
        barrier_ns.extend(now - ticket.joined_ns for ticket in tickets)
        return gate(tickets)

    replicator.gate = timed_gate
    clients = []
    for s, txns in enumerate(inputs.writers):
        client = ClientSession(service, f"w{s}", deadline_budget_ns=_CLIENT_DEADLINE_NS)
        for ops in txns:
            client.enqueue(ops)
        clients.append(client)
        ack_ns[client.session_id] = []

    starts: dict[str, list] = {c.session_id: [] for c in clients}
    read_sql = f"SELECT v FROM {SERVICE_TABLE} WHERE k = ?"
    read_keys = inputs.read_keys
    reads = [0]

    def client_job(client: ClientSession):
        """Closed loop: a session submits its next txn as soon as the
        previous one is acknowledged, in the same step that observed the
        ack — so that step's start is the next txn's begin."""
        runner = client.run()
        mine = starts[client.session_id]
        seen = 0
        send_value = None
        while True:
            resumed = clock.now_ns
            if not mine:
                mine.append(resumed)
            try:
                delay = runner.send(send_value)
            except StopIteration:
                return
            while seen < len(client.acked):
                seen += 1
                mine.append(resumed)
            window.tick()  # between steps, outside every span
            send_value = yield delay

    def reader_job():
        while True:
            key = read_keys[reads[0] % len(read_keys)]
            reads[0] += 1
            start = clock.now_ns
            rows = yield from service.submit_read("reader", read_sql, (key,))
            result.read_lat_ns.append(clock.now_ns - start)
            want = visible.get(key)
            if rows != ([(want,)] if want is not None else []):
                result.fail(1, f"snapshot read of key {key} returned {rows!r}")
            yield _READ_THINK_NS

    # The archive is on (ReplicationConfig's default): its device counts.
    stats_list = [cluster.primary_system.stats, cluster.archive_device.stats]
    stats_list += [node.system.stats for node in cluster.followers]
    archive = cluster.archive
    archive_bytes0 = archive.bytes_total
    archive_gc0 = archive.gc_bytes
    scheduler = Scheduler(clock)
    per_writer = max(len(t) for t in inputs.writers)
    jobs = [
        (client.session_id, client_job(client), False,
         lambda s=s, c=client: s * per_writer + len(c.acked))
        for s, client in enumerate(clients)
    ] + [
        ("reader", reader_job(), True, lambda: -2 - reads[0]),
        ("batcher", service.commit_batcher(), True, lambda: -1),
        ("maintenance", service.maintenance(), True, lambda: -1),
        ("replicator", cluster.replicator.daemon(), True, lambda: -1),
    ]
    for name, job, daemon, label in jobs:
        if tracer is not None:
            job = _labeled(job, tracer, label)
        scheduler.spawn(name, job, daemon=daemon)
    with _Window(clock, tracer, stats_list) as window:
        scheduler.run(deadline_ns=clock.now_ns + _CLIENT_DEADLINE_NS)
    window.record(result)
    result.page_size = cluster.primary_system.page_size
    if tracer is not None:
        tracer.txn = -1

    for job in scheduler.jobs:
        if job.error is not None:
            result.fail(1, f"job {job.name} died: {job.error!r}")
        elif not job.done and not job.daemon:
            result.fail(1, f"job {job.name} still running at the deadline")
    result.attempted = sum(len(t) for t in inputs.writers) + reads[0]
    expected: dict = {}
    for client, txns in zip(clients, inputs.writers):
        sid = client.session_id
        refused = sum(client.rejections.values())
        if refused:
            result.fail(refused, f"session {sid} had requests refused: {client.rejections}")
        if len(client.acked) != len(txns):
            result.fail(
                len(txns) - len(client.acked),
                f"session {sid} acked {len(client.acked)} of {len(txns)} txns",
            )
        for ops in client.acked:
            _fold(expected, ops)
            result.user_bytes += sum(
                KEY_BYTES + (len(v) if v is not None else 0) for _k, _key, v in ops
            )
        n = min(len(starts[sid]), len(ack_ns[sid]))
        result.write_lat_ns.extend(ack_ns[sid][i] - starts[sid][i] for i in range(n))
    result.txns = sum(len(c.acked) for c in clients)

    registry = cluster.primary_system.telemetry
    lag = sorted(replicator.lag_samples)
    barrier_ns.sort()
    result.registry = {
        "service.admission_wait_p50_us":
            registry.histogram("service.admission_wait_ns").quantile(50) / 1e3,
        "service.barrier_wait_p50_us":
            barrier_ns[(len(barrier_ns) - 1) // 2] / 1e3 if barrier_ns else 0.0,
        "replication.ack_gate_wait_p50_us":
            registry.histogram("repl.ack_gate_wait_ns").quantile(50) / 1e3,
        "replication.sends": registry.counter("repl.sends").value,
        "replication.resends": registry.counter("repl.resends").value,
        "replication.lag_p50_us": lag[(len(lag) - 1) // 2] / 1e3 if lag else 0.0,
        "archive.gc_bytes": archive.gc_bytes - archive_gc0,
        "archive.written_bytes":
            archive.bytes_total - archive_bytes0 + archive.gc_bytes - archive_gc0,
    }

    _settle(cluster, result)
    rows = sorted(cluster.db.dump_table(SERVICE_TABLE))
    _check_rows(result, rows, sorted(expected.items()), "primary table vs acked txns")
    _check_integrity(result, cluster.db)
    primary = cluster.db.pager
    images = [bytes(primary.page_image(p)) for p in range(1, primary.n_pages + 1)]
    for node in cluster.followers:
        result.attempted += 1
        pager = node.db.pager
        if pager.n_pages != primary.n_pages or any(
            bytes(pager.page_image(p)) != images[p - 1]
            for p in range(1, primary.n_pages + 1)
        ):
            result.fail(1, f"follower {node.node_id} pages differ from the primary's")
    result.state = digest((rows, images))
    return result


def _settle(cluster: Cluster, result: PassResult) -> None:
    """Let the replicator drain until every follower holds the head."""
    clock = cluster.clock

    def caught_up() -> bool:
        return all(
            node.durable_seq == cluster.head_seq and node.term == cluster.term
            for node in cluster.followers
        )

    def waiter():
        deadline = clock.now_ns + _SETTLE_NS
        while clock.now_ns < deadline and not caught_up():
            yield _SETTLE_POLL_NS

    scheduler = Scheduler(clock)
    scheduler.spawn("settle", waiter())
    scheduler.spawn("replicator", cluster.replicator.daemon(), daemon=True)
    scheduler.run()
    result.attempted += 1
    if not caught_up():
        result.fail(1, "followers did not reach the primary's head after the drain")


#: workload -> (one measured pass, its set-up alone)
WORKLOADS = {
    "insert_grouped": (insert_grouped, setup_insert_grouped),
    "read_mostly": (read_mostly, setup_read_mostly),
    "replicated_service": (replicated_service, setup_replicated_service),
}
