"""In-memory span tracer for the traced benchmark run.

The traced run wraps the public entry points of every layer from the
outside (nothing under ``src/`` changes).  Each wrapped call records one
span on both clocks: host time from ``time.perf_counter_ns`` and
simulated time from ``SimClock.now_ns``.  Generator entry points (service
requests, scheduler jobs, lazy B-tree scans) get one span per resumption,
so a span never stays open while other jobs run.

Self time is accumulated as the spans close: a span's duration minus the
durations of its direct children.  Simulated readings are floats; they
are converted to integers in units of 2**-64 ns (exact for every
reading the simulator can produce), so per-layer self times plus the
unattributed remainder sum to the window's clock delta with no rounding
at all.  That sum is the accounting check ``run.py`` makes.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter_ns

#: Fixed-point scale of simulated readings: 1 ns == 2**64 units.
SIM_SHIFT = 64
_ONE_NS = 1 << SIM_SHIFT

#: Spans kept for the written-out trace; aggregates cover every span.
KEEP_SPANS = 20_000

#: layer -> [(module, owner or None for a module-level name, attribute)].
#: Names are patched where they are bound: ``compute_extents`` and
#: ``parse`` are imported by name into the modules that call them.
LAYERS = {
    "db.sql": [
        ("repro.db.database", "Database", name)
        for name in (
            "execute", "snapshot_query", "begin", "commit", "group_commit",
            "flush_group",
        )
    ] + [
        ("repro.db.database", None, "parse"),
        ("repro.db.sql.executor", "Executor", "run"),
    ],
    "db.btree": [
        ("repro.db.btree", "BTree", name)
        for name in ("get", "scan", "insert", "update", "delete")
    ] + [
        ("repro.db.index", "IndexTree", name)
        for name in ("add", "remove", "rowids")
    ],
    "db.pager": [
        ("repro.db.pager", "Pager", name)
        for name in ("get_page", "mark_dirty", "allocate_page", "commit_finish")
    ],
    "wal": [
        ("repro.wal.nvwal", "NvwalBackend", name)
        for name in (
            "write_transaction", "group_append", "group_close", "checkpoint",
            "verify_log",
        )
    ],
    "wal.diff": [("repro.wal.nvwal", None, "compute_extents")],
    "nvram": [
        ("repro.nvram.heapo", "Heapo", name)
        for name in ("nvmalloc", "nv_pre_malloc", "nv_malloc_set_used_flag", "nvfree")
    ] + [("repro.nvram.userheap", "UserHeap", "allocate")],
    "hw": [
        ("repro.hw.cpu", "Cpu", name)
        for name in (
            "memcpy", "store", "load", "cache_line_flush", "dmb", "persist_barrier",
        )
    ],
    "storage": [
        ("repro.storage.ext4", "Ext4FileSystem", name)
        for name in ("write_file", "read_file", "fsync", "sync_all")
    ] + [
        ("repro.storage.blockdev", "BlockDevice", name)
        for name in ("write_page", "read_page", "flush")
    ],
    "service": [
        ("repro.service.server", "DatabaseService", name)
        for name in ("submit_txn", "submit_read", "commit_batcher", "maintenance")
    ],
    "replication": [
        ("repro.replication.ship", "Replicator", "tick"),
        ("repro.replication.ship", "Replicator", "daemon"),
        ("repro.replication.node", "FollowerNode", "ingest"),
        ("repro.replication.ship", "ShippingLog", "seal"),
    ],
    "archive": [
        ("repro.archive.store", "SegmentArchive", name)
        for name in ("append", "sync", "gc", "maybe_advance_floor")
    ],
}

#: Entry points that are generator functions: timed per resumption.
GENERATORS = {
    "scan", "rowids", "submit_txn", "submit_read", "commit_batcher",
    "maintenance", "daemon",
}

LAYER_NAMES = tuple(LAYERS) + ("unattributed",)


def sim_fixed(now_ns) -> int:
    """A simulated reading as an exact integer in units of 2**-64 ns."""
    num, den = float(now_ns).as_integer_ratio()
    if den > _ONE_NS:
        raise ValueError(f"simulated reading {now_ns!r} finer than 2**-64 ns")
    return num * (_ONE_NS // den)


def fixed_to_ns(value: int) -> float:
    return value / _ONE_NS


def accounting_errors(tracer: "Tracer") -> list[str]:
    """Check that the layers account for the window's clock delta.

    Per-layer simulated self times plus the unattributed remainder must
    sum exactly (integer arithmetic) to the window's simulated delta and
    equal, layer by layer, an independent attribution of every interval
    between span events to the layer on top of the stack; no layer and
    no remainder may be negative, and every span must have closed in
    order.
    """
    errors = list(tracer.errors)
    unattributed = tracer.window_sim - tracer.root_sim
    for layer in LAYER_NAMES:
        by_span = unattributed if layer == "unattributed" else tracer.sim_self[layer]
        if tracer.sim_intervals[layer] != by_span:
            errors.append(
                f"layer {layer}: span self time {fixed_to_ns(by_span)!r} ns != "
                f"interval attribution {fixed_to_ns(tracer.sim_intervals[layer])!r} ns"
            )
    total = sum(tracer.sim_self.values()) + unattributed
    if total != tracer.window_sim:
        errors.append(
            f"layers + unattributed = {fixed_to_ns(total)!r} ns, "
            f"clock delta = {fixed_to_ns(tracer.window_sim)!r} ns"
        )
    if unattributed < 0:
        errors.append("spans cover more simulated time than the window")
    errors.extend(
        f"layer {layer} has negative simulated self time"
        for layer, value in tracer.sim_self.items()
        if value < 0
    )
    return errors


def _count_frames(tracer, args, kwargs, result) -> None:
    dirty = args[1] if len(args) > 1 else kwargs["dirty_pages"]
    if dirty:
        tracer.counts["wal.txns_logged"] += 1
        tracer.counts["wal.frames"] += len(dirty)


def _count_write_txn(tracer, args, kwargs, result) -> None:
    dirty = args[1] if len(args) > 1 else kwargs["dirty_pages"]
    if dirty:
        _count_frames(tracer, args, kwargs, result)
        tracer.counts["wal.commit_points"] += 1


def _count_close(tracer, args, kwargs, result) -> None:
    if result:
        tracer.counts["wal.commit_points"] += 1


def _count_checkpoint(tracer, args, kwargs, result) -> None:
    tracer.counts["wal.checkpoint_pages"] += result


def _count_diff(tracer, args, kwargs, result) -> None:
    tracer.counts["wal.diff_page_bytes"] += len(args[1])
    tracer.counts["wal.diff_bytes"] += sum(len(data) for _off, data in result)


#: Counts taken at the same boundaries as the spans.
COUNTERS = {
    ("NvwalBackend", "write_transaction"): _count_write_txn,
    ("NvwalBackend", "group_append"): _count_frames,
    ("NvwalBackend", "group_close"): _count_close,
    ("NvwalBackend", "checkpoint"): _count_checkpoint,
    (None, "compute_extents"): _count_diff,
}


class Tracer:
    """Span stack plus per-layer self-time accumulators."""

    def __init__(self) -> None:
        self.clock = None
        self.active = False
        self.txn = -1
        self._stack: list[list] = []
        self._next_id = 0
        self.calls: Counter = Counter()
        self.host_self: Counter = Counter()
        self.sim_self: Counter = Counter()
        self.counts: Counter = Counter()
        self.sim_intervals: Counter = Counter()
        self.root_host = 0
        self.root_sim = 0
        #: The window's length on both clocks (set by ``stop``).
        self.window_host = 0
        self.window_sim = 0
        self.errors: list[str] = []
        self.spans: list[tuple] = []

    # -- the window ---------------------------------------------------------

    def start(self, clock) -> None:
        """Begin recording against ``clock`` (the run's shared SimClock)."""
        self.clock = clock
        self.active = True
        self._sim0 = self._mark = sim_fixed(clock.now_ns)
        self._host0 = perf_counter_ns()

    def stop(self) -> None:
        self.window_host = perf_counter_ns() - self._host0
        end_sim = sim_fixed(self.clock.now_ns)
        self.window_sim = end_sim - self._sim0
        self._charge(self._stack[-1][0] if self._stack else "unattributed", end_sim)
        self.active = False
        if self._stack:
            self.errors.append(
                f"{len(self._stack)} span(s) still open at the end of the window: "
                + ", ".join(frame[1] for frame in self._stack)
            )

    # -- spans --------------------------------------------------------------

    def open(self, layer: str, name: str) -> list | None:
        if not self.active:
            return None
        now_sim = sim_fixed(self.clock.now_ns)
        stack = self._stack
        parent = stack[-1] if stack else None
        self._charge(parent[0] if parent else "unattributed", now_sim)
        self._next_id += 1
        frame = [
            layer, name, self._next_id,
            parent[2] if parent else 0,
            parent[4] if parent else self.txn,
            0, 0,  # child host, child sim
            now_sim, 0,
        ]
        stack.append(frame)
        frame[8] = perf_counter_ns()
        return frame

    def _charge(self, layer: str, now_sim: int) -> None:
        """Interval attribution, kept beside the span arithmetic as its
        cross-check: the time since the last span event belongs to
        whichever layer was on top of the stack."""
        self.sim_intervals[layer] += now_sim - self._mark
        self._mark = now_sim

    def close(self, frame: list | None) -> None:
        if frame is None:
            return
        end_host = perf_counter_ns()
        end_sim = sim_fixed(self.clock.now_ns)
        stack = self._stack
        if not stack or stack[-1] is not frame:
            self.errors.append(f"span {frame[1]} closed out of order")
            if frame in stack:
                del stack[stack.index(frame):]
            return
        stack.pop()
        layer = frame[0]
        self._charge(layer, end_sim)
        dur_host = end_host - frame[8]
        dur_sim = end_sim - frame[7]
        self_sim = dur_sim - frame[6]
        if self_sim < 0:
            self.errors.append(f"span {frame[1]} has negative simulated self time")
        self.calls[layer] += 1
        self.host_self[layer] += dur_host - frame[5]
        self.sim_self[layer] += self_sim
        if stack:
            parent = stack[-1]
            parent[5] += dur_host
            parent[6] += dur_sim
        else:
            self.root_host += dur_host
            self.root_sim += dur_sim
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((
                frame[2], frame[3], frame[4], frame[1], layer,
                frame[8], end_host,
                fixed_to_ns(frame[7]), fixed_to_ns(end_sim),
            ))


def _wrap_call(tracer: Tracer, layer: str, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if counter is not None and frame is not None:
            counter(tracer, args, kwargs, result)
        return result

    return wrapper


def _timed_resumptions(tracer: Tracer, layer: str, name: str, gen):
    """Drive ``gen``, recording one span per resumption."""
    send_value = None
    throw = None
    while True:
        frame = tracer.open(layer, name)
        try:
            if throw is not None:
                exc, throw = throw, None
                yielded = gen.throw(exc)
            else:
                yielded = gen.send(send_value)
        except StopIteration as stop:
            tracer.close(frame)
            return stop.value
        except BaseException:
            tracer.close(frame)
            raise
        tracer.close(frame)
        try:
            send_value = yield yielded
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded into gen
            throw = exc
            send_value = None


def _wrap_generator(tracer: Tracer, layer: str, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _timed_resumptions(tracer, layer, name, fn(*args, **kwargs))

    return wrapper


class Patches:
    """Install the layer wrappers; ``restore`` puts the originals back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, points in LAYERS.items():
            for module_name, owner_name, attr in points:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                original = vars(owner)[attr]
                label = f"{owner_name}.{attr}" if owner_name else attr
                if attr in GENERATORS:
                    wrapped = _wrap_generator(self.tracer, layer, label, original)
                else:
                    counter = COUNTERS.get((owner_name, attr))
                    wrapped = _wrap_call(self.tracer, layer, label, original, counter)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
