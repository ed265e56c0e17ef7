"""Simulated CPU: stores, loads, memcpy, flush instructions, and barriers.

This module is the moral equivalent of the paper's Algorithms 1 and 2 seen
from below: it provides exactly the primitives NVWAL composes —

* ``store`` / ``memcpy``: volatile writes into the cache overlay;
* ``cache_line_flush(start, end)``: the Algorithm 2 system call that issues
  one non-blocking ``dccmvac`` per covered cache line;
* ``dmb()``: blocks until previously issued flushes complete (reach the
  memory subsystem);
* ``persist_barrier()``: drains the memory-subsystem queue into durable
  NVRAM (the paper emulates this with a 1 usec delay);
* ``compute(ns)``: charges database CPU work on the same clock.

Timing model of the flush unit: ``dccmvac`` is non-blocking, so a flush
issued while the pipeline is busy completes ``write_latency /
pipeline_depth`` after its predecessor, while a flush issued to an idle
pipeline completes a full ``write_latency`` later.  ``dmb`` waits for the
last completion and therefore drains the pipeline — which is precisely why
eager synchronization (flush + barrier per log entry, Figure 4b) is slower
than lazy synchronization (batched flushes, one barrier, Figure 4c).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.hw import stats as statnames
from repro.hw.cache import CacheHierarchy
from repro.hw.clock import SimClock
from repro.hw.memory import NvramDevice
from repro.hw.stats import Stats, TimeBucket

#: Raw Counter key for the dccmvac time bucket, hoisted out of the batched
#: flush loop (enum attribute access is measurable at this call volume).
_DCCMVAC_KEY = TimeBucket.DCCMVAC.value


@dataclass
class PendingPersist:
    """A cache line travelling through the memory subsystem.

    It has left the CPU cache (``dccmvac`` issued) but is not durable until
    a persist barrier drains it — or a crash happens to land it.
    """

    addr: int
    data: bytes
    completion_ns: float


class Cpu:
    """One simulated core plus its cache and flush pipeline."""

    def __init__(
        self,
        config: SystemConfig,
        clock: SimClock,
        cache: CacheHierarchy,
        nvram: NvramDevice,
        stats: Stats,
    ) -> None:
        self.config = config
        self.clock = clock
        self.cache = cache
        self.nvram = nvram
        self.stats = stats
        #: Lines in the memory subsystem awaiting a persist barrier.
        self.pending: list[PendingPersist] = []
        #: Completion time of the most recently issued flush.
        self._pipeline_last_completion = 0.0
        #: Largest completion time over ``pending`` — tracked incrementally
        #: so the barriers do not rescan the whole queue (it only grows
        #: until a persist barrier clears it, so the max never decreases).
        self._pending_max_completion = 0.0
        #: Optional crash hook, set by the CrashController; called once per
        #: primitive operation so tests can fire a power failure at any step.
        self.crash_hook = None

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------

    def _tick(self, op: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(op)

    # ------------------------------------------------------------------
    # volatile data path
    # ------------------------------------------------------------------

    def store(self, addr: int, data: bytes) -> None:
        """Plain store: volatile write into the cache, minimal cost."""
        self._tick("store")
        self.cache.store(addr, data)
        self.clock.advance(self.config.cache.memcpy_ns_per_byte * len(data))
        self.stats.add_time(
            TimeBucket.CPU, self.config.cache.memcpy_ns_per_byte * len(data)
        )

    def memcpy(self, dst: int, data: bytes) -> None:
        """Copy ``data`` to NVRAM address ``dst`` through the cache.

        Charged at memcpy cost; the bytes are *not* durable afterwards —
        they sit in the cache until flushed and barriered (or evicted, which
        the crash controller models probabilistically).
        """
        self._tick("memcpy")
        cost = (
            self.config.cache.memcpy_base_ns
            + self.config.cache.memcpy_ns_per_byte * len(data)
        )
        self.cache.store(dst, data)
        self.clock.advance(cost)
        self.stats.add_time(TimeBucket.MEMCPY, cost)
        self.stats.count("memcpy_bytes", len(data))
        self._evict_excess()

    def _evict_excess(self) -> None:
        """Capacity write-back: lines dirtied long ago migrate to the
        memory subsystem while the CPU keeps copying — their write latency
        hides under the memcpy, so a later dccmvac for them is nearly free
        (lazy synchronization's masking effect, Section 5.1)."""
        cache = self.cache
        excess = cache.dirty_line_count() - self.config.cache.eviction_threshold_lines
        if excess <= 0:
            return
        now = self.clock.now_ns
        pending = self.pending
        for _ in range(excess):
            evicted = cache.evict_oldest_dirty()
            if evicted is None:
                break
            addr, data = evicted
            pending.append(PendingPersist(addr, data, now))
        if now > self._pending_max_completion:
            self._pending_max_completion = now
        self.stats.count("cache_evictions", excess)

    def load(self, addr: int, length: int) -> bytes:
        """Read the volatile view of NVRAM (cache overlay over device).

        Charged per cache line actually touched: a 63-byte read that spans
        two lines costs two line reads (``length // line_size`` would
        undercharge any range that straddles a line boundary).
        """
        line_size = self.config.cache.line_size
        if length <= 0:
            lines = 0
        else:
            first = addr - (addr % line_size)
            last = (addr + length - 1) - ((addr + length - 1) % line_size)
            lines = (last - first) // line_size + 1
        cost = self.config.nvram.read_latency_ns * lines
        self.clock.advance(cost)
        self.stats.add_time(TimeBucket.CPU, cost)
        return self.cache.load(addr, length)

    def load_free(self, addr: int, length: int) -> bytes:
        """Volatile read without a time charge (for assertions in tests and
        for recovery-time bulk scans whose cost is charged separately)."""
        return self.cache.load(addr, length)

    # ------------------------------------------------------------------
    # flush instructions
    # ------------------------------------------------------------------

    def dccmvac(self, line_base: int) -> None:
        """Issue one non-blocking cache-line flush (clean to PoC by MVA).

        Flushing a *clean* line (e.g. one that capacity eviction already
        wrote back during memcpy) costs only the instruction.  Flushing a
        *dirty* line additionally stalls for one pipeline interval: the
        flush unit cannot inject lines faster than the NVRAM write
        bandwidth.  This asymmetry is what makes lazy synchronization's
        flushes "masked by the overhead of memcpy()" while eager
        synchronization, which always flushes cache-hot lines, pays full
        price (Section 5.1, Figure 5).
        """
        self._tick("dccmvac")
        issue = self.config.cache.flush_issue_ns
        self.clock.advance(issue)
        self.stats.add_time(TimeBucket.DCCMVAC, issue)
        self.stats.count(statnames.FLUSHES)

        data = self.cache.clean_line(line_base)
        if data is None:
            # Flushing a clean line costs the instruction but moves no data.
            return
        latency = self.config.nvram.write_latency_ns
        interval = latency / self.config.cache.pipeline_depth
        self.clock.advance(interval)  # injection backpressure
        self.stats.add_time(TimeBucket.DCCMVAC, interval)
        now = self.clock.now_ns
        if self._pipeline_last_completion <= now:
            completion = now + latency
        else:
            completion = self._pipeline_last_completion + interval
        self._pipeline_last_completion = completion
        if completion > self._pending_max_completion:
            self._pending_max_completion = completion
        self.pending.append(PendingPersist(line_base, data, completion))

    def cache_line_flush(self, start: int, end: int) -> None:
        """The Algorithm 2 system call: flush every line in [start, end).

        ``dccmvac`` needs privileged register access on ARM, so each call
        crosses the kernel boundary once, no matter how many lines it
        covers — which is why lazy synchronization, batching many lines per
        call, also saves mode switches.
        """
        self._tick("cache_line_flush")
        self.clock.advance(self.config.cache.syscall_ns)
        self.stats.add_time(TimeBucket.SYSCALL, self.config.cache.syscall_ns)
        self.stats.count(statnames.FLUSH_CALLS)
        length = end - start
        if length <= 0:
            return
        if self.crash_hook is not None:
            # Crash injection counts every dccmvac as one step; keep the
            # per-instruction path so armed failures land mid-range.
            for base in self.cache.lines_covering(start, length):
                self.dccmvac(base)
            return
        self._dccmvac_batch(start, length)

    def _dccmvac_batch(self, start: int, length: int) -> None:
        """Issue ``dccmvac`` for every line covering [start, start+length)
        in one pass.

        Charges exactly the same sequence of clock and stats additions as
        the per-line :meth:`dccmvac` loop (same floating-point operations in
        the same order, so simulated time is bit-identical), but without the
        per-line method dispatch, Counter updates, and clock calls.
        """
        cache = self.cache
        lines = cache._lines
        dirty = cache._dirty
        pending = self.pending
        cache_cfg = self.config.cache
        line_size = cache_cfg.line_size
        issue = cache_cfg.flush_issue_ns
        latency = self.config.nvram.write_latency_ns
        interval = latency / cache_cfg.pipeline_depth
        clock = self.clock
        now = clock.now_ns
        dccmvac_ns = self.stats.time_ns[_DCCMVAC_KEY]
        last = self._pipeline_last_completion
        pending_max = self._pending_max_completion

        first = start - (start % line_size)
        stop = start + length  # covered bases are [first, stop)
        count = 0
        for base in range(first, stop, line_size):
            count += 1
            now += issue
            dccmvac_ns += issue
            if base not in dirty:
                continue
            del dirty[base]
            data = bytes(lines[base])
            now += interval
            dccmvac_ns += interval
            if last <= now:
                completion = now + latency
            else:
                completion = last + interval
            last = completion
            if completion > pending_max:
                pending_max = completion
            pending.append(PendingPersist(base, data, completion))

        clock.now_ns = now
        self.stats.time_ns[_DCCMVAC_KEY] = dccmvac_ns
        self.stats.count(statnames.FLUSHES, count)
        self._pipeline_last_completion = last
        self._pending_max_completion = pending_max

    # ------------------------------------------------------------------
    # barriers
    # ------------------------------------------------------------------

    def dmb(self) -> None:
        """Data memory barrier: wait for issued flushes to complete.

        After ``dmb`` returns, previously flushed lines have reached the
        memory subsystem (tier 2) — they are still *not* durable until a
        persist barrier drains them.
        """
        self._tick("dmb")
        start = self.clock.now_ns
        self.clock.advance(self.config.cache.dmb_ns)
        if self.pending:
            self.clock.advance_to(self._pending_max_completion)
        self.stats.add_time(TimeBucket.DMB, self.clock.now_ns - start)
        self.stats.count(statnames.DMBS)

    def persist_barrier(self) -> None:
        """Drain the memory-subsystem queue into durable NVRAM.

        The paper emulates this instruction as a 1 usec delay (Section 5.3);
        we additionally wait for any flush still in flight, then commit the
        queued lines to the device.
        """
        self._tick("persist_barrier")
        start = self.clock.now_ns
        if self.pending:
            self.clock.advance_to(self._pending_max_completion)
        self.clock.advance(self.config.cache.persist_barrier_ns)
        self.stats.add_time(TimeBucket.PERSIST_BARRIER, self.clock.now_ns - start)
        self.stats.count(statnames.PERSIST_BARRIERS)
        if self.pending:
            bytes_written = self.nvram.persist_lines(self.pending)
            self.stats.count(statnames.NVRAM_LINES_PERSISTED, len(self.pending))
            self.stats.count(statnames.NVRAM_BYTES_WRITTEN, bytes_written)
            self.pending.clear()
            self._pending_max_completion = 0.0

    # ------------------------------------------------------------------
    # CPU work
    # ------------------------------------------------------------------

    def compute(self, ns: float, bucket: TimeBucket = TimeBucket.CPU) -> None:
        """Charge ``ns`` nanoseconds of computation to the clock."""
        if ns <= 0:
            return
        self.clock.advance(ns)
        self.stats.add_time(bucket, ns)

    # ------------------------------------------------------------------
    # crash support
    # ------------------------------------------------------------------

    def volatile_state(self) -> tuple[dict[int, bytes], list[PendingPersist]]:
        """Expose tiers 1 and 2 to the crash controller."""
        return self.cache.dirty_lines(), list(self.pending)

    def drop_volatile(self) -> None:
        """Discard tiers 1 and 2 — the power has gone out."""
        self.cache.drop_all()
        self.pending.clear()
        self._pipeline_last_completion = 0.0
        self._pending_max_completion = 0.0
