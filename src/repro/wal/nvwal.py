"""NVWAL: the write-ahead log in byte-addressable NVRAM.

This is the paper's Algorithm 1 (``sqliteWriteWalFramesToNVRAM``) plus the
surrounding machinery — the persistent WAL structure of Figures 2(b)/3, the
scheme variants of Section 5.3, checkpointing, and crash recovery
(Section 4.3).

Persistent NVRAM layout::

    root ("nvwal-root", a named Heapo allocation, 24 bytes used)
        0   magic          u64
        8   checkpoint_id  u32  (log generation; bumped by checkpoint)
        12  pad            u32
        16  first_block    u64  (address of the first log block, 0 = none)

    log block (Heapo allocation, named "nvwal-blk")
        0   next_block     u64
        8   block_size     u32
        12  chain_index    u32  (position in the chain, 0-based)
        16  frames...           (32-byte header + 8-byte-aligned payload)

Scheme naming follows the paper: **E/LS/CS** for eager / lazy / checksum
(asynchronous) synchronization, **Diff** for byte-granularity differential
logging, **UH** for the user-level heap.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

from repro.errors import ChecksumError, MediaError, TransactionError
from repro.hw.stats import TimeBucket
from repro.nvram.heapo import NvAllocation
from repro.nvram.persistency import PersistDomain, PersistencyModel
from repro.nvram.userheap import DEFAULT_BLOCK_SIZE, UserHeap
from repro.system import System
from repro.wal.base import (
    DEFAULT_CHECKPOINT_THRESHOLD,
    RecoveryReport,
    SyncMode,
    WalBackend,
)
from repro.wal.diff import DiffMode, apply_extents, compute_extents
from repro.wal.frames import (
    FULL_CHECKSUM_BITS,
    NV_FRAME_MAGIC,
    NV_HEADER_SIZE,
    NvFrame,
    commit_mark_bytes,
    commit_mark_value,
    decode_nv_frame_header,
    encode_nv_frame,
    epoch_close_value,
    epoch_member_value,
    payload_checksum,
)

_ROOT_MAGIC = 0x4E56_5741_4C00_0001
_ROOT_NAME = "nvwal-root"
_BLOCK_NAME = "nvwal-blk"
_ROOT_SIZE = 24
_ROOT_CKPT_OFFSET = 8
_ROOT_FIRST_BLOCK_OFFSET = 16
_BLOCK_HEADER_SIZE = 16


@dataclass(frozen=True)
class NvwalScheme:
    """One point in the paper's scheme matrix (Figure 7)."""

    sync: SyncMode = SyncMode.LAZY
    diff: bool = False
    user_heap: bool = False
    block_size: int = DEFAULT_BLOCK_SIZE
    diff_mode: DiffMode = DiffMode.MULTI_RANGE
    persistency: PersistencyModel = PersistencyModel.EXPLICIT

    @property
    def name(self) -> str:
        """Paper-style label, e.g. ``'NVWAL UH+LS+Diff'``."""
        parts = []
        if self.user_heap:
            parts.append("UH")
        parts.append(
            {"eager": "E", "lazy": "LS", "checksum": "CS"}[self.sync.value]
        )
        if self.diff:
            parts.append("Diff")
        label = "NVWAL " + "+".join(parts)
        if self.persistency is not PersistencyModel.EXPLICIT:
            label += f" [{self.persistency.value}]"
        return label

    def with_persistency(self, model: PersistencyModel) -> "NvwalScheme":
        """Same scheme under different persistency hardware (ablation A2)."""
        return replace(self, persistency=model)

    # -- the six variants evaluated in Figure 7 -------------------------

    @classmethod
    def eager(cls) -> "NvwalScheme":
        """Eager synchronization strawman (Figure 4b / Section 5.1 'E')."""
        return cls(sync=SyncMode.EAGER)

    @classmethod
    def ls(cls) -> "NvwalScheme":
        """NVWAL LS: lazy synchronization only."""
        return cls(sync=SyncMode.LAZY)

    @classmethod
    def ls_diff(cls) -> "NvwalScheme":
        """NVWAL LS+Diff: lazy sync + differential logging."""
        return cls(sync=SyncMode.LAZY, diff=True)

    @classmethod
    def cs_diff(cls) -> "NvwalScheme":
        """NVWAL CS+Diff: asynchronous (checksum) commit + diff."""
        return cls(sync=SyncMode.CHECKSUM, diff=True)

    @classmethod
    def uh_ls(cls) -> "NvwalScheme":
        """NVWAL UH+LS: user-level heap + lazy sync."""
        return cls(sync=SyncMode.LAZY, user_heap=True)

    @classmethod
    def uh_ls_diff(cls) -> "NvwalScheme":
        """NVWAL UH+LS+Diff: the paper's recommended scheme."""
        return cls(sync=SyncMode.LAZY, diff=True, user_heap=True)

    @classmethod
    def uh_cs_diff(cls) -> "NvwalScheme":
        """NVWAL UH+CS+Diff: fastest but probabilistically consistent."""
        return cls(sync=SyncMode.CHECKSUM, diff=True, user_heap=True)

    @classmethod
    def all_figure7(cls) -> list["NvwalScheme"]:
        """The six schemes of Figure 7, paper order."""
        return [
            cls.ls(),
            cls.ls_diff(),
            cls.cs_diff(),
            cls.uh_ls(),
            cls.uh_ls_diff(),
            cls.uh_cs_diff(),
        ]


#: Scheme factories by trace-friendly name (CLI choices, trace files,
#: replication and workload configs).
SCHEMES = {
    "eager": NvwalScheme.eager,
    "ls": NvwalScheme.ls,
    "ls_diff": NvwalScheme.ls_diff,
    "cs_diff": NvwalScheme.cs_diff,
    "uh_ls": NvwalScheme.uh_ls,
    "uh_ls_diff": NvwalScheme.uh_ls_diff,
    "uh_cs_diff": NvwalScheme.uh_cs_diff,
}

#: Default per-seed scheme rotation of the harnesses (the three the crash
#: matrix covers).
ROTATION = ("uh_ls_diff", "ls", "eager")


@dataclass
class _EpochState:
    """Volatile bookkeeping for one open group-commit epoch."""

    #: (addr, encoded length) of every frame appended this epoch, in order.
    frame_ptrs: list[tuple[int, int]] = field(default_factory=list)
    #: Transactions appended so far (including frameless no-ops).
    txns: int = 0
    #: Per-transaction frame lists, in append order (empty list for a
    #: frameless no-op) — what the shipping hook exports at close.
    txn_frames: list = field(default_factory=list)
    #: Address / stored checksum of the epoch's last frame — the close
    #: mark is stamped there.
    last_addr: int | None = None
    last_checksum: int = 0


class NvwalBackend(WalBackend):
    """The NVRAM write-ahead log."""

    def __init__(
        self,
        system: System,
        scheme: NvwalScheme | None = None,
        checkpoint_threshold: int = DEFAULT_CHECKPOINT_THRESHOLD,
        checksum_bits: int = FULL_CHECKSUM_BITS,
    ) -> None:
        super().__init__(checkpoint_threshold)
        self.system = system
        self.cpu = system.cpu
        self.heapo = system.heapo
        self.scheme = scheme or NvwalScheme.uh_ls_diff()
        self.checksum_bits = checksum_bits
        self.persist_domain = PersistDomain(self.cpu, self.scheme.persistency)
        self.userheap = UserHeap(self.heapo, self.scheme.block_size)
        #: Latest committed image of every page present in the log; the
        #: base for differential logging and the source for checkpointing.
        self._logged_images: dict[int, bytes] = {}
        self._frame_count = 0
        self._root = self._ensure_root()
        self._checkpoint_id = self._read_checkpoint_id()
        #: NVRAM address holding the pointer to the *next* block — the root's
        #: first_block field, or the current tail block's next field.
        self._link_addr = self._root.addr + _ROOT_FIRST_BLOCK_OFFSET
        #: Open group-commit epoch, or None (see :meth:`group_begin`).
        self._epoch: _EpochState | None = None
        #: Optional frame-export hook, called as ``on_commit(txn_frames)``
        #: with a list of per-transaction :class:`NvFrame` lists the
        #: moment those transactions become durable (a standalone commit
        #: mark, or the epoch-close mark covering the whole batch).  The
        #: replication shipping log taps this to stream committed frames.
        self.on_commit = None

    # ------------------------------------------------------------------
    # root management
    # ------------------------------------------------------------------

    def _ensure_root(self) -> NvAllocation:
        root = self.heapo.lookup(_ROOT_NAME)
        if root is not None:
            return root
        root = self.heapo.nvmalloc(_ROOT_SIZE, name=_ROOT_NAME)
        image = struct.pack("<QIIQ", _ROOT_MAGIC, 1, 0, 0)
        self.cpu.memcpy(root.addr, image)
        self.cpu.dmb()
        self.cpu.cache_line_flush(root.addr, root.addr + _ROOT_SIZE)
        self.cpu.dmb()
        self.cpu.persist_barrier()
        return root

    def _read_checkpoint_id(self) -> int:
        try:
            raw = self.cpu.load_free(self._root.addr, _ROOT_SIZE)
        except MediaError:
            # Unreadable root: fall back to generation 1.  Every surviving
            # frame carries a different checkpoint id and is ignored, so
            # recovery degrades to the checkpointed database image — a
            # valid (if old) committed prefix.
            return 1
        magic, ckpt_id, _pad, _first = struct.unpack("<QIIQ", raw)
        return ckpt_id if magic == _ROOT_MAGIC else 1

    # ------------------------------------------------------------------
    # Algorithm 1: sqliteWriteWalFramesToNVRAM
    # ------------------------------------------------------------------

    def write_transaction(
        self,
        dirty_pages: dict[int, bytes],
        commit: bool = True,
        pre_images: dict[int, bytes] | None = None,
    ) -> None:
        """Log one transaction's dirty pages per Algorithm 1."""
        if self._epoch is not None:
            raise TransactionError(
                "cannot log a standalone transaction while a group-commit "
                "epoch is open; close it with group_close() first"
            )
        frames = self._build_frames(dirty_pages)
        if not frames:
            return
        costs = self.system.config.db_costs
        explicit = self.scheme.persistency is PersistencyModel.EXPLICIT
        frame_ptrs: list[tuple[int, int]] = []

        # --- logging phase (Algorithm 1 lines 1-20) ---
        for frame in frames:
            self.cpu.compute(costs.frame_assembly_ns, TimeBucket.CPU)
            self.cpu.compute(
                costs.checksum_ns_per_byte * len(frame.payload), TimeBucket.CPU
            )
            encoded = encode_nv_frame(frame, self.checksum_bits)
            if not self.userheap.fits(len(encoded)):
                self._chain_new_block(len(encoded))
            addr = self.userheap.allocate(len(encoded))
            self.cpu.memcpy(addr, encoded)
            self.persist_domain.after_store(addr, len(encoded))
            frame_ptrs.append((addr, len(encoded)))
            if explicit and self.scheme.sync is SyncMode.EAGER:
                # Figure 4(b): synchronize per log entry.
                self.cpu.dmb()
                self.cpu.cache_line_flush(addr, addr + len(encoded))
                self.cpu.dmb()
                self.cpu.persist_barrier()
        self._frame_count += len(frames)

        # --- flush phase (Algorithm 1 lines 21-28) ---
        if explicit and self.scheme.sync is SyncMode.LAZY:
            self.cpu.dmb()
            for addr, length in frame_ptrs:
                self.cpu.cache_line_flush(addr, addr + length)
            self.cpu.dmb()
            self.cpu.persist_barrier()
        elif not explicit:
            self.persist_domain.commit_barrier()
        # SyncMode.CHECKSUM: no flush of log entries (Figure 4d).

        # --- commit phase (Algorithm 1 lines 29-36) ---
        if commit:
            last = frames[-1]
            checksum = payload_checksum(
                last.payload, last.page_no, last.offset, self.checksum_bits
            )
            self._write_commit_mark(frame_ptrs[-1][0], checksum, explicit)

        for frame in frames:
            base = self._logged_images.get(
                frame.page_no, bytes(self.system.page_size)
            )
            self._logged_images[frame.page_no] = frame.apply_to(base)
        if commit and self.on_commit is not None:
            self.on_commit([frames])
        self.note_occupancy()

    def _write_commit_mark(
        self, last_frame_addr: int, checksum: int, explicit: bool
    ) -> None:
        mark_offset, mark = commit_mark_bytes(self._checkpoint_id, checksum)
        mark_addr = last_frame_addr + mark_offset
        self.cpu.store(mark_addr, mark)
        self.persist_domain.after_store(mark_addr, len(mark))
        if explicit:
            self.cpu.dmb()
            if self.scheme.sync is SyncMode.CHECKSUM:
                # Flush the whole frame header so the checksum bytes reach
                # NVRAM along with the commit mark (Figure 4d).
                self.cpu.cache_line_flush(
                    last_frame_addr, last_frame_addr + NV_HEADER_SIZE
                )
            else:
                self.cpu.cache_line_flush(mark_addr, mark_addr + len(mark))
            self.cpu.dmb()
            self.cpu.persist_barrier()
        else:
            self.persist_domain.commit_barrier()

    # ------------------------------------------------------------------
    # group commit: epoch-batched persistence (Section 4.2 extended)
    # ------------------------------------------------------------------

    @property
    def group_open(self) -> bool:
        """True while a group-commit epoch is accepting transactions."""
        return self._epoch is not None

    def group_begin(self) -> None:
        """Open a group-commit epoch.

        Until :meth:`group_close`, transactions appended with
        :meth:`group_append` share the epoch: their frames go to NVRAM
        with no per-transaction flush or barrier, and none of them is
        committed.  One close mark then commits them all at once, so a
        power failure inside the open epoch loses the whole epoch and
        never a prefix of it.
        """
        if self._epoch is not None:
            raise TransactionError("a group-commit epoch is already open")
        self._epoch = _EpochState()

    def group_append(
        self,
        dirty_pages: dict[int, bytes],
        pre_images: dict[int, bytes] | None = None,
    ) -> None:
        """Append one transaction's frames to the open epoch.

        This is Algorithm 1's logging phase with the synchronization
        cadence lifted out: no per-entry flush (even under E — grouping
        overrides the per-entry discipline, that is its point) and no
        per-transaction flush/barrier pair.  E/LS stamp an epoch-member
        word on the transaction's last frame so the log records durable,
        checksum-validated transaction boundaries; CS stamps nothing and
        relies on the checksum-validated close mark alone (Figure 4d
        stretched over the epoch).
        """
        if self._epoch is None:
            raise TransactionError("no group-commit epoch is open")
        epoch = self._epoch
        epoch.txns += 1
        frames = self._build_frames(dirty_pages)
        epoch.txn_frames.append(frames)
        if not frames:
            return
        costs = self.system.config.db_costs
        for frame in frames:
            self.cpu.compute(costs.frame_assembly_ns, TimeBucket.CPU)
            self.cpu.compute(
                costs.checksum_ns_per_byte * len(frame.payload), TimeBucket.CPU
            )
            encoded = encode_nv_frame(frame, self.checksum_bits)
            if not self.userheap.fits(len(encoded)):
                self._chain_new_block(len(encoded))
            addr = self.userheap.allocate(len(encoded))
            self.cpu.memcpy(addr, encoded)
            self.persist_domain.after_store(addr, len(encoded))
            epoch.frame_ptrs.append((addr, len(encoded)))
        self._frame_count += len(frames)

        last = frames[-1]
        checksum = payload_checksum(
            last.payload, last.page_no, last.offset, self.checksum_bits
        )
        epoch.last_addr = epoch.frame_ptrs[-1][0]
        epoch.last_checksum = checksum
        if self.scheme.sync is not SyncMode.CHECKSUM:
            # Epoch-member mark: a durable transaction boundary that
            # commits nothing by itself (the close sweep flushes it along
            # with the frame bytes).
            mark_offset, mark = commit_mark_bytes(
                self._checkpoint_id, checksum, word=epoch_member_value(checksum)
            )
            mark_addr = epoch.last_addr + mark_offset
            self.cpu.store(mark_addr, mark)
            self.persist_domain.after_store(mark_addr, len(mark))

        for frame in frames:
            base = self._logged_images.get(
                frame.page_no, bytes(self.system.page_size)
            )
            self._logged_images[frame.page_no] = frame.apply_to(base)

    def group_close(self) -> int:
        """Persist the epoch with one coalesced flush + barrier sequence
        and commit it with a single close mark.  Returns the number of
        transactions the epoch carried.

        E/LS: one dmb, one coalesced cache-line sweep over the epoch's
        (mostly contiguous) frame ranges, one dmb, one persist barrier —
        then the atomic close-mark store with its own small ordering
        point.  CS flushes only the closing frame's header.  The acks the
        service layer releases on return are therefore the first moment
        any of the epoch's transactions is durable.
        """
        if self._epoch is None:
            raise TransactionError("no group-commit epoch is open")
        epoch = self._epoch
        self._epoch = None
        if not epoch.frame_ptrs:
            if self.on_commit is not None:
                # All-no-op epoch: nothing to persist, but the shipping
                # log still needs the (empty) transaction boundaries so
                # replica sequence numbers stay aligned.
                self.on_commit(epoch.txn_frames)
            return epoch.txns
        explicit = self.scheme.persistency is PersistencyModel.EXPLICIT

        # --- epoch flush phase: one sweep for every transaction ---
        if explicit and self.scheme.sync is not SyncMode.CHECKSUM:
            self.cpu.dmb()
            self._flush_coalesced(epoch.frame_ptrs)
            self.cpu.dmb()
            self.cpu.persist_barrier()
        elif not explicit:
            self.persist_domain.commit_barrier()
        # CS: no flush of log entries at all (Figure 4d).

        # --- epoch commit: one atomic close-mark store ---
        self._write_epoch_close(epoch.last_addr, epoch.last_checksum, explicit)
        if self.on_commit is not None:
            self.on_commit(epoch.txn_frames)
        self.note_occupancy()
        return epoch.txns

    def _flush_coalesced(self, ptrs: list[tuple[int, int]]) -> None:
        """Issue one cache-line sweep per contiguous run of frame ranges.

        Frames are bump-allocated, so an epoch's frames form one run per
        log block touched; each run becomes a single ``dccmvac`` batch
        instead of one flush call per frame."""
        start, end = ptrs[0][0], ptrs[0][0] + ptrs[0][1]
        for addr, length in ptrs[1:]:
            if addr == end:
                end = addr + length
            else:
                self.cpu.cache_line_flush(start, end)
                start, end = addr, addr + length
        self.cpu.cache_line_flush(start, end)

    def _write_epoch_close(
        self, last_frame_addr: int, checksum: int, explicit: bool
    ) -> None:
        mark_offset, mark = commit_mark_bytes(
            self._checkpoint_id, checksum, word=epoch_close_value(checksum)
        )
        mark_addr = last_frame_addr + mark_offset
        self.cpu.store(mark_addr, mark)
        self.persist_domain.after_store(mark_addr, len(mark))
        if explicit:
            self.cpu.dmb()
            if self.scheme.sync is SyncMode.CHECKSUM:
                # Flush the whole closing header so the checksum reaches
                # NVRAM with the close mark (Figure 4d).
                self.cpu.cache_line_flush(
                    last_frame_addr, last_frame_addr + NV_HEADER_SIZE
                )
            else:
                self.cpu.cache_line_flush(mark_addr, mark_addr + len(mark))
            self.cpu.dmb()
            self.cpu.persist_barrier()
        else:
            self.persist_domain.commit_barrier()

    def _build_frames(self, dirty_pages: dict[int, bytes]) -> list[NvFrame]:
        """Turn dirty page images into WAL frames — exactly one per page.

        The first time a page appears in the current log generation its
        entire image is logged (Figure 3); afterwards only the changed byte
        extents are, packed into a single frame so differential logging
        shrinks frames without multiplying them (Figure 2b)."""
        frames: list[NvFrame] = []
        for pno, image in dirty_pages.items():
            if self.scheme.diff and pno in self._logged_images:
                extents = compute_extents(
                    self._logged_images[pno], image, self.scheme.diff_mode
                )
            else:
                extents = [(0, image)] if image != self._logged_images.get(pno) else []
            if not extents:
                continue
            frames.append(
                NvFrame.from_extents(pno, extents, self._checkpoint_id)
            )
        return frames

    # ------------------------------------------------------------------
    # block chaining (Algorithm 1 lines 4-14)
    # ------------------------------------------------------------------

    def _chain_new_block(self, frame_size: int) -> None:
        """Allocate the next NVRAM log block and link it durably."""
        need = frame_size + _BLOCK_HEADER_SIZE
        if self.scheme.user_heap:
            size = max(self.scheme.block_size, need)
            alloc = self.userheap.pre_allocate_block(size, name=_BLOCK_NAME)
        else:
            # Stock path: one kernel allocation per frame (Section 5.3,
            # "NVWAL LS ... calls Heapo's nvmalloc() for every WAL frame").
            alloc = self.heapo.nvmalloc(need, name=_BLOCK_NAME)
        # Initialize the block header and store the link, then persist both
        # before the block becomes reachable (lines 8-11).  The header's
        # third field records the block's position in the chain; recovery
        # refuses links whose position does not match, so a corrupted
        # pointer can never splice the walk into the middle of the chain.
        self.cpu.memcpy(
            alloc.addr,
            struct.pack("<QII", 0, alloc.size, len(self.userheap.blocks)),
        )
        self.cpu.store(self._link_addr, struct.pack("<Q", alloc.addr))
        self.cpu.dmb()
        self.cpu.cache_line_flush(alloc.addr, alloc.addr + _BLOCK_HEADER_SIZE)
        self.cpu.cache_line_flush(self._link_addr, self._link_addr + 8)
        self.cpu.dmb()
        self.cpu.persist_barrier()
        if self.scheme.user_heap:
            # line 13: mark the in-use flag now that the reference is durable
            self.userheap.commit_block(alloc, reserved=_BLOCK_HEADER_SIZE)
        else:
            self.userheap.adopt(alloc, used=_BLOCK_HEADER_SIZE)
        self._link_addr = alloc.addr  # next-pointer field of the new tail

    # ------------------------------------------------------------------
    # recovery (Section 4.3)
    # ------------------------------------------------------------------

    def recover(self) -> dict[int, bytes]:
        """Walk the NVRAM log, apply committed transactions, reclaim
        orphans, and leave the backend positioned for new appends.

        Salvage semantics: the scan stops at the first frame that fails
        any validity check (checksum, commit word, unreadable media) and
        keeps the longest valid committed prefix instead of raising.
        :attr:`last_recovery` reports what was replayed and dropped.
        """
        report = RecoveryReport()
        self.last_recovery = report
        self._root = self._ensure_root()
        self._checkpoint_id = self._read_checkpoint_id()
        self.userheap.blocks.clear()
        self.userheap.used = 0
        self._logged_images.clear()
        self._frame_count = 0
        self._link_addr = self._root.addr + _ROOT_FIRST_BLOCK_OFFSET
        self._epoch = None  # any open epoch died with the crash

        chain = self._walk_chain(report)
        committed, tail_position = self._scan_frames(chain, report)

        # Rebuild volatile allocator state up to the end of committed data.
        reachable = set()
        last_block_index = tail_position[0] if tail_position else -1
        for i, alloc in enumerate(chain):
            if i > last_block_index:
                break
            reachable.add(alloc.addr)
            used = (
                tail_position[1]
                if i == last_block_index
                else alloc.size  # earlier blocks are treated as full
            )
            self.userheap.adopt(alloc, used)
        if self.userheap.blocks:
            self._link_addr = self.userheap.blocks[-1].addr
            # Truncate the durable chain after the last committed frame's
            # block, so stale in-use blocks do not linger.
            self._truncate_chain_after(self.userheap.blocks[-1])
        else:
            self._store_durable_u64(
                self._root.addr + _ROOT_FIRST_BLOCK_OFFSET, 0
            )
        self._reclaim_orphan_blocks(reachable)

        # Apply committed transactions over base pages from the db file.
        images: dict[int, bytes] = {}
        applied = 0
        for frame in committed:
            base = images.get(frame.page_no)
            if base is None:
                base = self._base_page(frame.page_no)
            try:
                images[frame.page_no] = frame.apply_to(base)
            except ChecksumError:
                # Checksum-valid frames cannot normally fail application;
                # if one does, keep the prefix applied so far.
                report.corruption_detected = True
                report.reason = report.reason or "frame application failed"
                report.frames_dropped += len(committed) - applied
                committed = committed[:applied]
                break
            applied += 1
        self._logged_images = dict(images)
        self._frame_count = len(committed)
        report.frames_replayed = len(committed)
        if len(committed) < (report.commit_boundaries or (0,))[-1]:
            # Frame application truncated the replayed prefix: drop the
            # commit boundaries past it so cursor and salvage stay agreed.
            report.commit_boundaries = tuple(
                b for b in report.commit_boundaries if b <= len(committed)
            )
            report.epochs_replayed = len(report.commit_boundaries)
        if report.corruption_detected:
            report.frames_salvaged = len(committed)
        return images

    def _walk_chain(self, report: RecoveryReport) -> list[NvAllocation]:
        """Follow the persistent block list, dropping dangling references
        (a crash between linking and set_used_flag leaves the block
        reclaimed by heap recovery — Section 4.3 case 2).

        Hardened against media decay: a link is only followed into a live
        ``nvwal-blk`` allocation whose header carries the expected chain
        position.  A flipped root or next pointer therefore truncates the
        chain instead of splicing the walk into the middle of it (which
        would replay a non-prefix of the log).
        """
        try:
            raw = self.cpu.load_free(
                self._root.addr + _ROOT_FIRST_BLOCK_OFFSET, 8
            )
            addr = struct.unpack("<Q", raw)[0]
        except MediaError:
            report.corruption_detected = True
            report.reason = "root block pointer unreadable"
            return []
        chain: list[NvAllocation] = []
        seen = set()
        while addr and addr not in seen:
            seen.add(addr)
            alloc = self._live_block_at(addr)
            if alloc is None or alloc.name != _BLOCK_NAME:
                break
            try:
                header = self.cpu.load(addr, _BLOCK_HEADER_SIZE)
            except MediaError:
                report.corruption_detected = True
                report.reason = report.reason or "block header unreadable"
                break
            next_addr, _size, chain_index = struct.unpack_from("<QII", header, 0)
            if chain_index != len(chain):
                report.corruption_detected = True
                report.reason = report.reason or "chain position mismatch"
                break
            chain.append(alloc)
            addr = next_addr
        return chain

    def _live_block_at(self, addr: int) -> NvAllocation | None:
        if not self.heapo.is_live(addr):
            return None
        return self.heapo.allocation_at(addr)

    def _scan_frames(
        self, chain: list[NvAllocation], report: RecoveryReport
    ) -> tuple[list[NvFrame], tuple[int, int] | None]:
        """Parse frames block by block; return the committed prefix and the
        position (block index, offset) just after the last committed frame.

        The scan stops — keeping what is committed so far — at the first
        frame whose payload checksum or commit word is invalid, or whose
        bytes the media refuses to return.  A zero commit word is a normal
        in-flight frame; any other value must equal one of the three words
        derived from the frame's checksum (standalone commit, epoch
        member, epoch close — see :func:`commit_mark_value`), so decayed
        commit fields cannot mint phantom transactions.

        Epoch semantics: an epoch-member word is a validated transaction
        boundary but keeps its frames *pending*; only a standalone commit
        or an epoch-close word commits everything pending.  A crash inside
        an open epoch therefore drops every one of its transactions —
        recovery replays the longest valid prefix of whole epochs.
        """
        committed: list[NvFrame] = []
        pending: list[NvFrame] = []
        tail: tuple[int, int] | None = None
        boundaries: list[int] = []

        def finish() -> tuple[list[NvFrame], tuple[int, int] | None]:
            report.commit_boundaries = tuple(boundaries)
            report.epochs_replayed = len(boundaries)
            return committed, tail

        def salvage(reason: str) -> tuple[list[NvFrame], tuple[int, int] | None]:
            report.corruption_detected = True
            report.reason = report.reason or reason
            report.frames_dropped += len(pending)
            return finish()

        for block_index, alloc in enumerate(chain):
            pos = _BLOCK_HEADER_SIZE
            try:
                block_bytes = self.cpu.load(alloc.addr, alloc.size)
            except MediaError:
                return salvage("log block unreadable")
            while pos + NV_HEADER_SIZE <= alloc.size:
                magic, page_no, offset, size, checksum, ckpt, commit = (
                    decode_nv_frame_header(block_bytes, pos)
                )
                if magic != NV_FRAME_MAGIC or ckpt != self._checkpoint_id:
                    break
                padded = _align8(size)
                if pos + NV_HEADER_SIZE + padded > alloc.size:
                    break
                payload = bytes(
                    block_bytes[pos + NV_HEADER_SIZE : pos + NV_HEADER_SIZE + size]
                )
                if payload_checksum(
                    payload, page_no, offset, self.checksum_bits
                ) != checksum:
                    # Torn frame (or the asynchronous-commit window): the
                    # transaction it belongs to is considered aborted.
                    return salvage("frame checksum mismatch")
                member_word = epoch_member_value(checksum)
                if commit and commit not in (
                    commit_mark_value(checksum),
                    member_word,
                    epoch_close_value(checksum),
                ):
                    return salvage("invalid commit word")
                pending.append(
                    NvFrame(page_no, offset, payload, ckpt, commit=bool(commit))
                )
                pos += NV_HEADER_SIZE + padded
                if commit and commit != member_word:
                    committed.extend(pending)
                    pending.clear()
                    tail = (block_index, pos)
                    boundaries.append(len(committed))
        report.frames_dropped += len(pending)
        return finish()

    def verify_log(self) -> RecoveryReport:
        """Read-only scrub of the live NVRAM log.

        Re-walks the durable block chain and re-parses every frame with
        the same validity checks recovery applies, without touching the
        allocator, the replay images, or the chain itself.  MediaErrors
        from decayed units are absorbed into the report instead of
        raised, so the service layer can probe NVRAM health (circuit
        breaker half-open checks, degraded-mode re-promotion) between
        requests.
        """
        report = RecoveryReport()
        chain = self._walk_chain(report)
        committed, _tail = self._scan_frames(chain, report)
        report.frames_replayed = len(committed)
        if report.corruption_detected:
            report.frames_salvaged = len(committed)
        return report

    def _truncate_chain_after(self, tail_block: NvAllocation) -> None:
        """Free chain blocks past ``tail_block`` and clear its next pointer."""
        try:
            header = self.cpu.load_free(tail_block.addr, _BLOCK_HEADER_SIZE)
        except MediaError:
            return
        next_addr = struct.unpack_from("<Q", header, 0)[0]
        if not next_addr:
            return
        self._store_durable_u64(tail_block.addr, 0)
        while next_addr:
            alloc = self._live_block_at(next_addr)
            if alloc is None or alloc.name != _BLOCK_NAME:
                break
            try:
                hdr = self.cpu.load_free(alloc.addr, _BLOCK_HEADER_SIZE)
                next_addr = struct.unpack_from("<Q", hdr, 0)[0]
            except MediaError:
                next_addr = 0
            self.heapo.nvfree(alloc)

    def _reclaim_orphan_blocks(self, reachable: set[int]) -> None:
        """Free in-use WAL blocks not reachable from the root (e.g. a crash
        between the checkpoint's chain reset and its nvfree calls)."""
        for alloc in self.heapo.live_allocations():
            if alloc.name == _BLOCK_NAME and alloc.addr not in reachable:
                if self.heapo.is_live(alloc.addr):
                    self.heapo.nvfree(alloc)

    def _base_page(self, pno: int) -> bytes:
        page_size = self.system.page_size
        if self.db_file is None:
            return bytes(page_size)
        offset = (pno - 1) * page_size
        if offset >= self.db_file.size:
            return bytes(page_size)
        return self.db_file.read(offset, page_size).ljust(page_size, b"\x00")

    # ------------------------------------------------------------------
    # checkpointing (Section 4.3)
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Write committed pages to the database file, then invalidate and
        free the NVRAM log."""
        if self.db_file is None:
            raise RuntimeError("NVWAL is not bound to a database file")
        if self._epoch is not None:
            raise TransactionError(
                "cannot checkpoint while a group-commit epoch is open"
            )
        started_ns = self.system.clock.now_ns
        pages = sorted(self._logged_images)
        page_size = self.system.page_size
        for pno in pages:
            self.db_file.write((pno - 1) * page_size, self._logged_images[pno])
        if pages:
            self.db_file.fsync()
        # Invalidate the log *after* the pages are durable: bump the
        # checkpoint id and unlink the chain in one flushed update.
        new_id = self._checkpoint_id + 1
        self.cpu.store(
            self._root.addr + _ROOT_CKPT_OFFSET, struct.pack("<I", new_id)
        )
        self.cpu.store(
            self._root.addr + _ROOT_FIRST_BLOCK_OFFSET, struct.pack("<Q", 0)
        )
        self.cpu.dmb()
        self.cpu.cache_line_flush(
            self._root.addr + _ROOT_CKPT_OFFSET, self._root.addr + _ROOT_SIZE
        )
        self.cpu.dmb()
        self.cpu.persist_barrier()
        self.userheap.free_all()
        self._checkpoint_id = new_id
        self._logged_images.clear()
        self._frame_count = 0
        self._link_addr = self._root.addr + _ROOT_FIRST_BLOCK_OFFSET
        self._note_checkpoint(started_ns, len(pages))
        return len(pages)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def frame_count(self) -> int:
        """Frames appended since the last checkpoint."""
        return self._frame_count

    def log_bytes_in_use(self) -> int:
        """NVRAM bytes held by log blocks (ablation A1)."""
        return sum(alloc.size for alloc in self.userheap.blocks)

    def frames_per_block(self) -> float:
        """Average frames stored per NVRAM block (paper: 4.9 at 8 KB)."""
        if not self.userheap.blocks:
            return 0.0
        return self._frame_count / len(self.userheap.blocks)

    def _store_durable_u64(self, addr: int, value: int) -> None:
        """Store + flush + barrier one 8-byte pointer (recovery-side)."""
        self.cpu.store(addr, struct.pack("<Q", value))
        self.cpu.dmb()
        self.cpu.cache_line_flush(addr, addr + 8)
        self.cpu.dmb()
        self.cpu.persist_barrier()


def _align8(value: int) -> int:
    return (value + 7) // 8 * 8
