"""The torture driver: sweep every crash point, check every invariant.

One :class:`TortureScenario` is a fully reproducible experiment: a seed,
a scheme, a scripted workload, a crash point (a primitive-CPU-op index,
as counted by the crash controller), optionally a second crash point
*inside recovery*, and optionally a :class:`FaultPlan`.  Scenarios are
plain data — they pickle across process pools and round-trip through
JSON trace files, which is what makes failing runs replayable and
minimizable.

The oracles generalize the paper's Section 4.3 case analysis:

* **committed-prefix durability / atomicity** — the recovered table must
  equal the model state at *some* transaction boundary the crash point
  allows: the last committed transaction or the in-flight one (power
  alone), down to the last completed checkpoint when media decay or an
  asynchronous-commit scheme may legitimately shed WAL tail state.
* **heap consistency** — live NVRAM allocations must be non-overlapping
  and in-bounds, and descriptor quarantine may only happen under media
  faults.
* **no leaks** — after a post-recovery checkpoint, no ``nvwal-blk``
  allocation may remain live.
* **recovery idempotence** — a second power cycle after the checkpoint
  must reproduce the same table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import tuna
from repro.db.database import Database
from repro.errors import PowerFailure
from repro.faults import FaultPlan, IoFaultSpec, MediaFaultSpec
from repro.harness.codec import load_scenario
from repro.harness.crash import (
    Profile,
    ScenarioOutcome,
    checkpoint_floor,
    crash_points,
    profile_steps,
    run_guarded,
    run_sweep,
    run_until_crash,
)
from repro.system import System
from repro.torture.workload import (
    NO_TABLE,
    TABLE,
    generate_txns,
    model_states,
    run_workload,
    workload_steps,
)
from repro.wal.base import SyncMode
from repro.wal.frames import commit_mark_bytes
from repro.wal.nvwal import SCHEMES, NvwalBackend

#: Small checkpoint threshold (in WAL frames) so a 30-op workload crosses
#: several checkpoints and the sweep exercises crash-during-checkpoint.
DEFAULT_TORTURE_THRESHOLD = 12

DB_NAME = "torture.db"


class SabotagedNvwalBackend(NvwalBackend):
    """Deliberately broken backend for harness self-tests.

    The commit mark is stored but never flushed or fenced — exactly the
    bug Algorithm 1's final persist barrier exists to prevent.  The mark
    sits in a volatile cache line, so a crash after "commit" loses the
    transaction with roughly the landing probability.  A healthy torture
    run against this backend MUST produce durability violations; if it
    does not, the harness itself is broken.
    """

    def _write_commit_mark(self, last_frame_addr, checksum, explicit):
        mark_offset, mark = commit_mark_bytes(self._checkpoint_id, checksum)
        mark_addr = last_frame_addr + mark_offset
        self.cpu.store(mark_addr, mark)
        self.persist_domain.after_store(mark_addr, len(mark))
        # Injected bug: no dmb / cache_line_flush / persist_barrier.


@dataclass(frozen=True)
class TortureScenario:
    """One reproducible crash experiment (picklable, JSON-serializable)."""

    seed: int
    scheme: str
    txns: tuple  # tuple of transactions; each a tuple of (kind, k, v) ops
    crash_point: int = 0  # 0: run to completion, then cut power
    recovery_crash_point: int | None = None
    plan: FaultPlan | None = None
    checkpoint_threshold: int = DEFAULT_TORTURE_THRESHOLD
    sabotage: bool = False
    #: > 0: commit through the WAL's group-commit path, closing the
    #: shared epoch every ``group_epoch`` transactions.  Durability then
    #: arrives only at epoch closes, so the state oracle restricts the
    #: allowed boundaries to them: a crash inside an open epoch must
    #: lose the whole epoch, never a transaction from a closed one.
    group_epoch: int = 0


# ----------------------------------------------------------------------
# scenario construction helpers
# ----------------------------------------------------------------------


def build_fault_plan(seed: int, faults) -> FaultPlan | None:
    """The standard torture fault plan for a seed.

    ``power`` is implicit (every scenario cuts power); ``media`` adds
    NVRAM decay at each power loss, ``io`` adds transient eMMC command
    failures.  Rates are chosen so a *correct* stack must absorb them:
    transient errors stay below the retry budget, and media decay is
    recoverable by salvage + quarantine.
    """
    faults = set(faults)
    unknown = faults - {"power", "media", "io"}
    if unknown:
        raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
    media = None
    io = None
    if "media" in faults:
        media = MediaFaultSpec(bit_flips=2, stuck_units=1, poison_units=1)
    if "io" in faults:
        io = IoFaultSpec(read_error_rate=0.02, write_error_rate=0.02)
    if media is None and io is None:
        return None
    return FaultPlan(seed=seed, media=media, io=io)


def make_scenario(
    seed: int,
    ops: int,
    scheme: str,
    faults=("power",),
    txn_size: int = 3,
    checkpoint_threshold: int = DEFAULT_TORTURE_THRESHOLD,
    sabotage: bool = False,
    group_epoch: int = 0,
) -> TortureScenario:
    """Generate the base (no-crash-point) scenario for a seed."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick from {sorted(SCHEMES)}")
    return TortureScenario(
        seed=seed,
        scheme=scheme,
        txns=generate_txns(seed, ops, txn_size),
        plan=build_fault_plan(seed, faults),
        checkpoint_threshold=checkpoint_threshold,
        sabotage=sabotage,
        group_epoch=group_epoch,
    )


def _make_system(scenario: TortureScenario) -> System:
    system = System(tuna(), seed=scenario.seed)
    if scenario.plan is not None:
        system.inject_faults(scenario.plan)
    return system


def _make_db(system: System, scenario: TortureScenario) -> Database:
    backend_cls = SabotagedNvwalBackend if scenario.sabotage else NvwalBackend
    wal = backend_cls(
        system,
        SCHEMES[scenario.scheme](),
        checkpoint_threshold=scenario.checkpoint_threshold,
    )
    return Database(system, wal=wal, name=DB_NAME)


# ----------------------------------------------------------------------
# profiling: measure the crash-point space and checkpoint schedule
# ----------------------------------------------------------------------


def profile_scenario(scenario: TortureScenario) -> Profile:
    """Run the workload once, uncrashed, counting primitive CPU ops per
    transaction boundary (see :func:`repro.harness.crash.profile_steps`)."""
    system = _make_system(scenario)
    db = _make_db(system, scenario)
    return profile_steps(
        system, db, workload_steps(db, scenario.txns, scenario.group_epoch)
    )


# ----------------------------------------------------------------------
# running one scenario
# ----------------------------------------------------------------------


def _run_until_crash(scenario: TortureScenario) -> tuple[System, bool]:
    """Execute the workload, crashing at ``crash_point`` if reachable."""
    system = _make_system(scenario)
    db = _make_db(system, scenario)
    crashed = run_until_crash(
        system,
        scenario.crash_point,
        lambda: run_workload(db, scenario.txns, group_epoch=scenario.group_epoch),
    )
    return system, crashed


def run_scenario(
    scenario: TortureScenario, profile: Profile | None = None
) -> ScenarioOutcome:
    """Run one scenario end to end and check every oracle; an exception
    other than the injected power failure becomes an ``error:`` finding."""
    if profile is None:
        profile = profile_scenario(scenario)
    return run_guarded(_run_scenario_checked, scenario, profile)


def _run_scenario_checked(
    scenario: TortureScenario, profile: Profile
) -> ScenarioOutcome:
    states = model_states(scenario.txns)
    last_boundary = len(states) - 1
    system, crashed = _run_until_crash(scenario)
    # The machine goes down even on a clean run: recovery must also cope
    # with a power cut in the idle state after the last commit.
    system.power_fail()

    crashed_in_recovery = False
    recovery_ops = 0
    if crashed and scenario.recovery_crash_point:
        try:
            system.reboot(arm_after_ops=scenario.recovery_crash_point)
            db = _make_db(system, scenario)
            system.crash.disarm()
        except PowerFailure:
            crashed_in_recovery = True
            system.power_fail()
            system.reboot()
            db = _make_db(system, scenario)
    else:
        # Count recovery's own primitive ops while we are here: the sweep
        # driver uses the measurement to pick crash points whose recovery
        # is worth crashing *into*.
        def recover() -> None:
            nonlocal db
            system.reboot()
            db = _make_db(system, scenario)

        recovery_ops = system.crash.count_ops(recover)

    violations: list[str] = []
    allowed = _allowed_boundaries(scenario, profile, crashed, last_boundary)
    matched, state_violations = _match_state(db, states, allowed)
    violations.extend(state_violations)
    violations.extend(_check_heap(system, scenario))
    violations.extend(_check_leaks_and_idempotence(system, db, scenario, states, matched))
    return ScenarioOutcome(
        violations=tuple(violations),
        crashed=crashed,
        crashed_in_recovery=crashed_in_recovery,
        matched_boundary=matched,
        recovery_ops=recovery_ops,
    )


def _close_boundaries(group_epoch: int, last_boundary: int) -> list[int]:
    """Model boundaries that coincide with an epoch close under group
    commit: the pre-DDL state, the individually-durable DDL, every
    ``group_epoch``-th transaction, and the final drain flush."""
    closes = [0]
    if last_boundary >= 1:
        closes.append(1)
    b = 1 + group_epoch
    while b < last_boundary:
        closes.append(b)
        b += group_epoch
    if last_boundary > 1:
        closes.append(last_boundary)
    return closes


def _allowed_boundaries(
    scenario: TortureScenario, profile: Profile, crashed: bool, last_boundary: int
) -> set[int]:
    """Which model boundaries a recovered database may legitimately show."""
    if scenario.group_epoch > 0:
        # Group commit quantizes durability to epoch closes: recovery
        # replays the longest valid prefix of *whole* epochs.  A crash
        # inside an open epoch loses every transaction in it; a crash
        # during the close sequence may land the whole epoch atomically
        # (the next close boundary) or none of it — never a part.
        closes = _close_boundaries(scenario.group_epoch, last_boundary)
        if crashed:
            k = scenario.crash_point
            committed = max(b for b in closes if profile.bounds[b] <= k - 1)
            pending = [b for b in closes if b > committed]
            high = pending[0] if pending else committed
        else:
            committed = high = last_boundary
        allowed = {b for b in closes if committed <= b <= high}
    else:
        if crashed:
            k = scenario.crash_point
            committed = max(
                b for b, ops in enumerate(profile.bounds) if ops <= k - 1
            )
            high = min(committed + 1, last_boundary)  # the in-flight txn may land
        else:
            committed = high = last_boundary
        allowed = set(range(committed, high + 1))
    # Media decay and asynchronous (checksum) commit may legitimately shed
    # the WAL tail — but never below the last completed checkpoint.
    relaxed = (
        scenario.plan is not None and scenario.plan.media is not None
    ) or SCHEMES[scenario.scheme]().sync is SyncMode.CHECKSUM
    if relaxed:
        floor = checkpoint_floor(profile, scenario.crash_point, crashed)
        if scenario.group_epoch > 0:
            closes = _close_boundaries(scenario.group_epoch, last_boundary)
            return {b for b in closes if floor <= b <= high}
        return set(range(floor, high + 1))
    return allowed


def _match_state(db: Database, states: list, allowed: set[int]):
    """Committed-prefix durability + atomicity oracle."""
    if not db.table_exists(TABLE):
        if 0 in allowed and states[0] is NO_TABLE:
            return 0, []
        return None, [
            "state: table missing after recovery although the DDL "
            f"transaction must have survived (allowed boundaries {sorted(allowed)})"
        ]
    rows = sorted(db.dump_table(TABLE))
    for b in sorted(allowed, reverse=True):
        if b > 0 and rows == states[b]:
            return b, []
    return None, [
        f"state: recovered table ({len(rows)} rows) matches no allowed "
        f"transaction boundary {sorted(allowed)} — a committed transaction "
        "was lost, torn, or resurrected"
    ]


def _check_heap(system: System, scenario: TortureScenario) -> list[str]:
    """Tri-state heap consistency: in-bounds, non-overlapping, and no
    quarantine unless media decay could have caused it."""
    violations = []
    heapo = system.heapo
    allocs = sorted(heapo.live_allocations(), key=lambda a: a.addr)
    cursor = heapo.heap_start
    for alloc in allocs:
        if alloc.addr < cursor:
            violations.append(
                f"heap: allocation {alloc.name!r} at {alloc.addr:#x} overlaps "
                "the previous live allocation"
            )
        if alloc.addr + alloc.size > system.nvram.size:
            violations.append(
                f"heap: allocation {alloc.name!r} extends past the device end"
            )
        cursor = max(cursor, alloc.addr + alloc.size)
    media = scenario.plan is not None and scenario.plan.media is not None
    if heapo.quarantined_slots() and not media:
        violations.append(
            "heap: descriptor quarantine without media faults — attach "
            f"rejected slots {heapo.quarantined_slots()} on a clean device"
        )
    return violations


def _check_leaks_and_idempotence(
    system: System,
    db: Database,
    scenario: TortureScenario,
    states: list,
    matched: int | None,
) -> list[str]:
    """Checkpoint the recovered database, then prove nothing leaked and a
    second power cycle reproduces the same table."""
    try:
        db.checkpoint()
    except Exception as exc:  # noqa: BLE001
        return [
            f"error: checkpoint after recovery raised "
            f"{type(exc).__name__}: {exc}"
        ]
    leaks = [a for a in system.heapo.live_allocations() if a.name == "nvwal-blk"]
    violations = []
    if leaks:
        violations.append(
            f"leak: {len(leaks)} nvwal-blk block(s) still live after a "
            "post-recovery checkpoint"
        )
    if matched is None:
        return violations  # state already wrong; idempotence is meaningless
    try:
        system.power_fail()
        system.reboot()
        db2 = _make_db(system, scenario)
        if matched == 0:
            stable = not db2.table_exists(TABLE)
        else:
            stable = (
                db2.table_exists(TABLE)
                and sorted(db2.dump_table(TABLE)) == states[matched]
            )
        if not stable:
            violations.append(
                "idempotence: a second power cycle after the checkpoint "
                f"does not reproduce boundary {matched}"
            )
    except Exception as exc:  # noqa: BLE001
        violations.append(
            f"error: second recovery raised {type(exc).__name__}: {exc}"
        )
    return violations


# ----------------------------------------------------------------------
# per-seed sweep (module-level and picklable for parallel_map)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SeedTask:
    """Everything one seed's sweep needs, in picklable form."""

    seed: int
    ops: int
    scheme: str
    faults: tuple = ("power",)
    txn_size: int = 3
    stride: int = 1
    recovery_points: int = 2
    checkpoint_threshold: int = DEFAULT_TORTURE_THRESHOLD
    sabotage: bool = False
    group_epoch: int = 0


def run_seed(task: SeedTask) -> dict:
    """Sweep every crash point for one seed; returns a JSON-able summary.

    Phase 1 arms the crash controller at op 1, 1+stride, ... across the
    whole workload (checkpoints included), plus the no-crash power cut,
    and measures how many primitive ops each crash's *recovery* performs.
    Phase 2 takes the ``recovery_points`` crash points with the richest
    recoveries (chain truncation, root recreation — most recoveries are
    pure failure-atomic metadata and have nothing to interrupt) and
    sweeps every op inside them — crash during recovery, Section 4.3's
    hardest case.
    """
    base = make_scenario(
        task.seed,
        task.ops,
        task.scheme,
        faults=task.faults,
        txn_size=task.txn_size,
        checkpoint_threshold=task.checkpoint_threshold,
        sabotage=task.sabotage,
        group_epoch=task.group_epoch,
    )
    profile = profile_scenario(base)
    points = crash_points(profile, task.stride)
    outcomes, failures = run_sweep(
        [replace(base, crash_point=k) for k in points],
        profile,
        run_scenario,
    )
    recovery_depth = sorted(
        (-outcome.recovery_ops, k)
        for k, outcome in zip(points, outcomes)
        if k > 0 and outcome.crashed and outcome.recovery_ops > 0
    )
    deep = [
        replace(base, crash_point=k, recovery_crash_point=r)
        for neg_ops, k in recovery_depth[: task.recovery_points]
        for r in range(1, -neg_ops + 1)
    ]
    deep_outcomes, deep_failures = run_sweep(deep, profile, run_scenario)
    outcomes += deep_outcomes
    failures += deep_failures
    return {
        "seed": task.seed,
        "scheme": base.scheme,
        "total_ops": profile.total_ops,
        "boundaries": len(profile.bounds) - 1,
        "checkpoints": len(profile.ckpt_events),
        "runs": len(outcomes),
        "crashes": sum(outcome.crashed for outcome in outcomes),
        "recovery_runs": len(deep),
        "failures": failures,
    }


# ----------------------------------------------------------------------
# trace (de)serialization
# ----------------------------------------------------------------------


def scenario_from_dict(data: dict) -> TortureScenario:
    return load_scenario(TortureScenario, data)
