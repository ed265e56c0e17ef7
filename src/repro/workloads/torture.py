"""Crash-point sweeps for the workload suite.

The same discipline as the torture harness, on the shared crash-sweep
machinery of :mod:`repro.harness.crash`, generalized over workload
families: profile the uncrashed run to learn every primitive-op crash
point and the checkpoint schedule, then re-run the scenario crashing at
swept points and hold the recovered database against the fold model's
boundary states.

Workload-specific differences from the base driver:

* **multi-statement setup** — each setup statement (CREATE TABLE, then
  CREATE INDEX) is its own boundary, so a crash between them recovers
  to a legitimate partial-setup state;
* **index agreement** — whenever recovery lands past the CREATE INDEX
  boundary, :meth:`Database.check_integrity` must prove the secondary
  index agrees row-for-row with its table (and that page accounting is
  exact) on the recovered image;
* **per-workload oracles** — when the recovered state matches no
  allowed boundary, the workload names the broken guarantee (the queue
  distinguishes double-delivered from lost messages).

Checksum-committed schemes (``uh_cs_diff``, ``cs_diff``) may shed the
unchecksummed WAL tail on power loss, so their floor relaxes to the
last completed checkpoint, exactly as in the base driver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import tuna
from repro.db.database import Database
from repro.errors import DatabaseError
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
from repro.wal.base import SyncMode
from repro.wal.nvwal import SCHEMES, NvwalBackend
from repro.workloads.core import apply_txn, db_state, model_states
from repro.workloads.runner import make_workload

#: Small checkpoint threshold so short sweeps cross several checkpoints.
DEFAULT_TORTURE_THRESHOLD = 12


@dataclass(frozen=True)
class WorkloadScenario:
    """One reproducible workload crash experiment (picklable)."""

    workload: str
    seed: int
    ops: int
    scheme: str
    crash_point: int = 0  # 0: run to completion, then cut power
    checkpoint_threshold: int = DEFAULT_TORTURE_THRESHOLD


def scenario_from_dict(data: dict) -> WorkloadScenario:
    return load_scenario(WorkloadScenario, data)


def _make_db(system: System, scenario: WorkloadScenario) -> Database:
    wal = NvwalBackend(
        system,
        SCHEMES[scenario.scheme](),
        checkpoint_threshold=scenario.checkpoint_threshold,
    )
    return Database(system, wal=wal, name=f"{scenario.workload}.db")


def _script(scenario: WorkloadScenario):
    workload = make_workload(scenario.workload)
    return workload, workload.generate_txns(scenario.seed, scenario.ops)


def _steps(workload, db: Database, txns) -> list:
    """One step per setup statement, then one per transaction."""
    return [lambda sql=sql: db.execute(sql) for sql in workload.setup_sql()] + [
        lambda txn=txn: apply_txn(workload, db, txn) for txn in txns
    ]


def profile_scenario(scenario: WorkloadScenario) -> Profile:
    """Uncrashed run, counting primitive CPU ops per boundary."""
    workload, txns = _script(scenario)
    system = System(tuna(), seed=scenario.seed)
    db = _make_db(system, scenario)
    return profile_steps(system, db, _steps(workload, db, txns))


def _run_until_crash(scenario: WorkloadScenario):
    workload, txns = _script(scenario)
    system = System(tuna(), seed=scenario.seed)
    db = _make_db(system, scenario)

    def body() -> None:
        for step in _steps(workload, db, txns):
            step()

    crashed = run_until_crash(system, scenario.crash_point, body)
    return system, workload, txns, crashed


def _allowed_boundaries(
    scenario: WorkloadScenario, profile: Profile, crashed: bool, last: int
) -> set[int]:
    """Boundaries a recovered database may legitimately show."""
    if crashed:
        k = scenario.crash_point
        committed = max(
            b for b, ops in enumerate(profile.bounds) if ops <= k - 1
        )
        high = min(committed + 1, last)  # the in-flight txn may land
    else:
        committed = high = last
    if SCHEMES[scenario.scheme]().sync is SyncMode.CHECKSUM:
        # Asynchronous commit may shed the unchecksummed WAL tail — but
        # never below the last completed checkpoint.
        floor = checkpoint_floor(profile, scenario.crash_point, crashed)
        return set(range(floor, high + 1))
    return set(range(committed, high + 1))


def run_scenario(
    scenario: WorkloadScenario, profile: Profile | None = None
) -> ScenarioOutcome:
    """Run one scenario end to end; escapes become findings."""
    if profile is None:
        profile = profile_scenario(scenario)
    return run_guarded(_run_scenario_checked, scenario, profile)


def _run_scenario_checked(
    scenario: WorkloadScenario, profile: Profile
) -> ScenarioOutcome:
    system, workload, txns, crashed = _run_until_crash(scenario)
    states = model_states(workload, txns)
    last = len(states) - 1
    # Power goes down even on a clean run: recovery must also cope with
    # a cut in the idle state after the last commit.
    system.power_fail()
    system.reboot()
    db = _make_db(system, scenario)

    violations: list[str] = []
    allowed = _allowed_boundaries(scenario, profile, crashed, last)
    recovered = db_state(workload, db)
    matched = None
    for b in sorted(allowed, reverse=True):
        if recovered == states[b]:
            matched = b
            break
    if matched is None:
        detail = workload.describe_mismatch(recovered, states, allowed)
        if detail is None:
            detail = (
                f"state: recovered {workload.name} state matches no allowed "
                f"boundary {sorted(allowed)} — a committed transaction was "
                "lost, torn, or resurrected"
            )
        violations.append(detail)

    # The recovered image must be structurally sound whatever boundary it
    # landed on: B-tree invariants, index/table agreement, and exact page
    # accounting (freelist + live pages + overflow == all pages).
    try:
        db.check_integrity()
    except DatabaseError as exc:
        violations.append(f"integrity: {exc}")

    # Idempotence: a second power cycle must reproduce the same state.
    if matched is not None:
        try:
            system.power_fail()
            system.reboot()
            db2 = _make_db(system, scenario)
            if db_state(workload, db2) != recovered:
                violations.append(
                    "idempotence: a second power cycle does not reproduce "
                    f"boundary {matched}"
                )
        except Exception as exc:  # noqa: BLE001
            violations.append(
                f"error: second recovery raised {type(exc).__name__}: {exc}"
            )
    return ScenarioOutcome(
        violations=tuple(violations),
        crashed=crashed,
        matched_boundary=matched,
    )


# ----------------------------------------------------------------------
# per-seed sweep (module-level and picklable for parallel_map)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepTask:
    """Everything one seed's sweep needs, in picklable form."""

    workload: str
    seed: int
    ops: int
    scheme: str
    stride: int = 1
    checkpoint_threshold: int = DEFAULT_TORTURE_THRESHOLD


def run_seed(task: SweepTask) -> dict:
    """Sweep crash points ``1, 1+stride, ...`` plus the clean run."""
    base = WorkloadScenario(
        workload=task.workload,
        seed=task.seed,
        ops=task.ops,
        scheme=task.scheme,
        checkpoint_threshold=task.checkpoint_threshold,
    )
    profile = profile_scenario(base)
    outcomes, failures = run_sweep(
        [replace(base, crash_point=k) for k in crash_points(profile, task.stride)],
        profile,
        run_scenario,
    )
    return {
        "workload": task.workload,
        "seed": task.seed,
        "scheme": task.scheme,
        "total_ops": profile.total_ops,
        "boundaries": len(profile.bounds) - 1,
        "checkpoints": len(profile.ckpt_events),
        "runs": len(outcomes),
        "crashes": sum(outcome.crashed for outcome in outcomes),
        "failures": failures,
    }
