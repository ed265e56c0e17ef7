"""Crash-point sweep machinery shared by the single-database harnesses.

The torture harness and the workload-suite torture sweep run the same
experiment over different workloads: profile the uncrashed run to learn
every primitive-op crash point and the checkpoint schedule, then re-run
the scenario crashing at swept points and hold the recovered database
against a model.  Everything here is workload-agnostic: a workload is a
list of *steps*, step ``i`` completing model boundary ``i + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import PowerFailure
from repro.harness.codec import trace_record


@dataclass(frozen=True)
class Profile:
    """Measured shape of a scenario's uncrashed run."""

    total_ops: int  # crash points available in the workload
    bounds: tuple  # bounds[b]: op count when boundary b completed
    ckpt_events: tuple  # (op count at completion, boundary checkpointed)


@dataclass(frozen=True)
class ScenarioOutcome:
    """What one crash scenario run produced."""

    violations: tuple
    crashed: bool = False
    crashed_in_recovery: bool = False
    matched_boundary: int | None = None
    #: Primitive CPU ops observed inside reboot + WAL recovery — the sweep
    #: space for a recovery crash point (0 when recovery only performs
    #: failure-atomic heap-metadata updates, which cannot be interrupted).
    recovery_ops: int = 0


def profile_steps(system, db, steps: Sequence[Callable[[], object]]) -> Profile:
    """Run ``steps`` uncrashed, counting primitive CPU ops.

    Every run of the same scenario executes identically up to its crash
    point, so the measured boundaries and checkpoint completions (tagged
    with the boundary in progress) are valid for the whole sweep.
    """
    counter = [0]

    def hook(_op: str) -> None:
        counter[0] += 1

    system.cpu.crash_hook = hook
    bounds = [0]
    boundary = [0]
    ckpt_events: list[tuple[int, int]] = []
    wal_checkpoint = db.wal.checkpoint

    def tracked_checkpoint() -> int:
        written = wal_checkpoint()
        ckpt_events.append((counter[0], boundary[0]))
        return written

    db.wal.checkpoint = tracked_checkpoint
    for step in steps:
        boundary[0] += 1
        step()
        bounds.append(counter[0])
    system.cpu.crash_hook = None
    return Profile(
        total_ops=counter[0],
        bounds=tuple(bounds),
        ckpt_events=tuple(ckpt_events),
    )


def checkpoint_floor(profile: Profile, crash_point: int, crashed: bool) -> int:
    """The latest boundary whose checkpoint completed before the crash (or
    by the end of a clean run): recovery that may shed WAL tail state
    must never land below it, its pages are fsynced into the database."""
    cutoff = crash_point - 1 if crashed else profile.total_ops
    return max(
        (boundary for ops, boundary in profile.ckpt_events if ops <= cutoff),
        default=0,
    )


def run_until_crash(system, crash_point: int, body: Callable[[], object]) -> bool:
    """Run ``body`` with the crash controller armed at ``crash_point``
    (0: never); True if power failed inside it."""
    if crash_point > 0:
        system.crash.arm(crash_point)
    try:
        body()
    except PowerFailure:
        return True
    if crash_point > 0:
        system.crash.disarm()
    return False


def run_guarded(checked: Callable, scenario, profile: Profile) -> ScenarioOutcome:
    """``checked(scenario, profile)``, with any escaping exception turned
    into an ``error:`` finding — recovery code must degrade, not crash."""
    try:
        return checked(scenario, profile)
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        return ScenarioOutcome(
            violations=(
                f"error: unhandled {type(exc).__name__} escaped the "
                f"crash/recovery path: {exc}",
            )
        )


def crash_points(profile: Profile, stride: int) -> list[int]:
    """The no-crash power cut, then ops ``1, 1+stride, ...``."""
    return [0, *range(1, profile.total_ops + 1, stride)]


def run_sweep(scenarios, profile: Profile, run: Callable):
    """Run every scenario; returns the outcomes and the trace records
    (see :func:`repro.harness.codec.trace_record`) of the failing ones."""
    outcomes = [run(scenario, profile) for scenario in scenarios]
    failures = [
        trace_record(scenario, outcome.violations)
        for scenario, outcome in zip(scenarios, outcomes)
        if outcome.violations
    ]
    return outcomes, failures
