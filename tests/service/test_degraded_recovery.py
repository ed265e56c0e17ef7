"""Recovery while degraded: power failure during the re-promotion path.

The hardest corner of the degraded-mode story: the service has demoted to
read-only on media decay, the maintenance daemon starts the re-promotion
sequence (scrub, checkpoint, re-scrub), and the power dies in the middle
of that checkpoint.  The database must land back in a *salvageable*
state — recovery succeeds, and the surviving rows are exactly a
committed-transaction boundary (possibly shed back toward the last
durable checkpoint by the decayed log, never torn) — for all three WAL
schemes the crash matrix covers.
"""

from __future__ import annotations

import pytest

from repro import System, tuna
from repro.errors import PowerFailure
from repro.faults import MediaFaultSpec, NvramFaultInjector
from repro.service.server import READ_ONLY, DatabaseService, ServiceConfig
from repro.torture.workload import TABLE
from repro.wal.nvwal import ROTATION, SCHEMES
from tests.conftest import make_nvwal_db

DB_NAME = "degraded.db"

TXNS = [
    tuple((f"insert", i * 4 + j, f"t{i}.{j}") for j in range(3))
    for i in range(5)
]


def fold_states(txns):
    rows = {}
    states = [sorted(rows.items())]
    for txn in txns:
        for _kind, key, value in txn:
            rows[key] = value
        states.append(sorted(rows.items()))
    return states


def drive(gen, clock):
    while True:
        try:
            clock.advance(max(0, next(gen)))
        except StopIteration as stop:
            return stop.value


def build_degraded_service(scheme_name: str, seed: int = 11):
    """A service demoted to read-only by runtime NVRAM decay."""
    system = System(tuna(), seed=seed)
    db = make_nvwal_db(
        system, SCHEMES[scheme_name](), name=DB_NAME,
        checkpoint_threshold=1000,  # keep every frame in the NVRAM log
    )
    db.execute(f"CREATE TABLE {TABLE} (k INTEGER PRIMARY KEY, v TEXT)")
    config = ServiceConfig(breaker_threshold=1, breaker_cooldown_ns=1)
    service = DatabaseService(db, config, seed=seed)
    for txn in TXNS:
        drive(service.submit_txn("c0", txn), system.clock)
    injector = NvramFaultInjector(MediaFaultSpec(poison_units=48), seed=3)
    injector.on_power_loss(system.nvram)  # decay NOW, no power loss
    system.nvram.fault_injector = injector
    maint = service.maintenance()
    next(maint)  # prime to the first yield
    next(maint)  # tick 1: scrub sees the decay, breaker trips, demote
    assert service.mode == READ_ONLY, "decayed log must demote the service"
    system.clock.advance(config.breaker_cooldown_ns + 1)
    return system, db, service, maint


@pytest.mark.parametrize("scheme_name", ROTATION)
def test_power_fail_during_repromotion_checkpoint_is_salvageable(scheme_name):
    """Sweep crash points across the repair tick (scrub + checkpoint)."""
    states = fold_states(TXNS)
    crashed_somewhere = False
    # The repair tick costs only a handful of *counted* (NVRAM-touching)
    # ops — the checkpoint's block IO is not in the crash controller's
    # op space — so the sweep is dense over a small range.
    for crash_at in range(1, 9):
        system, _db, _service, maint = build_degraded_service(scheme_name)
        system.crash.arm(after_ops=crash_at)
        try:
            next(maint)  # the repair tick
        except PowerFailure:
            crashed_somewhere = True
        finally:
            system.crash.disarm()
        system.power_fail()
        system.reboot()
        # Salvage must succeed: reopening replays what survives of the
        # decayed log and never raises.
        db2 = make_nvwal_db(
            system, SCHEMES[scheme_name](), name=DB_NAME,
            checkpoint_threshold=1000,
        )
        assert db2.table_exists(TABLE)
        rows = sorted(db2.dump_table(TABLE))
        assert rows in states, (
            f"{scheme_name}: crash at {crash_at} during re-promotion left "
            f"{len(rows)} row(s) matching no transaction boundary"
        )
    assert crashed_somewhere, "sweep never landed inside the repair tick"


@pytest.mark.parametrize("scheme_name", ROTATION)
def test_service_heals_end_to_end_after_repromotion_crash(scheme_name):
    """After the crash, a fresh service on the recovered database serves
    writes again — the full demote -> crash -> recover -> write loop."""
    system, _db, _service, maint = build_degraded_service(scheme_name)
    system.crash.arm(after_ops=3)
    with pytest.raises(PowerFailure):
        next(maint)
    system.crash.disarm()
    system.power_fail()
    system.reboot()
    db2 = make_nvwal_db(
        system, SCHEMES[scheme_name](), name=DB_NAME, checkpoint_threshold=1000
    )
    service2 = DatabaseService(db2, ServiceConfig(), seed=11)
    drive(service2.submit_txn("c0", (("insert", 999, "post-crash"),)),
          system.clock)
    assert (999, "post-crash") in db2.dump_table(TABLE)
    assert service2.mode == "rw"
