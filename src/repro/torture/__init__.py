"""Crash-consistency torture harness (``python -m repro.torture``).

Sweeps every crash point of a seeded workload — including crashes inside
recovery and checkpointing — layers media/IO fault plans on top, checks
recovery invariants (committed-prefix durability, atomicity, heap
tri-state consistency, no leaked log blocks, recovery idempotence), and
records failing scenarios as replayable, auto-minimized JSON traces.
"""

from repro.harness.codec import scenario_to_dict
from repro.harness.crash import Profile, ScenarioOutcome
from repro.harness.minimize import violation_codes
from repro.torture.driver import (
    SabotagedNvwalBackend,
    SeedTask,
    TortureScenario,
    build_fault_plan,
    make_scenario,
    profile_scenario,
    run_scenario,
    run_seed,
    scenario_from_dict,
)
from repro.torture.minimize import minimize
from repro.torture.workload import (
    DDL,
    TABLE,
    apply_txn,
    apply_txn_grouped,
    generate_txns,
    model_states,
    run_workload,
)

__all__ = [
    "DDL",
    "Profile",
    "SabotagedNvwalBackend",
    "ScenarioOutcome",
    "SeedTask",
    "TABLE",
    "TortureScenario",
    "apply_txn",
    "apply_txn_grouped",
    "build_fault_plan",
    "generate_txns",
    "make_scenario",
    "minimize",
    "model_states",
    "profile_scenario",
    "run_scenario",
    "run_seed",
    "run_workload",
    "scenario_from_dict",
    "scenario_to_dict",
    "violation_codes",
]
