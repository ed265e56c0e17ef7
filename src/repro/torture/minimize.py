"""Shrink a failing torture scenario to its essence.

A raw failing trace can carry dozens of irrelevant transactions and a
fault plan that has nothing to do with the bug.  The minimizer shrinks
in the order that preserves the most meaning:

1. **operations** — drop whole transactions, then individual ops;
2. **crash point** — prefer no crash at all, otherwise the earliest
   failing op index (and the earliest recovery crash point);
3. **fault set** — drop the whole plan, a whole fault class, then
   individual fault counts.

Every candidate is re-run by :func:`repro.harness.minimize.minimize`; a
shrink is kept only if the *same class* of violation (the ``code:``
prefix of the finding) still fires, so the minimizer cannot drift from a
durability bug to an unrelated error.  All runs are seeded and
deterministic, so the minimized scenario fails identically every time
it is replayed.
"""

from __future__ import annotations

from dataclasses import replace

from repro.faults import FaultPlan, MediaFaultSpec
from repro.harness.minimize import minimize as minimize_scenario
from repro.harness.minimize import shrink_each
from repro.torture.driver import TortureScenario, run_scenario


def _shrink_crash_points(scenario, still_fails):
    """Prefer no crash; otherwise the earliest op index that still fails."""
    if scenario.crash_point > 0:
        candidate = replace(scenario, crash_point=0, recovery_crash_point=None)
        if still_fails(candidate):
            return candidate
        for k in range(1, scenario.crash_point):
            candidate = replace(scenario, crash_point=k)
            if still_fails(candidate):
                scenario = candidate
                break
    if scenario.recovery_crash_point:
        candidate = replace(scenario, recovery_crash_point=None)
        if still_fails(candidate):
            return candidate
        for r in range(1, scenario.recovery_crash_point):
            candidate = replace(scenario, recovery_crash_point=r)
            if still_fails(candidate):
                return candidate
    return scenario


def _shrink_faults(scenario, still_fails):
    """Drop the plan, then fault classes, then individual fault counts."""
    plan = scenario.plan
    if plan is None:
        return scenario
    candidate = replace(scenario, plan=None)
    if still_fails(candidate):
        return candidate
    for stripped in (
        FaultPlan(seed=plan.seed, media=plan.media, io=None),
        FaultPlan(seed=plan.seed, media=None, io=plan.io),
    ):
        if (stripped.media, stripped.io) != (plan.media, plan.io):
            candidate = replace(scenario, plan=stripped)
            if still_fails(candidate):
                scenario = candidate
                plan = stripped
                break
    if plan.media is not None:
        for field in ("bit_flips", "stuck_units", "poison_units"):
            if getattr(plan.media, field) == 0:
                continue
            media = replace(plan.media, **{field: 0})
            if media == MediaFaultSpec():
                continue  # dropping the last fault is the all-None case above
            stripped = FaultPlan(seed=plan.seed, media=media, io=plan.io)
            candidate = replace(scenario, plan=stripped)
            if still_fails(candidate):
                scenario = candidate
                plan = stripped
    return scenario


#: Torture's shrink passes, in order: whole transactions, ops inside the
#: surviving transactions (last transaction first), crash points, faults.
PASSES = (
    shrink_each("txns"),
    shrink_each("txns", 1, min_size=1, reverse=True),
    _shrink_crash_points,
    _shrink_faults,
)


def minimize(scenario: TortureScenario) -> TortureScenario:
    """Greedy shrink preserving at least one original violation class
    (a scenario that does not fail comes back unchanged)."""
    return minimize_scenario(scenario, run_scenario, PASSES)
