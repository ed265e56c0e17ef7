"""One greedy minimizer for every scenario-shaped harness.

A failing scenario carries far more than its bug: extra sessions,
transactions, operations, fault plans, power cuts.  :func:`minimize`
runs a harness's list of *passes* in order; each pass maps
``(scenario, still_fails) -> scenario`` and may only return a candidate
that ``still_fails`` accepted (or its input).  ``still_fails`` demands a
violation of the *same class* as the original (the ``code:`` prefix of a
finding, e.g. ``ack-lost``), so a shrink cannot drift onto an unrelated
bug.  Every run is deterministic, so the result is too.

The pass builders cover the shapes the harnesses share:
:func:`try_each` for structural simplifications (drop a whole
dimension) and :func:`shrink_each` for sequence deletion at any nesting
depth, both on the delta-debugging core in :mod:`repro.shrink`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

from repro.shrink import shrink_sequence

Pass = Callable[[object, Callable[[object], bool]], object]


def violation_codes(outcome) -> frozenset:
    """The ``code`` prefixes (``state``, ``leak``, ...) of the findings."""
    return frozenset(v.split(":", 1)[0] for v in outcome.violations)


def minimize(scenario, run: Callable, passes: Sequence[Pass]):
    """Shrink ``scenario`` through ``passes`` while ``run(candidate)``
    keeps at least one original violation class.  A scenario that does
    not fail is returned unchanged."""
    target = violation_codes(run(scenario))
    if not target:
        return scenario

    def still_fails(candidate) -> bool:
        return bool(violation_codes(run(candidate)) & target)

    for shrink_pass in passes:
        scenario = shrink_pass(scenario, still_fails)
    return scenario


def try_each(candidates: Callable[[object], Sequence]) -> Pass:
    """Pass: try each structural simplification in order, keeping every
    one that still fails.  ``candidates`` builds the whole list from the
    scenario as the pass starts, so each candidate changes one dimension
    relative to that scenario (a later accepted one replaces an earlier
    one rather than stacking on it)."""

    def run(scenario, still_fails):
        for simpler in candidates(scenario):
            if simpler != scenario and still_fails(simpler):
                scenario = simpler
        return scenario

    return run


def _paths(value, depth: int):
    if depth == 0:
        return [()]
    return [
        (i, *rest)
        for i, item in enumerate(value)
        for rest in _paths(item, depth - 1)
    ]


def _at(value, path):
    for i in path:
        value = value[i]
    return value


def _splice(value, path, new):
    if not path:
        return new
    i = path[0]
    return value[:i] + (_splice(value[i], path[1:], new),) + value[i + 1 :]


def shrink_each(
    field: str, depth: int = 0, *, min_size: int = 0, reverse: bool = False
) -> Pass:
    """Pass: chunk-delete elements of every sequence ``depth`` levels
    inside the tuple ``scenario.<field>`` — depth 0 is the field itself
    (e.g. whole sessions), depth 1 each of its items (transactions in a
    stream), and so on.  ``min_size`` floors each sequence's length;
    ``reverse`` visits the sequences last-first."""

    def run(scenario, still_fails):
        paths = _paths(getattr(scenario, field), depth)
        for path in reversed(paths) if reverse else paths:

            def rebuild(items, path=path):
                spliced = _splice(getattr(scenario, field), path, tuple(items))
                return replace(scenario, **{field: spliced})

            kept = shrink_sequence(
                _at(getattr(scenario, field), path),
                lambda items: still_fails(rebuild(items)),
                min_size=min_size,
            )
            scenario = rebuild(kept)
        return scenario

    return run


#: Workload passes for session-stream scenarios (service and replication
#: chaos): whole sessions, transactions within each surviving stream,
#: operations within each surviving transaction, then the empty streams
#: the transaction pass left behind.  Surviving streams keep their
#: disjoint key spaces, so any subset stays a valid workload.
SESSION_PASSES = (
    shrink_each("streams", min_size=1),
    shrink_each("streams", 1),
    shrink_each("streams", 2, min_size=1),
    try_each(
        lambda s: [replace(s, streams=tuple(st for st in s.streams if st))]
        if any(s.streams)
        else []
    ),
)
