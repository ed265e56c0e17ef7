"""One JSON codec for every harness scenario.

Scenarios are frozen dataclasses of plain data: ints, strings, bools,
nested tuples (sessions, transactions, ops, kill scripts) and an
optional :class:`~repro.faults.FaultPlan` in the ``plan`` field.  Trace
files store every field; tuples travel as JSON lists.  Loading turns
lists back into tuples, and a field the trace lacks (it was recorded
before the field existed) takes the dataclass default or the override
the harness passes for old traces.
"""

from __future__ import annotations

from dataclasses import fields

from repro.faults import FaultPlan


def scenario_to_dict(scenario) -> dict:
    """JSON-able form of a scenario, for trace files and digests."""
    return {f.name: _dump(getattr(scenario, f.name)) for f in fields(scenario)}


def trace_record(scenario, violations) -> dict:
    """A failing scenario as a trace file: ``{"scenario", "violations"}``."""
    return {"scenario": scenario_to_dict(scenario), "violations": list(violations)}


def load_scenario(cls, data: dict, **old_defaults):
    """Rebuild a ``cls`` scenario from :func:`scenario_to_dict` output."""
    kwargs = {}
    for f in fields(cls):
        if f.name not in data:
            if f.name in old_defaults:
                kwargs[f.name] = old_defaults[f.name]
        elif f.name == "plan":
            kwargs["plan"] = FaultPlan.from_json(data["plan"]) if data["plan"] else None
        else:
            kwargs[f.name] = _load(data[f.name])
    return cls(**kwargs)


def _dump(value):
    if isinstance(value, tuple):
        return [_dump(item) for item in value]
    if isinstance(value, FaultPlan):
        return value.to_json()
    return value


def _load(value):
    if isinstance(value, list):
        return tuple(_load(item) for item in value)
    return value
