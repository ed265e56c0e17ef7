"""Chaos harness: determinism, jobs-invariance, oracle, sabotage, shrink."""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.harness import parallel_map
from repro.service.chaos import (
    ChaosTask,
    make_scenario,
    minimize,
    run_chaos,
    run_task,
    scenario_from_dict,
    scenario_to_dict,
    _Driver,
)


def small_task(seed, **kwargs):
    kwargs.setdefault("sessions", 3)
    kwargs.setdefault("txns", 12)
    kwargs.setdefault("power_cycles", 1)
    return ChaosTask(seed=seed, **kwargs)


class TestDeterminism:
    def test_same_scenario_same_outcome(self):
        scenario = make_scenario(3, sessions=3, txns=12, power_cycles=1)
        first = run_chaos(scenario)
        second = run_chaos(scenario)
        assert first.violations == second.violations
        assert first.summary == second.summary

    def test_digest_is_jobs_invariant(self):
        tasks = [small_task(seed) for seed in range(3)]
        serial = parallel_map(run_task, tasks, jobs=1)
        parallel = parallel_map(run_task, tasks, jobs=3)
        canon = lambda r: json.dumps(r, sort_keys=True)  # noqa: E731
        assert [canon(r) for r in serial] == [canon(r) for r in parallel]


class TestScenarioSerialization:
    def test_round_trip(self):
        scenario = make_scenario(
            7, sessions=2, txns=8, faults=("power", "media", "io"),
            storms=2, power_cycles=1, sabotage=True,
        )
        data = json.loads(json.dumps(scenario_to_dict(scenario)))
        assert scenario_from_dict(data) == scenario


class TestOracleFold:
    def fold(self, base, ops):
        scenario = make_scenario(0, sessions=1, txns=1)
        return _Driver(scenario)._fold(base, ops)

    def test_update_on_missing_key_is_a_noop(self):
        # SQL UPDATE touches zero rows for an absent key; after a
        # legitimate WAL shed the model must agree or it drifts.
        assert self.fold({}, [("update", 1, "x")]) == {}

    def test_insert_upserts(self):
        assert self.fold({1: "a"}, [("insert", 1, "b")]) == {1: "b"}

    def test_delete_is_idempotent(self):
        assert self.fold({}, [("delete", 1, None)]) == {}


class TestCleanRuns:
    @pytest.mark.parametrize("scheme", ["uh_ls_diff", "ls", "eager"])
    def test_power_cycles_no_violations(self, scheme):
        result = run_task(small_task(1, scheme=scheme))
        assert result["violations"] == []
        assert result["crashes"] >= 1
        assert result["acked"] >= 12

    def test_media_storm_run_no_violations(self):
        result = run_task(
            small_task(
                5, faults=("power", "media"), storms=2, power_cycles=1
            )
        )
        assert result["violations"] == []
        # Storms are a daemon: the run may drain before the last one fires.
        assert result["storms"] >= 1


class TestSabotage:
    def test_planted_ack_before_commit_is_caught(self):
        # Seed chosen so the crash lands in the ack-to-commit window.
        result = run_task(
            small_task(2, scheme="eager", sabotage=True)
        )
        assert any(v.startswith("ack-lost") for v in result["violations"])

    def test_minimizer_shrinks_and_preserves_failure(self):
        result = run_task(small_task(2, scheme="eager", sabotage=True))
        scenario = scenario_from_dict(result["scenario"])
        small = minimize(scenario)
        before = sum(len(t) for s in scenario.streams for t in s)
        after = sum(len(t) for s in small.streams for t in s)
        assert after < before
        shrunk = run_chaos(small)
        assert any(v.startswith("ack-lost") for v in shrunk.violations)
        # Shrinking must preserve determinism of the repro.
        assert shrunk.violations == run_chaos(small).violations


class TestGroupCommit:
    def test_group_commit_power_cycles_no_violations(self):
        result = run_task(small_task(1, scheme="ls", group_commit=True))
        assert result["violations"] == []
        assert result["crashes"] >= 1
        assert result["acked"] >= 12

    def test_group_commit_full_fault_mix_no_violations(self):
        result = run_task(
            ChaosTask(
                seed=5, sessions=3, txns=16, scheme="ls",
                faults=("power", "media", "io"), storms=2,
                power_cycles=1, group_commit=True,
            )
        )
        assert result["violations"] == []
        assert result["crashes"] >= 1
        assert result["storms"] >= 1

    def test_ack_before_epoch_barrier_is_caught(self):
        # Seed 1 lands a power cut between the premature acks and the
        # epoch barrier; every parked writer in the epoch is exposed.
        result = run_task(
            small_task(
                1, scheme="ls", txns=24, group_commit=True, sabotage=True
            )
        )
        assert any(v.startswith("ack-lost") for v in result["violations"])

    def test_minimized_trace_regression(self):
        """The recorded minimized ack-before-epoch-barrier trace must keep
        failing, deterministically — the harness's anchor regression for
        group-commit ack durability."""
        path = os.path.join(
            os.path.dirname(__file__), "traces", "group_commit_ack_early.json"
        )
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
        scenario = scenario_from_dict(trace["scenario"])
        assert scenario.group_commit and scenario.sabotage
        first = run_chaos(scenario)
        assert any(v.startswith("ack-lost") for v in first.violations)
        assert list(first.violations) == trace["violations"]
        assert first.violations == run_chaos(scenario).violations


class TestFaultStorm:
    @pytest.mark.slow
    def test_acceptance_storm_heals_and_keeps_every_ack(self):
        """The ISSUE's acceptance run: >=8 sessions, >=200 txns, media +
        IO faults and storms, zero violations, and the service must
        demote to read-only and re-promote at least once."""
        result = run_task(
            ChaosTask(
                seed=5, sessions=8, txns=200, txn_size=3,
                scheme="uh_ls_diff", faults=("power", "media", "io"),
                storms=3, power_cycles=2,
            )
        )
        assert result["violations"] == []
        assert result["acked"] == 200
        assert result["stats"]["demotions"] >= 1
        assert result["stats"]["promotions"] >= 1
