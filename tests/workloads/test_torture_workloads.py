"""Crash-point sweeps over the workload suite.

Tier-1 keeps a handful of targeted sweeps; the ``workloads``-marked
tests run the deep per-scheme matrices (select with
``pytest -m workloads``).
"""

import pytest

from repro.harness.codec import scenario_to_dict
from repro.workloads.torture import (
    SweepTask,
    WorkloadScenario,
    profile_scenario,
    run_scenario,
    run_seed,
    scenario_from_dict,
)


class TestScenarioPlumbing:
    def test_dict_round_trip(self):
        scenario = WorkloadScenario(
            "queue", seed=3, ops=20, scheme="uh_cs_diff", crash_point=7
        )
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_profile_counts_boundaries(self):
        scenario = WorkloadScenario("ycsb-a", seed=0, ops=20, scheme="eager")
        workload_setup = 2  # CREATE TABLE + CREATE INDEX
        profile = profile_scenario(scenario)
        assert profile.total_ops > 0
        assert len(profile.bounds) > workload_setup
        assert profile.bounds == tuple(sorted(profile.bounds))

    def test_small_threshold_triggers_checkpoints(self):
        scenario = WorkloadScenario(
            "timeseries", seed=0, ops=40, scheme="uh_ls_diff",
            checkpoint_threshold=8,
        )
        assert len(profile_scenario(scenario).ckpt_events) >= 2


class TestTier1Sweeps:
    """Small but complete sweeps: every primitive op crash point."""

    def test_queue_sweep_clean(self):
        summary = run_seed(
            SweepTask("queue", seed=0, ops=10, scheme="uh_ls_diff", stride=7)
        )
        assert summary["failures"] == []
        assert summary["crashes"] > 0

    def test_ycsb_setup_crash_points(self):
        """Crashing between CREATE TABLE and CREATE INDEX must recover
        to a legitimate partial-setup state."""
        base = WorkloadScenario("ycsb-a", seed=0, ops=6, scheme="uh_ls_diff")
        profile = profile_scenario(base)
        setup_end = profile.bounds[2]  # after CREATE INDEX
        for k in range(1, setup_end + 1, 3):
            outcome = run_scenario(
                WorkloadScenario(
                    "ycsb-a", seed=0, ops=6, scheme="uh_ls_diff", crash_point=k
                ),
                profile,
            )
            assert outcome.violations == (), (k, outcome.violations)

    def test_checksum_scheme_shed_is_tolerated(self):
        summary = run_seed(
            SweepTask("queue", seed=1, ops=8, scheme="uh_cs_diff", stride=9)
        )
        assert summary["failures"] == []


@pytest.mark.workloads
class TestDeepSweeps:
    """Full crash matrices — deselected from tier-1 by the addopts
    marker filter; CI's workloads-smoke job and `pytest -m workloads`
    run them."""

    @pytest.mark.parametrize("scheme", ["eager", "uh_ls_diff", "uh_cs_diff"])
    def test_queue_every_crash_point(self, scheme):
        summary = run_seed(SweepTask("queue", seed=0, ops=18, scheme=scheme))
        assert summary["failures"] == []
        assert summary["runs"] == summary["total_ops"] + 1

    @pytest.mark.parametrize(
        "workload", ["ycsb-a", "ycsb-f", "timeseries"]
    )
    def test_indexed_workloads_stride_sweep(self, workload):
        summary = run_seed(
            SweepTask(workload, seed=1, ops=24, scheme="uh_ls_diff", stride=3)
        )
        assert summary["failures"] == []
        assert summary["checkpoints"] >= 1
