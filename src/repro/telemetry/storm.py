"""A seeded all-layer storm that produces one telemetry artifact.

One run exercises every instrumented layer at once — the concurrent
service with the group-commit coalescer, the NVWAL backend crossing
checkpoints, semisync replication to live followers, and a mid-run NVRAM
decay storm that trips the circuit breaker, demotes the service to
read-only, and lets the maintenance daemon heal and re-promote it.  The
collector daemon samples throughout, so the exported artifact carries
counters, gauges, histograms, spans, structured events, and the JSON
time series for all four layers (``service.*``, ``wal.*``, epoch
histograms, ``repl.*``).

Everything is a deterministic function of the seed: running the same
seed twice produces byte-identical export documents (CI compares them
with ``cmp``).
"""

from __future__ import annotations

from repro.faults import FaultPlan, MediaFaultSpec
from repro.harness.streams import session_stream
from repro.replication.cluster import Cluster, ReplicationConfig
from repro.service.sched import Scheduler
from repro.service.server import ServiceConfig
from repro.service.session import ClientSession
from repro.telemetry.collector import Collector
from repro.telemetry.export import build_export


def _storm_job(system, storms: int, interval_ns: int):
    """Decay NVRAM cells mid-run (no power loss), ``storms`` times."""
    for _ in range(storms):
        yield interval_ns
        if system.nvram_faults is None:
            return
        system.nvram_faults.on_power_loss(system.nvram)


def run_storm(
    seed: int = 0,
    sessions: int = 3,
    txns_per_session: int = 12,
    txn_size: int = 3,
    followers: int = 2,
    mode: str = "semisync",
    scheme: str = "uh_ls_diff",
    storms: int = 2,
    storm_interval_ns: int = 3_000_000,
    checkpoint_threshold: int = 24,
    collect_interval_ns: int = 200_000,
) -> dict:
    """Run the storm; returns the canonical telemetry export document."""
    cluster = Cluster(
        ReplicationConfig(
            followers=followers,
            mode=mode,
            scheme=scheme,
            checkpoint_threshold=checkpoint_threshold,
        ),
        seed=seed,
    )
    system = cluster.primary_system
    if storms:
        system.inject_faults(
            FaultPlan(
                seed=seed,
                media=MediaFaultSpec(bit_flips=1, stuck_units=1, poison_units=2),
            )
        )
    service = cluster.start_service(
        ServiceConfig(group_commit=True), seed=seed
    )
    registry = system.telemetry
    collector = Collector(registry, interval_ns=collect_interval_ns)

    clients = [
        ClientSession(service, f"c{s}", deadline_budget_ns=60_000_000)
        for s in range(sessions)
    ]
    for s, client in enumerate(clients):
        for txn in session_stream(
            seed, s, sessions, txns_per_session, txn_size
        ):
            client.enqueue(txn)

    scheduler = Scheduler(cluster.clock)
    for client in clients:
        scheduler.spawn(client.session_id, client.run())
    scheduler.spawn("maintenance", service.maintenance(), daemon=True)
    scheduler.spawn("batcher", service.commit_batcher(), daemon=True)
    scheduler.spawn("replicator", cluster.replicator.daemon(), daemon=True)
    scheduler.spawn("collector", collector.daemon(), daemon=True)
    if storms:
        scheduler.spawn(
            "storms", _storm_job(system, storms, storm_interval_ns), daemon=True
        )
    scheduler.run()
    collector.sample()  # one closing sample at the final simulated time

    meta = {
        "kind": "telemetry_storm",
        "seed": seed,
        "sessions": sessions,
        "txns_per_session": txns_per_session,
        "followers": followers,
        "mode": mode,
        "scheme": scheme,
        "storms": storms,
        "acked": service.stats.txns_acked,
        "gave_up": sum(1 for c in clients if c.gave_up),
        "head_seq": cluster.head_seq,
        "sim_time_ms": int(cluster.clock.now_ns // 1_000_000),
    }
    return build_export(registry, collector, meta=meta)
