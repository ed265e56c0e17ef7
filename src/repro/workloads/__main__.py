"""CLI for the workload suite.

Examples::

    # every workload on the default scheme rotation, 4 seeds each
    python -m repro.workloads run --seeds 4 --jobs 4

    # one YCSB mix under group commit on the checksum scheme
    python -m repro.workloads run --workload ycsb-a --scheme uh_cs_diff \
        --group-epoch 4

    # crash-point sweep of the durable queue (exactly-once oracle)
    python -m repro.workloads torture --workload queue --seeds 2 --stride 3

Exit status: 0 for a clean sweep, 1 when any oracle was violated.  The
digest line is the shared one of :mod:`repro.harness.kernel`.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import parallel_map
from repro.harness.kernel import add_scheme_flag, print_digest, rotate
from repro.wal.nvwal import ROTATION
from repro.workloads.runner import (
    DEFAULT_WORKLOAD_THRESHOLD,
    WORKLOADS,
    RunConfig,
    run_one,
)
from repro.workloads.torture import (
    DEFAULT_TORTURE_THRESHOLD,
    SweepTask,
    run_seed,
)


def _add_common(sub, *, workload: str, seeds: int, ops: int, threshold: int):
    """The flags both subcommands take (with their own defaults)."""
    sub.add_argument(
        "--workload",
        default=workload,
        choices=["all", *WORKLOADS],
        help=f"workload name (default: {workload})",
    )
    sub.add_argument("--seeds", type=int, default=seeds, help="seeds 0..N-1")
    sub.add_argument("--ops", type=int, default=ops, help="ops per workload run")
    add_scheme_flag(sub)
    sub.add_argument(
        "--checkpoint-threshold",
        type=int,
        default=threshold,
        help="WAL frames per checkpoint",
    )
    sub.add_argument("--jobs", type=int, default=1, help="parallel workers")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Seeded workload suite (YCSB mixes, time-series, "
        "durable queue) over the NVWAL database, with fold-model read "
        "checks, page-accounting integrity, and crash-point sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute workloads and check oracles")
    _add_common(
        run_p, workload="all", seeds=4, ops=120, threshold=DEFAULT_WORKLOAD_THRESHOLD
    )
    run_p.add_argument(
        "--group-epoch",
        type=int,
        default=0,
        help="commit through the group-commit epoch, closing it every N "
        "transactions (0 = per-transaction durability)",
    )

    tort_p = sub.add_parser(
        "torture", help="crash-point sweeps with per-workload oracles"
    )
    _add_common(
        tort_p, workload="queue", seeds=2, ops=24, threshold=DEFAULT_TORTURE_THRESHOLD
    )
    tort_p.add_argument(
        "--stride", type=int, default=1, help="crash-point stride"
    )
    return parser


def _cmd_run(args) -> int:
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tasks = [
        RunConfig(
            workload=name,
            seed=seed,
            ops=args.ops,
            scheme=rotate(args.scheme, ROTATION, seed),
            group_epoch=args.group_epoch,
            checkpoint_threshold=args.checkpoint_threshold,
        )
        for name in names
        for seed in range(args.seeds)
    ]
    print(
        f"workloads: {len(names)} workload(s) x {args.seeds} seed(s), "
        f"{args.ops} ops, scheme={args.scheme}, "
        f"group_epoch={args.group_epoch}, jobs={args.jobs}"
    )
    results = parallel_map(run_one, tasks, jobs=args.jobs)
    bad = 0
    for r in results:
        bad += len(r["violations"])
        print(
            f"{r['workload']} seed {r['seed']} [{r['scheme']}]: "
            f"{r['txns']} txn(s), {r['reads_checked']} read(s) checked, "
            f"{r['txns_per_sec']} txns/s sim, p95 {r['p95_us']} us, "
            f"{len(r['violations'])} violation(s)"
        )
        for violation in r["violations"]:
            print(f"  {violation}")
    print_digest(results)
    return 1 if bad else 0


def _cmd_torture(args) -> int:
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tasks = [
        SweepTask(
            workload=name,
            seed=seed,
            ops=args.ops,
            scheme=rotate(args.scheme, ROTATION, seed),
            stride=args.stride,
            checkpoint_threshold=args.checkpoint_threshold,
        )
        for name in names
        for seed in range(args.seeds)
    ]
    print(
        f"workload torture: {len(names)} workload(s) x {args.seeds} seed(s), "
        f"{args.ops} ops, stride={args.stride}, scheme={args.scheme}, "
        f"jobs={args.jobs}"
    )
    results = parallel_map(run_seed, tasks, jobs=args.jobs)
    failures = 0
    for r in results:
        failures += len(r["failures"])
        print(
            f"{r['workload']} seed {r['seed']} [{r['scheme']}]: "
            f"{r['runs']} run(s), {r['crashes']} crash(es), "
            f"{r['checkpoints']} checkpoint(s), "
            f"{len(r['failures'])} failure(s)"
        )
        for failure in r["failures"][:5]:
            point = failure["scenario"]["crash_point"]
            for violation in failure["violations"]:
                print(f"  crash@{point}: {violation}")
    print_digest(results)
    return 1 if failures else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_torture(args)


if __name__ == "__main__":
    sys.exit(main())
