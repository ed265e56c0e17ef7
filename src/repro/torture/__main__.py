"""CLI for the crash-consistency torture harness.

Examples::

    # sweep 20 seeds, 30 ops each, media decay on top of power loss
    python -m repro.torture --seeds 20 --ops 30 --faults media,power --jobs 4

    # prove the harness catches a real bug (persist barrier removed)
    python -m repro.torture --seeds 4 --ops 12 --sabotage

    # replay a recorded failing trace
    python -m repro.torture --replay torture-traces/minimized-3.json

Digest line, trace files, ``--replay`` and exit status follow the shared
harness contract in :mod:`repro.harness.kernel`.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import parallel_map
from repro.harness.kernel import (
    Harness,
    add_scheme_flag,
    conclude,
    harness_parser,
    replay,
    rotate,
)
from repro.torture.driver import (
    DEFAULT_TORTURE_THRESHOLD,
    SeedTask,
    run_scenario,
    run_seed,
    scenario_from_dict,
)
from repro.torture.minimize import minimize
from repro.wal.nvwal import ROTATION


def _summarize(_original, small) -> str:
    ops = sum(len(txn) for txn in small.txns)
    return (
        f"minimized: {ops} op(s) in {len(small.txns)} txn(s), "
        f"crash_point={small.crash_point}"
        + (
            f", recovery_crash_point={small.recovery_crash_point}"
            if small.recovery_crash_point
            else ""
        )
        + (", faults kept" if small.plan else ", faults dropped")
    )


HARNESS = Harness(
    run=run_scenario,
    shrink=minimize,
    load=lambda trace: scenario_from_dict(trace["scenario"]),
    describe=lambda s: (
        f"seed={s.seed} scheme={s.scheme} crash_point={s.crash_point}"
    ),
    summarize=_summarize,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = harness_parser(
        "python -m repro.torture",
        "Crash-consistency torture harness: sweep every crash point, layer "
        "media/IO faults, and check recovery invariants.",
        seeds=8,
        trace_dir="torture-traces",
        threshold=DEFAULT_TORTURE_THRESHOLD,
    )
    parser.add_argument("--ops", type=int, default=30, help="workload operations per seed")
    parser.add_argument(
        "--txn-size", type=int, default=3, help="max ops per transaction"
    )
    parser.add_argument(
        "--faults",
        default="power",
        help="comma list of power,media,io (power loss is always exercised; "
        "media adds NVRAM decay, io adds transient eMMC errors)",
    )
    add_scheme_flag(parser)
    parser.add_argument(
        "--stride", type=int, default=1, help="crash-point stride (1 = every op)"
    )
    parser.add_argument(
        "--recovery-points",
        type=int,
        default=2,
        help="commit boundaries whose recovery is swept op by op",
    )
    parser.add_argument(
        "--group-epoch",
        type=int,
        default=0,
        metavar="N",
        help="commit through the WAL group-commit path, closing the shared "
        "epoch every N transactions (0 = per-transaction durability); the "
        "state oracle then only accepts whole-epoch boundaries",
    )
    parser.add_argument(
        "--sabotage",
        action="store_true",
        help="self-test: run a backend whose commit mark is never flushed; "
        "the sweep must find, minimize, and deterministically replay a "
        "durability violation",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.replay:
        return replay(HARNESS, args.replay)
    faults = tuple(
        sorted({f.strip() for f in args.faults.split(",") if f.strip()})
    )
    tasks = [
        SeedTask(
            seed=seed,
            ops=args.ops,
            scheme=rotate(args.scheme, ROTATION, seed),
            faults=faults,
            txn_size=args.txn_size,
            stride=args.stride,
            recovery_points=args.recovery_points,
            checkpoint_threshold=args.checkpoint_threshold,
            sabotage=args.sabotage,
            group_epoch=args.group_epoch,
        )
        for seed in range(args.seeds)
    ]
    print(
        f"torture: {args.seeds} seed(s) x {args.ops} ops, scheme={args.scheme}, "
        f"faults={','.join(faults)}, stride={args.stride}, jobs={args.jobs}"
        + (f", GROUP-EPOCH={args.group_epoch}" if args.group_epoch else "")
        + (", SABOTAGE" if args.sabotage else "")
    )
    results = parallel_map(run_seed, tasks, jobs=args.jobs)
    total_runs = 0
    failures: list[dict] = []
    for result in results:
        total_runs += result["runs"] + result["recovery_runs"]
        failures.extend(result["failures"])
        print(
            f"seed {result['seed']} [{result['scheme']}]: "
            f"{result['runs']} crash-point runs, {result['recovery_runs']} "
            f"recovery-crash runs, {result['checkpoints']} checkpoint(s), "
            f"{len(result['failures'])} violation(s)"
        )
    print(f"total: {total_runs} runs, {len(failures)} violating scenario(s)")
    return conclude(HARNESS, results, failures, args)


if __name__ == "__main__":
    sys.exit(main())
