"""CLI for the replication chaos harness.

Examples::

    # 6 seeds, rotating scheme x durability mode, channel storms + failover
    python -m repro.replication --seeds 6 --writer-kill --jobs 4

    # follower churn without failover, sync mode only
    python -m repro.replication --seeds 4 --mode sync --follower-kills 2

    # prove the oracle catches a torn segment past the integrity check
    python -m repro.replication --seeds 3 --sabotage

    # prove the GC oracle catches a cold store trimming live segments
    python -m repro.replication --seeds 3 --sabotage gc --writer-kill

    # replay a recorded failing trace
    python -m repro.replication --replay replication-traces/minimized-1.json

Digest line, trace files, ``--replay`` and exit status follow the shared
harness contract in :mod:`repro.harness.kernel`.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from repro.bench.harness import parallel_map
from repro.harness.kernel import (
    Harness,
    add_scheme_flag,
    conclude,
    harness_parser,
    replay,
)
from repro.harness.streams import stream_sizes
from repro.replication.chaos import (
    MODE_ROTATION,
    ROTATION,
    minimize,
    run_replication_chaos,
    run_task,
    scenario_from_dict,
)
from repro.replication.ship import MODES


def _summarize(_original, small) -> str:
    return (
        f"minimized: {stream_sizes(small.streams)}, followers={small.followers}, "
        f"writer_kill={'yes' if small.writer_kill_ns else 'no'}, "
        f"follower_kills={len(small.follower_kills)}"
        + (", channel faults kept" if small.plan else ", channel faults dropped")
    )


def _harness(sabotage: str) -> Harness:
    return Harness(
        run=run_replication_chaos,
        shrink=minimize,
        load=lambda trace: scenario_from_dict(trace["scenario"]),
        describe=lambda s: (
            f"seed={s.seed} scheme={s.scheme} mode={s.mode} "
            f"followers={s.followers} writer_kill_ns={s.writer_kill_ns}"
        ),
        summarize=_summarize,
        planted="premature GC" if sabotage == "gc" else "torn segment",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = harness_parser(
        "python -m repro.replication",
        "Replication chaos harness: a primary service ships sealed WAL "
        "epochs to follower machines over a fault-injected channel, with "
        "scripted writer/follower power cuts, failover promotion, and a "
        "replication-consistency oracle.",
        seeds=6,
        trace_dir="replication-traces",
    )
    parser.add_argument(
        "--sessions", type=int, default=4, help="concurrent client sessions"
    )
    parser.add_argument(
        "--txns", type=int, default=36, help="total transactions across sessions"
    )
    parser.add_argument(
        "--txn-size", type=int, default=3, help="max ops per transaction"
    )
    add_scheme_flag(parser, ROTATION)
    parser.add_argument(
        "--mode",
        default="rotate",
        choices=["rotate", *MODES],
        help="replication durability mode; 'rotate' cycles %s by seed"
        % (MODE_ROTATION,),
    )
    parser.add_argument(
        "--followers", type=int, default=2, help="follower machines"
    )
    parser.add_argument(
        "--faults",
        default="drop,dup,reorder,corrupt,archive",
        help="comma list of faults: drop,dup,reorder,corrupt on the "
        "shipping channel, 'archive' for transient I/O errors on the "
        "cold-store volume ('none' for a clean run)",
    )
    parser.add_argument(
        "--writer-kill",
        action="store_true",
        help="power-fail the primary mid-run and fail over to the "
        "longest-prefix follower",
    )
    parser.add_argument(
        "--follower-kills",
        type=int,
        default=0,
        help="scripted follower power cuts (most restart mid-run)",
    )
    parser.add_argument(
        "--no-group-commit",
        action="store_true",
        help="ship per-transaction instead of per group-commit epoch",
    )
    parser.add_argument(
        "--sabotage",
        nargs="?",
        const="torn",
        default="",
        choices=["torn", "gc"],
        help="self-test: plant a bug the sweep must find, minimize, and "
        "deterministically replay.  'torn' (the bare-flag default) ships "
        "one deliberately torn segment past lenient followers; 'gc' "
        "makes the archive trim past the follower fleet's durable "
        "cursor, so a reseed after failover comes up short",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    harness = _harness(args.sabotage)
    if args.replay:
        return replay(harness, args.replay)
    raw = {f.strip() for f in args.faults.split(",") if f.strip()}
    faults = tuple(sorted(raw - {"none"}))
    print(
        f"replication chaos: {args.seeds} seed(s) x {args.sessions} "
        f"session(s) x {args.txns} txns, scheme={args.scheme}, "
        f"mode={args.mode}, followers={args.followers}, "
        f"faults={','.join(faults) if faults else 'none'}, "
        f"writer_kill={'yes' if args.writer_kill else 'no'}, "
        f"follower_kills={args.follower_kills}, jobs={args.jobs}"
        + (f", SABOTAGE({args.sabotage})" if args.sabotage else "")
    )
    task = partial(
        run_task,
        sessions=args.sessions,
        txns=args.txns,
        txn_size=args.txn_size,
        scheme=args.scheme,
        mode=args.mode,
        followers=args.followers,
        faults=faults,
        writer_kill=args.writer_kill,
        follower_kills=args.follower_kills,
        sabotage=args.sabotage,
        group_commit=not args.no_group_commit,
    )
    results = parallel_map(task, range(args.seeds), jobs=args.jobs)
    failures: list[dict] = []
    acked = promotions = 0
    for result in results:
        acked += result.get("acked", 0)
        promotions += result.get("promotions", 0)
        violations = result.get("violations", [])
        if violations:
            failures.append(result)
        failover = result.get("failover_ms")
        print(
            f"seed {result['seed']} [{result['scheme']}/{result['mode']}]: "
            f"{result.get('acked', 0)} acked, "
            f"{result.get('sealed', 0)} sealed, "
            f"{result.get('follower_reads', 0)} replica read(s), "
            f"{result.get('promotions', 0)} promotion(s)"
            + (f", failover {failover:.2f} ms" if failover else "")
            + f", {len(violations)} violation(s)"
        )
    print(
        f"total: {acked} acked txn(s), {promotions} promotion(s), "
        f"{len(failures)} violating seed(s)"
    )
    return conclude(harness, results, failures, args)


if __name__ == "__main__":
    sys.exit(main())
