"""CLI for the concurrent chaos harness.

Examples::

    # 8 seeds, 6 sessions each, media decay storms + transient IO errors
    python -m repro.service.chaos --seeds 8 --sessions 6 \
        --faults media,io,power --storms 3 --jobs 4

    # prove the oracle catches ack-before-commit (harness self-test)
    python -m repro.service.chaos --seeds 4 --sabotage

    # replay a recorded failing trace
    python -m repro.service.chaos --replay chaos-traces/minimized-2.json

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
from repro.harness.streams import STREAM_WORKLOADS, stream_sizes
from repro.service.chaos import (
    DEFAULT_CHAOS_THRESHOLD,
    minimize,
    run_chaos,
    run_task,
    scenario_from_dict,
)


def _summarize(_original, small) -> str:
    return (
        f"minimized: {stream_sizes(small.streams)}, "
        f"power_cycles={list(small.power_cycles)}, storms={small.storms}"
        + (", faults kept" if small.plan else ", faults dropped")
    )


HARNESS = Harness(
    run=run_chaos,
    shrink=minimize,
    load=lambda trace: scenario_from_dict(trace["scenario"]),
    describe=lambda s: (
        f"seed={s.seed} scheme={s.scheme} sessions={len(s.streams)} "
        f"power_cycles={list(s.power_cycles)}"
    ),
    summarize=_summarize,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = harness_parser(
        "python -m repro.service.chaos",
        "Concurrent-service chaos harness: N cooperative client sessions "
        "against one NVWAL database under fault storms, scripted power "
        "cuts, deadlines, and degraded modes, checked against an "
        "acked-transaction oracle.",
        seeds=8,
        trace_dir="chaos-traces",
        threshold=DEFAULT_CHAOS_THRESHOLD,
    )
    parser.add_argument(
        "--sessions", type=int, default=4, help="concurrent client sessions"
    )
    parser.add_argument(
        "--txns", type=int, default=40, help="total transactions across sessions"
    )
    parser.add_argument(
        "--txn-size", type=int, default=3, help="max ops per transaction"
    )
    add_scheme_flag(parser)
    parser.add_argument(
        "--faults",
        default="power",
        help="comma list of power,media,io (media adds NVRAM decay at power "
        "loss, io adds transient eMMC errors that escape the filesystem's "
        "bounded retries into the service layer)",
    )
    parser.add_argument(
        "--storms",
        type=int,
        default=0,
        help="runtime NVRAM decay events injected mid-run with no power loss "
        "(requires media faults); each storm re-rolls the media plan",
    )
    parser.add_argument(
        "--power-cycles",
        type=int,
        default=1,
        help="mid-flight power cuts per seed (0 = only the final one)",
    )
    parser.add_argument(
        "--workload",
        default="mobi",
        choices=list(STREAM_WORKLOADS),
        help="session stream generator: 'mobi' (free-key insert/update/"
        "delete mix), 'ycsb' (zipfian-skewed hot-key read-write mix), or "
        "'queue' (FIFO enqueue/dequeue streams)",
    )
    parser.add_argument(
        "--group-commit",
        action="store_true",
        help="enable the commit coalescer: writers park in a shared WAL "
        "epoch and a batcher daemon closes it on size/age thresholds; acks "
        "are released only after the epoch barrier",
    )
    parser.add_argument(
        "--sabotage",
        action="store_true",
        help="self-test: acknowledge clients before the commit is durable "
        "(with --group-commit, before the epoch barrier); the sweep must "
        "find, minimize, and deterministically replay an ack-lost violation",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.replay:
        return replay(HARNESS, args.replay)
    faults = tuple(
        sorted({f.strip() for f in args.faults.split(",") if f.strip()})
    )
    if args.storms and "media" not in faults:
        print("--storms requires media faults (add --faults media,...)")
        return 2
    print(
        f"chaos: {args.seeds} seed(s) x {args.sessions} session(s) x "
        f"{args.txns} txns, workload={args.workload}, scheme={args.scheme}, "
        f"faults={','.join(faults)}, "
        f"storms={args.storms}, power_cycles={args.power_cycles}, "
        f"jobs={args.jobs}"
        + (", GROUP-COMMIT" if args.group_commit else "")
        + (", SABOTAGE" if args.sabotage else "")
    )
    task = partial(
        run_task,
        sessions=args.sessions,
        txns=args.txns,
        txn_size=args.txn_size,
        scheme=args.scheme,
        faults=faults,
        storms=args.storms,
        power_cycles=args.power_cycles,
        checkpoint_threshold=args.checkpoint_threshold,
        sabotage=args.sabotage,
        group_commit=args.group_commit,
        workload=args.workload,
    )
    results = parallel_map(task, range(args.seeds), jobs=args.jobs)
    failures: list[dict] = []
    acked = crashes = 0
    for result in results:
        acked += result.get("acked", 0)
        crashes += result.get("crashes", 0)
        violations = result.get("violations", [])
        if violations:
            failures.append(result)
        print(
            f"seed {result['seed']} [{result['scheme']}]: "
            f"{result.get('acked', 0)} acked, {result.get('crashes', 0)} "
            f"crash(es), {result.get('storms', 0)} storm(s), "
            f"{result.get('shed_acked', 0)} shed, "
            f"{len(violations)} violation(s)"
        )
    print(
        f"total: {acked} acked txn(s), {crashes} power cycle(s), "
        f"{len(failures)} violating seed(s)"
    )
    return conclude(HARNESS, results, failures, args)


if __name__ == "__main__":
    sys.exit(main())
