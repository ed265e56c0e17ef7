"""CLI for the differential SQL fuzzer.

Examples::

    # sweep 20 seeds of 100 statements across all four executors
    python -m repro.difftest --seeds 20 --stmts 100 --jobs 4

    # prove the harness catches a planted wrong-result bug
    python -m repro.difftest --seeds 4 --stmts 60 --sabotage

    # replay a recorded failing stream
    python -m repro.difftest --replay difftest-repros/minimized-3.json

Digest line, trace files, ``--replay`` and exit status follow the shared
harness contract in :mod:`repro.harness.kernel`.  The sabotage self-test
must also shrink its repro to at most 5 statements.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, replace

from repro.bench.harness import parallel_map
from repro.difftest.grammar import (
    StreamGenerator,
    stream_from_dict,
    stream_to_dict,
)
from repro.difftest.reduce import minimize_stream
from repro.difftest.runner import (
    DEFAULT_CHECKPOINT_THRESHOLD,
    run_stream,
)
from repro.harness.kernel import (
    Harness,
    Outcome,
    conclude,
    harness_parser,
    replay,
)

#: The sabotage self-test must shrink its repro at least this far.
_SABOTAGE_MAX_STMTS = 5


@dataclass(frozen=True)
class DiffTask:
    """One seed's work unit (picklable for the process pool)."""

    seed: int
    stmts: int
    tables: int
    checkpoint_threshold: int
    integrity_every: int
    sabotage: bool


@dataclass(frozen=True)
class Repro:
    """A statement stream plus the run settings it was recorded under."""

    seed: int | None
    stmts: tuple
    sabotage: bool
    checkpoint_threshold: int
    integrity_every: int


def _repro(task: DiffTask) -> Repro:
    """The seed's generated stream under the task's run settings."""
    stmts = StreamGenerator(task.seed, max_tables=task.tables).stream(task.stmts)
    return Repro(
        seed=task.seed,
        stmts=tuple(stmts),
        sabotage=task.sabotage,
        checkpoint_threshold=task.checkpoint_threshold,
        integrity_every=task.integrity_every,
    )


def _findings(repro: Repro):
    return run_stream(
        list(repro.stmts),
        checkpoint_threshold=repro.checkpoint_threshold,
        sabotage=repro.sabotage,
        integrity_every=repro.integrity_every,
    )


def run_diff_seed(task: DiffTask) -> dict:
    """Generate and run one seed's stream; JSON-safe result for digests."""
    repro = _repro(task)
    return {
        "seed": task.seed,
        "statements": len(repro.stmts),
        "findings": [asdict(f) for f in _findings(repro)],
    }


def _shrink(repro: Repro) -> Repro:
    small = minimize_stream(
        list(repro.stmts), lambda stmts: _findings(replace(repro, stmts=stmts))
    )
    return replace(repro, stmts=tuple(small))


def _record(repro: Repro, findings: list) -> dict:
    """Repro-file payload: the stream plus its run settings in ``meta``."""
    return stream_to_dict(
        repro.stmts,
        meta={
            "seed": repro.seed,
            "sabotage": repro.sabotage,
            "checkpoint_threshold": repro.checkpoint_threshold,
            "integrity_every": repro.integrity_every,
            "findings": findings,
        },
    )


def _summarize(original: Repro, small: Repro) -> str:
    lines = [f"minimized: {len(original.stmts)} -> {len(small.stmts)} statement(s)"]
    for stmt in small.stmts:
        lines.append(
            f"  {stmt.sql}"
            + (f"  -- params {stmt.params!r}" if stmt.params else "")
        )
    return "\n".join(lines)


def _harness(args) -> Harness:
    """Repro files replay under their recorded settings; files without
    them (the hand-written corpus) fall back to the command line's."""

    def load(data: dict) -> Repro:
        meta = data.get("meta", {})
        return Repro(
            seed=meta.get("seed"),
            stmts=tuple(stream_from_dict(data)),
            sabotage=bool(meta.get("sabotage")) or args.sabotage,
            checkpoint_threshold=meta.get(
                "checkpoint_threshold", args.checkpoint_threshold
            ),
            integrity_every=meta.get("integrity_every", args.integrity_every),
        )

    return Harness(
        run=lambda repro: Outcome(tuple(f.format() for f in _findings(repro))),
        shrink=_shrink,
        save=lambda repro, violations: _record(repro, list(violations)),
        load=load,
        describe=lambda repro: f"{len(repro.stmts)} statement(s)",
        summarize=_summarize,
        vet=lambda small: (
            f"minimized to {len(small.stmts)} statements "
            f"(> {_SABOTAGE_MAX_STMTS})"
            if len(small.stmts) > _SABOTAGE_MAX_STMTS
            else None
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = harness_parser(
        "python -m repro.difftest",
        "Differential SQL fuzzer: run generated statement streams through "
        "real SQLite and the repro engine on every WAL backend, in lockstep.",
        seeds=8,
        trace_dir="difftest-repros",
        threshold=DEFAULT_CHECKPOINT_THRESHOLD,
        dir_flag="--out-dir",
    )
    parser.add_argument(
        "--stmts", type=int, default=60, help="statements per stream"
    )
    parser.add_argument(
        "--tables", type=int, default=3, help="max tables per stream"
    )
    parser.add_argument(
        "--integrity-every",
        type=int,
        default=8,
        help="statements between structural integrity checks",
    )
    parser.add_argument(
        "--sabotage",
        action="store_true",
        help="self-test: plant a wrong-result bug in the NVWAL executor's "
        "access path; the sweep must catch it and minimize the repro to "
        f"<= {_SABOTAGE_MAX_STMTS} statements",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    harness = _harness(args)
    if args.replay:
        return replay(harness, args.replay)
    tasks = [
        DiffTask(
            seed=seed,
            stmts=args.stmts,
            tables=args.tables,
            checkpoint_threshold=args.checkpoint_threshold,
            integrity_every=args.integrity_every,
            sabotage=args.sabotage,
        )
        for seed in range(args.seeds)
    ]
    print(
        f"difftest: {args.seeds} seed(s) x {args.stmts} statements, "
        f"4 executors (sqlite + {3} repro backends), jobs={args.jobs}"
        + (", SABOTAGE" if args.sabotage else "")
    )
    results = parallel_map(run_diff_seed, tasks, jobs=args.jobs)
    failures: list[dict] = []
    total_stmts = 0
    for task, result in zip(tasks, results):
        total_stmts += result["statements"]
        n = len(result["findings"])
        if n:
            failures.append(_record(_repro(task), result["findings"]))
        print(f"seed {result['seed']}: {result['statements']} statement(s), "
              f"{n} finding(s)")
        for finding in result["findings"][:4]:
            print(
                f"  {finding['kind']} @ "
                f"{finding['stmt_index'] if finding['stmt_index'] is not None else 'end'} "
                f"[{finding['executor']}]: {finding['detail']}"
            )
    print(f"total: {total_stmts} statement(s), {len(failures)} failing seed(s)")
    return conclude(harness, results, failures, args)


if __name__ == "__main__":
    sys.exit(main())
