"""The CLI plumbing every adversarial harness shares.

A harness contributes a driver (seed task -> JSON-able result, swept
over :func:`repro.bench.harness.parallel_map`), an oracle (scenario ->
outcome with ``.violations``) and a :class:`Harness` record of
callables; this module does the rest, the same way for all of them:

* :func:`harness_parser` declares the shared flags (``--seeds``,
  ``--jobs``, the trace directory, ``--replay``, ``--no-minimize``, and
  ``--checkpoint-threshold`` where the harness has one);
* :func:`conclude` prints ``result digest: sha256:<hex>`` over the
  canonical JSON results (bit-identical for any ``--jobs`` value), then
  applies the exit contract: a clean sweep exits 0; a failing one writes
  up to :data:`MAX_TRACES` raw traces, minimizes the first and exits 1;
  under ``--sabotage`` the planted bug *must* be found, minimized and
  replayed deterministically (exit 0), else exit 1;
* :func:`replay` reruns a recorded trace twice and exits 1 on a
  deterministic failure, 0 on a pass.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass, field
from typing import Callable

from repro.harness.codec import trace_record
from repro.telemetry.export import export_digest
from repro.wal.nvwal import ROTATION, SCHEMES

#: Raw traces written per run before we stop (one per failure otherwise).
MAX_TRACES = 5


@dataclass(frozen=True)
class Outcome:
    """What one scenario run produced (JSON-able)."""

    violations: tuple
    summary: dict = field(default_factory=dict)


def job_failures(scheduler) -> list[str]:
    """``error:`` findings for the scheduler jobs that died — a client or
    daemon crashing is a bug even when every oracle holds."""
    return [
        f"error: job {job.name!r} died with {type(job.error).__name__}: {job.error}"
        for job in scheduler.failed_jobs()
    ]


@dataclass(frozen=True)
class Harness:
    """What one harness plugs into the kernel.

    ``run`` is the oracle (scenario -> outcome with ``.violations``);
    ``shrink`` its minimizer; ``load`` rebuilds a scenario from a trace
    file or a raw failure record of the sweep, and ``save`` writes one
    (default: ``{"scenario": ..., "violations": [...]}``); ``describe``
    is the replay header and ``summarize(original, small)`` the lines
    printed after minimizing.  ``vet`` may reject a minimized sabotage
    repro with a reason.
    """

    run: Callable
    shrink: Callable
    load: Callable
    describe: Callable
    summarize: Callable
    save: Callable = trace_record
    planted: str = "planted bug"
    vet: Callable | None = None


def harness_parser(
    prog: str,
    description: str,
    *,
    seeds: int,
    trace_dir: str,
    threshold: int | None = None,
    dir_flag: str = "--trace-dir",
) -> argparse.ArgumentParser:
    """The flags every harness CLI shares; the harness adds its own.
    ``threshold``, if given, is the default of ``--checkpoint-threshold``."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "--seeds", type=int, default=seeds, help="seeds 0..N-1 to sweep"
    )
    if threshold is not None:
        parser.add_argument(
            "--checkpoint-threshold",
            type=int,
            default=threshold,
            help="WAL frames per checkpoint (small = frequent checkpoints)",
        )
    parser.add_argument("--jobs", type=int, default=1, help="parallel seed workers")
    parser.add_argument(
        dir_flag,
        dest="trace_dir",
        metavar="DIR",
        default=trace_dir,
        help="directory for failing-trace JSON files",
    )
    parser.add_argument(
        "--replay", metavar="TRACE", help="replay one recorded trace and exit"
    )
    parser.add_argument(
        "--no-minimize",
        action="store_true",
        help="write raw failing traces without shrinking them",
    )
    return parser


def add_scheme_flag(parser, rotation: tuple = ROTATION) -> None:
    """``--scheme``: one NVWAL scheme, or 'rotate' through ``rotation``."""
    parser.add_argument(
        "--scheme",
        default="rotate",
        choices=["rotate", *sorted(SCHEMES)],
        help="NVWAL scheme; 'rotate' cycles %s by seed" % (rotation,),
    )


def rotate(choice: str, rotation: tuple, seed: int) -> str:
    """``choice``, or for 'rotate' the seed's pick from ``rotation``."""
    return rotation[seed % len(rotation)] if choice == "rotate" else choice


def print_digest(results) -> None:
    """The digest line: SHA-256 over the canonical JSON results."""
    print(f"result digest: sha256:{export_digest(results)}")


def write_trace(trace_dir: str, name: str, payload: dict) -> str:
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


def _run_twice(harness: Harness, scenario):
    """The scenario's violations, and whether a rerun reproduced them."""
    first = harness.run(scenario).violations
    return first, harness.run(scenario).violations == first


def replay(harness: Harness, path: str) -> int:
    """Rerun one recorded trace twice: 1 if it fails deterministically
    (or nondeterministically — a harness bug), 0 if it passes."""
    with open(path, encoding="utf-8") as fh:
        scenario = harness.load(json.load(fh))
    first, deterministic = _run_twice(harness, scenario)
    print(f"replaying {path}: {harness.describe(scenario)}")
    for violation in first:
        print(f"  {violation}")
    if not deterministic:
        print("replay is NOT deterministic — harness bug")
        return 1
    if not first:
        print("  no violations (scenario passes)")
        return 0
    print(f"  {len(first)} violation(s), deterministic across replays")
    return 1


def minimize_and_verify(harness: Harness, failure: dict, trace_dir: str):
    """Shrink one failure, record it, and prove the replay is
    deterministic.  Returns the minimized scenario, or None if its
    replay does not fail identically twice."""
    scenario = harness.load(failure)
    small = harness.shrink(scenario)
    first, deterministic = _run_twice(harness, small)
    path = write_trace(
        trace_dir, f"minimized-{small.seed}.json", harness.save(small, first)
    )
    print(harness.summarize(scenario, small))
    for violation in first:
        print(f"  {violation}")
    print(f"minimized trace: {path}")
    if not first or not deterministic:
        print("minimized trace does NOT replay deterministically — harness bug")
        return None
    print("minimized trace replays deterministically")
    return small


def conclude(harness: Harness, results: list, failures: list, args) -> int:
    """Print the digest line, then apply the exit contract shared by
    every harness (see module doc) under the parsed ``args``."""
    print_digest(results)
    if args.sabotage:
        if not failures:
            print(
                f"sabotage self-test FAILED: the {harness.planted} went "
                "undetected"
            )
            return 1
        print(
            f"sabotage self-test: {harness.planted} detected in "
            f"{len(failures)} failing run(s)"
        )
        small = minimize_and_verify(harness, failures[0], args.trace_dir)
        if small is None:
            return 1
        problem = harness.vet(small) if harness.vet else None
        if problem:
            print(f"sabotage self-test FAILED: {problem}")
            return 1
        return 0

    if not failures:
        return 0
    for i, failure in enumerate(failures[:MAX_TRACES]):
        seed = harness.load(failure).seed
        path = write_trace(args.trace_dir, f"trace-{seed}-{i}.json", failure)
        print(f"failing trace: {path}")
    if not args.no_minimize:
        minimize_and_verify(harness, failures[0], args.trace_dir)
    return 1
