"""Repo benchmark: end-to-end metrics on both clocks, per-layer cost.

Usage (from the root of a checkout)::

    python3 layerbench/run.py --workload insert_grouped --seed 1 --seconds 14 --trace 0
    python3 layerbench/run.py --workload all --seed 1 --trace 1

``--trace 0`` runs untraced passes and reports the end-to-end metrics;
``--trace 1`` adds traced passes and reports the per-layer metrics.
Every pass is checked for correctness, same-seed passes (traced and
untraced) must agree bit for bit on every simulated figure, and traced
passes must account for every simulated nanosecond.  The last line of
standard output is one JSON object; the full result, stamped with its
provenance, goes to ``layerbench/results/``.  The exit code is nonzero
when any check fails.  See ``layerbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Fixed per-pass input sizes.  A pass is the unit every simulated
#: figure is computed over, so they never depend on ``--seconds``.
PARAMS = {
    "insert_grouped": {"txns": 8000},
    "read_mostly": {
        "rows": 6000, "ops": 20000, "update_share": 0.05, "theta": 0.99,
        "groups": 64,
    },
    "replicated_service": {
        "writers": 4, "txns_per_writer": 600, "keys_per_writer": 2400,
        "reads": 10000,
    },
}

#: Untraced passes per run at least; more while ``--seconds`` lasts.  A
#: traced run needs only one beside its traced passes.
MIN_PASSES = 2
#: Two traced passes, so per-layer simulated figures are compared too.
TRACED_PASSES = 2
MAX_PASSES = 50
#: Set-up is timed in every pass.  After each untraced pass it is timed
#: on its own until the pass's set-ups add up to this much, so a set-up of
#: a few milliseconds still gets a steady median, and its samples are
#: spread over the whole run like the passes' rather than bunched in one
#: stretch of host speed.
SETUP_SLICE_S = 0.06

END_TO_END_UNITS = {
    "host_txns_per_s": "1/s",
    "sim_txns_per_s": "1/s",
    "sim_write_p50_us": "us",
    "sim_write_p99_us": "us",
    "nvram_bytes_per_user_byte": "B/B",
    "disk_bytes_per_user_byte": "B/B",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Printed and written to the result file, not gated.  A simulated point
#: read costs a fixed amount per B-tree level, so read percentiles are the
#: same for every seed of a workload; failed ops always fail the run.
REPORT_ONLY_UNITS = {
    "sim_read_p50_us": "us",
    "sim_read_p99_us": "us",
    "sim_write_samples": "count",
    "sim_read_samples": "count",
    "failed_op_ratio": "ratio",
    "raw_host_txns_per_s": "1/s",
    "raw_setup_s": "s",
}

#: Per-layer metric name suffix -> unit.
PER_LAYER_UNITS = {
    "calls_per_txn": "count",
    "host_self_us_per_txn": "us",
    "sim_self_us_per_txn": "us",
    "dccmvac_per_txn": "count",
    "dmb_per_txn": "count",
    "persist_barriers_per_txn": "count",
    "frames_per_txn": "count",
    "diff_bytes_per_dirty_page_byte": "B/B",
    "txns_per_epoch": "count",
    "checkpoint_pages_per_txn": "count",
    "block_writes_per_txn": "count",
    "block_flushes_per_txn": "count",
    "admission_wait_p50_us": "us",
    "barrier_wait_p50_us": "us",
    "ack_gate_wait_p50_us": "us",
    "resends_per_send": "ratio",
    "lag_p50_us": "us",
    "gc_bytes_per_written_byte": "B/B",
    "overhead_ratio": "ratio",
}


def _require_program() -> None:
    """Put ``src/`` on the path; exit 2 when the program is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: program sources not found under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------


def _pct(values, q: int) -> float:
    """Nearest-rank percentile: deterministic, no interpolation."""
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)
    return float(ordered[max(rank, 1) - 1])


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _host_rate(passes, nominal: bool = True) -> float:
    """Median host throughput over passes (at the reference speed)."""
    return statistics.median(
        p.txns / (p.window_nominal_s if nominal else p.window_host_s) for p in passes
    )


def fingerprint(result) -> dict:
    """Every simulated figure of a pass; must repeat bit for bit."""
    from inputs import digest

    return {
        "window_sim_ns": repr(result.window_sim_ns),
        "txns": result.txns,
        "write_lat": digest(result.write_lat_ns),
        "read_lat": digest(result.read_lat_ns),
        "user_bytes": result.user_bytes,
        "fleet": sorted(result.fleet.items()),
        "registry": sorted(result.registry.items()),
        "state": result.state,
    }


def layer_fingerprint(tracer) -> dict:
    """Every simulated per-layer figure and count of a traced pass."""
    return {
        "calls": sorted(tracer.calls.items()),
        "sim_self": sorted(tracer.sim_self.items()),
        "window_sim": tracer.window_sim,
        "root_sim": tracer.root_sim,
        "counts": sorted(tracer.counts.items()),
    }


def end_to_end(passes, setup_samples) -> dict:
    from repro.hw import stats as statnames

    first = passes[0]
    user = first.user_bytes
    return {
        "host_txns_per_s": _host_rate(passes),
        "sim_txns_per_s": first.txns / (first.window_sim_ns / 1e9),
        "sim_write_p50_us": _pct(first.write_lat_ns, 50) / 1e3,
        "sim_write_p99_us": _pct(first.write_lat_ns, 99) / 1e3,
        "nvram_bytes_per_user_byte": first.fleet[statnames.NVRAM_BYTES_WRITTEN] / user,
        "disk_bytes_per_user_byte":
            first.fleet[statnames.BLOCK_WRITES] * first.page_size / user,
        "setup_s": statistics.median(nominal for _, nominal in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(untraced, traced, tracers) -> dict:
    import spans
    from repro.hw import stats as statnames

    first = traced[0]
    tracer = tracers[0]
    txns = first.txns
    out = {}
    for layer in spans.LAYER_NAMES:
        if layer == "unattributed":
            host = [t.window_host - t.root_host for t in tracers]
            sim = tracer.window_sim - tracer.root_sim
        else:
            out[f"{layer}.calls_per_txn"] = tracer.calls[layer] / txns
            host = [t.host_self[layer] for t in tracers]
            sim = tracer.sim_self[layer]
        out[f"{layer}.host_self_us_per_txn"] = statistics.median(host) / 1e3 / txns
        out[f"{layer}.sim_self_us_per_txn"] = spans.fixed_to_ns(sim) / 1e3 / txns
    fleet = first.fleet
    counts = tracer.counts
    reg = first.registry
    out.update({
        "hw.dccmvac_per_txn": fleet[statnames.FLUSHES] / txns,
        "hw.dmb_per_txn": fleet[statnames.DMBS] / txns,
        "hw.persist_barriers_per_txn": fleet[statnames.PERSIST_BARRIERS] / txns,
        "wal.frames_per_txn": counts["wal.frames"] / txns,
        "wal.diff_bytes_per_dirty_page_byte":
            _ratio(counts["wal.diff_bytes"], counts["wal.diff_page_bytes"]),
        "wal.txns_per_epoch":
            _ratio(counts["wal.txns_logged"], counts["wal.commit_points"]),
        "wal.checkpoint_pages_per_txn": counts["wal.checkpoint_pages"] / txns,
        "storage.block_writes_per_txn": fleet[statnames.BLOCK_WRITES] / txns,
        "storage.block_flushes_per_txn": fleet[statnames.BLOCK_FLUSHES] / txns,
        "service.admission_wait_p50_us": reg.get("service.admission_wait_p50_us", 0.0),
        "service.barrier_wait_p50_us": reg.get("service.barrier_wait_p50_us", 0.0),
        "replication.ack_gate_wait_p50_us":
            reg.get("replication.ack_gate_wait_p50_us", 0.0),
        "replication.resends_per_send":
            _ratio(reg.get("replication.resends", 0), reg.get("replication.sends", 0)),
        "replication.lag_p50_us": reg.get("replication.lag_p50_us", 0.0),
        "archive.gc_bytes_per_written_byte":
            _ratio(reg.get("archive.gc_bytes", 0), reg.get("archive.written_bytes", 0)),
        "trace.overhead_ratio": _host_rate(untraced) / _host_rate(traced),
    })
    return out


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


def _one_pass(driver, inputs, seed, tracer=None):
    gc.collect()
    return driver(inputs, seed, tracer)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import drivers
    import inputs as inputs_mod
    import spans

    driver, setup = drivers.WORKLOADS[workload]
    build = inputs_mod.BUILDERS[workload]
    checks: list[str] = []
    inputs = build(seed, **PARAMS[workload])
    if inputs_mod.digest(inputs) == inputs_mod.digest(build(seed + 1, **PARAMS[workload])):
        checks.append(f"determinism: seeds {seed} and {seed + 1} gave identical inputs")

    budget = seconds / 2 if trace else seconds
    floor = 1 if trace else MIN_PASSES
    untraced, setup_samples = [], []
    started = perf_counter()
    while len(untraced) < floor or (
        perf_counter() - started < budget and len(untraced) < MAX_PASSES
    ):
        result = _one_pass(driver, inputs, seed)
        untraced.append(result)
        sampled = result.setup_s
        setup_samples.append((result.setup_s, result.setup_nominal_s))
        while sampled < SETUP_SLICE_S:
            gc.collect()
            raw, nominal = drivers.timed_setup(setup, inputs, seed)[1:]
            sampled += raw
            setup_samples.append((raw, nominal))
    # Before the traced passes, so peak memory is the untraced passes'.
    e2e = end_to_end(untraced, setup_samples)

    traced, tracers = [], []
    for _ in range(TRACED_PASSES if trace else 0):
        tracer = spans.Tracer()
        with spans.Patches(tracer):
            traced.append(_one_pass(driver, inputs, seed, tracer))
        tracers.append(tracer)
        checks.extend(f"accounting: {e}" for e in spans.accounting_errors(tracer))

    reference = fingerprint(untraced[0])
    for kind, passes in (("untraced", untraced), ("traced", traced)):
        for i, result in enumerate(passes):
            diff = [k for k, v in fingerprint(result).items() if reference[k] != v]
            if diff:
                checks.append(
                    f"determinism: {kind} pass {i} differs from untraced pass 0 in {diff}"
                )
    if len(tracers) > 1:
        first = layer_fingerprint(tracers[0])
        for i, tracer in enumerate(tracers[1:], start=1):
            diff = [k for k, v in layer_fingerprint(tracer).items() if first[k] != v]
            if diff:
                checks.append(f"determinism: traced pass {i} per-layer figures differ in {diff}")

    all_passes = untraced + traced
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    failures = [f for p in all_passes for f in p.failures][:20]
    layers = per_layer(untraced, traced, tracers) if trace else {}
    return {
        "workload": workload,
        "params": PARAMS[workload],
        "seed": seed,
        "trace": int(trace),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "check_failures": checks,
        "correct": failed == 0 and not checks,
        "end_to_end": e2e,
        "report_only": {
            "sim_read_p50_us": _pct(untraced[0].read_lat_ns, 50) / 1e3,
            "sim_read_p99_us": _pct(untraced[0].read_lat_ns, 99) / 1e3,
            "sim_write_samples": len(untraced[0].write_lat_ns),
            "sim_read_samples": len(untraced[0].read_lat_ns),
            "failed_op_ratio": failed / attempted if attempted else 1.0,
            "raw_host_txns_per_s": _host_rate(untraced, nominal=False),
            "raw_setup_s": statistics.median(raw for raw, _ in setup_samples),
        },
        "per_layer": layers,
        "samples": {
            "host_txns_per_s": [p.txns / p.window_nominal_s for p in untraced],
            "raw_host_txns_per_s": [p.txns / p.window_host_s for p in untraced],
            "setup_s": [nominal for _, nominal in setup_samples],
            "raw_setup_s": [raw for raw, _ in setup_samples],
            "traced_host_txns_per_s": [p.txns / p.window_nominal_s for p in traced],
        },
        "fingerprint": reference,
        "_spans": tracers[0].spans if tracers else [],
    }


# ----------------------------------------------------------------------
# provenance and output
# ----------------------------------------------------------------------


def _git_rev() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(top) != 2 or Path(top[0]).resolve() != ROOT:
        return None
    return top[1]


def _source_digest() -> str:
    """sha256 over the program's sources: identifies the code measured
    even in a checkout without git metadata."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp() -> dict:
    return {
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _write_results(result: dict, provenance: dict, seconds: float) -> Path:
    RESULTS.mkdir(exist_ok=True)
    base = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    span_rows = result.pop("_spans")
    if span_rows:
        with open(RESULTS / f"{base}-spans.jsonl", "w", encoding="utf-8") as fh:
            for row in span_rows:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "txn", "name", "layer", "host_start_ns",
                     "host_end_ns", "sim_start_ns", "sim_end_ns"),
                    row,
                ))) + "\n")
    path = RESULTS / f"{base}.json"
    payload = {"stamp": provenance, "seconds": seconds, **result}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _print_table(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, passes {result['passes']})")
    for name, value in result["end_to_end"].items():
        print(f"  {name:<44} {value:>16.6g} {END_TO_END_UNITS[name]}")
    for name, value in result["report_only"].items():
        print(f"  {name:<44} {value:>16.6g} {REPORT_ONLY_UNITS[name]}")
    for name, value in result["per_layer"].items():
        unit = PER_LAYER_UNITS[name.rsplit(".", 1)[1]]
        print(f"  {name:<44} {value:>16.6g} {unit}")
    for message in result["failures"] + result["check_failures"]:
        print(f"  FAIL {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*PARAMS, "all"],
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _require_program()
    provenance = stamp()
    workloads = list(PARAMS) if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        path = _write_results(result, provenance, args.seconds)
        _print_table(result)
        print(f"  result written to {path.relative_to(ROOT)}")
        results.append(result)

    section = "per_layer" if args.trace else "end_to_end"
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for name, value in result[section].items():
            unit = units[name.rsplit(".", 1)[1]] if args.trace else units[name]
            metrics[prefix + name] = {"value": value, "unit": unit}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
