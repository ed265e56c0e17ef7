"""Seeded per-session transaction streams for the concurrent harnesses.

Service chaos, replication chaos and the telemetry storm drive N client
sessions, each with its own deterministic stream of transactions in the
torture workload's op language (``(kind, key, value)`` with kind one of
``insert``/``update``/``delete``).  Every session owns a disjoint slice
of the key space, so the streams compose under any commit interleaving
and any subset of them is still a valid workload (which the minimizer
relies on when it drops whole sessions).
"""

from __future__ import annotations

from repro.torture.workload import generate_txns
from repro.workloads.core import ZipfianSampler, workload_rng


def ycsb_stream(stream_seed: int, op_count: int, txn_size: int):
    """Zipfian-skewed mixed stream: most writes land on a few hot keys,
    the YCSB access pattern the original free-key mix never produces."""
    rng = workload_rng(stream_seed, salt=11)
    sampler = ZipfianSampler(0)
    live: list[int] = []
    next_key = 1
    ops = []
    for i in range(op_count):
        roll = rng.random()
        if not live or roll < 0.40:
            key, kind = next_key, "insert"
            live.append(next_key)
            next_key += 1
        elif roll < 0.82:
            sampler.resize(len(live))
            key, kind = live[sampler.sample(rng)], "update"
        else:
            sampler.resize(len(live))
            key, kind = live.pop(sampler.sample(rng)), "delete"
        value = None if kind == "delete" else f"y{i}." + "x" * rng.randint(4, 20)
        ops.append((kind, key, value))
    return group_ops(rng, ops, txn_size)


def queue_stream(stream_seed: int, op_count: int, txn_size: int):
    """FIFO enqueue/dequeue: inserts with monotone ids, deletes always
    of the oldest live id — the durable-queue pattern under chaos."""
    rng = workload_rng(stream_seed, salt=13)
    live: list[int] = []
    next_id = 1
    ops = []
    for i in range(op_count):
        if not live or rng.random() < 0.55:
            ops.append(("insert", next_id, f"m{i}." + "x" * rng.randint(4, 16)))
            live.append(next_id)
            next_id += 1
        else:
            ops.append(("delete", live.pop(0), None))
    return group_ops(rng, ops, txn_size)


def group_ops(rng, ops, txn_size: int):
    """Cut a flat op list into transactions of 1..``txn_size`` ops."""
    txns = []
    index = 0
    while index < len(ops):
        take = rng.randint(1, txn_size)
        txns.append(tuple(ops[index : index + take]))
        index += take
    return tuple(txns)


#: Stream generators a session can run: "mobi" (free-key insert/update/
#: delete mix), "ycsb" (zipfian-skewed hot-key read-write mix), "queue"
#: (FIFO enqueue/dequeue).
_GENERATORS = {"mobi": generate_txns, "ycsb": ycsb_stream, "queue": queue_stream}
STREAM_WORKLOADS = tuple(_GENERATORS)


def session_stream(
    seed: int,
    session: int,
    sessions: int,
    txns: int,
    txn_size: int,
    workload: str = "mobi",
):
    """One session's txn stream over its own key-space slice.

    Keys are remapped to ``k * sessions + session`` so streams never
    collide: each session's insert/update/delete semantics then match a
    per-key last-writer model no matter how commits interleave.
    """
    if workload not in STREAM_WORKLOADS:
        raise ValueError(
            f"unknown chaos workload {workload!r}; pick from {STREAM_WORKLOADS}"
        )
    stream_seed = (seed * 8191 + session * 127 + 1) & 0x7FFFFFFF
    raw = _GENERATORS[workload](stream_seed, txns * txn_size, txn_size)
    return tuple(
        tuple((kind, key * sessions + session, value) for kind, key, value in txn)
        for txn in raw[:txns]
    )


def session_streams(
    seed: int, sessions: int, txns: int, txn_size: int, workload: str = "mobi"
) -> tuple:
    """Every session's stream, ``txns`` split evenly (at least one each)."""
    per_session = max(1, txns // sessions)
    return tuple(
        session_stream(seed, s, sessions, per_session, txn_size, workload)
        for s in range(sessions)
    )


def stream_sizes(streams) -> str:
    """``N op(s) in M txn(s) across K session(s)``, for summaries."""
    txns = sum(len(stream) for stream in streams)
    ops = sum(len(txn) for stream in streams for txn in stream)
    return f"{ops} op(s) in {txns} txn(s) across {len(streams)} session(s)"


def fold_ops(base: dict, ops) -> dict:
    """Fold ops into a ``{key: value}`` model with the service's exact SQL
    semantics.

    ``insert`` upserts (the service falls back to UPDATE on a duplicate
    key) and ``update`` only touches an existing row — this matters after
    a legitimate WAL shed, when a client's later transactions update keys
    whose inserts were shed: SQL no-ops, and so must the model.
    """
    out = dict(base)
    for kind, key, value in ops:
        if kind == "delete":
            out.pop(key, None)
        elif kind == "update":
            if key in out:
                out[key] = value
        else:  # insert-as-upsert
            out[key] = value
    return out
