"""Seeded workloads for the crash-consistency torture harness.

A workload is a list of *transactions*, each a tuple of keyed-table
operations (``insert``/``update``/``delete``).  Everything is derived
from one integer seed, so a failing run can be replayed from nothing
but its trace file.  The pure-Python model in :func:`model_states`
computes the expected table contents at every transaction boundary —
the oracle the torture driver checks recovered databases against.
"""

from __future__ import annotations

import random

TABLE = "t"
DDL = f"CREATE TABLE {TABLE} (k INTEGER PRIMARY KEY, v TEXT)"

#: Sentinel for the pre-DDL state: the table does not exist at all.
NO_TABLE = None

#: RNG stream constants, distinct from the crash/media/IO streams so the
#: workload shape never correlates with fault placement.
_WORKLOAD_MUL = 0xB5297A4D
_WORKLOAD_ADD = 0x68E31DA4

Op = tuple  # (kind, key, value-or-None)
Txn = tuple  # tuple[Op, ...]


def generate_txns(seed: int, op_count: int, txn_size: int = 3) -> tuple[Txn, ...]:
    """Deterministic workload: ``op_count`` ops grouped into transactions
    of 1..``txn_size`` ops.

    Inserts target free keys, updates/deletes target live keys, so the
    SQL semantics match the trivial dict model exactly.  A small key
    space forces key reuse (insert after delete), which exercises
    differential logging's full-image-then-diff transitions.
    """
    rng = random.Random((seed * _WORKLOAD_MUL + _WORKLOAD_ADD) & 0xFFFFFFFF)
    key_space = max(8, op_count // 2)
    live: set[int] = set()
    ops: list[Op] = []
    for i in range(op_count):
        free = [k for k in range(1, key_space + 1) if k not in live]
        roll = rng.random()
        if not live or (free and roll < 0.5):
            k = rng.choice(free)
            live.add(k)
            kind = "insert"
        elif roll < 0.8 or not live:
            k = rng.choice(sorted(live))
            kind = "update"
        else:
            k = rng.choice(sorted(live))
            live.discard(k)
            kind = "delete"
        value = None
        if kind != "delete":
            value = f"s{seed}.{i}." + "x" * rng.randint(4, 24)
        ops.append((kind, k, value))
    txns: list[Txn] = []
    index = 0
    while index < len(ops):
        take = rng.randint(1, txn_size)
        txns.append(tuple(ops[index : index + take]))
        index += take
    return tuple(txns)


def apply_txn(db, txn: Txn) -> None:
    """Run one workload transaction against a database."""
    if len(txn) == 1:
        _apply_op(db, txn[0])
        return
    with db.transaction():
        for op in txn:
            _apply_op(db, op)


def apply_txn_grouped(db, txn: Txn) -> None:
    """Run one workload transaction into the shared group-commit epoch.

    Unlike :func:`apply_txn`, even single-op transactions go through an
    explicit BEGIN/``group_commit`` pair: the point of the grouped
    workload is that *no* transaction is individually durable until
    ``flush_group`` closes the epoch.
    """
    db.begin()
    try:
        for op in txn:
            _apply_op(db, op)
    except BaseException:
        if db.pager.in_transaction:
            db.rollback()
        raise
    db.group_commit()


def _apply_op(db, op: Op) -> None:
    kind, key, value = op
    if kind == "insert":
        db.execute(f"INSERT INTO {TABLE} VALUES (?, ?)", (key, value))
    elif kind == "update":
        db.execute(f"UPDATE {TABLE} SET v = ? WHERE k = ?", (value, key))
    elif kind == "delete":
        db.execute(f"DELETE FROM {TABLE} WHERE k = ?", (key,))
    else:
        raise ValueError(f"unknown workload op kind: {kind!r}")


def workload_steps(db, txns: tuple[Txn, ...], group_epoch: int = 0) -> list:
    """The scripted run as model-boundary steps: the DDL (boundary 1),
    then one step per transaction (boundaries 2..N).

    With ``group_epoch`` > 0 the transactions commit through the WAL's
    group-commit path instead: each joins the open epoch, and the epoch
    is closed (one flush + persist-barrier sequence) every
    ``group_epoch`` transactions and again at the end of the last step —
    a crash before that drain completes must not count the final epoch
    as committed.  The DDL stays individually durable — it models the
    setup phase before the service's coalescer takes over.
    """
    steps = [lambda: db.execute(DDL)]
    for i, txn in enumerate(txns):
        if group_epoch <= 0:
            steps.append(lambda txn=txn: apply_txn(db, txn))
        else:
            close = (i + 1) % group_epoch == 0
            steps.append(lambda txn=txn, close=close: _grouped_step(db, txn, close))
    if group_epoch > 0:
        last = steps[-1]
        steps[-1] = lambda: (last(), db.flush_group())
    return steps


def _grouped_step(db, txn: Txn, close: bool) -> None:
    apply_txn_grouped(db, txn)
    if close:
        db.flush_group()


def run_workload(db, txns: tuple[Txn, ...], group_epoch: int = 0) -> None:
    """The full scripted run (see :func:`workload_steps`)."""
    for step in workload_steps(db, txns, group_epoch):
        step()


def model_states(txns: tuple[Txn, ...]) -> list:
    """Expected table contents at every transaction boundary.

    ``states[b]`` is the sorted ``(k, v)`` row list after ``b`` committed
    transactions (the DDL counts as transaction 1); ``states[0]`` is
    :data:`NO_TABLE`.  A correctly recovered database must match one of
    these boundary states — anything else is a torn or lost transaction.
    """
    states: list = [NO_TABLE, []]
    rows: dict[int, str] = {}
    for txn in txns:
        for kind, key, value in txn:
            if kind == "delete":
                rows.pop(key, None)
            else:
                rows[key] = value
        states.append(sorted(rows.items()))
    return states
