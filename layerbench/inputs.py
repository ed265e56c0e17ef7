"""Seeded input generation for the three workloads.

Every input a pass feeds the program is built here, before any timed
window opens, from the workload seed alone: the same seed gives the same
inputs, a different seed different ones.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import string
from dataclasses import dataclass

_ALPHABET = string.ascii_letters + string.digits

#: Mobibench's record size (paper Section 5.3).
VALUE_SIZE = 100
#: Records vary by up to this much around VALUE_SIZE (mean 100).  With
#: every record exactly 100 bytes the page layout and the cost of each
#: write, and with them the simulated latency percentiles, would be the
#: same for every seed; varying lengths let the seed shape split points
#: and diffs.
SIZE_SPREAD = 20


def _values(rng: random.Random, n: int, spread: int = 0) -> list[str]:
    return [
        "".join(rng.choices(_ALPHABET, k=VALUE_SIZE + rng.randint(-spread, spread)))
        for _ in range(n)
    ]


@dataclass(frozen=True)
class InsertInputs:
    values: tuple[str, ...]  # row i gets key i (Mobibench's sequential keys)


@dataclass(frozen=True)
class ReadMostlyInputs:
    prefill: tuple[tuple[int, int, str], ...]  # (k, g, v)
    ops: tuple[tuple[str, int, str | None], ...]  # ("read"|"update", k, v)


@dataclass(frozen=True)
class ServiceInputs:
    #: writers[s] is session s's txn list; each txn is a tuple of keyed
    #: ops ("insert"|"update"|"delete", key, value|None).
    writers: tuple[tuple[tuple, ...], ...]
    #: Keys the reader session looks up, in order (cycled).
    read_keys: tuple[int, ...]


def insert_inputs(seed: int, txns: int) -> InsertInputs:
    rng = random.Random(f"insert_grouped:{seed}")
    return InsertInputs(tuple(_values(rng, txns, SIZE_SPREAD)))


def _zipf_sampler(rng: random.Random, n: int, theta: float):
    """Draw ranks 0..n-1 with P(rank r) proportional to 1/(r+1)**theta."""
    cdf = []
    total = 0.0
    for rank in range(n):
        total += 1.0 / (rank + 1) ** theta
        cdf.append(total)

    def draw() -> int:
        return min(bisect.bisect_left(cdf, rng.random() * total), n - 1)

    return draw


def read_mostly_inputs(
    seed: int, rows: int, ops: int, update_share: float, theta: float, groups: int
) -> ReadMostlyInputs:
    rng = random.Random(f"read_mostly:{seed}")
    values = _values(rng, rows, SIZE_SPREAD)
    prefill = tuple((k, k % groups, values[k]) for k in range(rows))
    # Hot keys are scattered over the key space, not clustered on the
    # first leaves: rank r maps to a seeded permutation of the keys.
    hot = list(range(rows))
    rng.shuffle(hot)
    draw = _zipf_sampler(rng, rows, theta)
    # Exactly update_share of the ops update, at seeded positions, so the
    # read/write mix does not drift from seed to seed.
    updates = set(rng.sample(range(ops), round(ops * update_share)))
    out = []
    for i in range(ops):
        key = hot[draw()]
        if i in updates:
            # Same length as the row's value: an in-place, mid-page change.
            new = "".join(rng.choices(_ALPHABET, k=len(values[key])))
            out.append(("update", key, new))
        else:
            out.append(("read", key, None))
    return ReadMostlyInputs(prefill, tuple(out))


def service_inputs(
    seed: int, writers: int, txns_per_writer: int, keys_per_writer: int, reads: int
) -> ServiceInputs:
    """Keyed txns of 2-4 ops per writer, every op hitting its target.

    Writer ``s`` owns the keys congruent to ``s`` modulo ``writers``, so
    each session's ops are planned against its own model: inserts take
    absent keys, updates and deletes present ones.  No op can fail on a
    duplicate or missing key, whatever order the sessions interleave in.
    """
    rng = random.Random(f"replicated_service:{seed}")
    sessions = []
    for s in range(writers):
        present: list[int] = []
        absent = [k * writers + s for k in range(keys_per_writer)]
        rng.shuffle(absent)
        txns = []
        for _ in range(txns_per_writer):
            ops = []
            for _ in range(rng.choice((2, 3, 4))):
                roll = rng.random()
                if present and roll < 0.3:
                    key = present[rng.randrange(len(present))]
                    ops.append(("update", key, _values(rng, 1)[0]))
                elif present and roll < 0.45 and len(present) > 8:
                    key = present.pop(rng.randrange(len(present)))
                    absent.append(key)
                    ops.append(("delete", key, None))
                else:
                    key = absent.pop(rng.randrange(len(absent)))
                    present.append(key)
                    ops.append(("insert", key, _values(rng, 1)[0]))
            txns.append(tuple(ops))
        sessions.append(tuple(txns))
    key_space = writers * keys_per_writer
    read_keys = tuple(rng.randrange(key_space) for _ in range(reads))
    return ServiceInputs(tuple(sessions), read_keys)


#: workload -> input builder, called as ``builder(seed, **params)``.
BUILDERS = {
    "insert_grouped": insert_inputs,
    "read_mostly": read_mostly_inputs,
    "replicated_service": service_inputs,
}


def digest(value) -> str:
    """Stable fingerprint (sha256 of the repr) of inputs, rows or samples."""
    return hashlib.sha256(repr(value).encode()).hexdigest()
