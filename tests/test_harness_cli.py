"""End-to-end contract of every adversarial harness CLI.

Each harness prints a ``result digest: sha256:`` line that must not
depend on ``--jobs`` and must equal the pinned golden value (any change
to a harness's results shows up here); each harness with ``--sabotage`` must catch its
planted bug, exit 0, write a minimized trace, and that trace must replay
as a deterministic failure (exit 1).  Sizes are the smallest that still
exercise every branch, so the whole file stays a few seconds of tier-1.
"""

from __future__ import annotations

import glob
import json
import os
import re

import pytest

from repro.difftest.__main__ import main as difftest_main
from repro.difftest.runner import DEFAULT_CHECKPOINT_THRESHOLD
from repro.replication.cli import main as replication_main
from repro.service.cli import main as chaos_main
from repro.torture.__main__ import main as torture_main
from repro.workloads.__main__ import main as workloads_main

_DIGEST = re.compile(r"^result digest: sha256:([0-9a-f]{64})$", re.M)

#: (id, main, clean sweep argv, trace-directory flag, golden digest)
CLEAN = [
    (
        "torture",
        torture_main,
        ["--seeds", "2", "--ops", "2", "--stride", "24", "--recovery-points", "0"],
        "--trace-dir",
        "cae2776d45e585f8bd7f1c0d47d648afca43c6796c01a9a00b52e9e3b47112ae",
    ),
    (
        "chaos",
        chaos_main,
        ["--seeds", "2", "--sessions", "2", "--txns", "6", "--power-cycles", "1"],
        "--trace-dir",
        "9d55813ffde105918049024a6062367e1821f5c60e6109f9e235916e13ff3b4c",
    ),
    (
        "replication",
        replication_main,
        ["--seeds", "2", "--sessions", "2", "--txns", "6"],
        "--trace-dir",
        "d05a25e7ca560531e564fac612f65d978892f905c5d1f71343fb1041378eed60",
    ),
    (
        "difftest",
        difftest_main,
        ["--seeds", "2", "--stmts", "12"],
        "--out-dir",
        "64504cea23fb5747dc14b60af279140c81f01f9c3c04a11e3cbbbd2778ff7a27",
    ),
    (
        "workloads-run",
        workloads_main,
        ["run", "--workload", "ycsb-a", "--seeds", "2", "--ops", "12"],
        None,
        "8824124a22fb66d09faae68cc0134923e4566a8091872e221509a26848d520d1",
    ),
    (
        "workloads-torture",
        workloads_main,
        ["torture", "--workload", "queue", "--seeds", "2", "--ops", "4",
         "--stride", "40"],
        None,
        "b183fd67d273090aaa101dd5386c36b88a590f631911957779f310c50c410fc8",
    ),
]

#: (id, main, sabotage argv, trace-directory flag); torture's sabotage
#: CLI round trip is tests/torture/test_torture.py::TestCli.
SABOTAGE = [
    (
        "chaos",
        chaos_main,
        ["--seeds", "3", "--sessions", "3", "--txns", "12",
         "--power-cycles", "1", "--sabotage"],
        "--trace-dir",
    ),
    (
        "replication",
        replication_main,
        ["--seeds", "3", "--sessions", "3", "--txns", "18", "--sabotage"],
        "--trace-dir",
    ),
    (
        "difftest",
        difftest_main,
        ["--seeds", "4", "--stmts", "60", "--sabotage"],
        "--out-dir",
    ),
]


def _run(main, argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr().out


@pytest.mark.parametrize(
    "main,argv,dir_flag,golden", [c[1:] for c in CLEAN], ids=[c[0] for c in CLEAN]
)
def test_clean_run_digest_is_jobs_invariant(
    main, argv, dir_flag, golden, tmp_path, capsys
):
    extra = [dir_flag, str(tmp_path)] if dir_flag else []
    for jobs in ("1", "2"):
        rc, out = _run(main, [*argv, *extra, "--jobs", jobs], capsys)
        assert rc == 0, out
        assert _DIGEST.findall(out) == [golden], out


@pytest.mark.parametrize(
    "main,argv,dir_flag", [c[1:] for c in SABOTAGE], ids=[c[0] for c in SABOTAGE]
)
def test_sabotage_writes_a_replayable_minimized_trace(
    main, argv, dir_flag, tmp_path, capsys
):
    rc, out = _run(main, [*argv, dir_flag, str(tmp_path)], capsys)
    assert rc == 0, out
    assert _DIGEST.search(out), out
    traces = glob.glob(os.path.join(str(tmp_path), "minimized-*.json"))
    assert len(traces) == 1, out
    rc, out = _run(main, ["--replay", traces[0]], capsys)
    assert rc == 1, out
    assert "deterministic across replays" in out


@pytest.fixture
def stream_settings(monkeypatch):
    """(checkpoint_threshold, integrity_every) of every difftest stream run."""
    import repro.difftest.__main__ as difftest_cli

    seen = []
    real_run_stream = difftest_cli.run_stream

    def spy(stmts, **settings):
        seen.append((settings["checkpoint_threshold"], settings["integrity_every"]))
        return real_run_stream(stmts, **settings)

    monkeypatch.setattr(difftest_cli, "run_stream", spy)
    return seen


def test_difftest_replay_uses_recorded_run_settings(tmp_path, capsys, stream_settings):
    """A repro recorded at non-default run settings replays under them,
    not under the replaying command line's defaults."""
    rc, out = _run(
        difftest_main,
        ["--seeds", "4", "--stmts", "60", "--sabotage",
         "--checkpoint-threshold", "7", "--integrity-every", "3",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert rc == 0, out
    [trace] = glob.glob(os.path.join(str(tmp_path), "minimized-*.json"))
    with open(trace, encoding="utf-8") as fh:
        meta = json.load(fh)["meta"]
    assert (meta["checkpoint_threshold"], meta["integrity_every"]) == (7, 3)

    stream_settings.clear()
    rc, out = _run(difftest_main, ["--replay", trace], capsys)
    assert rc == 1, out
    assert stream_settings and set(stream_settings) == {(7, 3)}


def test_difftest_replay_without_recorded_settings_uses_defaults(
    capsys, stream_settings
):
    corpus = os.path.join(os.path.dirname(__file__), "difftest", "corpus")
    trace = sorted(glob.glob(os.path.join(corpus, "*.json")))[0]
    rc, out = _run(difftest_main, ["--replay", trace], capsys)
    assert rc == 0, out
    assert set(stream_settings) == {(DEFAULT_CHECKPOINT_THRESHOLD, 8)}
