"""Byte-for-byte JSON reports for the sample inputs in every decision mode.

The files under `golden/` pin the verdicts and witnesses the CLI reports,
minus the wall-time field.  A refactor must leave them unchanged; a change
that moves a witness on purpose regenerates them and says why.  The `.txt`
files pin what the JSON goldens do not reach: the text reports (witness
rendering, mover classes, coverability, warnings) and `validate`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nredcheck.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = ("fig2a", "fig2a_iprime", "fig2b", "fig2b_iprime")
RUNS = [(case, mode, ()) for case in CASES for mode in ("natural", "atomic", "sync", "movers")]
# the rendezvous cases run a b c on one thread, so they need three plain
# steps per thread before the oracle sees a single local trace
RUNS += [
    (case, "oracle", ("--threads", "2", "--max-len", "2" if case.startswith("fig2a") else "3"))
    for case in CASES
]
# a block run under a lock, with a rendezvous after the release: the lock
# and rendezvous branches of the oracle's shuffle, and lock steps counted
# around a block expansion
RUNS += [
    ("lock_block", "natural", ()),
    ("lock_block", "oracle", ("--threads", "2", "--max-len", "5")),
]
# the coverability search on the 3-SAT gadgets of cases/sat2.cnf (coverable,
# an 8-step witness) and cases/unsat3.cnf (not coverable)
RUNS += [
    ("sat2", "coverability", ("--threads", "2")),
    ("unsat3", "coverability", ("--threads", "3")),
]


# the criterion-7 chain at n = 200: a block mid-spine, two rendezvous points
# and a phase-pair witness along the whole spine
RUNS += [("chain200", "natural", ("--witness",))]
# a fusion-dense draw (288 actions, 303 conflicts, four blocks, one planted
# escape through the last block): the escape analysis at scale
RUNS += [("dense_fusion", "atomic", ("--witness",))]
# a block body that leaves its exit and re-enters its init: a one-thread
# re-entry witness, and no one-pivot certificate
RUNS += [("reentry", mode, ()) for mode in ("atomic", "natural", "movers")]


@pytest.mark.parametrize(
    "case,mode,extra", RUNS, ids=[f"{case}-{mode}" for case, mode, _ in RUNS]
)
def test_json_report_matches_golden(case, mode, extra, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the report echoes the input path
    main(["check", "--mode", mode, "--json", f"cases/{case}.nred", *extra])
    out = re.sub(r',"wall_time_ms":[0-9.e+-]+', "", capsys.readouterr().out)
    assert out == (GOLDEN / f"{case}.{mode}.json").read_text(encoding="utf-8")


# name -> command line; each transcript is stdout, then stderr under a
# "[stderr]" line when there is any, then the exit code
TEXT_RUNS = {
    "fig2a_iprime.atomic.witness": ("check", "--mode", "atomic", "--witness", "cases/fig2a_iprime.nred"),
    "reentry.atomic.witness": ("check", "--mode", "atomic", "--witness", "cases/reentry.nred"),
    "fig2b_iprime.sync.witness": ("check", "--mode", "sync", "--witness", "cases/fig2b_iprime.nred"),
    "lock_block.natural.witness": ("check", "--witness", "cases/lock_block.nred"),
    "fig2a_iprime.oracle.witness": (
        "oracle", "--threads", "2", "--max-len", "2", "--witness", "cases/fig2a_iprime.nred",
    ),
    "undeclared.natural": ("check", "cases/undeclared.nred"),
    "fig2b.movers": ("movers", "cases/fig2b.nred"),
    "fig2a.movers": ("movers", "cases/fig2a.nred"),
    "undeclared.movers": ("movers", "cases/undeclared.nred"),
    "sat2.coverability.witness": (
        "check", "--mode", "coverability", "--threads", "2", "--witness", "cases/sat2.nred",
    ),
    "unsat3.coverability": ("check", "--mode", "coverability", "--threads", "3", "cases/unsat3.nred"),
    "fig2b.validate": ("validate", "cases/fig2b.nred"),
    "fig2b.validate-json": ("validate", "--json", "cases/fig2b.nred"),
    "undeclared.validate": ("validate", "cases/undeclared.nred"),
    "undeclared.validate-json": ("validate", "--json", "cases/undeclared.nred"),
    "init_is_exit.validate": ("validate", "cases/init_is_exit.nred"),
    "init_is_exit.validate-json": ("validate", "--json", "cases/init_is_exit.nred"),
}


def transcript(argv) -> str:
    """Run the CLI in-process from the repository root and return its
    output streams and exit code as one text."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)  # the reports echo the input path
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    text = out.getvalue()
    if err.getvalue():
        text += "[stderr]\n" + err.getvalue()
    return text + f"[exit {code}]\n"


@pytest.mark.parametrize("name", sorted(TEXT_RUNS))
def test_text_output_matches_golden(name):
    assert transcript(TEXT_RUNS[name]) == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def _assert_golden_under_hash_seeds(case: str, mode: str) -> None:
    """The unsound report of `case` in `mode`, run under three hash seeds,
    is the golden file byte for byte."""
    src = str(ROOT / "src")
    want = (GOLDEN / f"{case}.{mode}.json").read_text(encoding="utf-8")
    for seed in ("0", "1", "123"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "nredcheck", "check", "--mode", mode, "--json",
             "--witness", f"cases/{case}.nred"],
            cwd=ROOT, capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 1, done.stderr
        assert re.sub(r',"wall_time_ms":[0-9.e+-]+', "", done.stdout) == want


def test_chain_report_does_not_follow_the_hash_seed():
    _assert_golden_under_hash_seeds("chain200", "natural")


def test_dense_fusion_report_does_not_follow_the_hash_seed():
    _assert_golden_under_hash_seeds("dense_fusion", "atomic")


# the criterion-7 chain at n = 10^4 and 10^5 with --witness, too big for a
# golden file: its report, minus the wall time, pinned by digest, so derived
# templates and the passes over them keep every byte at scale
CHAIN_1E4_SHA256 = "f2b372e3f8d6f52ba10e30c189e986e42848be1448d66f36dffae9048ce2830b"
CHAIN_1E5_SHA256 = "348b536af6c9b9cda2a7d5449dfc470a42d28ed8ec0c888a3684f95bbfa9ffca"


def _chain_witness_report_digest(n: int, name: str, capsys) -> str:
    from test_acceptance import _chain_text

    Path(name).write_text(_chain_text(n), encoding="utf-8")
    assert main(["check", "--mode", "natural", "--json", "--witness", name]) == 1
    out = re.sub(r',"wall_time_ms":[0-9.e+-]+', "", capsys.readouterr().out)
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_chain_1e4_witness_report_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the report echoes the input path
    assert _chain_witness_report_digest(10_000, "chain1e4.nred", capsys) == CHAIN_1E4_SHA256


@pytest.mark.slow
def test_chain_1e5_witness_report_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the report echoes the input path
    assert _chain_witness_report_digest(100_000, "chain1e5.nred", capsys) == CHAIN_1E5_SHA256
