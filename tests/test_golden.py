"""Byte-for-byte JSON reports for the sample inputs in every decision mode.

The files under `golden/` pin the verdicts and witnesses the CLI reports,
minus the wall-time field.  A refactor must leave them unchanged; a change
that moves a witness on purpose regenerates them and says why.
"""

from __future__ import annotations

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
