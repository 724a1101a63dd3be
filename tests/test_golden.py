"""Byte-for-byte JSON reports for the sample inputs in every decision mode.

The files under `golden/` pin the verdicts and witnesses the CLI reports,
minus the wall-time field.  A refactor must leave them unchanged; a change
that moves a witness on purpose regenerates them and says why.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from nredcheck.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = ("fig2a", "fig2a_iprime", "fig2b", "fig2b_iprime")
RUNS = [(case, mode, ()) for case in CASES for mode in ("natural", "atomic", "sync", "movers")]
RUNS += [
    (case, "oracle", ("--threads", "2", "--max-len", "2"))
    for case in ("fig2a", "fig2a_iprime")
]


@pytest.mark.parametrize(
    "case,mode,extra", RUNS, ids=[f"{case}-{mode}" for case, mode, _ in RUNS]
)
def test_json_report_matches_golden(case, mode, extra, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the report echoes the input path
    main(["check", "--mode", mode, "--json", f"cases/{case}.nred", *extra])
    out = re.sub(r',"wall_time_ms":[0-9.e+-]+', "", capsys.readouterr().out)
    assert out == (GOLDEN / f"{case}.{mode}.json").read_text(encoding="utf-8")
