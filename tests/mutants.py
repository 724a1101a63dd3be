"""Mutation checks: every mutant in the table must make its tests fail.

    python3 tests/mutants.py          # run every mutant
    python3 tests/mutants.py -k rule  # only the mutants whose name has "rule"

pytest does not collect this file (its name does not start with `test_`),
and it needs nothing outside the standard library.  Each row of `MUTANTS`
names a mutant, a file under `src/`, a source text that occurs in that file
exactly once, its replacement, and the ids of tests that must fail with it.

The script copies `src/`, `tests/`, `cases/` and `pyproject.toml` into a
temporary directory and first runs every listed test there unmutated: they
must pass.  Then, for each mutant, it makes a fresh copy, applies the one
replacement and runs `python -m pytest -x -q <ids>`, which must end with
failed tests (exit status 1).  It exits 1 when a source text is missing or
repeated, when a listed test fails unmutated, or when a mutant survives,
so a change that rewrites a source text must update its row here.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLE = "src/nredcheck/oracle.py"
MODEL = "src/nredcheck/model.py"
DECISION = "src/nredcheck/decision.py"

# (name, file, source text, replacement, test ids that must fail)
MUTANTS = [
    (
        "rule: a plain step runs during a round",
        ORACLE,
        "    return None if joined else 0\n",
        "    return None if rendezvous and joined else joined\n",
        [
            "tests/test_oracle.py::test_barrier_predicate_examples",
            "tests/test_oracle.py::test_shuffle_graph_matches_reference",
        ],
    ),
    (
        "rule: a thread joins a round it is already in",
        ORACLE,
        "    if rendezvous and not joined & bit:\n",
        "    if rendezvous:\n",
        [
            "tests/test_oracle.py::test_barrier_predicate_exhaustive_against_reference",
            "tests/test_oracle.py::test_shuffle_graph_matches_reference",
        ],
    ),
    (
        "rule: the round closes on the wrong mask",
        ORACLE,
        "        return joined if running & ~joined else 0\n",
        "        return joined if running ^ joined else 0\n",
        [
            "tests/test_oracle.py::test_barrier_predicate_exhaustive_against_reference",
            "tests/test_oracle.py::test_shuffle_graph_matches_reference",
        ],
    ),
    (
        "coverability: a thread on the goal moves alone",
        ORACLE,
        "if at[k] < 0 and not (own[k] & held or (key - weight[k]) & clash[k]):",
        "if not (own[k] & held or (key - weight[k]) & clash[k]):",
        [
            "tests/test_oracle.py::test_coverability_witnesses_are_pinned",
            "tests/test_oracle.py::test_coverability_against_labelled_reference",
        ],
    ),
    (
        "coverability: a thread that waits for a held lock moves alone",
        ORACLE,
        "if at[k] < 0 and not (own[k] & held or (key - weight[k]) & clash[k]):",
        "if at[k] < 0 and not ((key - weight[k]) & clash[k]):",
        [
            "tests/test_oracle.py::test_coverability_witnesses_are_pinned",
            "tests/test_oracle.py::test_coverability_against_labelled_reference",
        ],
    ),
    (
        "coverability: a thread moves alone on a lock another thread can still take",
        ORACLE,
        "if at[k] < 0 and not (own[k] & held or (key - weight[k]) & clash[k]):",
        "if at[k] < 0 and not (own[k] & held):",
        [
            "tests/test_oracle.py::test_coverability_witnesses_are_pinned",
            "tests/test_oracle.py::test_coverability_waits_for_a_lock_another_thread_can_still_take",
        ],
    ),
    (
        "enumeration slot: templates matched by equality, not identity",
        ORACLE,
        "if o is original and r is reduced and b is blocks and",
        "if o == original and r == reduced and b == blocks and",
        ["tests/test_oracle.py::test_a_second_relation_reuses_the_enumeration"],
    ),
    (
        "enumeration slot: a key without the bounds",
        ORACLE,
        "and (k, bd) == (keep_sync, bounds):",
        "and k == keep_sync:",
        ["tests/test_oracle.py::test_enumeration_budget_accounting_is_exact"],
    ),
    (
        "block expansion: a move's slot looked up by its step",
        ORACLE,
        "row.append((s, offset[j] + s // radix[j] % (lengths[j] + 1), to))",
        "row.append((s, flat.index(c), to))",
        ["tests/test_oracle.py::test_expanded_plain_matches_expansion_per_fused_trace"],
    ),
    (
        "derived view: new names appended, not merged in sorted order",
        MODEL,
        "view.names = sorted([*self.names, *added])",
        "view.names = [*self.names, *sorted(added)]",
        ["tests/test_numbered.py::test_derived_templates_match_fresh_copies"],
    ),
    (
        "rendezvous counts: successor rows in edge order, not by target",
        DECISION,
        "by_target[off[u] : off[u + 1]] = sorted(by_target[off[u] : off[u + 1]])",
        "by_target[off[u] : off[u + 1]] = by_target[off[u] : off[u + 1]]",
        ["tests/test_numbered.py::test_sync_counts_and_phase_bounds_match_the_reference"],
    ),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "cases"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(where: Path, ids: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids],
        cwd=where, env=env, capture_output=True, text=True,
    )


def _tail(proc: subprocess.CompletedProcess, lines: int = 15) -> str:
    return "\n".join((proc.stdout + proc.stderr).splitlines()[-lines:])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("-k", default="", help="run only the mutants whose name contains this text")
    args = ap.parse_args(argv)
    rows = [row for row in MUTANTS if args.k in row[0]]
    bad = []
    for name, file, old, _, _ in rows:
        count = (ROOT / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            bad.append(f"{name}: the source text occurs {count} times in {file}, not once")
    if bad:
        print("\n".join(bad))
        return 1
    with tempfile.TemporaryDirectory(prefix="nredcheck-mutants-") as tmp:
        base = Path(tmp) / "unmutated"
        _copy(base)
        ids = sorted({i for row in rows for i in row[4]})
        t0 = time.perf_counter()
        proc = _pytest(base, ids)
        if proc.returncode != 0:
            print(f"the listed tests fail unmutated:\n{_tail(proc)}")
            return 1
        print(f"unmutated: {len(ids)} listed tests pass ({time.perf_counter() - t0:.1f}s)")
        shutil.rmtree(base)
        for number, (name, file, old, new, ids) in enumerate(rows):
            where = Path(tmp) / f"mutant{number}"
            _copy(where)
            path = where / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
            t0 = time.perf_counter()
            proc = _pytest(where, ids)
            took = time.perf_counter() - t0
            if proc.returncode == 1:
                print(f"caught    {name} ({took:.1f}s)")
            else:
                print(f"SURVIVED  {name} (pytest exit {proc.returncode}, {took:.1f}s)\n{_tail(proc)}")
                bad.append(name)
            shutil.rmtree(where)
    print(f"{len(rows) - len(bad)} of {len(rows)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
