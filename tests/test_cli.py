from __future__ import annotations

import json
from pathlib import Path

import pytest

from nredcheck.cli import main

CASES = Path(__file__).resolve().parent.parent / "cases"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_atomic_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "--mode", "atomic", str(CASES / "fig2a.nred"))
    assert code == 0 and "sound" in out
    code, out, _ = run(capsys, "check", "--mode", "atomic", str(CASES / "fig2a_iprime.nred"))
    assert code == 1 and "unsound" in out


def test_check_sync_exit_codes_and_witness(capsys):
    code, out, _ = run(capsys, "check", "--mode", "sync", str(CASES / "fig2b.nred"))
    assert code == 0
    code, out, _ = run(
        capsys, "check", "--mode", "sync", str(CASES / "fig2b_iprime.nred"), "--witness"
    )
    assert code == 1
    assert "(b, c)" in out


def test_check_natural_mode(capsys):
    code, _, _ = run(capsys, "check", "--mode", "natural", str(CASES / "fig2a.nred"))
    assert code == 0
    code, _, _ = run(capsys, "check", str(CASES / "fig2b_iprime.nred"))
    assert code == 1


def test_movers_subcommand(capsys):
    code, out, _ = run(capsys, "movers", str(CASES / "fig2b.nred"))
    assert code == 0
    assert "a: both" in out and "b: non" in out and "c: non" in out
    code, out, _ = run(capsys, "movers", str(CASES / "fig2a.nred"))
    assert code == 2  # the rule cannot certify Fig 2a


def test_oracle_subcommand(capsys):
    code, out, _ = run(
        capsys, "oracle", str(CASES / "fig2a.nred"), "--threads", "2", "--max-len", "2"
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        "oracle",
        str(CASES / "fig2a_iprime.nred"),
        "--threads", "2", "--max-len", "2", "--witness",
    )
    assert code == 1
    assert "b1:1" in out
    code, _, err = run(capsys, "oracle", str(CASES / "fig2a.nred"))
    assert code == 3 and "needs --threads" in err


def test_validate_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", str(CASES / "fig2b.nred"))
    assert code == 0 and "valid" in out
    bad = tmp_path / "bad.nred"
    bad.write_text("init l0\nexit l0\nedge l0 a l0\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 3


def test_json_report_is_deterministic_up_to_walltime(capsys):
    def once():
        code, out, _ = run(
            capsys, "check", "--mode", "atomic", str(CASES / "fig2a.nred"), "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "nred-report/1"
        assert isinstance(data.pop("wall_time_ms"), float)
        return json.dumps(data, sort_keys=True)

    assert once() == once()


def test_json_report_roundtrips(capsys):
    code, out, _ = run(
        capsys, "check", "--mode", "sync", str(CASES / "fig2b_iprime.nred"), "--json"
    )
    assert code == 1
    data = json.loads(out)
    assert data["verdict"]["result"] == "unsound"
    w = data["verdict"]["witness"]
    assert w["type"] == "phase-pair" and w["pair"] == ["b", "c"]
    assert json.loads(json.dumps(data)) == data


def test_unsound_witnesses_revalidate(capsys):
    # atomic witness: re-checked against the chain definitions
    from nredcheck.nredfile import parse_input
    from nredcheck.decision import (
        check_atomic_fusion,
        check_sync_instrumentation,
        verify_fusion_witness,
        verify_sync_witness,
    )

    parsed = parse_input((CASES / "fig2a_iprime.nred").read_text())
    v = check_atomic_fusion(parsed.program.template, parsed.spec.fusion, parsed.relation)
    assert v.is_unsound
    assert verify_fusion_witness(
        parsed.program.template, parsed.spec.fusion, parsed.relation, v.witness
    )
    parsed2 = parse_input((CASES / "fig2b_iprime.nred").read_text())
    v2 = check_sync_instrumentation(parsed2.spec.instrumentation, parsed2.relation)
    assert v2.is_unsound
    assert verify_sync_witness(parsed2.spec.instrumentation, parsed2.relation, v2.witness)
    # oracle counterexample: re-checked via the covering search
    from nredcheck.oracle import Bounds, enumerate_interleavings, _cover_search, oracle_check_natural
    from nredcheck.model import ParameterizedProgram

    bounds = Bounds(max_threads=2, max_local_len=2)
    v3 = oracle_check_natural(
        parsed.program.template, parsed.spec, parsed.relation, bounds
    )
    assert v3.is_unsound
    l1_raw = enumerate_interleavings(
        ParameterizedProgram(parsed.spec.fusion.outer), bounds, keep_sync=True
    )
    from nredcheck.oracle import _expand_blocks, project_plain

    l1 = frozenset(
        project_plain(x)
        for tr in l1_raw
        for x in _expand_blocks(tr, parsed.spec.fusion, bounds)
    )
    found, _ = _cover_search(v3.witness, l1, parsed.relation, None, 100_000)
    assert found is False


@pytest.mark.parametrize(
    "mode,case,verifier",
    [
        ("atomic", "fig2a_iprime", "verify_fusion_witness"),
        ("sync", "fig2b_iprime", "verify_sync_witness"),
        ("natural", "fig2a_iprime", "verify_fusion_witness"),
        ("natural", "fig2b_iprime", "verify_sync_witness"),
    ],
)
def test_failed_witness_revalidation_exits_4(capsys, monkeypatch, mode, case, verifier):
    monkeypatch.setattr(f"nredcheck.cli.{verifier}", lambda *args: False)
    code, out, err = run(capsys, "check", "--mode", mode, str(CASES / f"{case}.nred"))
    assert code == 4
    assert out == ""
    assert err == "internal error: witness failed re-validation\n"


def test_reentrant_body_verdicts(capsys):
    path = str(CASES / "reentry.nred")
    for mode in ("atomic", "natural"):
        code, out, _ = run(capsys, "check", "--mode", mode, "--json", path)
        assert code == 1
        witness = json.loads(out)["verdict"]["witness"]
        assert witness == {"type": "re-entry", "blocks": ["B1"], "trace": ["p0", "p1", "p2"]}
    code, out, _ = run(capsys, "check", "--mode", "atomic", "--witness", path)
    assert "one thread runs p0 p1 p2" in out
    code, out, _ = run(capsys, "movers", path)
    assert code == 2 and out.startswith("movers: unknown")


def test_failed_reentry_witness_revalidation_exits_4(capsys, monkeypatch):
    monkeypatch.setattr("nredcheck.decision.verify_reentry_witness", lambda *args: False)
    code, out, err = run(capsys, "check", "--mode", "atomic", str(CASES / "reentry.nred"))
    assert code == 4
    assert out == ""
    assert err == "internal error: witness failed re-validation\n"


def test_unexpected_exception_exits_4_without_a_traceback(capsys, monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("nredcheck.cli.check_natural_reduction", boom)
    code, out, err = run(capsys, "check", "--mode", "natural", str(CASES / "fig2a.nred"))
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: RuntimeError: boom\n")
    assert "in boom" in err and "Traceback" not in err


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_interrupt_and_exit_pass_the_guard(monkeypatch, exc):
    def stop(*args):
        raise exc()

    monkeypatch.setattr("nredcheck.cli.check_natural_reduction", stop)
    with pytest.raises(exc):
        main(["check", "--mode", "natural", str(CASES / "fig2a.nred")])


def test_gen_3sat_pipe_matches_brute_force(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "3sat", "--dimacs", str(CASES / "sat2.cnf"))
    assert code == 0
    gen_file = tmp_path / "gadget.nred"
    gen_file.write_text(out, encoding="utf-8")
    code, _, _ = run(
        capsys, "check", "--mode", "coverability", str(gen_file), "--threads", "2"
    )
    assert code == 0  # the bundled formula is satisfiable

    unsat = tmp_path / "unsat.cnf"
    unsat.write_text("p cnf 1 2\n1 0\n-1 0\n", encoding="utf-8")
    code, out, _ = run(capsys, "gen", "3sat", "--dimacs", str(unsat))
    gen_file.write_text(out, encoding="utf-8")
    code, _, _ = run(
        capsys, "check", "--mode", "coverability", str(gen_file), "--threads", "2"
    )
    assert code == 1


def test_gen_thm1_and_thm6_roundtrip(capsys, tmp_path):
    tiny = tmp_path / "tiny.nred"
    tiny.write_text("actions z\ninit l0\nexit l1\nedge l0 z l1\n", encoding="utf-8")
    code, out, _ = run(capsys, "gen", "thm1", str(tiny), "--cover", "l1")
    assert code == 0
    gadget = tmp_path / "thm1.nred"
    gadget.write_text(out, encoding="utf-8")
    code, _, _ = run(capsys, "oracle", str(gadget), "--threads", "2", "--max-len", "4")
    assert code == 1  # exit location is trivially coverable -> unsound

    two = tmp_path / "two.nred"
    two.write_text(
        "actions x1 x2\ninit l0\nexit l3\nedge l0 x1 l1\nedge l0 x2 l2\n"
        "edge l1 y1 l3\nedge l2 y2 l3\nconflicts { }\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "gen", "thm6", str(two), "--cover", "l1,l2")
    assert code == 0
    gadget6 = tmp_path / "thm6.nred"
    gadget6.write_text(out, encoding="utf-8")
    code, _, _ = run(capsys, "oracle", str(gadget6), "--threads", "2", "--max-len", "6")
    assert code == 1

    code, _, err = run(capsys, "gen", "thm6", str(two), "--cover", "l1")
    assert code == 3


def test_gen_b2p(capsys, tmp_path):
    one = tmp_path / "one.nred"
    one.write_text("actions pa\ninit a0\nexit a1\nedge a0 pa a1\n", encoding="utf-8")
    other = tmp_path / "other.nred"
    other.write_text("actions pb\ninit b0\nexit b1\nedge b0 pb b1\n", encoding="utf-8")
    code, out, _ = run(capsys, "gen", "b2p", str(one), str(other))
    assert code == 0
    assert "lock-edge init acq g1" in out and "lock-edge init acq g2" in out


def test_strict_locks_refuses(capsys, tmp_path):
    locked = tmp_path / "locked.nred"
    locked.write_text(
        "actions a z\ninit l0\nexit l2\nlock-edge l0 acq m l1\nedge l1 B l2\n"
        "edge l1 a l2\nconflicts { }\n"
        "block B {\n  init u0\n  exit u1\n  edge u0 z u1\n}\n",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "check", "--mode", "atomic", str(locked), "--strict-locks")
    assert code == 3 and "strict-locks" in err
    code, out, _ = run(capsys, "check", "--mode", "atomic", str(locked), "--json")
    assert code == 0
    data = json.loads(out)
    assert any("certificate" in f for f in data["verdict"].get("flags", []))


def test_sync_with_locks_flagged_not_applicable(capsys, tmp_path):
    f = tmp_path / "locksync.nred"
    f.write_text(
        "actions a\ninit l0\nexit l2\nlock-edge l0 acq m l1\nedge l1 a l2\n"
        "conflicts { }\nsyncpoint at l1\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "check", "--mode", "sync", str(f), "--json")
    data = json.loads(out)
    assert any("not-applicable" in fl for fl in data["verdict"].get("flags", []))


def test_dot_output(capsys, tmp_path):
    dot = tmp_path / "out.dot"
    code, _, _ = run(
        capsys, "check", "--mode", "atomic", str(CASES / "fig2a.nred"), "--dot", str(dot)
    )
    assert code == 0
    assert dot.read_text().startswith("digraph")


def test_input_error_paths(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "missing.nred"))
    assert code == 3
    bad = tmp_path / "bad.nred"
    bad.write_text("edge l0\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 3 and "line 1" in err


@pytest.mark.parametrize(
    "argv",
    [["check", "--mode", "bogus"], ["check", "--threads", "x"], []],
    ids=["unknown-mode", "non-int-threads", "no-subcommand"],
)
def test_usage_errors_exit_3_not_2(capsys, argv):
    # exit 2 is kept for inconclusive verdicts
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: nredcheck") and "error: " in captured.err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as stop:
        main([flag])
    assert stop.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,message",
    [
        (("oracle", "fig2a", "--threads", "0", "--max-len", "2"), "bounds must be at least 1"),
        (("oracle", "fig2a", "--threads", "2", "--max-len", "0"), "bounds must be at least 1"),
        (
            ("oracle", "fig2a", "--threads", "2", "--max-len", "2", "--swap-depth", "0"),
            "swap depth must be at least 1",
        ),
        (("coverability", "sat2", "--threads", "0"), "bounds must be at least 1"),
        (("coverability", "sat2", "--threads", "2", "--max-len", "0"), "bounds must be at least 1"),
        (("coverability", "sat2", "--threads", "1"), "wider than the thread bound 1"),
    ],
    ids=[
        "threads-0", "max-len-0", "swap-depth-0", "cover-threads-0", "cover-max-len-0",
        "cover-too-wide",
    ],
)
def test_bad_bounds_are_input_errors(capsys, argv, message):
    mode, case, *rest = argv
    code, out, err = run(capsys, "check", "--mode", mode, str(CASES / f"{case}.nred"), *rest)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and message in err


def test_coverability_witness_in_text_mode(capsys):
    argv = ("check", "--mode", "coverability", str(CASES / "sat2.nred"), "--threads", "2")
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, "coverability: coverable\n")
    code, out, _ = run(capsys, *argv, "--witness")
    assert code == 0
    assert out == (
        "coverability: coverable\n"
        "  witness: acq(g1):1 acq(g2):2 acq(m1_x1):1 acq(m2_nx1):1 rel(m2_nx1):1"
        " acq(m2_nx2):2 acq(m1_x2):2 rel(m1_x2):2\n"
    )
    unsat = ("check", "--mode", "coverability", str(CASES / "unsat3.nred"), "--threads", "3")
    code, out, _ = run(capsys, *unsat, "--witness")
    assert (code, out) == (1, "coverability: not-coverable\n")


PUMPING_LOOP = (
    "actions a b c d\ninit l0\nexit l3\nedge l0 c l1\nedge l1 d l0\n"
    "edge l1 a l2\nedge l2 b l3\nconflicts { (b,a) }\nsyncpoint at l1\n"
)


def test_witness_past_a_pumping_loop_revalidates(capsys, tmp_path):
    # b's location lies past the rendezvous loop l0 -c-> l1 -•-> l1^ -d-> l0,
    # so its greatest count is infinite and its path must pump that loop
    from nredcheck.decision import check_sync_instrumentation, verify_sync_witness
    from nredcheck.nredfile import parse_input

    f = tmp_path / "pump.nred"
    f.write_text(PUMPING_LOOP, encoding="utf-8")
    code, out, err = run(capsys, "check", "--mode", "natural", "--witness", str(f))
    assert (code, err) == (1, "")
    assert "(pumpable)" in out
    code, _, err = run(capsys, "check", "--mode", "sync", str(f))
    assert (code, err) == (1, "")
    parsed = parse_input(PUMPING_LOOP)
    v = check_sync_instrumentation(parsed.spec.instrumentation, parsed.relation)
    assert v.is_unsound and v.witness.path_b.pumped
    assert verify_sync_witness(parsed.spec.instrumentation, parsed.relation, v.witness)


def test_tied_sync_witness_does_not_follow_the_hash_seed(tmp_path):
    # two greatest-count paths of equal length reach l3: via a and via b
    import os
    import re
    import subprocess
    import sys

    f = tmp_path / "diamond.nred"
    f.write_text(
        "actions a b c d z\ninit l0\nexit l4\nedge l0 a l1\nedge l0 b l2\n"
        "edge l1 c l3\nedge l2 d l3\nedge l3 z l4\nconflicts { (z,a) }\n"
        "syncpoint at l1\nsyncpoint at l2\n",
        encoding="utf-8",
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    reports = set()
    for seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", "from nredcheck.cli import entry; entry()",
             "check", "--mode", "sync", "--witness", "--json", str(f)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1, done.stderr
        reports.add(re.sub(r',"wall_time_ms":[0-9.e+-]+', "", done.stdout))
    assert len(reports) == 1


_TEMPLATE = '"template": {"init": "l0", "exit": "l1", "edges": [["l0", "x", "l1"]]}'


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"template": []}', "template must be an object"),
        ("{%s, \"conflicts\": [[\"x\"]]}" % _TEMPLATE, "bad conflicts entry"),
        ("{%s, \"blocks\": []}" % _TEMPLATE, "'blocks' must be an object"),
        ("{%s, \"cover\": 5}" % _TEMPLATE, "'cover' must be a list"),
        ("{%s, \"actions\": \"xy\"}" % _TEMPLATE, "'actions' must be a list"),
    ],
    ids=["template-list", "conflict-singleton", "blocks-list", "cover-number", "actions-string"],
)
def test_malformed_json_input_is_an_input_error(capsys, tmp_path, text, message):
    f = tmp_path / "bad.json"
    f.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", str(f))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv,code",
    [(["check", "--mode", "natural", "cases/fig2a.nred"], 0), (["--help"], 0)],
    ids=["check", "help"],
)
def test_python_dash_m_runs_the_cli(argv, code):
    import os
    import subprocess
    import sys

    root = CASES.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "nredcheck", *argv],
        cwd=root, capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == code, done.stderr
    assert done.stdout
