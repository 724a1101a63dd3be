from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nredcheck import model
from nredcheck.model import (
    Action,
    ActionKind,
    AtomicFusion,
    BlockSymbolMissing,
    CommutativityRelation,
    SYNC,
    ThreadTemplate,
    UnknownLocation,
    acquire,
    block_symbol,
    insert_syncpoints,
    plain,
    release,
    substitute_blocks,
    validate_fusion,
    validate_instrumentation,
    validate_template,
)
from nredcheck.automata import language_equivalent

import reference


a, b1, b2, c = plain("a"), plain("b1"), plain("b2"), plain("c")
B = block_symbol("B")


def fig2a_original() -> ThreadTemplate:
    return ThreadTemplate.make(
        [("l0", a, "l2"), ("l0", b1, "l1"), ("l1", b2, "l2"), ("l0", c, "l2")],
        "l0",
        "l2",
    )


def fig2a_fusion() -> AtomicFusion:
    outer = ThreadTemplate.make(
        [("l0", a, "l2"), ("l0", B, "l2"), ("l0", c, "l2")], "l0", "l2"
    )
    body = ThreadTemplate.make([("u0", b1, "u1"), ("u1", b2, "u2")], "u0", "u2")
    return AtomicFusion.make(outer, {B: body})


def test_validate_template_accepts_branching_template():
    assert validate_template(fig2a_original()).ok


def test_validate_template_rejects_init_equals_exit():
    t = ThreadTemplate.make([("l0", a, "l0")], "l0", "l0")
    report = validate_template(t)
    assert any(v.code == "init-equals-exit" for v in report.entries)


def test_validate_template_reports_isolated_location():
    t = ThreadTemplate.make([("l0", a, "l1")], "l0", "l1", extra_locations=["u"])
    report = validate_template(t)
    codes = {v.code for v in report.entries}
    assert "unreachable" in codes and "not-co-reachable" in codes
    assert any("u" in v.message for v in report.entries)


def test_validate_template_reports_duplicate_plain_label():
    t = ThreadTemplate.make([("l0", a, "l1"), ("l1", a, "l2")], "l0", "l2")
    assert any(v.code == "duplicate-label" for v in validate_template(t).entries)


def test_lock_labels_may_repeat():
    t = ThreadTemplate.make(
        [("l0", acquire("m"), "l1"), ("l1", release("m"), "l2"), ("l2", acquire("m"), "l3")],
        "l0",
        "l3",
    )
    assert validate_template(t).ok


def test_substitute_blocks_recovers_fig2a():
    derived = substitute_blocks(fig2a_fusion())
    eq, counterexample = language_equivalent(derived, fig2a_original())
    assert eq, counterexample
    assert validate_fusion(fig2a_fusion(), declared_original=fig2a_original()).ok


def test_substitute_with_zero_blocks_is_identity():
    outer = fig2a_original()
    fusion = AtomicFusion.identity(outer)
    assert substitute_blocks(fusion) == outer


def test_substitute_missing_block_symbol_raises():
    body = ThreadTemplate.make([("u0", b1, "u1")], "u0", "u1")
    outer = ThreadTemplate.make([("l0", a, "l1")], "l0", "l1")
    with pytest.raises(BlockSymbolMissing):
        substitute_blocks(AtomicFusion.make(outer, {B: body}))


def test_substitute_body_with_loop_preserves_language():
    # body language z1 (z2 z1)*, checked by projecting traces on both sides
    z1, z2 = plain("z1"), plain("z2")
    body = ThreadTemplate.make([("u0", z1, "u1"), ("u1", z2, "u0")], "u0", "u1")
    outer = ThreadTemplate.make([("l0", B, "l1"), ("l1", c, "l2")], "l0", "l2")
    derived = substitute_blocks(AtomicFusion.make(outer, {B: body}))
    assert validate_template(derived).ok
    got = set(derived.traces(7))
    expect = {(z1, c), (z1, z2, z1, c), (z1, z2, z1, z2, z1, c)}
    assert got == expect


def test_fusion_body_must_be_sync_free():
    body = ThreadTemplate.make([("u0", acquire("m"), "u1")], "u0", "u1")
    outer = ThreadTemplate.make([("l0", B, "l1")], "l0", "l1")
    report = validate_fusion(AtomicFusion.make(outer, {B: body}))
    assert any(v.code == "sync-in-body" for v in report.entries)


def test_insert_syncpoints_fig2b():
    aa, bb, cc = plain("a"), plain("b"), plain("c")
    base = ThreadTemplate.make(
        [("m0", aa, "m1"), ("m1", bb, "m2"), ("m2", cc, "m3")], "m0", "m3"
    )
    inst = insert_syncpoints(base, ["m1", "m2"])
    words = set(inst.instrumented.traces(6))
    assert words == {(aa, SYNC, bb, SYNC, cc)}
    assert validate_instrumentation(inst).ok


def test_insert_syncpoints_empty_set_is_identity():
    base = fig2a_original()
    inst = insert_syncpoints(base, [])
    assert inst.instrumented == base
    assert validate_instrumentation(inst).ok


def test_insert_syncpoints_at_init():
    aa, bb = plain("a"), plain("b")
    base = ThreadTemplate.make([("m0", aa, "m1"), ("m1", bb, "m2")], "m0", "m2")
    inst = insert_syncpoints(base, ["m0"])
    assert set(inst.instrumented.traces(4)) == {(SYNC, aa, bb)}


def test_insert_syncpoints_unknown_location():
    with pytest.raises(UnknownLocation):
        insert_syncpoints(fig2a_original(), ["nope"])


def test_insert_syncpoints_always_validates():
    rng = random.Random(7)
    for _ in range(25):
        original, fusion, sync_locs, _ = reference.random_fusion_instance(rng)
        inst = insert_syncpoints(fusion.outer, sync_locs)
        assert validate_instrumentation(inst).ok, (sync_locs, inst)


def test_validate_instrumentation_detects_injectivity_violation():
    # branch a;*;b vs a;b from the same state shares the erased word "a b"
    aa, bb = plain("a"), plain("b")
    instrumented = ThreadTemplate.make(
        [
            ("l0", aa, "l1"),
            ("l1", SYNC, "l1x"),
            ("l1x", bb, "l2"),
            ("l1", bb, "l2"),
        ],
        "l0",
        "l2",
    )
    base = ThreadTemplate.make([("l0", aa, "l1"), ("l1", bb, "l2")], "l0", "l2")
    from nredcheck.model import SyncPointInstrumentation

    report = validate_instrumentation(SyncPointInstrumentation(base, instrumented))
    assert any(v.code == "projection-not-injective" for v in report.entries)


def test_validate_instrumentation_detects_projection_mismatch():
    aa, bb, cc = plain("a"), plain("b"), plain("c")
    base = ThreadTemplate.make(
        [("l0", aa, "l1"), ("l1", bb, "l2"), ("l0", cc, "l2")], "l0", "l2"
    )
    # instrumented variant lost the c edge
    instrumented = ThreadTemplate.make(
        [("l0", aa, "l1"), ("l1", SYNC, "l1x"), ("l1x", bb, "l2")], "l0", "l2"
    )
    from nredcheck.model import SyncPointInstrumentation

    report = validate_instrumentation(SyncPointInstrumentation(base, instrumented))
    assert any(v.code == "projection-mismatch" for v in report.entries)


def test_relation_requires_declared_actions():
    with pytest.raises(ValueError):
        CommutativityRelation([a], conflicts=[(a, b1)])


def test_relation_rejects_sync_actions():
    with pytest.raises(ValueError):
        CommutativityRelation([acquire("m")], conflicts=[])


# plain and block actions, of which each example declares some and probes
# the rest as undeclared
_POOL = [plain(n) for n in "pqrst"] + [block_symbol("P"), block_symbol("Q")]
_pool_pairs = st.tuples(st.sampled_from(_POOL), st.sampled_from(_POOL))


@settings(max_examples=200, derandomize=True, database=None)
@given(
    alphabet=st.sets(st.sampled_from(_POOL)),
    pairs=st.sets(_pool_pairs),
    extra=st.sets(_pool_pairs),
)
def test_relation_both_representations_agree(alphabet, pairs, extra):
    pairs = {(x, y) for x, y in pairs if x in alphabet and y in alphabet}
    conflicts = {(x, y) for x in alphabet for y in alphabet} - pairs
    pos = CommutativityRelation(alphabet, pairs=pairs)
    neg = CommutativityRelation(alphabet, conflicts=conflicts)
    for rel in (pos, neg):
        for x in _POOL:  # undeclared actions never commute
            for y in _POOL:
                assert rel.commutes(x, y) == ((x, y) in pairs)
        assert rel.explicit_conflicts == conflicts
        assert rel.pairs == pairs
    assert pos == neg and hash(pos) == hash(neg)
    assert pos.symmetric_core() == neg.symmetric_core()
    core = {(x, y) for x, y in pairs if (y, x) in pairs}
    assert pos.symmetric_core().pairs == core
    grown = pos.with_extra_pairs(extra)
    assert grown == neg.with_extra_pairs(extra)
    assert grown.pairs == pairs | {(x, y) for x, y in extra if x in alphabet and y in alphabet}


def test_action_hash_is_the_field_tuple_hash():
    for act in (a, B, SYNC, acquire("m"), release("m")):
        assert hash(act) == hash((act.name, act.kind, act.lock))
    twin = Action("a", ActionKind.PLAIN)
    assert twin is not a and twin == a and hash(twin) == hash(a)
    assert {twin: 1}[a] == 1
    assert acquire("m") == acquire("m") and acquire("m") != acquire("n")


def test_is_sync_for_every_kind():
    kinds = {a: False, B: False, SYNC: True, acquire("m"): True, release("m"): True}
    assert {act.kind for act in kinds} == set(ActionKind)
    for act, sync in kinds.items():
        assert act.is_sync is sync


def test_unpickled_actions_hash_in_the_receiving_process(tmp_path):
    # the hash is cached per action, and string hashes differ per process
    import os
    import pickle
    import subprocess
    import sys

    blob = tmp_path / "actions.pickle"
    blob.write_bytes(pickle.dumps([a, acquire("m"), SYNC]))
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(__file__).resolve().parent.parent / "src")
    check = (
        "import pickle, sys; acts = pickle.loads(open(sys.argv[1], 'rb').read()); "
        "assert all(hash(x) == hash((x.name, x.kind, x.lock)) for x in acts); "
        "assert [x.is_sync for x in acts] == [False, True, True]"
    )
    done = subprocess.run(
        [sys.executable, "-c", check, str(blob)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr


def test_natural_check_validates_each_template_once(monkeypatch, capsys):
    from nredcheck.cli import main

    seen: dict[int, int] = {}
    uncached = model._validate_template

    def counting(t):
        seen[id(t)] = seen.get(id(t), 0) + 1
        return uncached(t)

    monkeypatch.setattr(model, "_validate_template", counting)
    case = Path(__file__).resolve().parent.parent / "cases" / "fig2a.nred"
    assert main(["check", "--mode", "natural", str(case)]) == 0
    # the fused template and the block body; the substituted original is
    # validated by difference from them, without a pass of its own
    assert len(seen) == 2 and set(seen.values()) == {1}


def test_substitution_and_spec_validation_are_cached():
    from nredcheck.model import NaturalReductionSpec

    f = fig2a_fusion()
    assert substitute_blocks(f) is substitute_blocks(f)
    spec = NaturalReductionSpec(fusion=f)
    assert spec.validate() is spec.validate() and spec.validate().ok


@pytest.mark.parametrize("case", ["lock_block", "chain200"])
def test_natural_check_builds_each_template_once(monkeypatch, capsys, case):
    # lock_block: a block under a lock, unsound by a block witness;
    # chain200: a rendezvous witness, re-checked with the lifted relation
    from collections import Counter

    from nredcheck import cli, decision
    from nredcheck.cli import main

    runs: Counter = Counter()
    views: Counter = Counter()
    validated: Counter = Counter()
    parsed = []
    insert, lift, view = model._insert_syncpoints, decision._lift_commutativity, model.NumberedView
    validate, parse = model._validate_template, cli.parse_input

    class CountingView(view):
        def __init__(self, t):
            views[id(t)] += 1
            super().__init__(t)

    monkeypatch.setattr(model, "_insert_syncpoints", lambda t, m: runs.update(["insert"]) or insert(t, m))
    monkeypatch.setattr(decision, "_lift_commutativity", lambda i, f: runs.update(["lift"]) or lift(i, f))
    monkeypatch.setattr(model, "NumberedView", CountingView)
    monkeypatch.setattr(model, "_validate_template", lambda t: validated.update([id(t)]) or validate(t))
    monkeypatch.setattr(cli, "parse_input", lambda text: parsed.append(parse(text)) or parsed[-1])
    path = Path(__file__).resolve().parent.parent / "cases" / f"{case}.nred"
    assert main(["check", "--mode", "natural", str(path)]) == 1
    assert runs == {"insert": 1, "lift": 1}
    assert views and set(views.values()) == {1}
    assert set(validated.values()) == {1}
    if case == "chain200":
        # the substituted and the instrumented templates take their
        # validation and reach sets from the fused template and the body;
        # only the rendezvous count needs the instrumented template numbered
        p = parsed[0]
        (_, body), = p.spec.fusion.blocks
        name = {
            id(p.fused): "fused", id(body): "body", id(p.program.template): "substituted",
            id(p.spec.instrumentation.instrumented): "instrumented",
        }
        assert sorted(name.get(k, "other") for k in views) == ["body", "fused", "instrumented"]
        assert sorted(name.get(k, "other") for k in validated) == ["body", "fused"]


def test_lock_program_erases_and_substitutes_once(monkeypatch, capsys):
    from collections import Counter

    from nredcheck import decision
    from nredcheck.cli import main

    erased: Counter = Counter()
    substituted: Counter = Counter()
    erase, substitute = decision._erased_template, model._substitute_blocks
    monkeypatch.setattr(
        decision, "_erased_template", lambda t, kinds: erased.update([(id(t), kinds)]) or erase(t, kinds)
    )
    monkeypatch.setattr(
        model, "_substitute_blocks", lambda f: substituted.update([id(f)]) or substitute(f)
    )
    path = Path(__file__).resolve().parent.parent / "cases" / "lock_block.nred"
    assert main(["check", "--mode", "natural", str(path)]) == 1
    # the outer template without its lock and rendezvous edges (the block
    # check and its witness re-check), the instrumented one without its
    # lock edges (the rendezvous check)
    assert len(erased) == 2 and set(erased.values()) == {1}
    # the input's fusion and the erased one
    assert len(substituted) == 2 and set(substituted.values()) == {1}
