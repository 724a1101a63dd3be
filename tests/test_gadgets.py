from __future__ import annotations

import random

import pytest

from nredcheck.gadgets import (
    AlphabetCollision,
    CnfFormula,
    TooManyVariables,
    bounded_to_parameterized,
    brute_sat,
    coverability_to_fusion,
    coverability_to_syncpoint,
    parse_dimacs,
    sat_to_coverability,
)
from nredcheck.model import (
    Action,
    CommutativityRelation,
    ParameterizedProgram,
    SyncKind,
    ThreadTemplate,
    acquire,
    plain,
    validate_fusion,
    validate_instrumentation,
    validate_template,
)
from nredcheck.oracle import (
    Bounds,
    bounded_coverability,
    oracle_check_atomic,
    oracle_check_sync,
)

import reference


def test_brute_sat_basics():
    assert brute_sat(CnfFormula(1, ((1, 1, 1),)))
    assert not brute_sat(CnfFormula(1, ((1, 1, 1), (-1, -1, -1))))
    assert brute_sat(CnfFormula(2, ()))
    with pytest.raises(TooManyVariables):
        brute_sat(CnfFormula(25, ((1, 2, 3),)))


def test_parse_dimacs_padding_and_comments():
    phi = parse_dimacs("c hi\np cnf 3 2\n1 -2 0\n3 0\n")
    assert phi.num_vars == 3
    assert phi.clauses == ((1, -2, -2), (3, 3, 3))
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")


def test_sat_gadget_fig3_branch_structure():
    # clause 2 of a 3-clause formula, first literal x1: the branch acquires
    # its own opinion lock, then probes clauses 1 and 3 in ascending order
    phi = CnfFormula(3, ((2, 2, 2), (1, -2, -3), (3, 3, 3)))
    prog, cover = sat_to_coverability(phi)
    t = prog.template
    words = {w for w in t.traces(12)}
    branch = None
    for w in words:
        names = [x.name for x in w]
        if names[1:2] == ["acq(m2_x1)"]:
            branch = names
            break
    assert branch is not None
    assert branch == [
        "acq(g2)",
        "acq(m2_x1)",
        "acq(m1_nx1)",
        "rel(m1_nx1)",
        "acq(m3_nx1)",
        "rel(m3_nx1)",
        "done2",
    ]
    assert cover == ("t1::l1", "t2::l2", "t3::l3")


def test_sat_gadget_contract_hand_cases():
    for phi, expect in [
        (CnfFormula(1, ((1, 1, 1),)), True),
        (CnfFormula(1, ((1, 1, 1), (-1, -1, -1))), False),
    ]:
        prog, cover = sat_to_coverability(phi)
        assert prog.validate().ok
        got, _ = bounded_coverability(
            prog, cover, Bounds(max_threads=len(phi.clauses), max_local_len=8)
        )
        assert got == expect == brute_sat(phi)


def test_sat_gadget_contract_random_formulas():
    rng = random.Random(13)
    for _ in range(8):
        n_clauses = rng.randint(1, 3)
        n_vars = rng.randint(1, 3)
        clauses = tuple(
            tuple(rng.choice([1, -1]) * rng.randint(1, n_vars) for _ in range(3))
            for _ in range(n_clauses)
        )
        phi = CnfFormula(n_vars, clauses)
        prog, cover = sat_to_coverability(phi)
        got, _ = bounded_coverability(
            prog, cover, Bounds(max_threads=n_clauses, max_local_len=10)
        )
        assert got == brute_sat(phi), phi


def test_fusion_gadget_structure_and_validity():
    z = plain("z")
    t = ThreadTemplate.make([("l0", z, "l1")], "l0", "l1")
    prog, fusion, rel = coverability_to_fusion(ParameterizedProgram(t), ["l1"])
    assert prog.validate().ok
    assert validate_fusion(fusion).ok
    names = {x.name for x in prog.template.plain_alphabet}
    assert {"a", "b", "c1", "w", "z"} <= names
    confl = {(x.name, y.name) for x, y in rel.explicit_conflicts}
    assert confl == {("a", "c1"), ("c1", "b")}


def test_fusion_gadget_unsound_iff_coverable_single_action():
    z = plain("z")
    t = ThreadTemplate.make([("l0", z, "l1")], "l0", "l1")
    prog, fusion, rel = coverability_to_fusion(ParameterizedProgram(t), ["l1"])
    v = oracle_check_atomic(prog.template, fusion, rel, Bounds(max_threads=2, max_local_len=4))
    assert v.result == "unsound"


def test_fusion_gadget_sound_when_unreachable_under_locks():
    m = acquire("m")
    t = ThreadTemplate.make(
        [("l0", m, "l1"), ("l1", m, "l2"), ("l1", plain("u"), "l3"), ("l2", plain("v"), "l3")],
        "l0",
        "l3",
    )
    p = ParameterizedProgram(t, SyncKind.LOCKS)
    covered, _ = bounded_coverability(p, ("l2",), Bounds(max_threads=2, max_local_len=6))
    assert not covered
    prog, fusion, rel = coverability_to_fusion(p, ["l2"])
    v = oracle_check_atomic(prog.template, fusion, rel, Bounds(max_threads=2, max_local_len=6))
    assert v.result == "sound"


def test_sync_gadget_structure():
    t = ThreadTemplate.make(
        [("l0", plain("x1"), "l1"), ("l0", plain("x2"), "l2"),
         ("l1", plain("y1"), "l3"), ("l2", plain("y2"), "l3")],
        "l0",
        "l3",
    )
    prog, inst = coverability_to_syncpoint(ParameterizedProgram(t), ["l1", "l2"])
    assert prog.validate().ok
    assert validate_instrumentation(inst).ok
    # one escape branch per slot, with exactly n-1 probe alternatives
    for loc in ("u1L", "u2L"):
        assert len(prog.template.successors[loc]) == 1  # n - 1 = 1
    assert inst.sync_point_count == 2


def test_sync_gadget_rejects_width_one():
    t = ThreadTemplate.make([("l0", plain("z"), "l1")], "l0", "l1")
    with pytest.raises(ValueError):
        coverability_to_syncpoint(ParameterizedProgram(t), ["l1"])


def test_sync_gadget_contract_both_directions():
    # coverable case
    t = ThreadTemplate.make(
        [("l0", plain("x1"), "l1"), ("l0", plain("x2"), "l2"),
         ("l1", plain("y1"), "l3"), ("l2", plain("y2"), "l3")],
        "l0",
        "l3",
    )
    prog, inst = coverability_to_syncpoint(ParameterizedProgram(t), ["l1", "l2"])
    alphabet = sorted(prog.template.plain_alphabet, key=Action.sort_key)
    bounds = Bounds(max_threads=2, max_local_len=6)
    for rel in (
        CommutativityRelation(alphabet, conflicts=[]),
        CommutativityRelation(alphabet, pairs=[]),
    ):
        assert oracle_check_sync(inst, rel, bounds).result == "unsound"

    # uncoverable case: a guard lock admits only one thread past the fork
    k = acquire("k")
    t2 = ThreadTemplate.make(
        [("l0", k, "la"), ("la", plain("x1"), "l1"), ("la", plain("x2"), "l2"),
         ("l1", plain("y1"), "l3"), ("l2", plain("y2"), "l3")],
        "l0",
        "l3",
    )
    p2 = ParameterizedProgram(t2, SyncKind.LOCKS)
    covered, _ = bounded_coverability(p2, ("l1", "l2"), Bounds(max_threads=2, max_local_len=8))
    assert not covered
    prog2, inst2 = coverability_to_syncpoint(p2, ["l1", "l2"])
    alphabet2 = sorted(prog2.template.plain_alphabet, key=Action.sort_key)
    bounds2 = Bounds(max_threads=2, max_local_len=8)
    for rel in (
        CommutativityRelation(alphabet2, conflicts=[]),
        CommutativityRelation(alphabet2, pairs=[]),
    ):
        assert oracle_check_sync(inst2, rel, bounds2).result == "sound"


def test_bounded_to_parameterized_single_template():
    t = ThreadTemplate.make([("a0", plain("pa"), "a1")], "a0", "a1")
    combined = bounded_to_parameterized([t])
    assert validate_template(combined).ok
    words = set(combined.traces(4))
    assert words == {(acquire("g1"), plain("pa"))}


def test_bounded_to_parameterized_branch_exclusivity():
    tA = ThreadTemplate.make([("a0", plain("pa"), "a1")], "a0", "a1")
    tB = ThreadTemplate.make([("b0", plain("pb"), "b1")], "b0", "b1")
    combined = bounded_to_parameterized([tA, tB])
    assert validate_template(combined).ok
    p = ParameterizedProgram(combined, SyncKind.LOCKS)
    got = reference.enumerate_interleavings_ref(p, Bounds(max_threads=3, max_local_len=4))
    pa, pb = plain("pa"), plain("pb")
    # no interleaving runs the same branch twice (guards are never released)
    for tr in got:
        for act in (pa, pb):
            assert sum(1 for x, _ in tr if x == act) <= 1


def test_bounded_to_parameterized_collision():
    t = ThreadTemplate.make([("a0", plain("pa"), "a1")], "a0", "a1")
    with pytest.raises(AlphabetCollision):
        bounded_to_parameterized([t, t])


def test_generated_artifacts_pass_validators():
    rng = random.Random(41)
    for _ in range(10):
        t = reference.random_lock_template(rng, max_locs=4)
        p = ParameterizedProgram(t, SyncKind.LOCKS)
        locs = sorted(t.locations)
        config = [rng.choice(locs), rng.choice(locs)]
        prog, fusion, rel = coverability_to_fusion(p, config)
        assert prog.validate().ok, prog
        assert validate_fusion(fusion).ok
        prog2, inst2 = coverability_to_syncpoint(p, config)
        assert prog2.validate().ok
        assert validate_instrumentation(inst2).ok
