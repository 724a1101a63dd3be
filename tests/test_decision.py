from __future__ import annotations

import dataclasses
import math
import random
import time
from pathlib import Path

import pytest

from nredcheck import oracle
from nredcheck.decision import (
    FLAG_LOCK_ABSTRACTION,
    ReentryWitness,
    at_relation,
    check_atomic_fusion,
    check_natural_reduction,
    check_sync_instrumentation,
    escape_relation,
    induced_interleaving,
    lift_commutativity,
    phase_bounds,
    phase_order,
    program_order,
    verify_fusion_witness,
    verify_reentry_witness,
    verify_sync_witness,
)
from nredcheck.movers import lipton_check
from nredcheck.model import (
    AtomicFusion,
    CommutativityRelation,
    InconsistentInputs,
    NaturalReductionSpec,
    SYNC,
    ThreadTemplate,
    acquire,
    block_symbol,
    insert_syncpoints,
    plain,
    release,
)
from nredcheck.nredfile import parse_input

import reference


a, b1, b2, c = plain("a"), plain("b1"), plain("b2"), plain("c")
B = block_symbol("B")


def fig2a():
    original = ThreadTemplate.make(
        [("l0", a, "l2"), ("l0", b1, "l1"), ("l1", b2, "l2"), ("l0", c, "l2")],
        "l0",
        "l2",
    )
    outer = ThreadTemplate.make(
        [("l0", a, "l2"), ("l0", B, "l2"), ("l0", c, "l2")], "l0", "l2"
    )
    body = ThreadTemplate.make([("u0", b1, "u1"), ("u1", b2, "u2")], "u0", "u2")
    fusion = AtomicFusion.make(outer, {B: body})
    sigma = [a, b1, b2, c]
    i = CommutativityRelation(sigma, conflicts=[(a, b2), (b1, c)])
    i_prime = CommutativityRelation(sigma, conflicts=[(a, b2), (b1, c), (b1, b2)])
    return original, fusion, i, i_prime


def fig2b():
    aa, bb, cc = plain("a"), plain("b"), plain("c")
    base = ThreadTemplate.make(
        [("m0", aa, "m1"), ("m1", bb, "m2"), ("m2", cc, "m3")], "m0", "m3"
    )
    inst = insert_syncpoints(base, ["m1", "m2"])
    i = CommutativityRelation([aa, bb, cc], conflicts=[(bb, bb), (cc, cc)])
    i_prime = CommutativityRelation([aa, bb, cc], conflicts=[(bb, cc), (cc, bb)])
    return base, inst, i, i_prime, (aa, bb, cc)


# -- program order / at ---------------------------------------------------------


def test_program_order_fig2a_matches_path_enumeration():
    original, _, _, _ = fig2a()
    got = program_order(original)
    assert got == reference.program_order_ref(original)
    assert got == frozenset(
        {(a, a), (b1, b1), (b2, b2), (c, c), (b1, b2)}
    )


def test_program_order_single_edge():
    t = ThreadTemplate.make([("l0", a, "l1")], "l0", "l1")
    assert program_order(t) == frozenset({(a, a)})


def test_program_order_chain_fig2b_base():
    base, _, _, _, (aa, bb, cc) = fig2b()
    got = program_order(base)
    assert got == reference.program_order_ref(base)
    assert got == frozenset(
        {(aa, aa), (bb, bb), (cc, cc), (aa, bb), (aa, cc), (bb, cc)}
    )


def test_at_relation_fig2a():
    _, fusion, _, _ = fig2a()
    got = at_relation(fusion)
    assert got == reference.at_relation_ref(fusion) == frozenset({(b2, b1)})


def test_at_relation_single_edge_body_is_empty():
    z = plain("z")
    body = ThreadTemplate.make([("u0", z, "u1")], "u0", "u1")
    outer = ThreadTemplate.make([("l0", B, "l1")], "l0", "l1")
    assert at_relation(AtomicFusion.make(outer, {B: body})) == frozenset()


def test_at_relation_loop_body():
    z1, z2 = plain("z1"), plain("z2")
    body = ThreadTemplate.make([("u0", z1, "u1"), ("u1", z2, "u0")], "u0", "u1")
    outer = ThreadTemplate.make([("l0", B, "l1")], "l0", "l1")
    fusion = AtomicFusion.make(outer, {B: body})
    got = at_relation(fusion)
    assert got == reference.at_relation_ref(fusion)
    assert (z1, z2) in got and (z1, z1) in got


def test_program_order_and_at_match_reference_on_random_instances():
    rng = random.Random(11)
    for _ in range(40):
        original, fusion, _, _ = reference.random_fusion_instance(rng)
        assert program_order(original) == reference.program_order_ref(original)
        assert at_relation(fusion) == reference.at_relation_ref(fusion)


# -- escape relation -------------------------------------------------------------


def test_escape_relation_fig2a():
    original, fusion, i, i_prime = fig2a()
    got = escape_relation(original, fusion, i)
    assert got.pairs == reference.escape_relation_ref(original, fusion, i)
    assert got.pairs == frozenset({(a, c)})
    got2 = escape_relation(original, fusion, i_prime)
    assert got2.pairs == reference.escape_relation_ref(original, fusion, i_prime)
    assert got2.pairs == frozenset({(a, c), (a, b2), (b1, c), (b1, b2)})


def test_escape_relation_empty_under_full_commutativity():
    original, fusion, _, _ = fig2a()
    full = CommutativityRelation([a, b1, b2, c], conflicts=[])
    assert escape_relation(original, fusion, full).pairs == frozenset()


def test_escape_relation_matches_reference_on_random_instances():
    rng = random.Random(23)
    for _ in range(60):
        original, fusion, _, rel = reference.random_fusion_instance(rng)
        got = escape_relation(original, fusion, rel).pairs
        want = reference.escape_relation_ref(original, fusion, rel)
        assert got == want, (original, fusion, sorted(rel.explicit_conflicts))


def test_escape_relation_antitone_in_relation():
    rng = random.Random(31)
    for _ in range(30):
        original, fusion, _, rel = reference.random_fusion_instance(rng)
        # enlarge the relation: strictly fewer conflicts
        confl = sorted(rel.explicit_conflicts)
        if not confl:
            continue
        bigger = rel.with_extra_pairs(confl[: 1 + len(confl) // 2])
        small_set = escape_relation(original, fusion, bigger).pairs
        big_set = escape_relation(original, fusion, rel).pairs
        assert small_set <= big_set


def test_escape_relation_scales_on_a_long_chain():
    # 200 actions on one spine, two of them fused into a block, and 200
    # seeded conflicts: one reachability pass per conflict target, not one
    # chain search per (source, target) tuple
    n = 200
    xs = [plain(f"x{k}") for k in range(n)]
    m = n // 2
    body = ThreadTemplate.make([("u0", xs[m], "u1"), ("u1", xs[m + 1], "u2")], "u0", "u2")
    outer = [(f"s{k}", xs[k], f"s{k + 1}") for k in range(n) if k not in (m, m + 1)]
    outer.append((f"s{m}", B, f"s{m + 2}"))
    fusion = AtomicFusion.make(ThreadTemplate.make(outer, "s0", f"s{n}"), {B: body})
    rng = random.Random(2026)
    conflicts: set = set()
    while len(conflicts) < n:
        conflicts.add(tuple(rng.sample(xs, 2)))
    rel = CommutativityRelation(xs, conflicts=conflicts)
    t0 = time.perf_counter()
    escape_relation(None, fusion, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"escape_relation took {elapsed:.1f}s on {n} actions and {n} conflicts"


# -- atomic fusion check ---------------------------------------------------------


def test_check_atomic_fusion_fig2a_goldens():
    original, fusion, i, i_prime = fig2a()
    assert check_atomic_fusion(original, fusion, i).result == "sound"
    verdict = check_atomic_fusion(original, fusion, i_prime)
    assert verdict.result == "unsound"
    w = verdict.witness
    assert w.block == B and w.body_trace == (b1, b2) and (w.i, w.j) == (1, 2)
    assert verify_fusion_witness(original, fusion, i_prime, w)


def test_check_atomic_fusion_zero_blocks_sound():
    original, _, i, _ = fig2a()
    fusion = AtomicFusion.identity(original)
    assert check_atomic_fusion(original, fusion, i).result == "sound"


def test_check_atomic_fusion_agrees_with_brute_force():
    rng = random.Random(47)
    checked = unsound = 0
    for _ in range(120):
        original, fusion, _, rel = reference.random_fusion_instance(rng)
        if not fusion.blocks:
            continue
        verdict = check_atomic_fusion(original, fusion, rel)
        want = reference.fusion_sound_ref(original, fusion, rel)
        assert verdict.is_sound == want, (original, fusion, sorted(rel.explicit_conflicts))
        checked += 1
        if verdict.is_unsound:
            unsound += 1
            assert verify_fusion_witness(original, fusion, rel, verdict.witness)
    assert checked >= 60 and unsound >= 5


def test_verdict_monotone_in_relation():
    rng = random.Random(53)
    for _ in range(40):
        original, fusion, _, rel = reference.random_fusion_instance(rng)
        if not fusion.blocks:
            continue
        confl = sorted(rel.explicit_conflicts)
        bigger = rel.with_extra_pairs(confl[: len(confl) // 2])
        if check_atomic_fusion(original, fusion, rel).is_sound:
            assert check_atomic_fusion(original, fusion, bigger).is_sound


def test_verdict_invariant_under_renaming():
    rng = random.Random(61)
    for _ in range(20):
        original, fusion, sync_locs, rel = reference.random_fusion_instance(rng)
        if not fusion.blocks:
            continue
        before = check_atomic_fusion(original, fusion, rel).result

        mapping = {n: f"X{idx}" for idx, n in enumerate(sorted(original.locations))}
        renamed_outer = fusion.outer.rename(
            {n: mapping.get(n, n) for n in fusion.outer.locations}
        )
        renamed = AtomicFusion.make(renamed_outer, dict(fusion.blocks))
        after = check_atomic_fusion(None, renamed, rel).result
        assert before == after


def test_check_atomic_fusion_with_locks_is_flagged():
    z, y = plain("z"), plain("y")
    body = ThreadTemplate.make([("u0", y, "u1")], "u0", "u1")
    outer = ThreadTemplate.make(
        [("l0", acquire("m"), "l1"), ("l1", B, "l2"), ("l2", release("m"), "l3"), ("l1", z, "l2")],
        "l0",
        "l3",
    )
    fusion = AtomicFusion.make(outer, {B: body})
    rel = CommutativityRelation([z, y], conflicts=[])
    verdict = check_atomic_fusion(None, fusion, rel)
    assert FLAG_LOCK_ABSTRACTION in verdict.flags
    assert verdict.result == "sound"


def _lock_fusion(rng: random.Random):
    """A random lock template with one plain edge fused into a block of one
    or two plain actions, and a relation over every plain action; None
    when the template has no plain edge."""
    t = reference.random_lock_template(rng)
    plains = [k for k, e in enumerate(t.edges) if not e.action.is_sync]
    if not plains:
        return None
    k = rng.choice(plains)
    outer = ThreadTemplate.make(
        [(u, B if j == k else x, w) for j, (u, x, w) in enumerate(t.edges)], t.init, t.exit
    )
    word = [t.edges[k].action] + [plain("y")] * rng.randint(0, 1)
    body = ThreadTemplate.make([(f"b{j}", x, f"b{j + 1}") for j, x in enumerate(word)], "b0", f"b{len(word)}")
    fusion = AtomicFusion.make(outer, {B: body})
    alphabet = sorted(outer.plain_alphabet - {B} | set(word), key=lambda x: x.sort_key())
    conflicts = [(x, y) for x in alphabet for y in alphabet if rng.random() < 0.2]
    return fusion, CommutativityRelation(alphabet, conflicts=conflicts)


def test_lock_abstraction_certificate_never_meets_an_unsound_oracle():
    # README: with lock edges, a sound block verdict is a certificate for
    # the concrete lock semantics; the bounded oracle runs those semantics
    rng = random.Random(83)
    checked = 0
    for _ in range(300):
        drawn = _lock_fusion(rng)
        if drawn is None:
            continue
        fusion, rel = drawn
        verdict = check_atomic_fusion(None, fusion, rel)
        if not (verdict.is_sound and FLAG_LOCK_ABSTRACTION in verdict.flags):
            continue
        for threads, length in ((2, 6), (3, 4)):
            bounds = oracle.Bounds(max_threads=threads, max_local_len=length, max_enum_nodes=150_000)
            truth = oracle.oracle_check_atomic(None, fusion, rel, bounds)
            assert not truth.is_unsound, (fusion, rel, bounds, truth.witness)
            checked += truth.is_sound
    assert checked >= 150, checked


# -- bodies that re-enter their init or leave their exit --------------------------


def _one_thread(max_len: int) -> oracle.Bounds:
    return oracle.Bounds(max_threads=1, max_local_len=max_len, max_swap_depth=64, max_enum_nodes=150_000)


def _reentry_repro():
    p0, p1, p2 = plain("p0"), plain("p1"), plain("p2")
    b1, b2 = block_symbol("B1"), block_symbol("B2")
    outer = ThreadTemplate.make([("o0", b1, "o1"), ("o0", b2, "o1")], "o0", "o1")
    bodies = {
        b1: ThreadTemplate.make([("u0", p0, "u1"), ("u1", p1, "u0")], "u0", "u1"),
        b2: ThreadTemplate.make([("v0", p2, "v1")], "v0", "v1"),
    }
    fusion = AtomicFusion.make(outer, bodies)
    return fusion, CommutativityRelation([p0, p1, p2], conflicts=[(p1, p2)])


def test_reentrant_body_is_unsound():
    # u1 -p1-> u0 becomes o1 -p1-> o0 in the original, so one thread runs
    # p0 p1 p2 there; every block alone is atomic
    fusion, rel = _reentry_repro()
    verdict = check_atomic_fusion(None, fusion, rel)
    assert verdict.is_unsound
    assert verdict.witness == ReentryWitness(
        (plain("p0"), plain("p1"), plain("p2")), (block_symbol("B1"),)
    )
    assert [(name, v.result) for name, v in verdict.checked_conditions] == [
        ("block:B1", "sound"), ("block:B2", "sound"), ("re-entry", "unsound"),
    ]
    assert verify_fusion_witness(None, fusion, rel, verdict.witness)
    assert not lipton_check(fusion, rel).certified
    spec = NaturalReductionSpec(fusion=fusion)
    assert check_natural_reduction(None, spec, rel).witness == verdict.witness
    # the ground truth: one thread, three steps
    assert oracle.oracle_check_natural(None, spec, rel, _one_thread(3)).is_unsound


def test_reentry_witness_recheck_runs_the_trace():
    fusion, rel = _reentry_repro()
    p0, p1, p2 = plain("p0"), plain("p1"), plain("p2")
    blocks = (block_symbol("B1"),)
    assert verify_reentry_witness(None, fusion, ReentryWitness((p0, p1, p2), blocks))
    # the fused program runs p0 p1 p0 (one pass through B1's loop) ...
    assert not verify_reentry_witness(None, fusion, ReentryWitness((p0, p1, p0), blocks))
    # ... and the original cannot end after p1
    assert not verify_reentry_witness(None, fusion, ReentryWitness((p0, p1), blocks))


def test_fusion_witness_recheck_rejects_actions_it_does_not_know():
    """A block witness that names an unknown block, or a body trace or chain
    step through an action no edge carries, fails the re-check instead of
    raising."""
    parsed = parse_input((Path(__file__).resolve().parent.parent / "cases" / "fig2a_iprime.nred").read_text())
    original, fusion, rel = parsed.program.template, parsed.spec.fusion, parsed.relation
    w = check_atomic_fusion(original, fusion, rel).witness
    assert verify_fusion_witness(original, fusion, rel, w)
    zz = plain("zz")
    first, order, last = w.chain
    for bad in (
        dataclasses.replace(w, block=plain("nope")),
        dataclasses.replace(w, body_trace=(zz,) + w.body_trace[1:]),
        dataclasses.replace(
            w,
            chain=(
                dataclasses.replace(first, target=zz),
                dataclasses.replace(order, source=zz),
                last,
            ),
        ),
    ):
        assert verify_fusion_witness(original, fusion, rel, bad) is False, bad


def test_loop_body_on_a_lone_block_edge_stays_sound():
    # the body edge back into init adds no trace when the block edge is the
    # only way from o0 to o1
    x, y = plain("x"), plain("y")
    outer = ThreadTemplate.make([("o0", B, "o1")], "o0", "o1")
    body = ThreadTemplate.make([("u0", x, "u1"), ("u1", y, "u0")], "u0", "u1")
    fusion = AtomicFusion.make(outer, {B: body})
    rel = CommutativityRelation.full([x, y])
    assert check_atomic_fusion(None, fusion, rel).is_sound
    assert lipton_check(fusion, rel).certified


def test_reentrant_corpus_instances_are_unsound():
    # criterion 3's seed-2026 corpus: five loop-body instances the decision
    # called sound while one thread of the original runs a trace the fused
    # program lacks (criterion 3's own bounds leave the oracle inconclusive)
    rng = random.Random(2026)
    corpus = [reference.random_fusion_instance(rng) for _ in range(364)]
    for index in (11, 78, 283, 353, 363):
        original, fusion, sync_locs, rel = corpus[index]
        spec = NaturalReductionSpec(
            fusion=fusion, instrumentation=insert_syncpoints(fusion.outer, sync_locs)
        )
        verdict = check_natural_reduction(original, spec, rel)
        assert verdict.is_unsound and isinstance(verdict.witness, ReentryWitness), index
        assert verify_fusion_witness(original, fusion, rel, verdict.witness), index
        assert not lipton_check(fusion, rel).certified, index
        assert oracle.oracle_check_natural(original, spec, rel, _one_thread(6)).is_unsound, index


def test_sound_verdicts_survive_the_one_thread_oracle_on_the_corpus():
    rng = random.Random(2026)
    for index in range(500):
        original, fusion, sync_locs, rel = reference.random_fusion_instance(rng)
        spec = NaturalReductionSpec(
            fusion=fusion, instrumentation=insert_syncpoints(fusion.outer, sync_locs)
        )
        if check_natural_reduction(original, spec, rel).is_sound:
            ov = oracle.oracle_check_natural(original, spec, rel, _one_thread(6))
            assert ov.result == "sound", index


def test_induced_interleaving_projections_are_real_traces():
    rng = random.Random(71)
    produced = 0
    for _ in range(80):
        original, fusion, _, rel = reference.random_fusion_instance(rng)
        if not fusion.blocks:
            continue
        verdict = check_atomic_fusion(original, fusion, rel)
        if not verdict.is_unsound:
            continue
        tr = induced_interleaving(original, fusion, verdict.witness)
        produced += 1
        threads = {t for _, t in tr}
        words = set(original.traces(3 * len(original.locations) + 6))
        for t in sorted(threads):
            local = tuple(x for x, tt in tr if tt == t)
            assert local in words, (local, sorted(words))
    assert produced >= 5


def test_induced_interleaving_names_an_erased_lock_step():
    """On `lock_block` the atomic witness's chain runs through an `acq(m)`
    that the lock abstraction erased into a fresh action; materializing it
    is an input error that names that step, not a bare KeyError."""
    parsed = parse_input((Path(__file__).resolve().parent.parent / "cases" / "lock_block.nred").read_text())
    original, fusion = parsed.program.template, parsed.spec.fusion
    verdict = check_atomic_fusion(original, fusion, parsed.relation)
    assert verdict.is_unsound and FLAG_LOCK_ABSTRACTION in verdict.flags
    with pytest.raises(InconsistentInputs, match=r"erased lock step acq\(m\)#1 \(acq\(m\) on l0 -> l1\)"):
        induced_interleaving(original, fusion, verdict.witness)


# -- rendezvous counting ---------------------------------------------------------


def test_barrier_counts_fig2b():
    _, inst, _, _, (aa, bb, cc) = fig2b()
    g = inst.instrumented
    pb = phase_bounds(g)
    assert [pb.min_count[x] for x in (aa, bb, cc)] == [0, 1, 2]
    assert [pb.max_count[x] for x in (aa, bb, cc)] == [0, 1, 2]
    assert phase_order(g) == frozenset({(aa, bb), (aa, cc), (bb, cc)})
    assert phase_order(g) == reference.phase_order_ref(g)


def test_barrier_counts_skippable_loop():
    # a rendezvous on a skippable loop before the action: min 0, max infinite
    x = plain("x")
    g = ThreadTemplate.make(
        [("l0", SYNC, "l0b"), ("l0b", plain("u"), "l0"), ("l0", x, "l1")],
        "l0",
        "l1",
    )
    assert phase_bounds(g).min_count[x] == 0
    assert phase_bounds(g).max_count[x] == math.inf


def test_barrier_counts_pumped_self_loop():
    # language x (• x)*: a rendezvous loop through the action itself
    x = plain("x")
    g = ThreadTemplate.make([("l0", x, "l1"), ("l1", SYNC, "l0")], "l0", "l1")
    assert phase_bounds(g).min_count[x] == 0
    assert phase_bounds(g).max_count[x] == math.inf
    assert phase_order(g) == frozenset({(x, x)})


def test_phase_order_no_rendezvous_is_empty():
    base, _, _, _, _ = fig2b()
    assert phase_order(base) == frozenset()


def test_min_le_max_always():
    rng = random.Random(83)
    for _ in range(40):
        original, fusion, sync_locs, _ = reference.random_fusion_instance(rng)
        inst = insert_syncpoints(fusion.outer, sync_locs)
        pb = phase_bounds(inst.instrumented)
        for act, lo in pb.min_count.items():
            assert lo <= pb.max_count[act]


def test_phase_order_matches_reference_on_random_instances():
    rng = random.Random(89)
    for _ in range(40):
        original, fusion, sync_locs, _ = reference.random_fusion_instance(rng)
        inst = insert_syncpoints(fusion.outer, sync_locs)
        got = phase_order(inst.instrumented)
        want = reference.phase_order_ref(inst.instrumented)
        assert got == want, (inst.instrumented, sync_locs)


# -- sync instrumentation check --------------------------------------------------


def test_check_sync_instrumentation_fig2b_goldens():
    _, inst, i, i_prime, (aa, bb, cc) = fig2b()
    assert check_sync_instrumentation(inst, i).result == "sound"
    verdict = check_sync_instrumentation(inst, i_prime)
    assert verdict.result == "unsound"
    assert verdict.witness.pair == (bb, cc)
    assert verify_sync_witness(inst, i_prime, verdict.witness)


def test_check_sync_without_rendezvous_is_sound_for_every_relation():
    base, _, _, _, (aa, bb, cc) = fig2b()
    inst = insert_syncpoints(base, [])
    for rel in (
        CommutativityRelation([aa, bb, cc], conflicts=[]),
        CommutativityRelation([aa, bb, cc], pairs=[]),
    ):
        assert check_sync_instrumentation(inst, rel).result == "sound"


def test_sync_witness_pumped_case():
    x, y = plain("x"), plain("y")
    g_base = ThreadTemplate.make(
        [("l0", x, "l1"), ("l1", y, "l0"), ("l1", plain("f"), "l2")], "l0", "l2"
    )
    inst = insert_syncpoints(g_base, ["l0"])
    rel = CommutativityRelation([x, y, plain("f")], pairs=[])
    verdict = check_sync_instrumentation(inst, rel)
    assert verdict.result == "unsound"
    assert verdict.witness.path_b.pumped or verdict.witness.path_b.sync_count > 0
    assert verify_sync_witness(inst, rel, verdict.witness)


# -- lifting and the combined check ----------------------------------------------


def test_lift_commutativity_fig2a():
    _, fusion, i, _ = fig2a()
    lifted = lift_commutativity(i, fusion)
    assert not lifted.commutes(a, B)
    assert not lifted.commutes(B, c)
    assert lifted.commutes(c, B)
    assert lifted.commutes(B, a)


def test_lift_commutativity_full_stays_full():
    _, fusion, _, _ = fig2a()
    full = CommutativityRelation([a, b1, b2, c], conflicts=[])
    lifted = lift_commutativity(full, fusion)
    for x in lifted.alphabet:
        for y in lifted.alphabet:
            assert lifted.commutes(x, y)


def test_lift_commutativity_conflict_free_block_commutes_everywhere():
    z1, z2, q = plain("z1"), plain("z2"), plain("q")
    body = ThreadTemplate.make([("u0", z1, "u1"), ("u1", z2, "u2")], "u0", "u2")
    outer = ThreadTemplate.make([("l0", B, "l1"), ("l1", q, "l2")], "l0", "l2")
    fusion = AtomicFusion.make(outer, {B: body})
    rel = CommutativityRelation([z1, z2, q], conflicts=[(q, q)])
    lifted = lift_commutativity(rel, fusion)
    assert lifted.commutes(B, q) and lifted.commutes(q, B) and lifted.commutes(B, B)


def test_check_natural_reduction_composes():
    original, fusion, i, _ = fig2a()
    spec = NaturalReductionSpec(fusion=fusion, instrumentation=None)
    verdict = check_natural_reduction(original, spec, i)
    assert verdict.result == "sound"
    names = [name for name, _ in verdict.checked_conditions]
    assert names == ["atomic-fusion", "sync-instrumentation"]

    base, inst, _, i2_prime, _ = fig2b()
    spec2 = NaturalReductionSpec(fusion=None, instrumentation=inst)
    verdict2 = check_natural_reduction(base, spec2, i2_prime)
    assert verdict2.result == "unsound"
    failing = dict(verdict2.checked_conditions)
    assert failing["sync-instrumentation"].result == "unsound"


def test_check_natural_reduction_identity_spec_is_sound():
    original, _, i, _ = fig2a()
    spec = NaturalReductionSpec()
    assert check_natural_reduction(original, spec, i).result == "sound"
