from __future__ import annotations

import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from nredcheck import oracle
from nredcheck.decision import FusionWitness, check_natural_reduction
from nredcheck.gadgets import coverability_to_fusion, coverability_to_syncpoint
from nredcheck.model import (
    Action,
    AtomicFusion,
    CommutativityRelation,
    NaturalReductionSpec,
    ParameterizedProgram,
    SYNC,
    SyncKind,
    ThreadTemplate,
    acquire,
    block_symbol,
    insert_syncpoints,
    plain,
    release,
)
from nredcheck.oracle import (
    Bounds,
    DepthExceeded,
    barrier_feasible,
    bounded_coverability,
    covers,
    enumerate_interleavings,
    indexed,
    is_mazurkiewicz_reduction,
    lock_feasible,
    oracle_check_atomic,
    oracle_check_natural,
    oracle_check_sync,
    trace_key,
    _local_traces,
)
from nredcheck.nredfile import parse_input

import reference

CASES = Path(__file__).resolve().parent.parent / "cases"


a, b = plain("a"), plain("b")
B = block_symbol("B")


# -- lock predicate ---------------------------------------------------------------


def test_lock_predicate_examples():
    acq, rel = acquire("m"), release("m")
    assert lock_feasible(((acq, 1), (rel, 1), (acq, 2)))
    assert not lock_feasible(((acq, 1), (acq, 2)))
    assert not lock_feasible(((acq, 1), (rel, 2)))


def test_lock_predicate_exhaustive_against_reference():
    acq, rel = acquire("m"), release("m")
    steps = [(acq, 1), (acq, 2), (rel, 1), (rel, 2)]
    for n in range(5):
        for tr in itertools.product(steps, repeat=n):
            assert lock_feasible(tr) == reference.lock_feasible_ref(tr), tr


def test_lock_predicate_per_lock_independence():
    am, rm = acquire("m"), release("m")
    ak = acquire("k")
    assert lock_feasible(((am, 1), (ak, 2), (rm, 1), (ak, 1))) is False  # k acquired twice
    assert lock_feasible(((am, 1), (ak, 2), (rm, 1)))


# -- rendezvous predicate -----------------------------------------------------------


def test_barrier_predicate_examples():
    assert barrier_feasible(((a, 1), (SYNC, 1), (SYNC, 2), (b, 2)))
    assert not barrier_feasible(((SYNC, 1), (a, 2), (SYNC, 2)))
    assert barrier_feasible(indexed([a, b], 1))
    assert barrier_feasible(())


def test_barrier_predicate_exhaustive_against_reference():
    steps = [(a, 1), (a, 2), (SYNC, 1), (SYNC, 2)]
    for n in range(5):
        for tr in itertools.product(steps, repeat=n):
            assert barrier_feasible(tr) == reference.barrier_feasible_ref(tr), tr


def test_barrier_predicate_three_threads_drop_order():
    # 1 and 2 rendezvous after 3 stopped; then 2 alone
    tr = ((a, 3), (a, 1), (SYNC, 2), (SYNC, 1), (b, 2), (SYNC, 2), (b, 2))
    assert barrier_feasible(tr) == reference.barrier_feasible_ref(tr)


# -- covering test -------------------------------------------------------------------


def test_covers_examples():
    i = CommutativityRelation([a, b], pairs=[(a, b)])
    assert covers(((a, 1), (b, 2)), ((b, 2), (a, 1)), i)
    assert not covers(((a, 1), (b, 1)), ((b, 1), (a, 1)), i)
    assert not covers(((b, 2), (a, 1)), ((a, 1), (b, 2)), i)
    # a full reversal of four threads' steps
    acts = [plain(f"x{k}") for k in range(4)]
    src = tuple((x, k + 1) for k, x in enumerate(acts))
    assert covers(src, tuple(reversed(src)), CommutativityRelation(acts, conflicts=[]))


def test_covers_exhaustive_against_closure_and_inversion():
    acts = [a, b]
    rng = random.Random(5)
    for conflicts in ([], [(a, b)], [(b, a)], [(a, b), (b, a)], [(a, a)]):
        rel = CommutativityRelation(acts, conflicts=conflicts)
        traces = []
        for n in range(4):
            traces.extend(
                itertools.product([(a, 1), (a, 2), (b, 1), (b, 2)], repeat=n)
            )
        for src in traces:
            closure = reference.cover_closure(src, rel)
            sample = [t for t in traces if len(t) == len(src)]
            rng.shuffle(sample)
            for dst in sample[:40]:
                want = dst in closure
                assert covers(src, dst, rel) == want
                assert reference.covers_inversion(src, dst, rel) == want


def test_covers_preserves_thread_projections_and_is_transitive():
    rng = random.Random(9)
    acts = [a, b, plain("c")]
    rel = CommutativityRelation(acts, pairs=[(a, b), (b, a), (a, plain("c"))])
    pool = [(x, t) for x in acts for t in (1, 2)]
    for _ in range(200):
        src = tuple(rng.choice(pool) for _ in range(rng.randint(0, 5)))
        closure = reference.cover_closure(src, rel)
        mid = rng.choice(sorted(closure, key=lambda tr: [(x.name, t) for x, t in tr]))
        closure_mid = reference.cover_closure(mid, rel)
        dst = rng.choice(sorted(closure_mid, key=lambda tr: [(x.name, t) for x, t in tr]))
        # reflexive + transitive
        assert covers(src, src, rel)
        assert covers(src, mid, rel) and covers(mid, dst, rel)
        assert covers(src, dst, rel)
        for t in (1, 2):
            assert [x for x, tt in src if tt == t] == [x for x, tt in dst if tt == t]


# -- enumeration -----------------------------------------------------------------------


def fig2a_parts():
    a_, b1, b2, c = plain("a"), plain("b1"), plain("b2"), plain("c")
    original = ThreadTemplate.make(
        [("l0", a_, "l2"), ("l0", b1, "l1"), ("l1", b2, "l2"), ("l0", c, "l2")],
        "l0",
        "l2",
    )
    outer = ThreadTemplate.make(
        [("l0", a_, "l2"), ("l0", B, "l2"), ("l0", c, "l2")], "l0", "l2"
    )
    body = ThreadTemplate.make([("u0", b1, "u1"), ("u1", b2, "u2")], "u0", "u2")
    fusion = AtomicFusion.make(outer, {B: body})
    sigma = [a_, b1, b2, c]
    i = CommutativityRelation(sigma, conflicts=[(a_, b2), (b1, c)])
    i_prime = CommutativityRelation(sigma, conflicts=[(a_, b2), (b1, c), (b1, b2)])
    return original, fusion, i, i_prime, (a_, b1, b2, c)


def test_enumerate_single_thread_is_trace_language():
    original, _, _, _, _ = fig2a_parts()
    got = enumerate_interleavings(
        ParameterizedProgram(original), Bounds(max_threads=1, max_local_len=2)
    )
    words = {indexed(w, 1) for w in original.traces(2)} | {()}
    assert got == frozenset(words)


def test_enumerate_contains_paper_interleaving():
    original, _, _, _, (a_, b1, b2, c) = fig2a_parts()
    got = enumerate_interleavings(
        ParameterizedProgram(original), Bounds(max_threads=2, max_local_len=2)
    )
    assert ((b1, 1), (b1, 2), (b2, 1), (b2, 2)) in got


def test_enumerate_lock_exclusion():
    acq, rel = acquire("m"), release("m")
    t = ThreadTemplate.make([("l0", acq, "l1"), ("l1", a, "l2"), ("l2", rel, "l3")], "l0", "l3")
    got = enumerate_interleavings(
        ParameterizedProgram(t, SyncKind.LOCKS), Bounds(max_threads=2, max_local_len=4)
    )
    # both threads run a inside the lock: serialized, never interleaved;
    # active threads are canonically numbered 1..k
    assert ((a, 1), (a, 2)) in got and ((a, 2), (a, 1)) in got
    assert got == frozenset({(), ((a, 1),), ((a, 1), (a, 2)), ((a, 2), (a, 1))})


def test_enumerate_node_budget_raises():
    original, _, _, _, _ = fig2a_parts()
    with pytest.raises(DepthExceeded) as info:
        enumerate_interleavings(
            ParameterizedProgram(original),
            Bounds(max_threads=3, max_local_len=2, max_enum_nodes=10),
        )
    assert str(info.value) == "interleaving enumeration exceeded 10 steps"
    assert (info.value.what, info.value.cap) == ("interleaving enumeration", 10)
    assert info.value.used > 10


def _small_programs(rng):
    """Ten lock programs, ten lock programs with a rendezvous point, and ten
    instrumented fusion outers, each with at least two local words (few
    enough at three threads for the brute-force reference)."""
    out = []

    def keep(t, kind, bounds):
        words = len(_local_traces(t, bounds))
        if 2 <= words <= (3 if bounds.max_threads == 3 else 8):
            out.append((ParameterizedProgram(t, kind), bounds))

    while len(out) < 10:
        t = reference.random_lock_template(rng)
        keep(t, SyncKind.LOCKS, Bounds(max_threads=2, max_local_len=4))
    while len(out) < 20:
        t = reference.random_lock_template(rng)
        t = insert_syncpoints(t, [rng.choice(sorted(t.locations))]).instrumented
        keep(t, SyncKind.LOCKS_AND_SYNC_POINTS, Bounds(max_threads=2, max_local_len=3))
    while len(out) < 30:
        _, fusion, sync_locs, _ = reference.random_fusion_instance(rng)
        t = insert_syncpoints(fusion.outer, sync_locs).instrumented
        threads, max_len = (3, 1) if len(out) % 2 else (2, 3)
        keep(t, SyncKind.LOCKS_AND_SYNC_POINTS, Bounds(max_threads=threads, max_local_len=max_len))
    return out


def test_enumeration_against_brute_force_reference():
    sizes = {False: 0, True: 0}
    for p, bounds in _small_programs(random.Random(41)):
        for keep_sync in (False, True):
            got = enumerate_interleavings(p, bounds, keep_sync=keep_sync)
            assert got == reference.enumerate_interleavings_ref(p, bounds, keep_sync), (p, bounds)
            sizes[keep_sync] += len(got)
    assert sizes[False] > 1000 and sizes[True] > 3000


# Nodes of the shared enumeration budget that `oracle_check_natural` spends on
# the sample inputs at two threads: shuffle nodes, relabelled traces and
# block choices, counted at the commit before the oracle ran on coded
# traces.  `conclusive_ratio` rests on this accounting staying exact.
EXACT_NODES = [
    ("fig2a", 2, 129),
    ("fig2a_iprime", 2, 129),
    ("fig2b", 3, 266),
    ("fig2b_iprime", 3, 266),
    ("lock_block", 5, 440),
]


@pytest.mark.parametrize("case,max_len,nodes", EXACT_NODES)
def test_enumeration_budget_accounting_is_exact(case, max_len, nodes):
    parsed = parse_input((CASES / f"{case}.nred").read_text(encoding="utf-8"))

    def check(cap):
        bounds = Bounds(max_threads=2, max_local_len=max_len, max_enum_nodes=cap)
        return oracle_check_natural(parsed.program.template, parsed.spec, parsed.relation, bounds)

    assert check(nodes).result in ("sound", "unsound")
    short = check(nodes - 1)
    assert short.result == "inconclusive"
    assert short.notes == (f"interleaving enumeration exceeded {nodes - 1} steps",)


# -- planned enumeration against the build-as-you-go one -------------------------


def _corpus_checks(count):
    """Criterion 3's first `count` seed-2026 instances at its bounds, as
    oracle calls."""
    rng = random.Random(2026)
    out = []
    for _ in range(count):
        original, fusion, sync_locs, rel = reference.random_fusion_instance(rng)
        spec = NaturalReductionSpec(
            fusion=fusion, instrumentation=insert_syncpoints(fusion.outer, sync_locs)
        )
        v = check_natural_reduction(original, spec, rel)
        if v.is_unsound and isinstance(v.witness, FusionWitness):
            threads = min(4, len(v.witness.inner_pairs) + 1)
        else:
            threads = 2
        bounds = Bounds(max_threads=threads, max_local_len=8, max_enum_nodes=150_000)
        out.append((oracle_check_natural, original, spec, rel, bounds))
    return out


def _gadget_checks(count):
    """Criterion 6's first `count` seed-606 lock programs (a target that is
    not coverable only when neither slot piles up) through the fusion and
    rendezvous gadgets, at the smaller bounds of the `gadgets` benchmark."""
    rng = random.Random(606)
    cb = Bounds(max_threads=2, max_local_len=8)
    out = []
    while len(out) < 3 * count:
        t = reference.random_lock_template(rng, max_locs=4, visible_start=True)
        p = ParameterizedProgram(t, SyncKind.LOCKS)
        locs = sorted(set(t.locations) - {t.init})
        config = (rng.choice(locs), rng.choice(locs))
        if not bounded_coverability(p, config, cb)[0] and any(
            bounded_coverability(p, (c, c), cb)[0] for c in config
        ):
            continue
        prog1, fusion1, rel1 = coverability_to_fusion(p, config)
        out.append((oracle_check_atomic, prog1.template, fusion1, rel1,
                    Bounds(max_threads=3, max_local_len=6, max_enum_nodes=60_000)))
        _, inst6 = coverability_to_syncpoint(p, config)
        alphabet = sorted(inst6.base.plain_alphabet, key=Action.sort_key)
        sync_bounds = Bounds(max_threads=2, max_local_len=8, max_enum_nodes=60_000)
        out.append((oracle_check_sync, inst6, CommutativityRelation(alphabet, conflicts=[]), sync_bounds))
        out.append((oracle_check_sync, inst6, CommutativityRelation(alphabet, pairs=[]), sync_bounds))
    return out


def test_planned_enumeration_matches_build_as_you_go(monkeypatch):
    """Planning l2 and l1 before building them gives every check the same
    result, notes and witness as building each as it is enumerated, and
    runs out of budget at the same charge."""
    raised = []

    class RecordingBudget(oracle._Budget):
        def spend(self, n: int = 1) -> None:
            try:
                super().spend(n)
            except DepthExceeded as exc:
                raised.append((exc.what, exc.cap, exc.used))
                raise

    l1_ran_out = []

    def as_you_go(codec, original, reduced, keep_sync, bounds, budget):
        l2 = reference.interleavings_ref(codec, original, bounds, False, budget)
        try:
            l1 = reference.interleavings_ref(codec, reduced, bounds, keep_sync, budget)
        except DepthExceeded:
            l1_ran_out.append(True)
            raise
        return l2, l1

    built_in_plan = []
    plan_interleavings = oracle._plan_interleavings

    def watched_plan(codec, p, bounds, keep_sync, budget):
        plan = plan_interleavings(codec, p, bounds, keep_sync, budget)
        if any(base is not None for _, base, _, _ in plan):
            built_in_plan.append((p.sync_kind, keep_sync))
        return plan

    def outcome(check, *args):
        raised.clear()
        v = check(*args)
        return v.result, v.notes, v.witness, tuple(raised)

    monkeypatch.setattr(oracle, "_Budget", RecordingBudget)
    monkeypatch.setattr(oracle, "_plan_interleavings", watched_plan)
    results = Counter()
    for check, *args in _corpus_checks(80) + _gadget_checks(20):
        got = outcome(check, *args)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_both_interleavings", as_you_go)
            assert outcome(check, *args) == got, args
        results[got[0]] += 1
    assert results["inconclusive"] >= 10 and results["sound"] and results["unsound"]
    assert l1_ran_out, "no check ran out of budget in l1 after l2 completed"
    assert (SyncKind.LOCKS_AND_SYNC_POINTS, False) in built_in_plan


# -- reduction check --------------------------------------------------------------------


def test_is_maz_reflexive_and_subset_violation():
    original, _, i, _, _ = fig2a_parts()
    l2 = enumerate_interleavings(
        ParameterizedProgram(original), Bounds(max_threads=2, max_local_len=2)
    )
    assert is_mazurkiewicz_reduction(l2, l2, i).value is True
    extra = (((plain("zz"), 1),), ((plain("zz"), 2), (a, 1)), ((a, 1), (plain("zz"), 1)))
    res = is_mazurkiewicz_reduction(set(l2) | set(extra), l2, i)
    assert res.value is False and res.reason == "reduced set is not a subset"
    assert res.counterexample == min(extra, key=trace_key)


def test_oracle_check_atomic_fig2a():
    original, fusion, i, i_prime, (a_, b1, b2, c) = fig2a_parts()
    bounds = Bounds(max_threads=2, max_local_len=2)
    assert oracle_check_atomic(original, fusion, i, bounds).result == "sound"
    v = oracle_check_atomic(original, fusion, i_prime, bounds)
    assert v.result == "unsound"
    assert v.witness == ((b1, 1), (b1, 2), (b2, 1), (b2, 2))


def test_oracle_check_atomic_zero_blocks():
    original, _, i, _, _ = fig2a_parts()
    fusion = AtomicFusion.identity(original)
    bounds = Bounds(max_threads=2, max_local_len=2)
    assert oracle_check_atomic(original, fusion, i, bounds).result == "sound"


def test_oracle_check_sync_fig2b():
    aa, bb, cc = plain("a"), plain("b"), plain("c")
    base = ThreadTemplate.make(
        [("m0", aa, "m1"), ("m1", bb, "m2"), ("m2", cc, "m3")], "m0", "m3"
    )
    inst = insert_syncpoints(base, ["m1", "m2"])
    i = CommutativityRelation([aa, bb, cc], conflicts=[(bb, bb), (cc, cc)])
    i_prime = CommutativityRelation([aa, bb, cc], conflicts=[(bb, cc), (cc, bb)])
    bounds = Bounds(max_threads=2, max_local_len=3)
    assert oracle_check_sync(inst, i, bounds).result == "sound"
    assert oracle_check_sync(inst, i_prime, bounds).result == "unsound"
    # no rendezvous: sound for any relation
    empty_inst = insert_syncpoints(base, [])
    assert oracle_check_sync(empty_inst, i_prime, bounds).result == "sound"


def test_decomposition_property_on_random_languages():
    rng = random.Random(17)
    acts = [a, b]
    pool = [(x, t) for x in acts for t in (1, 2)]
    for _ in range(60):
        rel = CommutativityRelation(
            acts, pairs=[p for p in itertools.product(acts, acts) if rng.random() < 0.6]
        )
        universe = {tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))) for _ in range(8)}
        l3 = sorted(universe, key=lambda tr: [(x.name, t) for x, t in tr])
        l2 = [tr for tr in l3 if rng.random() < 0.7]
        l1 = [tr for tr in l2 if rng.random() < 0.7]
        whole = is_mazurkiewicz_reduction(l1, l3, rel).value
        part1 = is_mazurkiewicz_reduction(l1, l2, rel).value
        part2 = is_mazurkiewicz_reduction(l2, l3, rel).value
        assert whole == (part1 and part2)


# -- coverability ---------------------------------------------------------------------


def test_coverability_initial_configuration():
    t = ThreadTemplate.make([("l0", a, "l1")], "l0", "l1")
    ok, witness = bounded_coverability(
        ParameterizedProgram(t), ("l0",), Bounds(max_threads=1, max_local_len=2)
    )
    assert ok and witness == ()


def test_coverability_lock_blocking():
    acq = acquire("m")
    t = ThreadTemplate.make(
        [("l0", acq, "l1"), ("l1", a, "l2")], "l0", "l2"
    )
    p = ParameterizedProgram(t, SyncKind.LOCKS)
    ok, _ = bounded_coverability(p, ("l1", "l1"), Bounds(max_threads=2, max_local_len=4))
    assert not ok
    ok, witness = bounded_coverability(p, ("l1",), Bounds(max_threads=2, max_local_len=4))
    assert ok and len(witness) == 1


def test_coverability_extra_threads_only_impede():
    rng = random.Random(29)
    for _ in range(15):
        t = reference.random_lock_template(rng)
        p = ParameterizedProgram(t, SyncKind.LOCKS)
        locs = sorted(t.locations)
        config = tuple(rng.choice(locs) for _ in range(2))
        b2 = Bounds(max_threads=2, max_local_len=6)
        b3 = Bounds(max_threads=3, max_local_len=6)
        got2, _ = bounded_coverability(p, config, b2)
        got3, _ = bounded_coverability(p, config, b3)
        assert got2 == got3, (t, config)


def test_coverability_witness_is_feasible():
    rng = random.Random(37)
    found = 0
    for _ in range(20):
        t = reference.random_lock_template(rng)
        p = ParameterizedProgram(t, SyncKind.LOCKS)
        locs = sorted(t.locations)
        config = (rng.choice(locs), rng.choice(locs))
        ok, witness = bounded_coverability(p, config, Bounds(max_threads=2, max_local_len=6))
        if not ok:
            continue
        found += 1
        assert lock_feasible(witness)
        # replaying the witness reaches a covering configuration
        position = {}
        for act, thread in witness:
            loc = position.get(thread, t.init)
            nxt = [e.dst for e in t.successors.get(loc, ()) if e.action == act]
            assert nxt, (witness, act, thread)
            position[thread] = nxt[0]
        # and the final positions, idle threads still at init, cover the target
        final = Counter(position.get(thread, t.init) for thread in (1, 2))
        assert not Counter(config) - final, (witness, config)
    assert found >= 5


def test_coverability_against_labelled_reference():
    # the reference labels its threads and sorts nothing, so it shares
    # neither the symmetry reduction nor the numbering of thread states
    rng = random.Random(41)
    verdicts = Counter()
    for _ in range(40):
        t = reference.random_lock_template(rng)
        p = ParameterizedProgram(t, SyncKind.LOCKS)
        locs = sorted(t.locations)
        config = (rng.choice(locs), rng.choice(locs))
        for n in (2, 3):
            got, _ = bounded_coverability(p, config, Bounds(max_threads=n, max_local_len=1))
            assert got == reference.bounded_coverability_ref(p, config, n), (t, config, n)
            verdicts[got] += 1
    assert verdicts[True] >= 10 and verdicts[False] >= 10, verdicts
