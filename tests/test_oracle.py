from __future__ import annotations

import copy
import hashlib
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nredcheck import oracle
from nredcheck.decision import FusionWitness, check_natural_reduction
from nredcheck.gadgets import (
    CnfFormula,
    coverability_to_fusion,
    coverability_to_syncpoint,
    sat_to_coverability,
)
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
    format_trace,
    lock_feasible,
    oracle_check_atomic,
    oracle_check_natural,
    oracle_check_sync,
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
    # two locks and three threads: crossed locks, a re-acquire by the
    # holder and a release by a thread that does not hold the lock
    ops = [acquire("m"), release("m"), acquire("k"), release("k")]
    steps = [(op, t) for op in ops for t in (1, 2, 3)]
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
    assert barrier_feasible(((a, 1), (b, 1)))
    assert barrier_feasible(())


def test_barrier_predicate_exhaustive_against_reference():
    steps = [(x, t) for x in (a, SYNC) for t in (1, 2, 3)]
    for n in range(6):
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
    # equal lengths, but other thread sets or other per-thread orders
    assert not covers(((a, 1), (b, 2)), ((a, 1), (b, 3)), i)
    assert not covers(((a, 1), (b, 2)), ((b, 1), (a, 2)), i)
    assert not covers(((a, 1), (b, 1), (a, 2)), ((a, 1), (a, 2), (b, 2)), i)
    assert not covers(((a, 1), (b, 1), (b, 2)), ((b, 2), (b, 1), (a, 1)), i)
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


def enumerate_interleavings(p, bounds, *, keep_sync=False):
    """The program's bounded interleavings as the checks enumerate them:
    planned (the whole budget charged first), built and decoded."""
    codec = oracle._Codec(p.template.alphabet, bounds.max_threads)
    budget = oracle._Budget(bounds.max_enum_nodes, "interleaving enumeration")
    plan = oracle._plan_interleavings(codec, p, bounds, keep_sync, budget)
    return frozenset(map(codec.decode, oracle._build_interleavings(codec, plan)))


def test_enumerate_single_thread_is_trace_language():
    original, _, _, _, _ = fig2a_parts()
    got = enumerate_interleavings(
        ParameterizedProgram(original), Bounds(max_threads=1, max_local_len=2)
    )
    words = {tuple((x, 1) for x in w) for w in original.traces(2)} | {()}
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
# traces, and for the rendezvous cases re-counted once a shuffle's
# rendezvous state became one round mask (a prefix that strands a thread is
# no longer charged).  `conclusive_ratio` rests on this accounting staying
# exact.
EXACT_NODES = [
    ("fig2a", 2, 129),
    ("fig2a_iprime", 2, 129),
    ("fig2b", 3, 224),
    ("fig2b_iprime", 3, 224),
    ("lock_block", 5, 409),
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
    """Planning l2 and l1 before building l1, and walking l2 in code order,
    gives every check the same result, notes and witness as building each
    as it is enumerated, and runs out of budget at the same charge."""
    raised = []

    class RecordingBudget(oracle._Budget):
        def spend(self, n: int = 1) -> None:
            try:
                super().spend(n)
            except DepthExceeded as exc:
                raised.append((exc.what, exc.cap, exc.used))
                raise

    l1_ran_out = []

    def as_you_go(codec, original, reduced, blocks, keep_sync, bounds, budget):
        l2 = reference.interleavings_ref(codec, original, bounds, False, budget)
        try:
            l1 = reference.interleavings_ref(codec, reduced, bounds, keep_sync, budget)
        except DepthExceeded:
            l1_ran_out.append(True)
            raise
        if keep_sync:  # block expansion, one fused trace at a time
            block_words = oracle._block_words(codec, blocks, bounds)
            l1 = frozenset(
                codec.project(x)
                for tr in l1
                for x in reference.expansions_ref(codec, tr, block_words, bounds, budget)
            )
        # l2 read off the built set, and l1 bucketed one trace at a time
        return reference.set_reader(l2), reference.bucketed(codec.width, l1)

    built_in_plan = []
    plan_interleavings = oracle._plan_interleavings

    def watched_plan(codec, p, bounds, keep_sync, budget):
        plan = plan_interleavings(codec, p, bounds, keep_sync, budget)
        if any(base is not None for _, _, _, base, _, _ in plan):
            built_in_plan.append((p.sync_kind, keep_sync))
        return plan

    def outcome(check, *args):
        raised.clear()
        oracle._last_enumeration = None  # each call enumerates, none reuses
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


def test_a_second_relation_reuses_the_enumeration(monkeypatch):
    """The two relations on one rendezvous gadget enumerate once, and two
    deep copies twice.  Each reused verdict (result, notes, witness) and
    the budget a reused inconclusive one ran out of equal those of the
    same check on a fresh deep copy."""
    raised = []

    class RecordingBudget(oracle._Budget):
        def spend(self, n: int = 1) -> None:
            try:
                super().spend(n)
            except DepthExceeded as exc:
                raised.append((exc.what, exc.cap, exc.used))
                raise

    enumerations = []
    both_interleavings = oracle._both_interleavings

    def counted(*args):
        enumerations.append(args)
        return both_interleavings(*args)

    def outcome(check, *args):
        raised.clear()
        enumerations.clear()
        v = check(*args)
        return (v.result, v.notes, v.witness, tuple(raised)), len(enumerations)

    monkeypatch.setattr(oracle, "_Budget", RecordingBudget)
    monkeypatch.setattr(oracle, "_both_interleavings", counted)
    checks = _gadget_checks(20)
    reused = Counter()
    for (check, inst6, full, bounds), (_, _, empty, _) in zip(checks[1::3], checks[2::3]):
        oracle._last_enumeration = None
        first, ran = outcome(check, inst6, full, bounds)
        second, ran_again = outcome(check, inst6, empty, bounds)
        assert (ran, ran_again) == (1, 0)
        for i, got in ((full, first), (empty, second)):
            fresh, ran = outcome(check, copy.deepcopy(inst6), i, bounds)
            assert ran == 1 and fresh == got, (inst6, i)
        result, _, _, budget = second
        assert len(budget) == (result == "inconclusive")
        reused[result] += 1
    assert reused["inconclusive"] and reused["sound"] and reused["unsound"], reused


# -- oracle outcomes --------------------------------------------------------------------


# SHA-256 of `(index, result, notes, repr(witness))`, one line per check
# below, taken before l2 was walked in code order
OUTCOME_DIGEST = "350c52d43d87affaf5b5bd3403159ca66319118aae807575bf969576af5f1de3"


def _criterion_6_outcomes(outcome):
    """Criterion 6's seed-606 programs, drawn and skipped as it draws and
    skips them.  Each program that reaches the oracle gives its three
    checks at criterion 6's bounds, plus the fusion gadget checked with its
    fused outer template as the original: that original has block steps
    where the expansions have body steps, so the check ends in `reduced set
    is not a subset`."""
    rng = random.Random(606)
    cb = Bounds(max_threads=2, max_local_len=8)
    done = 0
    while done < 20:
        t = reference.random_lock_template(rng, max_locs=4, visible_start=True)
        p = ParameterizedProgram(t, SyncKind.LOCKS)
        locs = sorted(set(t.locations) - {t.init})
        config = (rng.choice(locs), rng.choice(locs))
        if not bounded_coverability(p, config, cb)[0] and any(
            bounded_coverability(p, (c, c), cb)[0] for c in config
        ):
            continue
        prog1, fusion1, rel1 = coverability_to_fusion(p, config)
        atomic_bounds = Bounds(max_threads=3, max_local_len=8, max_enum_nodes=600_000)
        v1 = outcome(oracle_check_atomic(prog1.template, fusion1, rel1, atomic_bounds))
        _, inst6 = coverability_to_syncpoint(p, config)
        alphabet = sorted(inst6.base.plain_alphabet, key=Action.sort_key)
        sync_bounds = Bounds(max_threads=2, max_local_len=10, max_enum_nodes=600_000)
        v6 = [
            outcome(oracle_check_sync(inst6, CommutativityRelation(alphabet, **empty), sync_bounds))
            for empty in ({"conflicts": []}, {"pairs": []})
        ]
        outcome(oracle_check_atomic(fusion1.outer, fusion1, rel1, atomic_bounds))
        if "inconclusive" not in (v1, *v6):
            done += 1


# SHA-256 of `(index, budget)`, one line per check below, where `budget` is
# the `(what, cap, used)` of the DepthExceeded the check ran into, or None;
# taken before block expansion was charged per fused trace, and re-taken
# when a shuffle's rendezvous state became one round mask (16 checks then
# ran out at another `used`, and none changed its outcome)
BUDGET_DIGEST = "157726f7d9f297ae0854e5471430659c59a725b6370412a5bec97bfe63c65d65"


@pytest.mark.slow
def test_oracle_outcomes_are_pinned(monkeypatch):
    """Criterion 3's 500 instances at its bounds and criterion 6's checks:
    result, notes and witness of every check are byte-stable, and so are
    the budget each inconclusive check ran out of, its cap and the steps
    it had used."""
    digest, budgets = hashlib.sha256(), hashlib.sha256()
    seen = Counter()
    raised = []

    class RecordingBudget(oracle._Budget):
        def spend(self, n: int = 1) -> None:
            try:
                super().spend(n)
            except DepthExceeded as exc:
                raised.append((exc.what, exc.cap, exc.used))
                raise

    def outcome(v):
        index = sum(seen.values())
        digest.update(f"{index} {v.result} {v.notes} {v.witness!r}\n".encode())
        budgets.update(f"{index} {raised[0] if raised else None}\n".encode())
        assert len(raised) == (v.result == "inconclusive")
        raised.clear()
        seen[v.result, v.notes[0] if v.result == "unsound" else ""] += 1
        return v.result

    monkeypatch.setattr(oracle, "_Budget", RecordingBudget)
    for check, *args in _corpus_checks(500):
        outcome(check(*args))
    _criterion_6_outcomes(outcome)
    assert seen["unsound", "trace has no representative"] >= 50
    assert seen["unsound", "reduced set is not a subset"] >= 20
    assert digest.hexdigest() == OUTCOME_DIGEST
    assert budgets.hexdigest() == BUDGET_DIGEST


# -- one shuffle against the reference ------------------------------------------------


ACQ_M, REL_M, ACQ_N, REL_N = acquire("m"), release("m"), acquire("n"), release("n")
SHUFFLE_STEPS = [a, b, ACQ_M, REL_M, ACQ_N, REL_N, SYNC]
# (locks, rendezvous) and the program kind that has them
SHUFFLE_SEMANTICS = {
    (False, False): SyncKind.TRIVIAL,
    (True, False): SyncKind.LOCKS,
    (True, True): SyncKind.LOCKS_AND_SYNC_POINTS,
}


@st.composite
def shuffle_words(draw):
    """One to three local words of plain, lock and rendezvous steps, short
    enough at three threads for the reference to build every trace."""
    k = draw(st.integers(1, 3))
    step = st.sampled_from(SHUFFLE_STEPS)
    word = st.lists(step, min_size=1, max_size=(6, 4, 3)[k - 1]).map(tuple)
    return tuple(draw(st.lists(word, min_size=k, max_size=k)))


@settings(max_examples=300, deadline=None)
@given(shuffle_words(), st.sampled_from(list(SHUFFLE_SEMANTICS)))
@example(((REL_M, a), (a, b)), (True, False))  # a release that was never acquired
@example(((ACQ_M, a, ACQ_M), (b,)), (True, False))  # a same-thread re-acquire
@example(((ACQ_M, REL_M, ACQ_M, a), (b, ACQ_M)), (True, False))  # ... after a release
@example(((ACQ_M, a, REL_M), (ACQ_M, b, REL_M), (a,)), (True, False))  # a lock two threads share
@example(((ACQ_M, ACQ_N, REL_M), (ACQ_N, REL_N, ACQ_M)), (True, False))  # two locks, crossed
@example(((a, SYNC, ACQ_M), (SYNC, ACQ_M, REL_M), (b, SYNC)), (True, True))
@example(((REL_M, SYNC), (ACQ_M, SYNC)), (False, False))  # lock steps, no lock semantics
@example(((SYNC, a), (SYNC,)), (True, True))  # a plain step mid-round strands thread 2
@example(((ACQ_M, SYNC, REL_M), (SYNC, ACQ_M, REL_M)), (True, True))  # a round behind a lock
def test_shuffle_graph_matches_reference(words, semantics):
    """One multiset's shuffle: the node charge, the path count and the
    traces built along the move DAG equal the reference's, which keeps
    positions as tuples and held locks and the rendezvous round as sets;
    and its traces are the interleavings of the words that the
    synchronization predicates, read off their phase grammar, accept."""
    use_locks, use_barrier = semantics
    codec = oracle._Codec(SHUFFLE_STEPS, 3)
    assignment = tuple(map(codec.ranks, words))

    class RecordingBudget(oracle._Budget):
        def spend(self, n: int = 1) -> None:
            charged.append(n)
            super().spend(n)

    def reference_shuffle(keep_sync):
        budget = RecordingBudget(10**9, "reference")
        return reference._shuffle_ref(codec, assignment, use_locks, use_barrier, budget, keep_sync)

    charged = []
    full, projected = reference_shuffle(True), reference_shuffle(False)
    nodes, paths, dag = oracle._shuffle_graph(codec, assignment, use_locks, use_barrier)
    assert charged == [nodes, nodes]
    assert paths == len(full)
    assert oracle._dag_traces(dag, codec.steps) == full
    assert oracle._dag_traces(dag, codec.projected) == projected
    kind = SHUFFLE_SEMANTICS[semantics]
    feasible = [tr for tr in reference.all_interleavings(words) if reference.sync_feasible_ref(tr, kind)]
    assert oracle._dag_traces(dag, codec.steps) == set(map(codec.encode, feasible))


# -- l2 in code order against the built set ----------------------------------------


@st.composite
def local_words(draw):
    """A thread bound of one to three and one to three distinct local words
    of plain, lock and rendezvous steps, short enough at that bound for the
    reference to build every trace.  Half the steps are plain, so that
    words without synchronization steps, whose shuffles are walked, are
    common."""
    k = draw(st.integers(1, 3))
    step = st.one_of(st.sampled_from([a, b]), st.sampled_from(SHUFFLE_STEPS))
    word = st.lists(step, min_size=1, max_size=(6, 4, 2)[k - 1]).map(tuple)
    return k, tuple(draw(st.lists(word, min_size=1, max_size=3, unique=True)))


def _words_template(words):
    """A template whose local words are `words`: one chain of fresh
    locations from init to exit for each."""
    return ThreadTemplate.make(
        [
            (f"w{n}.{p}" if p else "init", step, f"w{n}.{p + 1}" if p + 1 < len(w) else "exit")
            for n, w in enumerate(words)
            for p, step in enumerate(w)
        ],
        "init",
        "exit",
    )


def _perturbed(tr, width, rng):
    """A few traces near `tr`: two adjacent steps swapped, one step moved
    to another thread, the last step dropped or repeated."""
    out = []
    if len(tr) > 1:
        p = rng.randrange(len(tr) - 1)
        out.append(tr[:p] + (tr[p + 1], tr[p]) + tr[p + 2 :])
    if tr:
        p = rng.randrange(len(tr))
        out.append(tr[:p] + (tr[p] - tr[p] % width + rng.randrange(width),) + tr[p + 1 :])
        out += [tr[:-1], tr + tr[-1:]]
    return out


@settings(max_examples=300, deadline=None)
@given(local_words(), st.sampled_from(list(SyncKind)), st.randoms(use_true_random=False))
@example((3, ((a,), (b, a))), SyncKind.TRIVIAL, random.Random(0))  # walked and relabelled
@example((2, ((a,), (ACQ_M, a, REL_M))), SyncKind.LOCKS, random.Random(0))  # a lossy collision
@example((3, ((a, SYNC), (SYNC, b), (b,))), SyncKind.LOCKS_AND_SYNC_POINTS, random.Random(0))
def test_ordered_interleavings_match_the_built_set(words_at, sync_kind, rng):
    """The projected l2 of a plan, read in code order less a skipped set
    (none, part of l2, all or most traces of some keys, the reduced traces
    that keep their synchronization steps, all of l2) given bucketed by
    key, is the sorted built set less that set; its test for the traces of
    a bucket outside l2, given their key (steps sorted by thread), is set
    difference on those reduced traces, on every trace of l2 and on traces
    perturbed from them, one at a time and in buckets; and the set is the
    reference's."""
    k, words = words_at
    p = ParameterizedProgram(_words_template(words), sync_kind)
    bounds = Bounds(max_threads=k, max_local_len=max(map(len, words)))
    codec = oracle._Codec(SHUFFLE_STEPS, k)

    def plan(keep_sync):
        return oracle._plan_interleavings(codec, p, bounds, keep_sync, oracle._Budget(10**9, "test"))

    projected = plan(False)
    l2 = oracle._build_interleavings(codec, projected)
    assert l2 == reference.interleavings_ref(codec, p, bounds, False, oracle._Budget(10**9, "ref"))
    minus, outside = oracle._ordered_interleavings(codec, projected)
    l1 = oracle._build_interleavings(codec, plan(True))
    by_thread = codec.width.__rmod__

    def key(tr):
        return tuple(sorted(tr, key=by_thread))

    chosen = {key(tr) for tr in l2 if rng.random() < 0.5}
    whole = frozenset(tr for tr in l2 if key(tr) in chosen)  # every trace of some keys
    part = frozenset(tr for tr in l2 if rng.random() < 0.3)
    for skipped in (frozenset(), part, whole, whole | part, whole - part, l1 | part, l2):
        assert list(minus(reference.bucketed(codec.width, skipped))) == sorted(l2 - skipped)
    near = [near for tr in sorted(l2) for near in _perturbed(tr, codec.width, rng)]
    for tr in itertools.chain(l1, l2, near):
        assert set(outside(key(tr), {tr})) == {tr} - l2, tr
    for k, cands in reference.bucketed(codec.width, itertools.chain(l1, l2, near)).items():
        assert set(outside(k, cands)) == cands - l2, k


# -- synchronization-free shuffles: counted, then built on demand -----------------------


@st.composite
def plain_words(draw):
    """A thread bound of one to four and one or two distinct local words of
    plain steps and block symbols, short enough at that bound for every
    trace to be built."""
    k = draw(st.integers(1, 4))
    word = st.lists(st.sampled_from([a, b, B]), min_size=1, max_size=(6, 4, 3, 2)[k - 1]).map(tuple)
    return k, tuple(draw(st.lists(word, min_size=1, max_size=2, unique=True)))


@settings(max_examples=150, deadline=None)
@given(plain_words(), st.sampled_from(list(SyncKind)))
@example((4, ((a, B), (b,))), SyncKind.LOCKS_AND_SYNC_POINTS)
def test_plain_shuffles_are_counted_and_built_on_demand(words_at, sync_kind):
    """A multiset of words without lock or rendezvous steps is charged the
    node and path counts `_shuffle_graph` finds under the program's
    semantics, its move DAG is left unbuilt, and a plan with the DAGs built
    on demand gives the same trace set and the same code-order stream (less
    the traces of every other key) as the plan with every DAG built at
    once."""
    k, words = words_at
    p = ParameterizedProgram(_words_template(words), sync_kind)
    bounds = Bounds(max_threads=k, max_local_len=max(map(len, words)))
    codec = oracle._Codec([*SHUFFLE_STEPS, B], k)
    use_locks = sync_kind is not SyncKind.TRIVIAL
    use_barrier = sync_kind is SyncKind.LOCKS_AND_SYNC_POINTS
    plan = oracle._plan_interleavings(codec, p, bounds, False, oracle._Budget(10**9, "test"))
    eager = []
    for assignment, dag, count, base, perms, project in plan:
        nodes, paths, built = oracle._shuffle_graph(codec, assignment, use_locks, use_barrier)
        assert oracle._plain_charge(tuple(sorted(map(len, assignment)))) == (nodes, paths)
        assert dag is None and base is None and not project and count == paths
        eager.append((assignment, built, count, base, perms, project))
    traces = oracle._build_interleavings(codec, plan)
    assert traces == oracle._build_interleavings(codec, eager)
    # skip every trace of every other key, so some shuffles are not walked
    bucket = reference.bucketed(codec.width, traces)
    bucket = {key: bucket[key] for key in sorted(bucket)[::2]}
    lazy, eager_minus = (oracle._ordered_interleavings(codec, q)[0] for q in (plan, eager))
    assert list(lazy(bucket)) == list(eager_minus(bucket))


# -- block expansion, charged per shuffle, built once per choice of block words ----------


C = block_symbol("C")
BODY_STEPS = [a, b, ACQ_M, REL_M, SYNC]
EXPANSION_STEPS = [a, b, B, C, ACQ_M, REL_M, SYNC]


@st.composite
def reduced_words(draw):
    """A thread bound of one to three; one to three distinct local words of
    plain, block, lock and rendezvous steps, short enough at that bound for
    every trace to be built and expanded; bodies for two block symbols,
    each of one to three distinct words that may hold lock and rendezvous
    steps; and a local bound small enough to reject some words and some
    choices."""
    k = draw(st.integers(1, 3))
    word = st.lists(st.sampled_from(EXPANSION_STEPS), min_size=1, max_size=(5, 3, 2)[k - 1])
    words = tuple(draw(st.lists(word.map(tuple), min_size=1, max_size=3, unique=True)))
    body_word = st.lists(st.sampled_from(BODY_STEPS), min_size=1, max_size=3).map(tuple)
    bodies = [
        (sym, tuple(draw(st.lists(body_word, min_size=1, max_size=(3, 2, 2)[k - 1], unique=True))))
        for sym in (B, C)
    ]
    return k, words, bodies, draw(st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(reduced_words(), st.sampled_from(list(SyncKind)), st.integers(0, 10**6))
@example(
    (3, ((a, B), (B,)), [(B, ((a, b), (SYNC, b))), (C, ((b,),))], 2), SyncKind.LOCKS, 5
)  # 3-thread arrangements relabelled from one shuffle, with rooms that differ
@example(
    (2, ((a, SYNC, B), (SYNC, b)), [(B, ((a,), (b, SYNC, a))), (C, ((b,),))], 2),
    SyncKind.LOCKS_AND_SYNC_POINTS,
    7,
)  # traces that differ only in where a rendezvous step falls
@example(
    (1, ((a, B),), [(B, ((a, b), (b,))), (C, ((a,),))], 2), SyncKind.TRIVIAL, 1
)  # a room that rejects a body word
@example(
    (2, ((B, a, B), (b,)), [(B, ((a,), (b, SYNC, a))), (C, ((b,),))], 4), SyncKind.LOCKS, 3
)  # a word with two slots of one block symbol, whose body words differ in length
def test_expanded_plain_matches_expansion_per_fused_trace(case, sync_kind, cut):
    """`_reduced_buckets` on a plan that keeps synchronization steps gives
    the projections of the expansions of each trace the plan builds (the
    union of its buckets), each in the bucket of its own key (its steps
    sorted by thread), spends the same budget, and runs out of a smaller
    budget (cut short mid-expansion) with the same figures."""
    k, words, bodies, max_len = case
    codec = oracle._Codec(EXPANSION_STEPS, k)
    bodies = [(sym, _words_template(body)) for sym, body in bodies]
    bounds = Bounds(max_threads=k, max_local_len=max_len)
    p = ParameterizedProgram(_words_template(words), sync_kind)
    plan = oracle._plan_interleavings(codec, p, bounds, True, oracle._Budget(10**9, "test"))
    block_words = oracle._block_words(codec, bodies, bounds)

    def per_fused_trace(budget):
        return frozenset(
            codec.project(x)
            for tr in oracle._build_interleavings(codec, plan)
            for x in reference.expansions_ref(codec, tr, block_words, bounds, budget)
        )

    def per_arrangement(budget):
        buckets = oracle._reduced_buckets(codec, plan, bodies, bounds, budget)
        union = frozenset().union(*buckets.values())
        by_thread = codec.width.__rmod__
        assert all(tuple(sorted(tr, key=by_thread)) == key for key, cands in buckets.items() for tr in cands)
        return union

    def outcomes(cap):
        out = []
        for expand in (per_fused_trace, per_arrangement):
            budget = oracle._Budget(cap, "test")
            try:
                out.append((expand(budget), budget.used))
            except DepthExceeded as exc:
                out.append((exc.what, exc.cap, exc.used))
        return out

    want, got = outcomes(10**5)
    assert got == want
    if len(want) == 2 and want[1]:
        want, got = outcomes(cut % want[1])
        assert got == want and len(want) == 3


# -- coverability witnesses ------------------------------------------------------------


# SHA-256 of `(covered, format_trace(witness))`, one line per search below,
# taken when the search was partial-order reduced
COVERABILITY_DIGEST = "97801518c7eb53ef6c74e404118917b04663bd26a3536ba37824a5925d3403fb"


def _witness_covers(t: ThreadTemplate, witness, config, threads: int) -> bool:
    """Whether `witness` is lock-feasible, replays along `t` from `init`
    (each thread through every location its actions can lead to), and can
    end with its `threads` threads, idle ones at `init`, covering `config`."""
    if not lock_feasible(witness):
        return False
    at = {k: {t.init} for k in range(1, threads + 1)}
    for act, k in witness:
        if k not in at:
            return False
        at[k] = {e.dst for loc in at[k] for e in t.successors.get(loc, ()) if e.action == act}
        if not at[k]:
            return False
    return any(not Counter(config) - Counter(final) for final in itertools.product(*at.values()))


def test_coverability_witnesses_are_pinned():
    """Criterion 5's seed-500 formulas of at most three clauses, and 200
    lock templates at one to three threads: verdicts and witnesses are
    byte-stable, so the search's visit order is too, and each witness
    re-checks."""
    digest = hashlib.sha256()
    verdicts = Counter()

    def search(p, config, threads):
        bounds = Bounds(max_threads=threads, max_local_len=10)
        covered, witness = bounded_coverability(p, config, bounds)
        digest.update(f"{covered} {format_trace(witness) if covered else '-'}\n".encode())
        verdicts[covered, threads, bool(witness)] += 1
        assert not covered or _witness_covers(p.template, witness, config, threads), (config, witness)

    rng = random.Random(500)
    for _ in range(20):
        n_clauses = rng.randint(1, 4)
        n_vars = rng.randint(1, 4)
        clauses = tuple(
            tuple(rng.choice([1, -1]) * rng.randint(1, n_vars) for _ in range(3))
            for _ in range(n_clauses)
        )
        if n_clauses <= 3:
            search(*sat_to_coverability(CnfFormula(n_vars, clauses)), n_clauses)
    rng = random.Random(71)
    for _ in range(200):
        t = reference.random_lock_template(rng)
        locs = sorted(t.locations)
        threads = rng.randint(1, 3)
        config = tuple(rng.choice(locs) for _ in range(rng.randint(1, threads)))
        search(ParameterizedProgram(t, SyncKind.LOCKS), config, threads)
    assert verdicts[True, 3, True] >= 20 and verdicts[False, 3, False] >= 20, verdicts
    assert digest.hexdigest() == COVERABILITY_DIGEST


# -- reduction check --------------------------------------------------------------------


def representative_check(l1, l2, i):
    """The checks' representative check on two given trace sets: None, or
    the least failing trace and the reason."""
    codec = oracle._trace_codec([*l1, *l2])
    buckets = reference.bucketed(codec.width, map(codec.encode, l1))
    reader = reference.set_reader(frozenset(map(codec.encode, l2)))
    return oracle._representative_check(codec, buckets, reader, codec.relation(i))


def test_is_maz_reflexive_and_subset_violation():
    original, _, i, _, _ = fig2a_parts()
    l2 = enumerate_interleavings(
        ParameterizedProgram(original), Bounds(max_threads=2, max_local_len=2)
    )
    assert representative_check(l2, l2, i) is None
    extra = (((plain("zz"), 1),), ((plain("zz"), 2), (a, 1)), ((a, 1), (plain("zz"), 1)))
    res = representative_check(set(l2) | set(extra), l2, i)
    assert res is not None and res[1] == "reduced set is not a subset"
    assert res[0] == min(extra, key=lambda tr: [(x.sort_key(), t) for x, t in tr])


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

        def reduces(lo, hi):  # every trace of hi is covered by one of lo
            return all(any(covers(tr, x, rel) for x in lo) for tr in hi)

        whole = reduces(l1, l3)
        part1 = reduces(l1, l2)
        part2 = reduces(l2, l3)
        assert whole == (part1 and part2)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.randoms(use_true_random=False))
def test_sound_decision_never_meets_an_unsound_oracle(rng):
    """Differential property, sound side: a natural reduction the decision
    procedure calls sound has no counterexample within small oracle bounds."""
    original, fusion, sync_locs, rel = reference.random_fusion_instance(rng)
    spec = NaturalReductionSpec(fusion=fusion, instrumentation=insert_syncpoints(fusion.outer, sync_locs))
    if not check_natural_reduction(original, spec, rel).is_sound:
        return
    for threads, length in ((2, 4), (1, 6)):
        bounds = Bounds(max_threads=threads, max_local_len=length, max_enum_nodes=150_000)
        truth = oracle_check_natural(original, spec, rel, bounds)
        assert not truth.is_unsound, (original, fusion, sync_locs, rel, bounds, truth.witness)


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
        got2, _ = bounded_coverability(p, config, b2)
        got3, _ = reference.bounded_coverability_ref(p, config, 3)
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
        # lock-feasible, and replaying it (through every edge an action
        # labels) can end covering the target
        assert _witness_covers(t, witness, config, 2), (witness, config)
    assert found >= 5


def test_coverability_against_labelled_reference():
    # the reference labels its threads, sorts nothing and reduces nothing,
    # and runs every thread it is given; its breadth-first depth pins each
    # witness as a shortest one
    rng = random.Random(41)
    verdicts = Counter()
    for _ in range(300):
        t = reference.random_lock_template(rng, max_locs=rng.choice((4, 6, 8)))
        p = ParameterizedProgram(t, SyncKind.LOCKS)
        locs = sorted(t.locations)
        config = tuple(rng.choice(locs) for _ in range(rng.randint(1, 3)))
        for n in (len(config), len(config) + 1):
            got, witness = bounded_coverability(p, config, Bounds(max_threads=n, max_local_len=1))
            want, depth = reference.bounded_coverability_ref(p, config, n)
            assert got == want, (t, config, n)
            assert not got or len(witness) == depth, (t, config, n, witness)
            verdicts[got] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 100, verdicts


def test_coverability_waits_for_a_lock_another_thread_can_still_take():
    """The thread at l1 may not take `m` alone: the thread still at l0 can
    yet take `m` on its way to l5, and must take and release it first."""
    x, y, m = plain("x"), plain("y"), "m"
    t = ThreadTemplate.make(
        [
            ("l0", x, "l1"),
            ("l1", acquire(m), "l2"),
            ("l0", y, "l3"),
            ("l3", acquire(m), "l4"),
            ("l4", release(m), "l5"),
        ],
        "l0",
        "l5",
    )
    p = ParameterizedProgram(t, SyncKind.LOCKS)
    ok, witness = bounded_coverability(p, ("l2", "l5"), Bounds(max_threads=2, max_local_len=1))
    assert reference.bounded_coverability_ref(p, ("l2", "l5"), 2) == (True, 5)
    assert ok and len(witness) == 5 and _witness_covers(t, witness, ("l2", "l5"), 2)


def test_coverability_budget_runs_out():
    prog, cover = sat_to_coverability(CnfFormula(3, ((1, 2, 3), (-1, -2, 3), (1, -2, -3))))
    assert bounded_coverability(prog, cover, Bounds(max_threads=3, max_local_len=1))[0]
    tight = Bounds(max_threads=3, max_local_len=1, max_cover_states=10)
    with pytest.raises(DepthExceeded) as info:
        bounded_coverability(prog, cover, tight)
    assert (info.value.what, info.value.cap, info.value.used) == ("coverability search", 10, 11)
