"""Ground-truth semantics at desk scale.

Exact lock and rendezvous trace predicates, bounded interleaving enumeration,
the covering-preorder search, bounded Mazurkiewicz-reduction checks, and an
explicit-state coverability search.  Everything here is deliberately brute
force and independent of the polynomial procedures in `decision`; bounds are
explicit and every verdict carries them.  When a search exhausts its budget
the result is an honest "inconclusive", never a guess.

Indexed traces are tuples of (action, thread-index) pairs.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .decision import INCONCLUSIVE, SOUND, UNSOUND, Verdict
from .model import (
    Action,
    ActionKind,
    AtomicFusion,
    CommutativityRelation,
    ModelError,
    NaturalReductionSpec,
    ParameterizedProgram,
    SyncKind,
    SyncPointInstrumentation,
    ThreadTemplate,
    UnknownLocation,
    infer_sync_kind,
    substitute_blocks,
)

IndexedTrace = tuple[tuple[Action, int], ...]
Configuration = tuple[str, ...]


class DepthExceeded(ModelError):
    """A bounded search ran out of budget before reaching a decision."""


@dataclass(frozen=True)
class Bounds:
    """Resource bounds for the brute-force semantics.

    `max_local_len` caps the number of non-rendezvous steps on each thread's
    path (rendezvous steps ride along with a structural allowance).  The swap
    depth defaults to the squared trace length.  The two budgets keep a whole
    check finite: `max_enum_nodes` is shared by path/interleaving enumeration
    and block expansion, `max_cover_states` by all covering searches of one
    reduction check.  Hitting either surfaces as an inconclusive result.
    """

    max_threads: int
    max_local_len: int
    max_swap_depth: Optional[int] = None
    max_cover_states: int = 150_000
    max_enum_nodes: int = 400_000

    def __post_init__(self) -> None:
        if self.max_threads < 1 or self.max_local_len < 1:
            raise ValueError("bounds must be at least 1")
        if self.max_swap_depth is not None and self.max_swap_depth < 1:
            raise ValueError("swap depth must be at least 1")

    def describe(self) -> dict:
        return {
            "max_threads": self.max_threads,
            "max_local_len": self.max_local_len,
            "max_swap_depth": self.max_swap_depth,
            "max_cover_states": self.max_cover_states,
            "max_enum_nodes": self.max_enum_nodes,
        }


def indexed(word: Iterable[Action], thread: int) -> IndexedTrace:
    return tuple((a, thread) for a in word)


def thread_projection(tr: IndexedTrace, thread: int) -> tuple[Action, ...]:
    return tuple(a for a, t in tr if t == thread)


def thread_indices(tr: IndexedTrace) -> frozenset[int]:
    return frozenset(t for _, t in tr)


def project_plain(tr: IndexedTrace) -> IndexedTrace:
    return tuple((a, t) for a, t in tr if not a.is_sync)


def trace_key(tr: IndexedTrace) -> tuple:
    return tuple((a.sort_key(), t) for a, t in tr)


def format_trace(tr: IndexedTrace) -> str:
    return " ".join(f"{a.name}:{t}" for a, t in tr) if tr else "(empty)"


# -- synchronization predicates ----------------------------------------------


def lock_feasible(tr: IndexedTrace) -> bool:
    """Lock discipline: per lock, complete acquire/release rounds by single
    threads, with at most one trailing unmatched acquire.  No reentrancy."""
    holder: dict[str, int] = {}
    for a, t in tr:
        if a.kind is ActionKind.ACQUIRE:
            if a.lock in holder:
                return False
            holder[a.lock] = t
        elif a.kind is ActionKind.RELEASE:
            if holder.get(a.lock) != t:
                return False
            del holder[a.lock]
        elif a.kind is ActionKind.SYNC_POINT:
            raise ValueError("rendezvous steps are not part of the lock predicate")
    return True


class _BarrierMachine:
    """Subset simulation of the rendezvous predicate.

    States are (running set T, partial rendezvous R); threads may be dropped
    whenever no rendezvous is in progress, a rendezvous consumes one step per
    running thread in any order, and any other step needs its thread running
    and no rendezvous underway.  That last clause makes a rendezvous atomic
    in the full trace: lock operations cannot sneak between its steps, which
    is what lets rendezvous points interact with lock blocking at all.
    """

    def __init__(self, threads: frozenset[int]):
        self.start: frozenset = self._closure(frozenset({(threads, frozenset())}))

    @staticmethod
    def _closure(states: frozenset) -> frozenset:
        out = set(states)
        stack = [s for s in states if not s[1]]
        while stack:
            team, _ = stack.pop()
            for t in team:
                smaller = (team - {t}, frozenset())
                if smaller not in out:
                    out.add(smaller)
                    stack.append(smaller)
        return frozenset(out)

    @staticmethod
    def step(states: frozenset, action: Action, thread: int) -> frozenset:
        out = set()
        if action.kind is ActionKind.SYNC_POINT:
            for team, part in states:
                if thread in team and thread not in part:
                    grown = part | {thread}
                    out.add((team, frozenset()) if grown == team else (team, grown))
        else:
            for team, part in states:
                if not part and thread in team:
                    out.add((team, part))
        return _BarrierMachine._closure(frozenset(out))

    @staticmethod
    def accepting(states: frozenset) -> bool:
        return any(not part for _, part in states)


def barrier_feasible(tr: IndexedTrace) -> bool:
    """Rendezvous discipline: running threads pass rendezvous points together
    (in any per-round order); threads may stop participating forever between
    rounds.  The running set starts as exactly the indices in the trace."""
    machine = _BarrierMachine(thread_indices(tr))
    states = machine.start
    for a, t in tr:
        states = machine.step(states, a, t)
        if not states:
            return False
    return machine.accepting(states)


def _sync_feasible(tr: IndexedTrace, kind: SyncKind) -> bool:
    """The program's synchronization predicate on a full trace.

    The lock discipline judges the trace with rendezvous steps removed; the
    rendezvous discipline judges the whole trace, with lock operations
    counting as ordinary steps of their thread (a rendezvous is atomic in
    the full trace and stopped threads stop completely).
    """
    if kind is SyncKind.TRIVIAL:
        return True
    locks_only = tuple((a, t) for a, t in tr if a.kind is not ActionKind.SYNC_POINT)
    if not lock_feasible(locks_only):
        return False
    if kind is SyncKind.LOCKS_AND_SYNC_POINTS:
        return barrier_feasible(tr)
    return True


# -- covering preorder --------------------------------------------------------


def _swap_successors(tr: IndexedTrace, i: CommutativityRelation) -> Iterator[IndexedTrace]:
    for k in range(len(tr) - 1):
        (a, ta), (b, tb) = tr[k], tr[k + 1]
        if ta != tb and i.commutes(a, b):
            yield tr[:k] + ((b, tb), (a, ta)) + tr[k + 2 :]


def _cover_search(
    src: IndexedTrace,
    targets: frozenset[IndexedTrace],
    i: CommutativityRelation,
    max_swap_depth: Optional[int],
    states: "int | _Budget",
) -> tuple[Optional[bool], Optional[IndexedTrace]]:
    """Breadth-first search through the covering preorder from `src` toward
    any member of `targets`.  Returns (True, hit), (False, None) when the
    closure is exhausted, or (None, None) when a budget was hit.  `states`
    may be a shared budget so one caller can bound many searches."""
    if src in targets:
        return True, src
    budget = states if isinstance(states, _Budget) else _Budget(states, "covering search")
    depth_cap = max_swap_depth if max_swap_depth is not None else max(1, len(src) ** 2)
    visited = {src}
    frontier = [src]
    depth = 0
    while frontier:
        depth += 1
        if depth > depth_cap:
            return None, None
        nxt = []
        for tr in frontier:
            for succ in _swap_successors(tr, i):
                if succ in visited:
                    continue
                if succ in targets:
                    assert all(
                        thread_projection(succ, t) == thread_projection(src, t)
                        for t in thread_indices(src)
                    )
                    return True, succ
                visited.add(succ)
                try:
                    budget.spend()
                except DepthExceeded:
                    return None, None
                nxt.append(succ)
        frontier = nxt
    return False, None


def covers(
    src: IndexedTrace,
    dst: IndexedTrace,
    i: CommutativityRelation,
    *,
    max_swap_depth: Optional[int] = None,
    max_states: int = 150_000,
) -> bool:
    """Whether `dst` is reachable from `src` by commuting swaps of adjacent
    steps from different threads.  Raises DepthExceeded when the bounded
    search cannot decide."""
    if len(src) != len(dst):
        return False
    if any(
        thread_projection(src, t) != thread_projection(dst, t)
        for t in thread_indices(src) | thread_indices(dst)
    ):
        return False
    found, _ = _cover_search(src, frozenset({dst}), i, max_swap_depth, max_states)
    if found is None:
        raise DepthExceeded("covering search exhausted its budget")
    return found


@dataclass(frozen=True)
class MazResult:
    value: Optional[bool]  # None when inconclusive
    counterexample: Optional[IndexedTrace] = None
    reason: str = ""


def _covered_pairwise(src: IndexedTrace, dst: IndexedTrace, i: CommutativityRelation) -> bool:
    """Exact covering test for traces with equal per-thread projections.

    A target is reachable by allowed swaps exactly when every occurrence
    pair whose relative order flips is a commuting cross-thread pair (each
    pair's order flips at most once along a swap sequence, so the condition
    is both necessary and achievable by sorting toward the target).  This
    agrees with the breadth-first `covers` search wherever that search is
    conclusive, and is checked against it in the test suite.
    """
    counts: dict[int, int] = {}
    src_occ = []
    for a, t in src:
        src_occ.append((t, counts.get(t, 0), a))
        counts[t] = counts.get(t, 0) + 1
    counts.clear()
    dst_pos = {}
    for idx, (a, t) in enumerate(dst):
        dst_pos[(t, counts.get(t, 0))] = idx
        counts[t] = counts.get(t, 0) + 1
    n = len(src_occ)
    for p in range(n):
        tp, kp, ap = src_occ[p]
        pp = dst_pos[(tp, kp)]
        for q in range(p + 1, n):
            tq, kq, aq = src_occ[q]
            if dst_pos[(tq, kq)] < pp:
                if tp == tq or not i.commutes(ap, aq):
                    return False
    return True


def _projection_key(tr: IndexedTrace) -> tuple:
    words: dict[int, list[Action]] = {}
    for a, t in tr:
        words.setdefault(t, []).append(a)
    return tuple(sorted((t, tuple(w)) for t, w in words.items()))


def _find_representative(
    tr: IndexedTrace, bucket: dict, i: CommutativityRelation
) -> Optional[IndexedTrace]:
    for cand in bucket.get(_projection_key(tr), ()):
        if _covered_pairwise(tr, cand, i):
            return cand
    return None


def is_mazurkiewicz_reduction(
    l1: Iterable[IndexedTrace],
    l2: Iterable[IndexedTrace],
    i: CommutativityRelation,
) -> MazResult:
    """Whether every trace of `l2` is covered by some member of `l1 <= l2`.

    Candidates are bucketed by per-thread projections (which covering
    preserves) and tested with the exact pairwise criterion, so the answer
    on the given finite sets is never inconclusive.
    """
    set1 = frozenset(l1)
    set2 = frozenset(l2)
    stray = set1 - set2
    if stray:
        worst = min(stray, key=trace_key)
        return MazResult(False, worst, "reduced set is not a subset")
    bucket: dict = {}
    for cand in sorted(set1, key=trace_key):
        bucket.setdefault(_projection_key(cand), []).append(cand)
    for tr in sorted(set2 - set1, key=trace_key):
        if _find_representative(tr, bucket, i) is None:
            return MazResult(False, tr, "trace has no representative")
    return MazResult(True)


# -- interleaving enumeration -------------------------------------------------


def _local_traces(
    t: ThreadTemplate, bounds: Bounds, budget: "Optional[_Budget]" = None
) -> list[tuple[Action, ...]]:
    """All init-to-exit words with at most `max_local_len` non-rendezvous
    steps; rendezvous steps get a structural allowance on top."""
    sync_edges = sum(1 for e in t.edges if e.action.kind is ActionKind.SYNC_POINT)
    sync_cap = bounds.max_local_len + 1 + sync_edges
    words: set[tuple[Action, ...]] = set()
    if budget is None:
        budget = _Budget(bounds.max_enum_nodes, "path enumeration")
    stack: list[tuple[str, tuple[Action, ...], int, int]] = [(t.init, (), 0, 0)]
    while stack:
        budget.spend()
        loc, word, plain_n, sync_n = stack.pop()
        if loc == t.exit and word:
            words.add(word)
        for e in t.successors.get(loc, ()):
            if e.action.kind is ActionKind.SYNC_POINT:
                if sync_n + 1 > sync_cap:
                    continue
                stack.append((e.dst, word + (e.action,), plain_n, sync_n + 1))
            else:
                if plain_n + 1 > bounds.max_local_len:
                    continue
                stack.append((e.dst, word + (e.action,), plain_n + 1, sync_n))
    return sorted(words, key=lambda w: (len(w), [a.sort_key() for a in w]))


class _Budget:
    def __init__(self, cap: int, what: str):
        self.cap = cap
        self.used = 0
        self.what = what

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.cap:
            raise DepthExceeded(f"{self.what} exceeded {self.cap} steps")


def enumerate_interleavings(
    p: ParameterizedProgram,
    bounds: Bounds,
    *,
    keep_sync: bool = False,
    budget: "Optional[_Budget]" = None,
) -> frozenset[IndexedTrace]:
    """All bounded interleavings of the program, as plain projections.

    Up to `max_threads` threads run complete init-to-exit paths (threads are
    numbered 1..k with every listed thread active); the synchronization
    predicate is enforced on the full traces and synchronization steps are
    then projected away (kept verbatim with `keep_sync`, for callers that
    still need to measure or expand them).  Raises DepthExceeded past the
    node budget.
    """
    t = p.template
    if budget is None:
        budget = _Budget(bounds.max_enum_nodes, "interleaving enumeration")
    words = _local_traces(t, bounds, budget)
    out: set[IndexedTrace] = {()}
    use_locks = p.sync_kind is not SyncKind.TRIVIAL
    use_barrier = p.sync_kind is SyncKind.LOCKS_AND_SYNC_POINTS
    # the synchronization predicates are invariant under thread renaming, so
    # each multiset of local words is shuffled once and relabeled
    for k in range(1, bounds.max_threads + 1):
        for combo in itertools.combinations_with_replacement(words, k):
            base: set[IndexedTrace] = set()
            _shuffle(combo, use_locks, use_barrier, budget, base, keep_sync)
            seen_perms = set()
            for perm in itertools.permutations(range(k)):
                arranged = tuple(combo[j] for j in perm)
                if arranged in seen_perms:
                    continue
                seen_perms.add(arranged)
                if arranged == combo:
                    out.update(base)
                    continue
                # thread i+1 of the base run plays thread slot[i]+1 here
                slot = {i + 1: perm.index(i) + 1 for i in range(k)}
                for tr in base:
                    budget.spend()
                    out.add(tuple((a, slot[th]) for a, th in tr))
    return frozenset(out)


def _shuffle(
    assignment: tuple[tuple[Action, ...], ...],
    use_locks: bool,
    use_barrier: bool,
    budget: _Budget,
    out: set[IndexedTrace],
    keep_sync: bool,
) -> None:
    k = len(assignment)
    lengths = [len(w) for w in assignment]
    total = sum(lengths)
    barrier_start: Optional[frozenset] = None
    if use_barrier:
        barrier_start = _BarrierMachine(frozenset(range(1, k + 1))).start
    positions = [0] * k
    holder: dict[str, int] = {}
    acc: list[tuple[Action, int]] = []

    def rec(barrier: Optional[frozenset]) -> None:
        budget.spend()
        if len(acc) == total:
            done = tuple(acc)
            if barrier is None or _BarrierMachine.accepting(barrier):
                out.add(done if keep_sync else project_plain(done))
            return
        for idx in range(k):
            pos = positions[idx]
            if pos >= lengths[idx]:
                continue
            a = assignment[idx][pos]
            thread = idx + 1
            released = False
            if use_locks and a.kind is ActionKind.ACQUIRE:
                if a.lock in holder:
                    continue
                holder[a.lock] = thread
            elif use_locks and a.kind is ActionKind.RELEASE:
                if holder.get(a.lock) != thread:
                    continue
                del holder[a.lock]
                released = True
            new_barrier = barrier
            if barrier is not None:
                new_barrier = _BarrierMachine.step(barrier, a, thread)
                if not new_barrier:
                    if use_locks and a.kind is ActionKind.ACQUIRE:
                        del holder[a.lock]
                    elif released:
                        holder[a.lock] = thread
                    continue
            positions[idx] = pos + 1
            acc.append((a, thread))
            rec(new_barrier)
            acc.pop()
            positions[idx] = pos
            if use_locks and a.kind is ActionKind.ACQUIRE:
                del holder[a.lock]
            elif released:
                holder[a.lock] = thread

    rec(barrier_start)


def _expand_blocks(
    tr: IndexedTrace, f: AtomicFusion, bounds: Bounds, budget: "Optional[_Budget]" = None
) -> Iterator[IndexedTrace]:
    """All block-symbol expansions of a fused interleaving, keeping each
    thread's expanded non-rendezvous length within the local bound.

    `tr` must still contain its synchronization steps so the length
    accounting matches the unfused enumeration exactly.
    """
    block_words: dict[Action, list[tuple[Action, ...]]] = {}
    for sym, body in f.blocks:
        block_words[sym] = _local_traces(body, bounds)

    slots = [idx for idx, (a, _) in enumerate(tr) if a in block_words]
    if not slots:
        if _expanded_lengths_ok(tr, bounds):
            yield tr
        return
    options = [block_words[tr[idx][0]] for idx in slots]
    for choice in itertools.product(*options):
        if budget is not None:
            budget.spend()
        pieces: list[tuple[Action, int]] = []
        by_slot = dict(zip(slots, choice))
        for idx, (a, t) in enumerate(tr):
            if idx in by_slot:
                pieces.extend((x, t) for x in by_slot[idx])
            else:
                pieces.append((a, t))
        expanded = tuple(pieces)
        if _expanded_lengths_ok(expanded, bounds):
            yield expanded


def _expanded_lengths_ok(tr: IndexedTrace, bounds: Bounds) -> bool:
    counts: Counter = Counter()
    for a, t in tr:
        if a.kind is not ActionKind.SYNC_POINT:
            counts[t] += 1
    return all(n <= bounds.max_local_len for n in counts.values())


def _bounded_verdict(maz: MazResult, bounds: Bounds, notes: tuple[str, ...] = ()) -> Verdict:
    if maz.value is True:
        return Verdict(SOUND, bounds=bounds, notes=notes + ("sound within bounds",))
    if maz.value is False:
        return Verdict(
            UNSOUND,
            witness=maz.counterexample,
            bounds=bounds,
            notes=notes + (maz.reason,),
        )
    return Verdict(
        INCONCLUSIVE,
        witness=maz.counterexample,
        bounds=bounds,
        notes=notes + (maz.reason,),
    )


def oracle_check_atomic(
    t: Optional[ThreadTemplate],
    f: AtomicFusion,
    i: CommutativityRelation,
    bounds: Bounds,
) -> Verdict:
    """Bounded ground truth for fusion soundness: compare the expanded
    atomic interleavings against all interleavings of the original."""
    original = t if t is not None else substitute_blocks(f)
    kind = infer_sync_kind(original)
    budget = _Budget(bounds.max_enum_nodes, "interleaving enumeration")
    try:
        l2 = enumerate_interleavings(
            ParameterizedProgram(original, kind), bounds, budget=budget
        )
        l1_raw = enumerate_interleavings(
            ParameterizedProgram(f.outer, infer_sync_kind(f.outer)),
            bounds,
            keep_sync=True,
            budget=budget,
        )
        l1 = frozenset(
            project_plain(expanded)
            for tr in l1_raw
            for expanded in _expand_blocks(tr, f, bounds, budget)
        )
    except DepthExceeded as exc:
        return Verdict(INCONCLUSIVE, bounds=bounds, notes=(str(exc),))
    return _bounded_verdict(is_mazurkiewicz_reduction(l1, l2, i), bounds)


def oracle_check_sync(
    inst: SyncPointInstrumentation,
    i: CommutativityRelation,
    bounds: Bounds,
) -> Verdict:
    """Bounded ground truth for instrumentation soundness."""
    budget = _Budget(bounds.max_enum_nodes, "interleaving enumeration")
    try:
        l2 = enumerate_interleavings(
            ParameterizedProgram(inst.base, infer_sync_kind(inst.base)),
            bounds,
            budget=budget,
        )
        l1 = enumerate_interleavings(
            ParameterizedProgram(inst.instrumented, SyncKind.LOCKS_AND_SYNC_POINTS),
            bounds,
            budget=budget,
        )
    except DepthExceeded as exc:
        return Verdict(INCONCLUSIVE, bounds=bounds, notes=(str(exc),))
    return _bounded_verdict(is_mazurkiewicz_reduction(l1, l2, i), bounds)


def oracle_check_natural(
    t: Optional[ThreadTemplate],
    spec: NaturalReductionSpec,
    i: CommutativityRelation,
    bounds: Bounds,
) -> Verdict:
    """Bounded end-to-end ground truth for a whole natural reduction."""
    fusion = spec.fusion if spec.fusion is not None else None
    if t is None:
        base = substitute_blocks(fusion) if fusion else None
        if base is None:
            raise ValueError("need either a template or a fusion")
    else:
        base = t
    reduced_template = (
        spec.instrumentation.instrumented
        if spec.instrumentation is not None
        else (fusion.outer if fusion else base)
    )
    budget = _Budget(bounds.max_enum_nodes, "interleaving enumeration")
    try:
        l2 = enumerate_interleavings(
            ParameterizedProgram(base, infer_sync_kind(base)), bounds, budget=budget
        )
        l1_raw = enumerate_interleavings(
            ParameterizedProgram(reduced_template, SyncKind.LOCKS_AND_SYNC_POINTS),
            bounds,
            keep_sync=True,
            budget=budget,
        )
        if fusion is not None and fusion.blocks:
            l1 = frozenset(
                project_plain(expanded)
                for tr in l1_raw
                for expanded in _expand_blocks(tr, fusion, bounds, budget)
            )
        else:
            l1 = frozenset(project_plain(tr) for tr in l1_raw)
    except DepthExceeded as exc:
        return Verdict(INCONCLUSIVE, bounds=bounds, notes=(str(exc),))
    return _bounded_verdict(is_mazurkiewicz_reduction(l1, l2, i), bounds)


# -- coverability -------------------------------------------------------------


def bounded_coverability(
    p: ParameterizedProgram,
    c: Configuration,
    bounds: Bounds,
) -> tuple[bool, Optional[IndexedTrace]]:
    """Explicit-state search for a reachable configuration covering `c`.

    Runs `max_threads` threads under the lock semantics (exact over the full
    finite state space; no length bound applies).  The witness is the full
    synchronization-feasible indexed trace.  Rendezvous programs are out of
    scope here; the rendezvous gadgets are checked through the interleaving
    oracle instead.
    """
    t = p.template
    if t.has_sync_points:
        raise ValueError("coverability search does not support rendezvous programs")
    unknown = set(c) - set(t.locations)
    if unknown:
        raise UnknownLocation(f"configuration uses unknown locations {sorted(unknown)}")
    n = bounds.max_threads
    if len(c) > n:
        raise ValueError("configuration wider than the thread bound")
    goal = Counter(c)

    # Threads are interchangeable, so a state is the sorted tuple of
    # per-thread (location, held-locks) pairs; the global lock map is their
    # (disjoint) union.  Steps recorded for the witness name the moved pair.
    ThreadState = tuple[str, frozenset]

    def canonical(pairs: Iterable[ThreadState]) -> tuple[ThreadState, ...]:
        return tuple(sorted(pairs, key=lambda p: (p[0], sorted(p[1]))))

    def covered(state: tuple[ThreadState, ...]) -> bool:
        have = Counter(loc for loc, _ in state)
        return all(have[loc] >= cnt for loc, cnt in goal.items())

    start = canonical((t.init, frozenset()) for _ in range(n))
    parents: dict[tuple, Optional[tuple]] = {start: None}
    queue = deque([start])
    hit: Optional[tuple] = None
    while queue:
        state = queue.popleft()
        if covered(state):
            hit = state
            break
        held_elsewhere: Counter = Counter()
        for _, locks in state:
            held_elsewhere.update(locks)
        for idx, (loc, locks) in enumerate(state):
            for e in t.successors.get(loc, ()):
                a = e.action
                if a.kind is ActionKind.ACQUIRE:
                    if held_elsewhere[a.lock]:
                        continue
                    new_pair = (e.dst, locks | {a.lock})
                elif a.kind is ActionKind.RELEASE:
                    if a.lock not in locks:
                        continue
                    new_pair = (e.dst, locks - {a.lock})
                else:
                    new_pair = (e.dst, locks)
                nxt = canonical(state[:idx] + (new_pair,) + state[idx + 1 :])
                if nxt not in parents:
                    parents[nxt] = (state, a, (loc, locks), new_pair)
                    queue.append(nxt)
    if hit is None:
        return False, None

    steps: list[tuple] = []
    cur = hit
    while parents[cur] is not None:
        prev, a, old_pair, new_pair = parents[cur]  # type: ignore[misc]
        steps.append((a, old_pair, new_pair))
        cur = prev
    steps.reverse()
    # replay, assigning concrete thread indices to the anonymous pairs
    assignment: list[ThreadState] = [(t.init, frozenset()) for _ in range(n)]
    trace: list[tuple[Action, int]] = []
    for a, old_pair, new_pair in steps:
        tid = assignment.index(old_pair)
        assignment[tid] = new_pair
        trace.append((a, tid + 1))
    return True, tuple(trace)
