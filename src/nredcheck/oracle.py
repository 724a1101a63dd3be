"""Ground-truth semantics at desk scale.

Exact lock and rendezvous trace predicates, bounded interleaving enumeration,
the exact covering test, bounded Mazurkiewicz-reduction checks, and an
explicit-state coverability search.  Everything here is deliberately brute
force and independent of the polynomial procedures in `decision`; bounds are
explicit and every verdict carries them.  When a search exhausts its budget
the result is an honest "inconclusive", never a guess.

Indexed traces are tuples of (action, thread-index) pairs; every public
function takes and returns them.  Inside, each oracle check runs on one
coded core (`_Codec`): a step is a small int, a trace a tuple of them, and
the relation a flat lookup table, and only a counterexample is decoded.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator, Optional

from .decision import INCONCLUSIVE, SOUND, UNSOUND, Verdict
from .model import (
    Action,
    ActionKind,
    AtomicFusion,
    CommutativityRelation,
    InconsistentInputs,
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
    """A bounded search ran out of budget before reaching a decision.

    The node budget that ran out names itself (`what`), its `cap` and the
    steps `used` when it ran out, which can pass the cap by more than one
    because a shuffle charges all its nodes, and a relabelling all its
    traces, at once.
    """

    def __init__(self, message: str, *, what: str, cap: int, used: int):
        super().__init__(message)
        self.what, self.cap, self.used = what, cap, used


@dataclass(frozen=True)
class Bounds:
    """Resource bounds for the brute-force semantics.

    `max_local_len` caps the number of non-rendezvous steps on each thread's
    path (rendezvous steps ride along with a structural allowance).
    `max_enum_nodes` keeps a whole check finite: it is shared by the path
    and interleaving enumeration of the programs and by block expansion,
    while each block body's path enumeration gets a fresh budget of the same
    size; running out surfaces as an inconclusive result.  The interleaving
    enumeration of both programs is charged in full, from the node and path
    counts of each shuffle's state graph, before any trace is built, so a
    check that runs out builds none; the one exception is a shuffle that
    loses synchronization steps to the projection and has relabellings,
    whose traces are built to be counted.  No search reads
    `max_cover_states` (`bounded_coverability` has no budget); every report
    lists it.
    """

    max_threads: int
    max_local_len: int
    # bounds nothing, since the covering test is exact; kept only because
    # the benchmark workloads construct Bounds with it, and listed in every
    # report (as null) so that report bytes do not move
    max_swap_depth: Optional[int] = None
    max_cover_states: int = 150_000
    max_enum_nodes: int = 400_000

    def __post_init__(self) -> None:
        if self.max_threads < 1 or self.max_local_len < 1:
            raise ModelError("thread and length bounds must be at least 1")

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
    def step(states: frozenset, rendezvous: bool, thread: int) -> frozenset:
        out = set()
        if rendezvous:
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
        states = machine.step(states, a.kind is ActionKind.SYNC_POINT, t)
        if not states:
            return False
    return machine.accepting(states)


@dataclass(frozen=True)
class MazResult:
    value: Optional[bool]  # None when inconclusive
    counterexample: Optional[IndexedTrace] = None
    reason: str = ""


# -- coded traces -----------------------------------------------------------------


class _Codec:
    """Small-int codes for the traces of one oracle check.

    The actions are ranked by `Action.sort_key`, and the step (action, t) is
    the int `rank * width + t`, where `width` exceeds every thread index.  So
    tuples of codes hash as tuples of ints and sort exactly as `trace_key`
    sorts the traces they stand for.  Per-code tables answer what the inner
    loops ask of a step; `relation` turns a commutativity relation into a
    flat table over pairs of ranks.
    """

    def __init__(self, actions: Iterable[Action], max_thread: int):
        self.actions = sorted(set(actions), key=Action.sort_key)
        self.rank = {a: r for r, a in enumerate(self.actions)}
        self.width = width = max_thread + 1
        pairs = [(a, t) for a in self.actions for t in range(width)]
        self.pairs = pairs  # code -> (action, thread)
        self.kind = [a.kind for a, _ in pairs]
        self.lock = [a.lock for a, _ in pairs]
        # kept by `project_plain`
        self.plain = [not a.is_sync for a, _ in pairs]
        # counted against the local length bound
        self.counted = [a.kind is not ActionKind.SYNC_POINT for a, _ in pairs]
        self._barrier_next: dict[frozenset, dict[int, frozenset]] = {}

    def ranks(self, word: Iterable[Action]) -> tuple[int, ...]:
        return tuple(map(self.rank.__getitem__, word))

    def encode(self, tr: IndexedTrace) -> tuple[int, ...]:
        width = self.width
        out = []
        for a, t in tr:
            if not 0 <= t < width:
                raise ValueError(f"thread index {t} outside 0..{width - 1}")
            out.append(self.rank[a] * width + t)
        return tuple(out)

    def decode(self, codes: tuple[int, ...]) -> IndexedTrace:
        return tuple(map(self.pairs.__getitem__, codes))

    def project(self, codes: tuple[int, ...]) -> tuple[int, ...]:
        """`project_plain` on codes."""
        return tuple(itertools.compress(codes, map(self.plain.__getitem__, codes)))

    def relation(self, i: CommutativityRelation) -> list[bool]:
        """`comm[a * n + b]` is whether ranks a, b commute (n actions)."""
        return [i.commutes(a, b) for a in self.actions for b in self.actions]

    def relabel_table(self, perm: tuple[int, ...]) -> list[int]:
        """Code map under which thread j+1 plays thread perm.index(j)+1."""
        width = self.width
        slot = list(range(width))
        for j in range(len(perm)):
            slot[j + 1] = perm.index(j) + 1
        return [c - c % width + slot[c % width] for c in range(len(self.pairs))]

    def barrier_step(self, states: frozenset, code: int) -> frozenset:
        """`_BarrierMachine.step`, remembered per state set and step."""
        row = self._barrier_next.get(states)
        if row is None:
            row = self._barrier_next[states] = {}
        nxt = row.get(code)
        if nxt is None:
            rendezvous = self.kind[code] is ActionKind.SYNC_POINT
            nxt = row[code] = _BarrierMachine.step(states, rendezvous, code % self.width)
        return nxt


def _trace_codec(traces: Iterable[IndexedTrace], extra: Iterable[Action] = ()) -> _Codec:
    steps = [s for tr in traces for s in tr]
    actions = itertools.chain((a for a, _ in steps), extra)
    return _Codec(actions, max((t for _, t in steps), default=0))


# -- covering test and representative check -----------------------------------


def _covered(
    src: tuple[int, ...], dst: tuple[int, ...], width: int, n: int, comm: list[bool]
) -> bool:
    """Exact covering test for coded traces with equal per-thread projections.

    A target is reachable by allowed swaps exactly when every occurrence
    pair whose relative order flips is a commuting cross-thread pair (each
    pair's order flips at most once along a swap sequence, so the condition
    is both necessary and achievable by sorting toward the target).  The
    k-th step of a thread is its k-th step in both traces, so same-thread
    pairs never flip and only the relation is tested.
    """
    where: dict[int, list[int]] = {}
    for pos, c in enumerate(dst):
        where.setdefault(c % width, []).append(pos)
    nxt = {t: iter(positions).__next__ for t, positions in where.items()}
    moved = [nxt[c % width]() for c in src]
    ranks = [c // width for c in src]
    last = len(src)
    for p in range(last - 1):
        at = moved[p]
        row = ranks[p] * n
        for q in range(p + 1, last):
            if moved[q] < at and not comm[row + ranks[q]]:
                return False
    return True


def covers(src: IndexedTrace, dst: IndexedTrace, i: CommutativityRelation) -> bool:
    """Whether `dst` is reachable from `src` by commuting swaps of adjacent
    steps from different threads (the exact test of `_covered`)."""
    if len(src) != len(dst):
        return False
    if any(
        thread_projection(src, t) != thread_projection(dst, t)
        for t in thread_indices(src) | thread_indices(dst)
    ):
        return False
    codec = _trace_codec([src, dst])
    return _covered(
        codec.encode(src), codec.encode(dst), codec.width, len(codec.actions), codec.relation(i)
    )


def _representative_check(
    codec: _Codec,
    l1: AbstractSet[tuple[int, ...]],
    l2: AbstractSet[tuple[int, ...]],
    comm: list[bool],
) -> MazResult:
    """`is_mazurkiewicz_reduction` on sets of coded traces; only the
    counterexample is decoded."""
    stray = l1 - l2
    if stray:
        return MazResult(False, codec.decode(min(stray)), "reduced set is not a subset")
    width, n = codec.width, len(codec.actions)
    # the steps in thread order stand for the per-thread projections
    by_thread = width.__rmod__
    bucket: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for cand in l1:
        bucket.setdefault(tuple(sorted(cand, key=by_thread)), []).append(cand)
    for tr in sorted(l2 - l1):
        if not any(
            _covered(tr, cand, width, n, comm)
            for cand in bucket.get(tuple(sorted(tr, key=by_thread)), ())
        ):
            return MazResult(False, codec.decode(tr), "trace has no representative")
    return MazResult(True)


def is_mazurkiewicz_reduction(
    l1: Iterable[IndexedTrace],
    l2: Iterable[IndexedTrace],
    i: CommutativityRelation,
) -> MazResult:
    """Whether every trace of `l2` is covered by some member of `l1 <= l2`.

    Candidates are bucketed by per-thread projections (which covering
    preserves) and tested with the exact pairwise criterion, so the answer
    on the given finite sets is never inconclusive.  The counterexample is
    the least failing trace in `trace_key` order.
    """
    l1, l2 = list(l1), list(l2)
    codec = _trace_codec(itertools.chain(l1, l2))
    return _representative_check(
        codec,
        frozenset(map(codec.encode, l1)),
        frozenset(map(codec.encode, l2)),
        codec.relation(i),
    )


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
            raise DepthExceeded(
                f"{self.what} exceeded {self.cap} steps",
                what=self.what,
                cap=self.cap,
                used=self.used,
            )


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
    node budget, which is charged in full before any trace is built.
    """
    codec = _Codec(p.template.alphabet, bounds.max_threads)
    if budget is None:
        budget = _Budget(bounds.max_enum_nodes, "interleaving enumeration")
    plan = _plan_interleavings(codec, p, bounds, keep_sync, budget)
    return frozenset(map(codec.decode, _build_interleavings(codec, plan)))


# the start state and, per level, the moves (state, code, next state) that
# lie on an accepted path
_MoveDag = tuple[tuple, list[list[tuple[tuple, int, tuple]]]]


# one shuffled multiset of local words: its move DAG, its traces when the
# plan had to build them, the thread permutations that relabel them into
# the other arrangements, and whether building drops synchronization steps
_Planned = tuple[_MoveDag, Optional[set], list, bool]


def _plan_interleavings(
    codec: _Codec,
    p: ParameterizedProgram,
    bounds: Bounds,
    keep_sync: bool,
    budget: _Budget,
) -> list[_Planned]:
    """Charge the whole interleaving enumeration before building any trace.

    The charges come in the order of a build-as-you-go enumeration: the
    path enumeration of the local words, then per multiset of words the
    node count of its shuffle, then one step per trace for each distinct
    relabelling.  A trace's code names its thread, so two accepted paths
    through a shuffle (which first differ in the thread they step) are two
    traces, and the trace count is the path count.  The one exception is a
    shuffle whose traces lose synchronization steps to the projection and
    that has relabellings: paths can then collapse, so its traces are built
    here to be counted (and kept for the build).
    """
    words = [codec.ranks(w) for w in _local_traces(p.template, bounds, budget)]
    use_locks = p.sync_kind is not SyncKind.TRIVIAL
    use_barrier = p.sync_kind is SyncKind.LOCKS_AND_SYNC_POINTS
    width, keep = codec.width, codec.plain
    lossy = [not keep_sync and not all(keep[r * width] for r in w) for w in words]
    plan: list[_Planned] = []
    # the synchronization predicates are invariant under thread renaming, so
    # each multiset of local words is shuffled once and relabeled
    for k in range(1, bounds.max_threads + 1):
        for combo in itertools.combinations_with_replacement(range(len(words)), k):
            nodes, paths, dag = _shuffle_graph(
                codec, tuple(words[j] for j in combo), use_locks, use_barrier
            )
            budget.spend(nodes)
            seen = {combo}
            perms = []
            for perm in itertools.permutations(range(k)):
                arranged = tuple(combo[j] for j in perm)
                if arranged not in seen:
                    seen.add(arranged)
                    perms.append(perm)
            project = any(lossy[j] for j in combo)
            base = None
            if perms and project:
                base = _shuffle_traces(codec, dag, project)
                paths = len(base)
            for _ in perms:
                budget.spend(paths)  # one step per relabelled trace
            plan.append((dag, base, perms, project))
    return plan


def _build_interleavings(codec: _Codec, plan: list[_Planned]) -> set[tuple[int, ...]]:
    """The traces of a plan: each shuffle built from its move DAG (unless
    the plan already built it) and relabelled into its other arrangements."""
    out: set[tuple[int, ...]] = {()}
    tables: dict[tuple[int, ...], list[int]] = {}
    for dag, base, perms, project in plan:
        if base is None:
            base = _shuffle_traces(codec, dag, project)
        out |= base
        for perm in perms:
            table = tables.get(perm)
            if table is None:
                table = tables[perm] = codec.relabel_table(perm)
            relabel = table.__getitem__
            out.update(tuple(map(relabel, tr)) for tr in base)
    return out


def _both_interleavings(
    codec: _Codec,
    original: ParameterizedProgram,
    reduced: ParameterizedProgram,
    keep_sync: bool,
    bounds: Bounds,
    budget: _Budget,
) -> tuple[set[tuple[int, ...]], set[tuple[int, ...]]]:
    """The original program's interleavings (projected) and the reduced
    program's: l2 is planned, then l1, and both are built only when both
    plans fit the budget, so a check that runs out builds no trace."""
    plan2 = _plan_interleavings(codec, original, bounds, False, budget)
    plan1 = _plan_interleavings(codec, reduced, bounds, keep_sync, budget)
    return _build_interleavings(codec, plan2), _build_interleavings(codec, plan1)


def _shuffle_graph(
    codec: _Codec,
    assignment: tuple[tuple[int, ...], ...],
    use_locks: bool,
    use_barrier: bool,
) -> tuple[int, int, _MoveDag]:
    """The graph pass over every synchronization-feasible interleaving of
    the ranked local words, thread j+1 running `assignment[j]`: returns the
    node charge, the number of accepted paths and the pruned move DAG.

    The search runs level by level over states: the steps each thread has
    taken, and the rendezvous state set.  The locks held are a function of
    the steps taken, since each thread holds what its own prefix acquired
    and did not release.  The node charge is one step per feasible prefix
    (the node count of a depth-first search over them), counted as the
    number of paths into each state; no trace is built.
    """
    k = len(assignment)
    width = codec.width
    steps = [tuple(r * width + j for r in w) for j, w in enumerate(assignment, 1)]
    lengths = [len(w) for w in steps]
    kind, lock = codec.kind, codec.lock
    barrier_step = codec.barrier_step
    held = []  # held[j][p]: the locks thread j+1 holds after p steps
    for w in steps:
        now: frozenset = frozenset()
        row = [now]
        for c in w:
            if kind[c] is ActionKind.ACQUIRE:
                now = now | {lock[c]}
            elif kind[c] is ActionKind.RELEASE:
                now = now - {lock[c]}
            row.append(now)
        held.append(row)

    barrier = _BarrierMachine(frozenset(range(1, k + 1))).start if use_barrier else None
    start = ((0,) * k, barrier)
    level = {start: 1}
    nodes = 1
    moves_by_level = []
    for _ in range(sum(lengths)):
        nxt: dict = {}
        moves = []
        for state, paths in level.items():
            pos, barrier = state
            for j in range(k):
                p = pos[j]
                if p == lengths[j]:
                    continue
                c = steps[j][p]
                op = kind[c] if use_locks else None
                if op is ActionKind.ACQUIRE:
                    if any(lock[c] in held[i][pos[i]] for i in range(k)):
                        continue
                elif op is ActionKind.RELEASE:
                    if lock[c] not in held[j][p]:
                        continue
                after = None
                if barrier is not None:
                    after = barrier_step(barrier, c)
                    if not after:
                        continue
                to = (pos[:j] + (p + 1,) + pos[j + 1 :], after)
                nxt[to] = nxt.get(to, 0) + paths
                moves.append((state, c, to))
        moves_by_level.append(moves)
        level = nxt
        nodes += sum(nxt.values())

    # every state of the last level has taken every step; keep only the
    # moves that lead to an accepted one
    alive = {s for s in level if s[1] is None or _BarrierMachine.accepting(s[1])}
    accepted = sum(level[s] for s in alive)
    for moves in reversed(moves_by_level):
        moves[:] = [m for m in moves if m[2] in alive]
        alive = {m[0] for m in moves}
    return nodes, accepted, (start, moves_by_level)


def _shuffle_traces(codec: _Codec, dag: _MoveDag, project: bool) -> set[tuple[int, ...]]:
    """The build pass: every trace along the move DAG, level by level,
    with synchronization steps dropped when `project` is set."""
    start, moves_by_level = dag
    keep = codec.plain
    prefixes: dict = {start: {()}}
    for moves in moves_by_level:
        grown: dict = {}
        for state, c, to in moves:
            before = prefixes[state]
            longer = before if project and not keep[c] else {tr + (c,) for tr in before}
            into = grown.get(to)
            if into is not None:
                into |= longer
            else:  # a set of the level before is shared, never grown in place
                grown[to] = set(before) if longer is before else longer
        prefixes = grown
    out: set[tuple[int, ...]] = set()
    for traces in prefixes.values():
        out |= traces
    return out


# -- block expansion ------------------------------------------------------------


BlockWords = dict[int, list[tuple[tuple[int, ...], int]]]


def _block_words(
    codec: _Codec, blocks: Iterable[tuple[Action, ThreadTemplate]], bounds: Bounds
) -> BlockWords:
    """Each block body's local words, enumerated once (each body under its
    own path budget) and coded for every thread: the code of a block step
    maps to its expansions, each with its count of non-rendezvous steps."""
    width = codec.width
    out: BlockWords = {}
    for sym, body in blocks:
        words = [
            (codec.ranks(w), sum(a.kind is not ActionKind.SYNC_POINT for a in w))
            for w in _local_traces(body, bounds)
        ]
        for t in range(width):
            out[codec.rank[sym] * width + t] = [
                (tuple(r * width + t for r in w), n) for w, n in words
            ]
    return out


def _expansions(
    codec: _Codec,
    tr: tuple[int, ...],
    block_words: BlockWords,
    bounds: Bounds,
    budget: Optional[_Budget],
) -> Iterator[tuple[int, ...]]:
    """`_expand_blocks` on codes; one budget step per choice of expansions."""
    width, counted = codec.width, codec.counted
    room = [bounds.max_local_len] * width  # non-rendezvous steps left per thread
    slots = []
    for idx, c in enumerate(tr):
        if c in block_words:
            slots.append(idx)
        else:
            room[c % width] -= counted[c]
    if not slots:
        if min(room) >= 0:
            yield tr
        return
    cuts = [-1, *slots, len(tr)]
    pieces = [tr[lo + 1 : hi] for lo, hi in zip(cuts, cuts[1:])]
    threads = [tr[idx] % width for idx in slots]
    for choice in itertools.product(*(block_words[tr[idx]] for idx in slots)):
        if budget is not None:
            budget.spend()
        left = room.copy()
        for t, (_, n) in zip(threads, choice):
            left[t] -= n
        if min(left) < 0:
            continue
        expanded = pieces[0]
        for (word, _), piece in zip(choice, pieces[1:]):
            expanded += word + piece
        yield expanded


def _expand_blocks(
    tr: IndexedTrace, f: AtomicFusion, bounds: Bounds, budget: "Optional[_Budget]" = None
) -> Iterator[IndexedTrace]:
    """All block-symbol expansions of a fused interleaving, keeping each
    thread's expanded non-rendezvous length within the local bound.

    `tr` must still contain its synchronization steps so the length
    accounting matches the unfused enumeration exactly.
    """
    bodies = [a for _, body in f.blocks for a in body.alphabet]
    codec = _trace_codec([tr], itertools.chain((sym for sym, _ in f.blocks), bodies))
    block_words = _block_words(codec, f.blocks, bounds)
    for expanded in _expansions(codec, codec.encode(tr), block_words, bounds, budget):
        yield codec.decode(expanded)


def _expanded_plain(
    codec: _Codec,
    fused: Iterable[tuple[int, ...]],
    blocks: Iterable[tuple[Action, ThreadTemplate]],
    bounds: Bounds,
    budget: _Budget,
) -> frozenset[tuple[int, ...]]:
    """The plain projections of every block expansion of the fused traces."""
    block_words = _block_words(codec, blocks, bounds)
    return frozenset(
        codec.project(expanded)
        for tr in fused
        for expanded in _expansions(codec, tr, block_words, bounds, budget)
    )


def _bounded_verdict(maz: MazResult, bounds: Bounds, notes: tuple[str, ...] = ()) -> Verdict:
    if maz.value is True:
        return Verdict(SOUND, bounds=bounds, notes=notes + ("sound within bounds",))
    result = UNSOUND if maz.value is False else INCONCLUSIVE
    return Verdict(result, witness=maz.counterexample, bounds=bounds, notes=notes + (maz.reason,))


def _check_codec(bounds: Bounds, *templates: ThreadTemplate) -> _Codec:
    return _Codec(itertools.chain.from_iterable(t.alphabet for t in templates), bounds.max_threads)


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
    codec = _check_codec(bounds, original, f.outer, *(body for _, body in f.blocks))
    budget = _Budget(bounds.max_enum_nodes, "interleaving enumeration")
    try:
        l2, l1_raw = _both_interleavings(
            codec,
            ParameterizedProgram(original, kind),
            ParameterizedProgram(f.outer, infer_sync_kind(f.outer)),
            True,
            bounds,
            budget,
        )
        l1 = _expanded_plain(codec, l1_raw, f.blocks, bounds, budget)
    except DepthExceeded as exc:
        return Verdict(INCONCLUSIVE, bounds=bounds, notes=(str(exc),))
    return _bounded_verdict(_representative_check(codec, l1, l2, codec.relation(i)), bounds)


def oracle_check_sync(
    inst: SyncPointInstrumentation,
    i: CommutativityRelation,
    bounds: Bounds,
) -> Verdict:
    """Bounded ground truth for instrumentation soundness."""
    codec = _check_codec(bounds, inst.base, inst.instrumented)
    budget = _Budget(bounds.max_enum_nodes, "interleaving enumeration")
    base = ParameterizedProgram(inst.base, infer_sync_kind(inst.base))
    reduced = ParameterizedProgram(inst.instrumented, SyncKind.LOCKS_AND_SYNC_POINTS)
    try:
        l2, l1 = _both_interleavings(codec, base, reduced, False, bounds, budget)
    except DepthExceeded as exc:
        return Verdict(INCONCLUSIVE, bounds=bounds, notes=(str(exc),))
    return _bounded_verdict(_representative_check(codec, l1, l2, codec.relation(i)), bounds)


def oracle_check_natural(
    t: Optional[ThreadTemplate],
    spec: NaturalReductionSpec,
    i: CommutativityRelation,
    bounds: Bounds,
) -> Verdict:
    """Bounded end-to-end ground truth for a whole natural reduction."""
    fusion = spec.fusion
    if t is None and fusion is None:
        raise ValueError("need either a template or a fusion")
    base = t if t is not None else substitute_blocks(fusion)
    reduced_template = (
        spec.instrumentation.instrumented
        if spec.instrumentation is not None
        else (fusion.outer if fusion else base)
    )
    blocks = fusion.blocks if fusion is not None else ()
    codec = _check_codec(bounds, base, reduced_template, *(body for _, body in blocks))
    budget = _Budget(bounds.max_enum_nodes, "interleaving enumeration")
    try:
        program = ParameterizedProgram(base, infer_sync_kind(base))
        reduced = ParameterizedProgram(reduced_template, SyncKind.LOCKS_AND_SYNC_POINTS)
        l2, l1_raw = _both_interleavings(codec, program, reduced, True, bounds, budget)
        l1 = _expanded_plain(codec, l1_raw, blocks, bounds, budget)
    except DepthExceeded as exc:
        return Verdict(INCONCLUSIVE, bounds=bounds, notes=(str(exc),))
    return _bounded_verdict(_representative_check(codec, l1, l2, codec.relation(i)), bounds)


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
    oracle instead.  Each (location, held-locks) pair one thread reaches
    alone (others can only block its acquires) is numbered in (location,
    sorted locks) order; a state is the sorted tuple of its interchangeable
    threads' numbers, tested for the goal when discovered.  Only the
    witness is decoded.
    """
    t = p.template
    if t.has_sync_points:
        raise ValueError("coverability search does not support rendezvous programs")
    unknown = set(c) - set(t.locations)
    if unknown:
        raise UnknownLocation(f"configuration uses unknown locations {sorted(unknown)}")
    n = bounds.max_threads
    if len(c) > n:
        raise InconsistentInputs(f"configuration of {len(c)} locations is wider than the thread bound {n}")
    goal = Counter(c)

    def solo(loc: str, locks: frozenset) -> Iterator[tuple[Action, tuple]]:
        for e in t.successors.get(loc, ()):
            a = e.action
            if a.lock is None:
                yield a, (e.dst, locks)
            elif a.kind is ActionKind.ACQUIRE and a.lock not in locks:  # not even its own
                yield a, (e.dst, locks | {a.lock})
            elif a.kind is ActionKind.RELEASE and a.lock in locks:
                yield a, (e.dst, locks - {a.lock})

    init = (t.init, frozenset())
    solo_moves: dict[tuple, list] = {}
    stack = [init]
    while stack:
        pair = stack.pop()
        if pair not in solo_moves:
            solo_moves[pair] = list(solo(*pair))
            stack.extend(q for _, q in solo_moves[pair])
    pairs = sorted(solo_moves, key=lambda q: (q[0], sorted(q[1])))
    ident = {q: k for k, q in enumerate(pairs)}
    bit = {lock: 1 << k for k, lock in enumerate(sorted(set().union(*(q[1] for q in pairs))))}
    mask = [sum(bit[lock] for lock in locks) for _, locks in pairs]
    at = [loc for loc, _ in pairs]
    # a move: (lock bit that must be free, target, step); a step: (action, source, target)
    steps = [(a, ident[q], ident[r]) for q in pairs for a, r in solo_moves[q]]
    moves: list[list[tuple[int, int, int]]] = [[] for _ in pairs]
    for number, (a, src, dst) in enumerate(steps):
        moves[src].append((bit[a.lock] if a.kind is ActionKind.ACQUIRE else 0, dst, number))
    start = (ident[init],) * n
    parents = {start: -1}  # state -> the number of the step that found it

    def covered(state: tuple[int, ...]) -> bool:
        return not goal - Counter(at[k] for k in state)

    def search() -> Optional[tuple[int, ...]]:
        queue = deque([start])
        while queue:
            state = queue.popleft()
            held = sum(map(mask.__getitem__, state))  # the masks are disjoint
            for i, k in enumerate(state):
                rest = state[:i] + state[i + 1 :]
                for free, dst, number in moves[k]:
                    if free & held:
                        continue
                    nxt = tuple(sorted(rest + (dst,)))
                    if nxt not in parents:
                        parents[nxt] = number
                        # the state it came from covers nothing, so only a
                        # thread entering a goal location can cover
                        if at[dst] in goal and covered(nxt):
                            return nxt
                        queue.append(nxt)
        return None

    cur = start if covered(start) else search()
    if cur is None:
        return False, None
    path: list[int] = []
    while parents[cur] >= 0:
        path.append(parents[cur])
        _, src, dst = steps[path[-1]]
        back = list(cur)
        back.remove(dst)
        cur = tuple(sorted(back + [src]))
    # replay, assigning concrete thread indices to the anonymous states
    assignment, trace = list(start), []
    for number in reversed(path):
        a, src, dst = steps[number]
        tid = assignment.index(src)
        assignment[tid] = dst
        trace.append((a, tid + 1))
    return True, tuple(trace)
