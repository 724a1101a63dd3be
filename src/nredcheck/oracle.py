"""Ground-truth semantics at desk scale.

Lock and rendezvous trace predicates, bounded interleaving enumeration,
the exact covering test, bounded Mazurkiewicz-reduction checks, and an
explicit-state coverability search.  Everything here is deliberately brute
force and independent of the polynomial procedures in `decision`; bounds are
explicit and every verdict carries them.  When a search exhausts its budget
the result is an honest "inconclusive", never a guess.

Indexed traces are tuples of (action, thread-index) pairs; every public
function takes and returns them.  Inside, each oracle check runs on one
coded core (`_Codec`): a step is a small int, a trace a tuple of them, and
the relation a flat lookup table, and only a counterexample is decoded.
The public trace predicates are views of that core: each runs the rule the
checks run (the shuffle's lock gates and held-lock mask, its rendezvous
step, the representative check's covering test) on one given trace.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .decision import INCONCLUSIVE, SOUND, UNSOUND, Verdict
from .model import (
    Action,
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
    _ACQUIRE,
    _RELEASE,
    _SYNC_POINT,
)

IndexedTrace = tuple[tuple[Action, int], ...]
Configuration = tuple[str, ...]


class DepthExceeded(ModelError):
    """A bounded search ran out of budget before reaching a decision.

    The budget that ran out names itself (`what`), its `cap` and what it
    had `used` when it ran out, which can pass the cap by more than one
    because a shuffle charges all its nodes, and a relabelling all its
    traces, at once.  Block expansion is charged per shuffle at once too,
    but stops one step past the cap, as it would if each choice of block
    words were charged in turn.
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
    counts of each shuffle, before any trace is built, so a check that runs
    out builds none: a shuffle of words without lock or rendezvous steps is
    counted from its word lengths alone and its state graph is built only
    when its traces are read, the others' state graphs are searched to be
    counted, and a shuffle that loses synchronization steps to the
    projection and has relabellings has its traces built to be counted.
    Block expansion is charged one step per choice of block words for each
    reduced trace, as if each choice were tried in turn; all the traces of
    a shuffle, in every arrangement, have the same choices, so each
    shuffle is charged at once, and the reduced program's traces are built
    and keyed once per (shuffle, choice of block words, arrangement),
    expanded and projected (`_reduced_buckets`).
    `max_cover_states` caps the states `bounded_coverability` discovers.
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


def project_plain(tr: IndexedTrace) -> IndexedTrace:
    return tuple((a, t) for a, t in tr if not a.is_sync)


def trace_key(tr: IndexedTrace) -> tuple:
    return tuple((a.sort_key(), t) for a, t in tr)


def format_trace(tr: IndexedTrace) -> str:
    return " ".join(f"{a.name}:{t}" for a, t in tr) if tr else "(empty)"


# -- synchronization predicates ----------------------------------------------


def lock_feasible(tr: IndexedTrace) -> bool:
    """Lock discipline: per lock, complete acquire/release rounds by single
    threads, with at most one trailing unmatched acquire.  No reentrancy.
    The shuffle's rule (`_shuffle_graph`): each thread's word has its lock
    gates (`_Codec.gates`), and one mask holds the locks held."""
    if any(a.kind is _SYNC_POINT for a, _ in tr):
        raise ValueError("rendezvous steps are not part of the lock predicate")
    codec = _Codec((a for a, _ in tr), 0)
    threads = {t for _, t in tr}
    # per thread, (the lock bit that must be free, the bits flipped) for each step it can run
    gates = {t: zip(*codec.gates(codec.ranks(a for a, u in tr if u == t))[1:]) for t in threads}
    held = 0
    for _, t in tr:
        step = next(gates[t], None)
        if step is None or step[0] & held:
            return False
        held ^= step[1]
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
    rounds.  The running set starts as exactly the indices in the trace.
    The shuffle's rule: `_Codec.barrier_step` from the machine's start."""
    codec = _trace_codec([tr])
    bid = codec.barrier_id(_BarrierMachine(frozenset(t for _, t in tr)).start)
    for c in codec.encode(tr):
        bid = codec.barrier_step(bid, c)
        if not bid:
            return False
    return _BarrierMachine.accepting(codec.barrier_sets[bid])


@dataclass(frozen=True)
class MazResult:
    value: bool
    counterexample: Optional[IndexedTrace] = None
    reason: str = ""


# -- coded traces -----------------------------------------------------------------


class _Codec:
    """Small-int codes for the traces of one oracle check.

    The actions are ranked by `Action.sort_key`, and the step (action, t) is
    the int `rank * width + t`, where `width` exceeds every thread index.  So
    tuples of codes hash as tuples of ints and sort exactly as `trace_key`
    sorts the traces they stand for.  Per-code tables answer what the inner
    loops ask of a step, and per-rank lock bits what the shuffle asks of a
    local word (`gates`); rendezvous state sets are numbered, so a shuffle
    state is an int; `relation` turns a commutativity relation into a flat
    table over pairs of ranks.
    """

    def __init__(self, actions: Iterable[Action], max_thread: int):
        self.actions = sorted(set(actions), key=Action.sort_key)
        self.rank = {a: r for r, a in enumerate(self.actions)}
        self.width = width = max_thread + 1
        pairs = [(a, t) for a in self.actions for t in range(width)]
        self.pairs = pairs  # code -> (action, thread)
        # kept by `project_plain`
        self.plain = [not a.is_sync for a, _ in pairs]
        # per code, the step as a trace, and its projection
        self.steps = [(c,) for c in range(len(pairs))]
        self.projected = [(c,) if keep else () for c, keep in enumerate(self.plain)]
        # counted against the local length bound (all but rendezvous steps)
        self.counted = [a.kind is not _SYNC_POINT for a, _ in pairs]
        bit = {m: 1 << k for k, m in enumerate(sorted({a.lock for a in self.actions if a.lock}))}
        # per rank, the lock bit an acquire takes and the bit a release gives back
        self.acquires = [bit[a.lock] if a.kind is _ACQUIRE else 0 for a in self.actions]
        self.releases = [bit[a.lock] if a.kind is _RELEASE else 0 for a in self.actions]
        self._gates: dict[tuple[int, ...], tuple[int, list[int], list[int]]] = {}
        self._tables: dict[tuple[int, ...], list[int]] = {}
        # rendezvous state sets, named by small ints; 0 names the empty set
        self.barrier_sets: list[frozenset] = [frozenset()]
        self._barrier_ids: dict[frozenset, int] = {frozenset(): 0}
        self._barrier_next: list[dict[int, int]] = [{}]

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
        """Code map under which thread j+1 plays thread perm.index(j)+1,
        worked out once per permutation."""
        table = self._tables.get(perm)
        if table is None:
            width = self.width
            slot = list(range(width))
            for j in range(len(perm)):
                slot[j + 1] = perm.index(j) + 1
            table = [c - c % width + slot[c % width] for c in range(len(self.pairs))]
            self._tables[perm] = table
        return table

    def gates(self, word: tuple[int, ...]) -> tuple[int, list[int], list[int]]:
        """The lock gates of a ranked local word, worked out once per word:
        how many of its steps can ever run, and per step the lock bit that
        must be free (an acquire's) and the bit the step flips in the held
        mask.  A thread holds what its own prefix acquired and did not
        release, so a release of a lock it does not hold, or an acquire of
        one it holds, blocks it for good."""
        out = self._gates.get(word)
        if out is None:
            acquires, releases = self.acquires, self.releases
            held, need, flip = 0, [], []
            for r in word:
                if acquires[r] & held or releases[r] & ~held:
                    break
                need.append(acquires[r])
                flip.append(acquires[r] | releases[r])
                held ^= flip[-1]
            out = self._gates[word] = (len(need), need, flip)
        return out

    def barrier_id(self, states: frozenset) -> int:
        """The int that names a set of rendezvous states."""
        bid = self._barrier_ids.get(states)
        if bid is None:
            bid = self._barrier_ids[states] = len(self.barrier_sets)
            self.barrier_sets.append(states)
            self._barrier_next.append({})
        return bid

    def barrier_step(self, bid: int, code: int) -> int:
        """`_BarrierMachine.step` on named state sets, remembered per set
        and step; 0 when the step is infeasible."""
        row = self._barrier_next[bid]
        nxt = row.get(code)
        if nxt is None:
            rendezvous = not self.counted[code]
            states = _BarrierMachine.step(self.barrier_sets[bid], rendezvous, code % self.width)
            nxt = row[code] = self.barrier_id(states)
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
    steps from different threads: the traces' steps sorted by thread must
    agree, as in `_representative_check`, and then `_covered` decides."""
    codec = _trace_codec([src, dst])
    width = codec.width
    coded_src, coded_dst = codec.encode(src), codec.encode(dst)
    if sorted(coded_src, key=width.__rmod__) != sorted(coded_dst, key=width.__rmod__):
        return False
    return _covered(coded_src, coded_dst, width, len(codec.actions), codec.relation(i))


# l1 as the representative check reads it: coded traces bucketed by key,
# a trace's steps sorted by thread, which stand for its per-thread words
_Buckets = dict[tuple[int, ...], set[tuple[int, ...]]]

# l2 as the representative check reads it: a function that gives its
# traces less those of l1, in code order, and one that gives the traces of
# an l1 bucket that are not in l2
_Ordered = tuple[
    Callable[[Mapping[tuple[int, ...], AbstractSet[tuple[int, ...]]]], Iterable[tuple[int, ...]]],
    Callable[[tuple[int, ...], AbstractSet[tuple[int, ...]]], AbstractSet[tuple[int, ...]]],
]


def _bucketed(width: int, traces: Iterable[tuple[int, ...]]) -> _Buckets:
    """Coded traces bucketed by key, keyed one trace at a time."""
    by_thread = width.__rmod__
    out: _Buckets = {}
    for tr in traces:
        out.setdefault(tuple(sorted(tr, key=by_thread)), set()).add(tr)
    return out


def _representative_check(codec: _Codec, l1: _Buckets, l2: _Ordered, comm: list[bool]) -> MazResult:
    """`is_mazurkiewicz_reduction` on coded traces; only the counterexample
    is decoded.  l2 is read in code order up to its first trace without a
    representative, which is therefore the least one."""
    minus, outside = l2
    width, n = codec.width, len(codec.actions)
    stray = [cand for key, cands in l1.items() for cand in outside(key, cands)]
    if stray:
        return MazResult(False, codec.decode(min(stray)), "reduced set is not a subset")
    by_thread = width.__rmod__
    for tr in minus(l1):
        if not any(
            _covered(tr, cand, width, n, comm)
            for cand in l1.get(tuple(sorted(tr, key=by_thread)), ())
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
    on the given finite sets is never inconclusive.  `l2` is sorted and
    read in that order, so the counterexample is the least failing trace in
    `trace_key` order.
    """
    l1, l2 = list(l1), list(l2)
    codec = _trace_codec(itertools.chain(l1, l2))
    buckets, coded = _bucketed(codec.width, map(codec.encode, l1)), frozenset(map(codec.encode, l2))
    reader = (lambda l1: sorted(coded.difference(*l1.values())), lambda _key, cands: cands - coded)
    return _representative_check(codec, buckets, reader, codec.relation(i))


# -- interleaving enumeration -------------------------------------------------


def _local_traces(
    t: ThreadTemplate, bounds: Bounds, budget: "Optional[_Budget]" = None
) -> list[tuple[Action, ...]]:
    """All init-to-exit words with at most `max_local_len` non-rendezvous
    steps; rendezvous steps get a structural allowance on top."""
    sync_edges = sum(1 for e in t.edges if e.action.kind is _SYNC_POINT)
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
            if e.action.kind is _SYNC_POINT:
                if sync_n + 1 > sync_cap:
                    continue
                stack.append((e.dst, word + (e.action,), plain_n, sync_n + 1))
            else:
                if plain_n + 1 > bounds.max_local_len:
                    continue
                stack.append((e.dst, word + (e.action,), plain_n + 1, sync_n))
    return sorted(words, key=lambda w: (len(w), [a.sort_key() for a in w]))


class _Budget:
    """A cap on the work of one search, counted in `unit`s."""

    def __init__(self, cap: int, what: str, unit: str = "steps"):
        self.cap = cap
        self.used = 0
        self.what = what
        self.unit = unit

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.cap:
            raise DepthExceeded(
                f"{self.what} exceeded {self.cap} {self.unit}",
                what=self.what,
                cap=self.cap,
                used=self.used,
            )


def enumerate_interleavings(
    p: ParameterizedProgram,
    bounds: Bounds,
    *,
    keep_sync: bool = False,
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
    budget = _Budget(bounds.max_enum_nodes, "interleaving enumeration")
    plan = _plan_interleavings(codec, p, bounds, keep_sync, budget)
    return frozenset(map(codec.decode, _build_interleavings(codec, plan)))


# the start state and, per level, the moves (state, code, next state) that
# lie on an accepted path; a state is an int (see `_shuffle_graph`)
_MoveDag = tuple[int, list[list[tuple[int, int, int]]]]


# one shuffled multiset of local words: the ranked words (thread j+1 runs
# the j-th), its move DAG (None for a synchronization-free shuffle, whose
# DAG `_move_dag` builds when it is read), its trace count (the accepted
# paths, or the traces the plan built), its traces when the plan had to
# build them, the thread permutations that relabel them into the other
# arrangements, and whether building drops synchronization steps; the
# reduced program's plan is read by `_reduced_buckets` a shuffle at a time
_Planned = tuple[tuple[tuple[int, ...], ...], Optional[_MoveDag], int, Optional[set], list, bool]


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
    traces, and the trace count is the path count.  A multiset of words
    without lock or rendezvous steps has every interleaving feasible, so
    its counts come from its word lengths alone (`_plain_charge`) and its
    move DAG is left for `_move_dag` to build when a trace is wanted; the
    others are searched (`_shuffle_graph`).  The one exception to counting
    is a shuffle whose traces lose synchronization steps to the projection
    and that has relabellings: paths can then collapse, so its traces are
    built here to be counted (and kept for the build).
    """
    words = [codec.ranks(w) for w in _local_traces(p.template, bounds, budget)]
    use_locks = p.sync_kind is not SyncKind.TRIVIAL
    use_barrier = p.sync_kind is SyncKind.LOCKS_AND_SYNC_POINTS
    width, keep = codec.width, codec.plain
    plain = [all(keep[r * width] for r in w) for w in words]
    lossy = [not keep_sync and not flag for flag in plain]
    plan: list[_Planned] = []
    # the synchronization predicates are invariant under thread renaming, so
    # each multiset of local words is shuffled once and relabeled
    for k in range(1, bounds.max_threads + 1):
        for combo in itertools.combinations_with_replacement(range(len(words)), k):
            assignment = tuple(words[j] for j in combo)
            dag: Optional[_MoveDag] = None
            if all(plain[j] for j in combo):
                nodes, paths = _plain_charge(tuple(sorted(map(len, assignment))))
            else:
                nodes, paths, dag = _shuffle_graph(codec, assignment, use_locks, use_barrier)
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
            plan.append((assignment, dag, paths, base, perms, project))
    return plan


@functools.cache
def _plain_charge(lengths: tuple[int, ...]) -> tuple[int, int]:
    """`_shuffle_graph`'s node charge and path count for words of these
    lengths without lock or rendezvous steps: every prefix is feasible, so
    the charge is the sum over step-count vectors p <= lengths of the
    multinomial of p, and the path count the multinomial of the lengths.
    `ways[n]` sums the multinomials of the vectors of the threads so far
    that take n steps; a thread of length m joins by choosing which q <= m
    of n steps are its own."""
    ways = [1]
    for m in lengths:
        ways = [
            sum(math.comb(n, q) * ways[n - q] for q in range(min(n, m) + 1) if n - q < len(ways))
            for n in range(len(ways) + m)
        ]
    return sum(ways), ways[-1]


def _move_dag(codec: _Codec, entry: _Planned) -> _MoveDag:
    """A planned shuffle's move DAG; a synchronization-free one is built on
    first need (no lock or rendezvous can block its steps)."""
    assignment, dag = entry[0], entry[1]
    return dag if dag is not None else _shuffle_graph(codec, assignment, False, False)[2]


def _arrangements(codec: _Codec, entry: _Planned) -> list[tuple[tuple[int, ...], list[int]]]:
    """Each arrangement of a planned shuffle's words, the base one first:
    its key (its threads' steps, thread by thread) and the code map that
    relabels the shuffle's traces into it."""
    assignment, perms, width = entry[0], entry[4], codec.width
    return [
        # thread i runs the word of base thread perm[i-1] + 1
        (tuple(r * width + i for i, j in enumerate(perm, 1) for r in assignment[j]), codec.relabel_table(perm))
        for perm in (tuple(range(len(assignment))), *perms)
    ]


def _build_interleavings(codec: _Codec, plan: list[_Planned]) -> set[tuple[int, ...]]:
    """The traces of a plan: each shuffle built from its move DAG (unless
    the plan already built it) and relabelled into its other arrangements."""
    out: set[tuple[int, ...]] = {()}
    for entry in plan:
        _, _, _, base, perms, project = entry
        if base is None:
            base = _shuffle_traces(codec, _move_dag(codec, entry), project)
        out |= base
        for perm in perms:
            relabel = codec.relabel_table(perm).__getitem__
            out.update(tuple(map(relabel, tr)) for tr in base)
    return out


def _ordered_interleavings(codec: _Codec, plan: list[_Planned]) -> _Ordered:
    """The traces of a projected plan (`_build_interleavings`), in code
    order and with a membership test, without building them all.

    A shuffle that keeps all its steps has no synchronization step, so
    every interleaving of an arrangement's words is a trace: a trace is one
    of them exactly when its steps sorted by thread (its key) are the
    words' steps.  An arrangement whose interleavings all lie in l1 (as
    many l1 traces have its key) is passed over; the others' traces come
    in code order from a depth-first walk of the move DAG that takes each
    state's moves in ascending (relabelled) code, less its key's l1
    bucket.  A shuffle that drops steps is built and sorted, since its
    paths can collapse and its traces need not come in code order.  The
    walks and the built traces are merged, and a trace met twice is read
    once.
    """
    built = _build_interleavings(codec, [entry for entry in plan if entry[-1]])  # lossy ones
    keys = set()
    # (plan entry, interleavings of each arrangement, their keys and relabellings)
    shuffles = []
    for entry in plan:
        _, _, count, _, _, project = entry
        if project:
            continue
        arranged = _arrangements(codec, entry)
        keys.update(key for key, _ in arranged)
        shuffles.append((entry, count, arranged))

    def minus(l1: Mapping[tuple[int, ...], AbstractSet[tuple[int, ...]]]) -> Iterator[tuple[int, ...]]:
        walks = []
        for entry, count, arranged in shuffles:
            todo = [(relabel, have) for key, relabel in arranged if len(have := l1.get(key, ())) < count]
            if todo:
                start, moves_by_level = _move_dag(codec, entry)
                out: dict[int, list[tuple[int, int]]] = {}
                for moves in moves_by_level:
                    for state, c, to in moves:
                        out.setdefault(state, []).append((c, to))
                walks += (
                    itertools.filterfalse(have.__contains__, _walk(out, start, relabel))
                    for relabel, have in todo
                )
        merged = heapq.merge(sorted(built.difference(*l1.values())), *walks)
        return (tr for tr, _ in itertools.groupby(merged))

    return minus, lambda key, cands: set() if key in keys else cands - built


def _walk(
    out: dict[int, list[tuple[int, int]]], start: int, relabel: list[int]
) -> Iterator[tuple[int, ...]]:
    """The paths of a move DAG (`out`: each state's moves as (code, next
    state)) from `start`, relabelled, in code order: depth first, with each
    state's moves sorted once, when it is first entered."""
    by_state: dict[int, list[tuple[int, int]]] = {}
    trail: list[int] = []
    stack = [iter(sorted((relabel[c], to) for c, to in out.get(start, ())))]
    while stack:
        for c, to in stack[-1]:
            trail.append(c)
            moves = by_state.get(to)
            if moves is None:
                moves = by_state[to] = sorted((relabel[c], nxt) for c, nxt in out.get(to, ()))
            if moves:
                stack.append(iter(moves))
                break
            yield tuple(trail)
            trail.pop()
        else:
            stack.pop()
            if trail:
                trail.pop()


def _both_interleavings(
    codec: _Codec,
    original: ParameterizedProgram,
    reduced: ParameterizedProgram,
    blocks: Iterable[tuple[Action, ThreadTemplate]],
    keep_sync: bool,
    bounds: Bounds,
    budget: _Budget,
) -> tuple[_Ordered, _Buckets]:
    """The original program's interleavings (projected, in code order) and
    the reduced program's, expanded, projected and bucketed: l2 is planned,
    then l1, then l1's block expansion is charged (`_reduced_buckets`); l1
    is built only when all of it fits the budget, so a check that runs out
    builds no trace."""
    plan2 = _plan_interleavings(codec, original, bounds, False, budget)
    plan1 = _plan_interleavings(codec, reduced, bounds, keep_sync, budget)
    return _ordered_interleavings(codec, plan2), _reduced_buckets(codec, plan1, blocks, bounds, budget)


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
    taken, and the rendezvous state set.  A state is keyed by one int, the
    step counts packed mixed-radix plus the rendezvous set's number
    (`_Codec.barrier_id`) times the radix product; its step counts and held
    locks are worked out once, when it is first reached.  A thread holds
    what its own prefix acquired and did not release, so each word's lock
    gates (`_Codec.gates`) say how far it can ever run and which lock each
    step needs free, and a state keeps one mask of the locks its threads
    hold.  The node charge is one step per feasible prefix (the node count
    of a depth-first search over them), counted as the number of paths
    into each state; no trace is built.
    """
    k = len(assignment)
    width = codec.width
    steps = [tuple(r * width + j for r in w) for j, w in enumerate(assignment, 1)]
    lengths = [len(w) for w in steps]
    if use_locks:
        limits, needs, flips = zip(*map(codec.gates, assignment))
    else:
        free = [0] * max(lengths)
        limits, needs, flips = lengths, [free] * k, [free] * k
    radix = _radix(lengths)
    size = radix[-1] * (lengths[-1] + 1)
    barrier_step = codec.barrier_step

    bid = codec.barrier_id(_BarrierMachine(frozenset(range(1, k + 1))).start) if use_barrier else 0
    start = bid * size
    level = {start: 1}
    # per state of the level: the steps each thread has taken, the locks
    # held and the rendezvous set's number (0 without rendezvous)
    facts = {start: ((0,) * k, 0, bid)}
    nodes = 1
    moves_by_level = []
    for _ in range(sum(lengths)):
        nxt: dict[int, int] = {}
        nxt_facts = {}
        moves = []
        for state, paths in level.items():
            pos, held, bid = facts[state]
            for j in range(k):
                p = pos[j]
                if p == limits[j] or needs[j][p] & held:
                    continue
                c = steps[j][p]
                to = state + radix[j]
                after = 0
                if bid:
                    after = barrier_step(bid, c)
                    if not after:
                        continue
                    to += (after - bid) * size
                if to in nxt:
                    nxt[to] += paths
                else:
                    nxt[to] = paths
                    # threads hold disjoint locks, so the step flips its own bit
                    nxt_facts[to] = (pos[:j] + (p + 1,) + pos[j + 1 :], held ^ flips[j][p], after)
                moves.append((state, c, to))
        moves_by_level.append(moves)
        level, facts = nxt, nxt_facts
        nodes += sum(nxt.values())

    # every state of the last level has taken every step; keep only the
    # moves that lead to an accepted one
    sets = codec.barrier_sets
    alive = {s for s in level if not facts[s][2] or _BarrierMachine.accepting(sets[facts[s][2]])}
    accepted = sum(level[s] for s in alive)
    for moves in reversed(moves_by_level):
        moves[:] = [m for m in moves if m[2] in alive]
        alive = {m[0] for m in moves}
    return nodes, accepted, (start, moves_by_level)


def _radix(lengths: Sequence[int]) -> list[int]:
    """The place value of each thread's step count in a packed shuffle
    state, for words of these lengths (see `_shuffle_graph`)."""
    return list(itertools.accumulate((n + 1 for n in lengths[:-1]), int.__mul__, initial=1))


def _shuffle_traces(codec: _Codec, dag: _MoveDag, project: bool) -> set[tuple[int, ...]]:
    """The build pass: every trace along the move DAG, with synchronization
    steps dropped when `project` is set."""
    return _dag_traces(dag, codec.projected if project else codec.steps)


def _dag_traces(dag: _MoveDag, labels: Sequence[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Every path of a move DAG spelt, level by level: a move (state, x,
    next state) spells `labels[x]`, a tuple of codes that may be empty."""
    start, moves_by_level = dag
    prefixes: dict = {start: {()}}
    for moves in moves_by_level:
        grown: dict = {}
        for state, x, to in moves:
            before = prefixes[state]
            label = labels[x]
            longer = {tr + label for tr in before} if label else before
            into = grown.get(to)
            if into is not None:
                into |= longer
            else:  # a set of the level before is shared, never grown in place
                grown[to] = set(before) if longer is before else longer
        prefixes = grown
    return set().union(*prefixes.values())


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
            (codec.ranks(w), sum(a.kind is not _SYNC_POINT for a in w))
            for w in _local_traces(body, bounds)
        ]
        for t in range(width):
            out[codec.rank[sym] * width + t] = [
                (tuple(r * width + t for r in w), n) for w, n in words
            ]
    return out


def _reduced_buckets(
    codec: _Codec,
    plan: list[_Planned],
    blocks: Iterable[tuple[Action, ThreadTemplate]],
    bounds: Bounds,
    budget: _Budget,
) -> _Buckets:
    """l1, bucketed by key: the plain projections of the block expansions
    of a plan's traces that keep each thread within the local bound,
    without building, expanding or keying one trace at a time.  The traces
    of a shuffle have the same words, so the same choices of block words,
    and an arrangement only renames threads: each shuffle is charged at
    once, before anything is built, one step per trace (paths times
    arrangements) and choice; each choice that fits (in one arrangement,
    so in all) has its traces built once (`_expanded_shuffle`); and each
    arrangement's key is worked out once and its traces relabelled."""
    block_words = _block_words(codec, blocks, bounds)
    width = codec.width
    for assignment, _, paths, _, perms, _ in plan:
        choices = [len(block_words[r * width]) for w in assignment for r in w if r * width in block_words]
        if choices:
            # as many unit steps: running out stops one step past the cap
            budget.spend(min(paths * (1 + len(perms)) * math.prod(choices), budget.cap + 1 - budget.used))
    projected = {c: [(codec.project(w), n) for w, n in words] for c, words in block_words.items()}
    by_thread = width.__rmod__
    buckets: _Buckets = {(): {()}}
    for entry in plan:
        if not entry[2]:  # no trace
            continue
        tables = [codec.relabel_table(perm).__getitem__ for perm in entry[4]]
        for key, traces in _expanded_shuffle(codec, entry, projected, bounds):
            buckets.setdefault(key, set()).update(traces)
            for relabel in tables:
                arranged = tuple(sorted(map(relabel, key), key=by_thread))
                buckets.setdefault(arranged, set()).update(tuple(map(relabel, tr)) for tr in traces)
    return buckets


def _expanded_shuffle(
    codec: _Codec, entry: _Planned, projected: BlockWords, bounds: Bounds
) -> Iterator[tuple[tuple[int, ...], set[tuple[int, ...]]]]:
    """The key and projected traces of a planned shuffle's base arrangement
    for each choice of `projected` block words that fits the local bound.
    Without block slots, that is its projected traces (or those its plan
    built).  Otherwise each step is labelled, projected, and a choice puts
    its words in its slots' labels: the key is the labels in thread order,
    the traces are spelt along the move DAG (`_dag_traces`), a move's step
    found once per shuffle from its thread and that thread's step count,
    read mixed-radix from its source state."""
    assignment, _, _, base, _, _ = entry
    width, counted = codec.width, codec.counted
    steps = [tuple(r * width + j for r in w) for j, w in enumerate(assignment, 1)]
    flat = list(itertools.chain.from_iterable(steps))
    slots = [x for x, c in enumerate(flat) if c in projected]
    if not slots:
        traces = base if base is not None else _shuffle_traces(codec, _move_dag(codec, entry), True)
        yield codec.project(tuple(flat)), traces
        return
    # per thread, the non-rendezvous steps its block words may take
    room = [bounds.max_local_len - sum(counted[c] for c in w if c not in projected) for w in steps]
    fits = []
    for choice in itertools.product(*(projected[flat[x]] for x in slots)):
        left = list(room)
        for x, (_, n) in zip(slots, choice):
            left[flat[x] % width - 1] -= n
        if min(left) >= 0:
            fits.append([word for word, _ in choice])
    if not fits:
        return
    start, moves_by_level = _move_dag(codec, entry)
    lengths = list(map(len, steps))
    radix, offset = _radix(lengths), list(itertools.accumulate(lengths[:-1], initial=0))
    numbered = []  # the moves with their steps' places in `flat`
    for moves in moves_by_level:
        row = []
        for s, c, to in moves:
            j = c % width - 1
            row.append((s, offset[j] + s // radix[j] % (lengths[j] + 1), to))
        numbered.append(row)
    labels = [codec.projected[c] for c in flat]
    for words in fits:
        for x, word in zip(slots, words):
            labels[x] = word
        yield tuple(itertools.chain.from_iterable(labels)), _dag_traces((start, numbered), labels)


# The last program pair's enumeration, as one (key, result) tuple that is
# read once.  The key holds the original and reduced templates and the
# blocks themselves, matched by identity (so a deep copy never shares an
# enumeration, and an id is never reused while it is kept), plus
# `keep_sync` and the bounds.  The result is (codec, l2, l1), or the
# (what, cap, used) of the budget the enumeration ran out of.
_last_enumeration: Optional[tuple] = None


def _enumeration(
    original: ThreadTemplate,
    reduced: ThreadTemplate,
    blocks: tuple[tuple[Action, ThreadTemplate], ...],
    keep_sync: bool,
    bounds: Bounds,
) -> tuple[_Codec, _Ordered, _Buckets]:
    """The relation-free half of `_compare`: the codec, both plans, l1
    (built, expanded and bucketed) and the l2 reader.  Raises DepthExceeded.  The
    last pair's result is kept, so a second check of the same objects
    under another relation reuses it; a kept over-budget result is spent
    again through a fresh budget, so it raises with the same note, cap
    and figure.  Nothing else that is raised is kept."""
    global _last_enumeration
    key = (original, reduced, blocks, keep_sync, bounds)
    last = _last_enumeration
    if last is not None:
        (o, r, b, k, bd), result = last
        if o is original and r is reduced and b is blocks and (k, bd) == (keep_sync, bounds):
            if isinstance(result[0], str):
                what, cap, used = result
                _Budget(cap, what).spend(used)
            return result
    _last_enumeration = None  # freed before the new enumeration grows
    templates = (original, reduced, *(body for _, body in blocks))
    codec = _Codec(itertools.chain.from_iterable(t.alphabet for t in templates), bounds.max_threads)
    budget = _Budget(bounds.max_enum_nodes, "interleaving enumeration")
    try:
        l2, l1 = _both_interleavings(
            codec,
            ParameterizedProgram(original, infer_sync_kind(original)),
            ParameterizedProgram(reduced, infer_sync_kind(reduced)),
            blocks,
            keep_sync,
            bounds,
            budget,
        )
    except DepthExceeded as exc:
        _last_enumeration = (key, (exc.what, exc.cap, exc.used))
        raise
    _last_enumeration = (key, (codec, l2, l1))
    return codec, l2, l1


def _compare(
    original: ThreadTemplate,
    reduced: ThreadTemplate,
    blocks: tuple[tuple[Action, ThreadTemplate], ...],
    keep_sync: bool,
    i: CommutativityRelation,
    bounds: Bounds,
) -> Verdict:
    """The one bounded comparison behind every oracle check: each
    interleaving of `original` needs a representative among those of
    `reduced`.  With `keep_sync` the reduced traces keep their
    synchronization steps for the length accounting of block expansion,
    then are expanded through `blocks` and projected.  The reduced traces
    are not built, expanded or keyed one by one: each shuffle's are built
    once per choice of block words that fits the local bound, expanded and
    projected, then relabelled into each arrangement, whose key is worked
    out once, and l1 comes bucketed by key.  The original's are walked in
    code order up to the first one without a representative, so the
    witness is the least such trace.  The budget is charged as it was when
    both were built trace by trace: both enumerations in full, as planned,
    then block expansion, each reduced trace its count of choices of block
    words, charged per shuffle.  Only the representative check reads the
    relation: the last program pair's enumeration is kept (`_enumeration`),
    so a second relation on the same pair re-runs only the representative
    check."""
    try:
        codec, l2, l1 = _enumeration(original, reduced, blocks, keep_sync, bounds)
    except DepthExceeded as exc:
        return Verdict(INCONCLUSIVE, bounds=bounds, notes=(str(exc),))
    maz = _representative_check(codec, l1, l2, codec.relation(i))
    if maz.value:
        return Verdict(SOUND, bounds=bounds, notes=("sound within bounds",))
    return Verdict(UNSOUND, witness=maz.counterexample, bounds=bounds, notes=(maz.reason,))


def oracle_check_atomic(
    t: Optional[ThreadTemplate],
    f: AtomicFusion,
    i: CommutativityRelation,
    bounds: Bounds,
) -> Verdict:
    """Bounded ground truth for fusion soundness: compare the expanded
    atomic interleavings against all interleavings of the original."""
    original = t if t is not None else substitute_blocks(f)
    return _compare(original, f.outer, f.blocks, True, i, bounds)


def oracle_check_sync(
    inst: SyncPointInstrumentation,
    i: CommutativityRelation,
    bounds: Bounds,
) -> Verdict:
    """Bounded ground truth for instrumentation soundness."""
    return _compare(inst.base, inst.instrumented, (), False, i, bounds)


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
    original = t if t is not None else substitute_blocks(fusion)
    if spec.instrumentation is not None:
        reduced = spec.instrumentation.instrumented
    else:
        reduced = fusion.outer if fusion is not None else original
    blocks = fusion.blocks if fusion is not None else ()
    return _compare(original, reduced, blocks, True, i, bounds)


# -- coverability -------------------------------------------------------------


def bounded_coverability(
    p: ParameterizedProgram,
    c: Configuration,
    bounds: Bounds,
) -> tuple[bool, Optional[IndexedTrace]]:
    """Explicit-state search for a reachable configuration covering `c`.

    Exact under the lock semantics (no length bound applies); each state
    discovered is charged to `max_cover_states`.  The witness is the full
    synchronization-feasible indexed trace.  Rendezvous programs are out of
    scope here; the rendezvous gadgets are checked through the interleaving
    oracle instead.  Three reductions keep every answer and the length of
    the shortest witness:

    - It runs `len(c)` threads, not `max_threads`: a thread can only block
      the others' acquires, so the threads that end on `c` in a covering
      run cover it alone, and added idle threads leave a run covering.
    - So every thread of a covering state sits on a location of `c`, and no
      move enters a dead (location, held locks) pair, from which no location
      of `c` is reachable alone.
    - In each state the first thread off `c` whose every move is a plain
      step, a release, or an acquire of a free lock that no other thread
      can still acquire on its way to `c` moves alone.  It must move before
      any covering state, and its first move commutes with every move of
      the others before it, so it can go first in a run of the same length.

    Each (location, held-locks) pair one thread reaches alone is numbered
    in (location, sorted locks) order.  A state is the multiset of its
    threads' numbers, keyed by one int whose slot k (`len(c).bit_length()`
    bits wide) counts the threads at pair k, so a move adds and subtracts a
    slot weight; the sorted tuple of numbers is built once per state, when
    it is discovered and tested for the goal.  Only the witness is decoded.
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
    n = len(c)
    goal = Counter(c)
    budget = _Budget(bounds.max_cover_states, "coverability search", "states")

    def solo(loc: str, locks: frozenset) -> Iterator[tuple[Action, tuple]]:
        for e in t.successors.get(loc, ()):
            a = e.action
            if a.lock is None:
                yield a, (e.dst, locks)
            elif a.kind is _ACQUIRE and a.lock not in locks:  # not even its own
                yield a, (e.dst, locks | {a.lock})
            elif a.kind is _RELEASE and a.lock in locks:
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
    # the goal as (location number, threads needed) and each pair's location number
    place = {loc: k for k, loc in enumerate(goal)}
    need = [(place[loc], count) for loc, count in goal.items()]
    at = [place.get(loc, -1) for loc, _ in pairs]
    # a move: (lock bit that must be free, target, step); a step: (action, source, target)
    steps = [(a, ident[q], ident[r]) for q in pairs for a, r in solo_moves[q]]
    moves: list[list[tuple[int, int, int]]] = [[] for _ in pairs]
    for number, (a, src, dst) in enumerate(steps):
        moves[src].append((bit[a.lock] if a.kind is _ACQUIRE else 0, dst, number))
    # whether a pair reaches the goal alone, and the locks it can acquire on the way
    live = [loc >= 0 for loc in at]
    grab = [0] * len(pairs)
    changed = True
    while changed:
        changed = False
        for k, out in enumerate(moves):
            for free, dst, _ in out:
                if live[dst] and (not live[k] or grab[k] | free | grab[dst] != grab[k]):
                    live[k], grab[k], changed = True, grab[k] | free | grab[dst], True
    moves = [[m for m in out if live[m[1]]] for out in moves]
    own = [functools.reduce(int.__or__, (free for free, _, _ in out), 0) for out in moves]
    # a state is also one int: slot k counts the threads at pair k
    slot = n.bit_length()
    weight = [1 << (k * slot) for k in range(len(pairs))]
    # for each pair, the key slots of the pairs that can still take a lock its moves take
    full = (1 << slot) - 1
    clash = [sum(full * weight[q] for q in range(len(pairs)) if grab[q] & locks) for locks in own]
    start = (ident[init],) * n
    start_key = n * weight[ident[init]]
    parents = {start_key: -1}  # state key -> the number of the step that found it

    def covered(state: tuple[int, ...]) -> bool:
        counts = [0] * len(need)
        for k in state:
            if at[k] >= 0:
                counts[at[k]] += 1
        return all(counts[loc] >= count for loc, count in need)

    def search() -> Optional[int]:
        queue = deque([(start_key, start, 0)])  # and the locks held
        while queue:
            key, state, held = queue.popleft()
            movers = enumerate(state)
            for i, k in enumerate(state):
                if at[k] < 0 and not (own[k] & held or (key - weight[k]) & clash[k]):
                    movers = ((i, k),)  # it moves alone
                    break
            last = -1
            for i, k in movers:
                if k == last:  # the state is sorted: a repeated pair moves alike
                    continue
                last = k
                gone = key - weight[k]
                for free, dst, number in moves[k]:
                    if free & held:
                        continue
                    nxt_key = gone + weight[dst]
                    if nxt_key in parents:
                        continue
                    parents[nxt_key] = number
                    budget.spend()
                    nxt = tuple(sorted(state[:i] + state[i + 1 :] + (dst,)))
                    # the state it came from covers nothing, so only a
                    # thread entering a goal location can cover
                    if at[dst] >= 0 and covered(nxt):
                        return nxt_key
                    # the masks of a state's threads are disjoint
                    queue.append((nxt_key, nxt, held - mask[k] + mask[dst]))
        return None

    cur = start_key if covered(start) else search()
    if cur is None:
        return False, None
    path: list[int] = []
    while parents[cur] >= 0:
        path.append(parents[cur])
        _, src, dst = steps[path[-1]]
        cur += weight[src] - weight[dst]
    # replay, assigning concrete thread indices to the anonymous states
    assignment, trace = list(start), []
    for number in reversed(path):
        a, src, dst = steps[number]
        tid = assignment.index(src)
        assignment[tid] = dst
        trace.append((a, tid + 1))
    return True, tuple(trace)
