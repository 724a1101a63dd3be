"""Polynomial-time soundness checks for atomic blocks and rendezvous points.

The atomic-block check works on the escape relation: a chain of conflicts and
(forward or in-block reverse) program order that forces an action interleaved
inside a block to stay there.  A fusion is unsound exactly when two positions
of one block trace are linked by such a chain; the check runs on strongly
connected components of each block body, so loops never have to be unrolled.

The rendezvous check compares, per action, the least and greatest number of
rendezvous steps that can precede it (the greatest may be infinite when a
rendezvous sits on a pumpable loop).  An instrumentation is sound when every
pair that can be phase-separated commutes backwards.

Lock edges are not interpreted here.  When present, they are conservatively
replaced by fresh pairwise-distinct actions that commute with nothing; for
atomic blocks the resulting "sound" answer is a certificate that survives the
concrete lock semantics (the replacement actions are never reordered, so
covering reorders preserve lock feasibility), and the verdict is flagged
accordingly.  For rendezvous instrumentations of lock programs the pairwise
check is not decision-grade at all and the verdict carries a
"not applicable" flag; use the bounded oracle there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional

from . import graphs
from .model import (
    Action,
    ActionKind,
    AtomicFusion,
    CommutativityRelation,
    Edge,
    InconsistentInputs,
    ModelError,
    SyncPointInstrumentation,
    NaturalReductionSpec,
    ThreadTemplate,
    plain,
    substitute_blocks,
)

SOUND = "sound"
UNSOUND = "unsound"
INCONCLUSIVE = "inconclusive"

FLAG_LOCK_ABSTRACTION = "lock-abstraction:sound-only-certificate"
FLAG_SYNC_NOT_APPLICABLE = "sync-check-not-applicable-under-locks"

PROGRAM_ORDER = "program-order"
ATOMIC_ORDER = "atomic-order"
CONFLICT = "conflict"

_LOCK_KINDS = frozenset({ActionKind.ACQUIRE, ActionKind.RELEASE})
_SYNC_KINDS = _LOCK_KINDS | {ActionKind.SYNC_POINT}


class ActionUnreachable(ModelError):
    """The action labels no edge on any init-to-exit path."""


@dataclass(frozen=True)
class ChainLink:
    kind: str  # CONFLICT | PROGRAM_ORDER | ATOMIC_ORDER
    source: Action
    target: Action

    def __str__(self) -> str:
        arrow = {CONFLICT: "#", PROGRAM_ORDER: "->", ATOMIC_ORDER: "~>"}[self.kind]
        return f"{self.source} {arrow} {self.target}"


@dataclass(frozen=True)
class FusionWitness:
    """Evidence that one block trace cannot be kept atomic.

    `body_trace[i-1]` and `body_trace[j-1]` (1-based i < j) are linked by
    `chain`, which alternates conflict steps with program-order or in-block
    reverse-order steps.  `scc_source`/`scc_target` are the component edges
    the algorithm matched.
    """

    block: Action
    body_trace: tuple[Action, ...]
    i: int
    j: int
    chain: tuple[ChainLink, ...]
    scc_source: tuple[Edge, ...]
    scc_target: tuple[Edge, ...]

    @property
    def inner_pairs(self) -> tuple[tuple[str, Action, Action], ...]:
        """The (kind, a_r, b_r) order steps of the chain, in order."""
        return tuple(
            (l.kind, l.source, l.target) for l in self.chain if l.kind != CONFLICT
        )


@dataclass(frozen=True)
class PathWitness:
    prefix: tuple[Action, ...]
    action: Action
    sync_count: int
    pumped: bool = False


@dataclass(frozen=True)
class SyncWitness:
    """A phase-order pair (a, b) whose reverse does not commute.

    `path_a` reaches `a` past the fewest possible rendezvous steps, `path_b`
    reaches `b` past strictly more (`pumped` when that count is unbounded).
    """

    pair: tuple[Action, Action]
    path_a: PathWitness
    path_b: PathWitness


@dataclass(frozen=True)
class Verdict:
    result: str
    witness: Optional[object] = None
    checked_conditions: tuple[tuple[str, "Verdict"], ...] = ()
    flags: tuple[str, ...] = ()
    bounds: Optional[object] = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.result == UNSOUND and self.witness is None:
            raise ValueError("unsound verdicts must carry a witness")

    @property
    def is_sound(self) -> bool:
        return self.result == SOUND

    @property
    def is_unsound(self) -> bool:
        return self.result == UNSOUND


@dataclass(frozen=True)
class PhaseBounds:
    """Per-action least/greatest rendezvous counts before the action."""

    min_count: Mapping[Action, int]
    max_count: Mapping[Action, float]

    def __post_init__(self) -> None:
        for a, lo in self.min_count.items():
            hi = self.max_count[a]
            if lo > hi:
                raise ValueError(f"min exceeds max for {a}")


@dataclass(frozen=True)
class EscapeRelation:
    pairs: frozenset[tuple[Action, Action]]

    def __contains__(self, pair: tuple[Action, Action]) -> bool:
        return pair in self.pairs


class _Reach:
    """Memoized forward location reachability for one template."""

    def __init__(self, t: ThreadTemplate):
        self.t = t
        self._fwd: dict[str, frozenset[str]] = {}

    def forward(self, loc: str) -> frozenset[str]:
        cached = self._fwd.get(loc)
        if cached is None:
            cached = self.t.reachable_from([loc])
            self._fwd[loc] = cached
        return cached

    def reaches(self, u: str, v: str) -> bool:
        return v in self.forward(u)


def _on_path_actions(t: ThreadTemplate) -> list[Action]:
    """Plain/block actions whose unique edge lies on some init-to-exit path."""
    fwd = t.reachable_from([t.init])
    bwd = t.co_reachable_to([t.exit])
    out = []
    for a in sorted(t.plain_alphabet, key=Action.sort_key):
        e = t.the_edge(a)
        if e.src in fwd and e.dst in bwd:
            out.append(a)
    return out


def program_order(t: ThreadTemplate) -> frozenset[tuple[Action, Action]]:
    """Pairs (a, b) that can occur in that order within one thread's trace.

    Reflexive on every action that occurs on some full trace; (a, b) holds
    for a != b when b's edge is reachable from a's edge.  Only plain and
    block actions are considered (they label unique edges).
    """
    actions = _on_path_actions(t)
    reach = _Reach(t)
    pairs: set[tuple[Action, Action]] = set()
    for a in actions:
        pairs.add((a, a))
        fwd = reach.forward(t.the_edge(a).dst)
        for b in actions:
            if t.the_edge(b).src in fwd:
                pairs.add((a, b))
    return frozenset(pairs)


def at_relation(f: AtomicFusion) -> frozenset[tuple[Action, Action]]:
    """Reverse order inside atomic blocks: (a, b) when some body trace runs
    b strictly before a."""
    pairs: set[tuple[Action, Action]] = set()
    for _, body in f.blocks:
        reach = _Reach(body)
        actions = _on_path_actions(body)
        for a in actions:
            for b in actions:
                if reach.reaches(body.the_edge(b).dst, body.the_edge(a).src):
                    pairs.add((a, b))
    return frozenset(pairs)


# one meta-graph edge from conflict source u to conflict source w:
# (u, a conflict target v of u, kind of the order step from v to w, w)
_MetaHop = tuple[Action, Action, str, Action]


class _EscapeAnalysis:
    """Sparse chain-relation engine over one original template and fusion.

    Conflicts are enumerated explicitly (actions missing from the declared
    alphabet conflict with everything).  Chains are resolved through a small
    meta graph whose nodes are conflict sources, so the cost scales with the
    number of conflicts rather than with the alphabet squared.
    """

    def __init__(self, t: ThreadTemplate, fusion: AtomicFusion, rel: CommutativityRelation):
        self.t = t
        self.reach = _Reach(t)
        self.actions = _on_path_actions(t)
        self.action_set = set(self.actions)
        self.body_of: dict[Action, tuple[Action, ThreadTemplate]] = {}
        self.body_reach: dict[Action, _Reach] = {}
        for sym, body in fusion.blocks:
            self.body_reach[sym] = _Reach(body)
            for x in body.plain_alphabet:
                self.body_of[x] = (sym, body)
        self.conflicts = [
            (x, y)
            for x, y in rel.conflicts_over(self.actions)
            if x in self.action_set and y in self.action_set
        ]
        self.conflict_sources: list[Action] = sorted(
            {x for x, _ in self.conflicts}, key=Action.sort_key
        )
        self.by_source: dict[Action, list[Action]] = {}
        for x, y in self.conflicts:
            self.by_source.setdefault(x, []).append(y)
        self._meta: Optional[dict[Action, list[_MetaHop]]] = None

    # -- single steps -------------------------------------------------------

    def order_step(self, x: Action, y: Action) -> Optional[str]:
        """Kind of the (x, y) order step, or None: forward program order
        (reflexivity included) or reverse order within a shared block body."""
        if x == y:
            return PROGRAM_ORDER
        if self.reach.reaches(self.t.the_edge(x).dst, self.t.the_edge(y).src):
            return PROGRAM_ORDER
        bx = self.body_of.get(x)
        if bx is not None and self.body_of.get(y) == bx:
            sym, body = bx
            if self.body_reach[sym].reaches(body.the_edge(y).dst, body.the_edge(x).src):
                return ATOMIC_ORDER
        return None

    # -- chain relation: order . (conflict . order)* -------------------------

    def _meta_edges(self) -> dict[Action, list[_MetaHop]]:
        """Out-edges of each conflict source u: an edge to conflict source w
        for each conflict target v of u that order-steps to w."""
        if self._meta is None:
            meta: dict[Action, list[_MetaHop]] = {}
            for u in self.conflict_sources:
                out = []
                for v in self.by_source[u]:
                    for w in self.conflict_sources:
                        kind = self.order_step(v, w)
                        if kind is not None:
                            out.append((u, v, kind, w))
                meta[u] = out
            self._meta = meta
        return self._meta

    def _order_steps_to(self, x: Action) -> list[Action]:
        """Conflict sources that x order-steps to."""
        return [u for u in self.conflict_sources if self.order_step(x, u) is not None]

    def _last_step(self, u: Action, y: Action) -> Optional[tuple[Action, str]]:
        """The first conflict target v of u that order-steps to y, with the
        kind of that step."""
        for v in self.by_source.get(u, ()):
            kind = self.order_step(v, y)
            if kind is not None:
                return v, kind
        return None

    def chain(self, x: Action, y: Action) -> Optional[tuple[ChainLink, ...]]:
        """A shortest conflict/order chain realizing the step relation from
        x to y, as alternating order and conflict links; None when absent."""
        kind = self.order_step(x, y)
        if kind is not None:
            return (ChainLink(kind, x, y),)
        meta = self._meta_edges()
        found = graphs.bfs_path(
            self._order_steps_to(x),
            lambda u: ((hop[3], hop) for hop in meta[u]),
            lambda u: self._last_step(u, y) is not None,
        )
        if found is None:
            return None
        goal, hops = found
        root = hops[0][0] if hops else goal
        first_kind = self.order_step(x, root)
        assert first_kind is not None
        links = [ChainLink(first_kind, x, root)]
        for u, via, kind, w in hops:
            links += [ChainLink(CONFLICT, u, via), ChainLink(kind, via, w)]
        v, last_kind = self._last_step(goal, y)  # type: ignore[misc]
        links += [ChainLink(CONFLICT, goal, v), ChainLink(last_kind, v, y)]
        return tuple(links)


def escape_relation(
    t: Optional[ThreadTemplate],
    f: AtomicFusion,
    i: CommutativityRelation,
) -> EscapeRelation:
    """The composed conflict/order relation between template actions.

    (z, z') is in the relation when z conflicts into some chain of order and
    conflict steps that ends by conflicting into z'; its presence between two
    positions of one block trace makes that block impossible to keep atomic.
    """
    if t is None:
        t = substitute_blocks(f)
    eng = _EscapeAnalysis(t, f, i)
    # a chain from a reaches conflict source b exactly when b is reachable
    # in the meta graph from the conflict sources a order-steps to
    adj = {u: [hop[3] for hop in hops] for u, hops in eng._meta_edges().items()}
    escapes: dict[Action, set[Action]] = {}
    for a in {y for _, y in eng.conflicts}:
        reached = graphs.reachable(adj, eng._order_steps_to(a))
        escapes[a] = {zp for b in reached for zp in eng.by_source[b]}
    return EscapeRelation(
        frozenset((z, zp) for z, a in eng.conflicts for zp in escapes[a])
    )


@dataclass(frozen=True)
class _BlockSccs:
    edges: tuple[Edge, ...]
    scc_of: dict[Edge, int]
    members: list[list[Edge]]
    nontrivial: list[bool]
    scc_adj: dict[int, set[int]]

    def reaches(self, s1: int, s2: int) -> bool:
        if s1 == s2:
            return True
        return s2 in graphs.reachable(self.scc_adj, [s1])


def _block_sccs(body: ThreadTemplate) -> _BlockSccs:
    edges = body.edges
    adj: dict[Edge, list[Edge]] = {}
    by_src: dict[str, list[Edge]] = {}
    for e in edges:
        by_src.setdefault(e.src, []).append(e)
    for e in edges:
        adj[e] = by_src.get(e.dst, [])
    comps = graphs.tarjan_scc(edges, adj)
    scc_of: dict[Edge, int] = {}
    members: list[list[Edge]] = []
    nontrivial: list[bool] = []
    for idx, comp in enumerate(comps):
        members.append(comp)
        nontrivial.append(len(comp) > 1 or comp[0].dst == comp[0].src)
        for e in comp:
            scc_of[e] = idx
    scc_adj: dict[int, set[int]] = {i: set() for i in range(len(comps))}
    for e in edges:
        for e2 in adj[e]:
            a, b = scc_of[e], scc_of[e2]
            if a != b:
                scc_adj[a].add(b)
    return _BlockSccs(edges, scc_of, members, nontrivial, scc_adj)


def _erase_sync(t: ThreadTemplate, kinds: frozenset[ActionKind]) -> ThreadTemplate:
    """Replace edges whose action is of one of `kinds` with fresh,
    pairwise-distinct plain actions (which then commute with nothing)."""
    if not any(a.kind in kinds for a in t.alphabet):
        return t
    taken = {a.name for a in t.alphabet}
    edges = []
    counter = 0
    for e in t.edges:
        if e.action.kind in kinds:
            counter += 1
            name = f"{e.action.name}#{counter}"
            while name in taken:
                name += "'"
            taken.add(name)
            edges.append((e.src, plain(name), e.dst))
        else:
            edges.append(e)
    return ThreadTemplate.make(edges, t.init, t.exit, extra_locations=t.locations)


def _body_trace_through(
    body: ThreadTemplate, e1: Edge, e2: Edge, force_cycle: bool
) -> tuple[tuple[Action, ...], int, int]:
    """A body trace visiting e1 then (strictly later) e2; 1-based positions.

    When e1 and e2 are the same edge (or a cycle is forced), a loop through
    the shared component is unrolled once.
    """

    prefix = _path_words(body, body.init, e1.src)
    mid = _path_words(body, e1.dst, e2.src, min_len=1 if (force_cycle and e1 == e2) else 0)
    if e1 == e2 and not mid:
        raise InconsistentInputs("cannot unroll a trivial component")
    suffix = _path_words(body, e2.dst, body.exit)
    word = prefix + (e1.action,) + mid + (e2.action,) + suffix
    i = len(prefix) + 1
    j = len(prefix) + 1 + len(mid) + 1
    return word, i, j


def check_atomic_fusion(
    t: Optional[ThreadTemplate],
    f: AtomicFusion,
    i: CommutativityRelation,
) -> Verdict:
    """Decide soundness of an atomic fusion (exact for trivial programs).

    With lock or rendezvous edges present the check runs on the conservative
    erased view and a sound answer is only a certificate (flagged).
    """
    flags: tuple[str, ...] = ()
    derived = substitute_blocks(f)
    if t is not None and t.plain_alphabet != derived.plain_alphabet:
        raise InconsistentInputs("template does not match the fusion's substituted form")
    fusion_alphabet = set(f.outer.plain_alphabet)
    for _, body in f.blocks:
        fusion_alphabet.update(body.plain_alphabet)
    base = t if t is not None else derived
    covered = set(base.plain_alphabet) | set(i.alphabet) | set(f.block_symbols)
    missing = fusion_alphabet - covered
    if missing:
        raise InconsistentInputs(
            f"fusion actions {sorted(a.name for a in missing)} not covered by template or relation"
        )

    work = base
    if work.has_sync_actions:
        f = AtomicFusion(_erase_sync(f.outer, _SYNC_KINDS), f.blocks)
        work = substitute_blocks(f)
        flags = (FLAG_LOCK_ABSTRACTION,)

    eng = _EscapeAnalysis(work, f, i)
    conditions: list[tuple[str, Verdict]] = []
    for sym, body in f.blocks:
        sccs = _block_sccs(body)
        body_actions = sorted(body.plain_alphabet, key=Action.sort_key)
        # candidate components per endpoint of the chain relation
        min_cands: dict[Action, list[int]] = {}
        max_cands: dict[Action, list[int]] = {}
        for z in body_actions:
            e = body.the_edge(z)
            s = sccs.scc_of[e]
            for a in eng.by_source.get(z, ()):
                min_cands.setdefault(a, []).append(s)
        for x, ys in eng.by_source.items():
            for zp in ys:
                if zp in body.plain_alphabet:
                    e = body.the_edge(zp)
                    max_cands.setdefault(x, []).append(sccs.scc_of[e])
        found: Optional[FusionWitness] = None
        for a in sorted(min_cands, key=Action.sort_key):
            for b in sorted(max_cands, key=Action.sort_key):
                hit = None
                for s1 in min_cands[a]:
                    for s2 in max_cands[b]:
                        if sccs.reaches(s1, s2) and (s1 != s2 or sccs.nontrivial[s1]):
                            hit = (s1, s2)
                            break
                    if hit:
                        break
                if hit is None:
                    continue
                chain = eng.chain(a, b)
                if chain is None:
                    continue
                s1, s2 = hit
                z = next(
                    e for e in sccs.members[s1] if a in eng.by_source.get(e.action, ())
                )
                zp = next(
                    e for e in sccs.members[s2] if e.action in eng.by_source.get(b, ())
                )
                body_trace, pi, pj = _body_trace_through(
                    body, z, zp, force_cycle=(s1 == s2)
                )
                full_chain = (
                    (ChainLink(CONFLICT, z.action, a),)
                    + chain
                    + (ChainLink(CONFLICT, b, zp.action),)
                )
                found = FusionWitness(
                    block=sym,
                    body_trace=body_trace,
                    i=pi,
                    j=pj,
                    chain=full_chain,
                    scc_source=tuple(sccs.members[s1]),
                    scc_target=tuple(sccs.members[s2]),
                )
                break
            if found:
                break
        if found is not None:
            sub = Verdict(UNSOUND, witness=found)
            conditions.append((f"block:{sym.name}", sub))
            return Verdict(
                UNSOUND,
                witness=found,
                checked_conditions=tuple(conditions),
                flags=flags,
            )
        conditions.append((f"block:{sym.name}", Verdict(SOUND)))
    return Verdict(SOUND, checked_conditions=tuple(conditions), flags=flags)


# -- rendezvous counting ----------------------------------------------------


def _sync_weight(a: Action) -> int:
    return 1 if a.kind is ActionKind.SYNC_POINT else 0


class _SyncCounts(NamedTuple):
    """Fewest and greatest rendezvous counts from init to each reachable
    location (greatest is inf when a rendezvous loop can pump the count).

    `least_parent` maps a location to the (location, action) step that ends
    a fewest-rendezvous path to it; `greatest_parent` maps it to the edge
    that enters its strongly connected component on a greatest-count path.
    """

    least: dict[str, int]
    least_parent: dict[str, tuple[str, Action]]
    greatest: dict[str, float]
    greatest_parent: dict[str, Edge]


def _sync_counts(g: ThreadTemplate) -> _SyncCounts:
    succ = g.successors
    least, least_parent = graphs.zero_one_shortest(
        g.init,
        lambda loc: [(e.dst, _sync_weight(e.action), e.action) for e in succ.get(loc, ())],
    )
    # greatest counts: longest paths over the condensation of the reachable part
    fwd = g.reachable_from([g.init])
    adj: dict[str, set[str]] = {loc: set() for loc in fwd}
    for e in g.edges:
        if e.src in fwd and e.dst in fwd:
            adj[e.src].add(e.dst)
    comps = graphs.tarjan_scc(sorted(fwd), adj)
    scc_of: dict[str, int] = {}
    for idx, comp in enumerate(comps):
        for loc in comp:
            scc_of[loc] = idx
    pumping = [False] * len(comps)
    cross: dict[int, list[tuple[int, int, Edge]]] = {i: [] for i in range(len(comps))}
    for e in g.edges:
        if e.src not in fwd or e.dst not in fwd:
            continue
        s, d = scc_of[e.src], scc_of[e.dst]
        if s == d:
            if _sync_weight(e.action):
                pumping[s] = True
        else:
            cross[s].append((d, _sync_weight(e.action), e))
    value: dict[int, float] = {scc_of[g.init]: 0.0}
    parent: dict[int, Edge] = {}
    for idx in reversed(range(len(comps))):  # Tarjan emits reverse topological order
        if idx not in value:
            continue
        if pumping[idx]:
            value[idx] = math.inf
        base = value[idx]
        for dst, w, e in cross[idx]:
            cand = base + w
            if dst not in value or value[dst] < cand:
                value[dst] = cand
                parent[dst] = e
    greatest = {loc: value[scc_of[loc]] for loc in fwd if scc_of[loc] in value}
    greatest_parent = {loc: parent[scc_of[loc]] for loc in fwd if scc_of[loc] in parent}
    return _SyncCounts(least, least_parent, greatest, greatest_parent)


def _phase_bounds(g: ThreadTemplate, counts: _SyncCounts) -> PhaseBounds:
    bwd = g.co_reachable_to([g.exit])
    min_count: dict[Action, int] = {}
    max_count: dict[Action, float] = {}
    for a in sorted(g.plain_alphabet, key=Action.sort_key):
        e = g.the_edge(a)
        if e.src in counts.least and e.dst in bwd:
            min_count[a] = counts.least[e.src]
            max_count[a] = counts.greatest[e.src]
    return PhaseBounds(min_count, max_count)


def phase_bounds(g: ThreadTemplate) -> PhaseBounds:
    return _phase_bounds(g, _sync_counts(g))


def _count_of(counts: Mapping[Action, float], a: Action) -> float:
    if a not in counts:
        raise ActionUnreachable(f"{a} lies on no init-to-exit path")
    return counts[a]


def min_barrier_count(g: ThreadTemplate, a: Action) -> int:
    """Fewest rendezvous steps that can precede the plain or block action `a`."""
    return int(_count_of(phase_bounds(g).min_count, a))


def max_barrier_count(g: ThreadTemplate, a: Action) -> float:
    """Greatest (possibly infinite) rendezvous count before the plain or
    block action `a`."""
    return _count_of(phase_bounds(g).max_count, a)


def phase_order(g: ThreadTemplate) -> frozenset[tuple[Action, Action]]:
    """Pairs (a, b) where some run sees `a` after strictly more rendezvous
    steps than another run sees `b`."""
    pb = phase_bounds(g)
    return frozenset(
        (a, b)
        for a in pb.min_count
        for b in pb.min_count
        if pb.min_count[a] < pb.max_count[b]
    )


def _min_sync_path(g: ThreadTemplate, a: Action, counts: _SyncCounts) -> PathWitness:
    word: list[Action] = []
    loc = g.the_edge(a).src
    while loc != g.init:
        loc, act = counts.least_parent[loc]
        word.append(act)
    prefix = tuple(reversed(word))
    return PathWitness(prefix, a, sum(_sync_weight(x) for x in prefix))


def _path_words(g: ThreadTemplate, src: str, dst: str, min_len: int = 0) -> tuple[Action, ...]:
    """Labels of a shortest path from src to dst with at least `min_len` steps."""
    if src == dst and not min_len:
        return ()
    # search over (location, steps so far, capped at min_len)
    found = graphs.bfs_path(
        [(src, 0)],
        lambda node: [
            ((e.dst, min(node[1] + 1, min_len)), e.action)
            for e in g.successors.get(node[0], ())
        ],
        lambda node: node[0] == dst and node[1] >= min_len,
    )
    if found is None:
        raise InconsistentInputs(f"no path {src} -> {dst}")
    return tuple(found[1])


def _max_sync_path(g: ThreadTemplate, b: Action, needed: int, counts: _SyncCounts) -> PathWitness:
    """A path to `b` with the greatest rendezvous count; when that count is
    unbounded, a loop is pumped just past `needed`."""
    target = g.the_edge(b).src
    if counts.greatest[target] is not math.inf:
        # walk the condensation parents back; connect inside components by
        # plain BFS (finite components never contain a rendezvous edge)
        hops: list[Edge] = []
        cur = target
        while cur in counts.greatest_parent:
            e = counts.greatest_parent[cur]
            hops.append(e)
            cur = e.src
        hops.reverse()
        word: list[Action] = []
        loc = g.init
        for e in hops:
            word.extend(_path_words(g, loc, e.src))
            word.append(e.action)
            loc = e.dst
        word.extend(_path_words(g, loc, target))
        prefix = tuple(word)
        return PathWitness(prefix, b, sum(_sync_weight(x) for x in prefix))
    # pumped case: find a rendezvous edge on a cycle that the start reaches
    # and that reaches the target
    reach = _Reach(g)
    for e in sorted(g.edges):
        if e.action.kind is not ActionKind.SYNC_POINT:
            continue
        if (
            e.src in reach.forward(g.init)
            and e.src in reach.forward(e.dst)
            and target in reach.forward(e.dst)
        ):
            into = _path_words(g, g.init, e.src)
            around = (e.action,) + _path_words(g, e.dst, e.src)
            out = _path_words(g, e.dst, target)
            pumps = 1
            base = sum(map(_sync_weight, into)) + sum(map(_sync_weight, out))
            while base + pumps * sum(map(_sync_weight, around)) <= needed:
                pumps += 1
            prefix = into + around * pumps + (e.action,) + out
            return PathWitness(prefix, b, sum(map(_sync_weight, prefix)), pumped=True)
    raise InconsistentInputs("pumping rendezvous loop vanished during reconstruction")


def check_sync_instrumentation(inst: SyncPointInstrumentation, i: CommutativityRelation) -> Verdict:
    """Decide soundness of a rendezvous instrumentation.

    Exact for rendezvous-only synchronization; with lock edges present the
    verdict is computed on the conservative erased view and flagged as not
    applicable (the concrete problem is out of this procedure's reach).
    """
    flags: tuple[str, ...] = ()
    g = inst.instrumented
    if any(a.kind in _LOCK_KINDS for a in g.alphabet):
        g = _erase_sync(g, _LOCK_KINDS)
        flags = (FLAG_SYNC_NOT_APPLICABLE,)
    counts = _sync_counts(g)
    pb = _phase_bounds(g, counts)
    universe = sorted(pb.min_count, key=Action.sort_key)
    for b, a in i.conflicts_over(universe):
        # (b, a) does not commute; unsound if a can be phase-later than b
        if a not in pb.min_count or b not in pb.max_count:
            continue
        if pb.min_count[a] < pb.max_count[b]:
            path_a = _min_sync_path(g, a, counts)
            path_b = _max_sync_path(g, b, path_a.sync_count, counts)
            witness = SyncWitness(pair=(a, b), path_a=path_a, path_b=path_b)
            return Verdict(UNSOUND, witness=witness, flags=flags)
    return Verdict(SOUND, flags=flags)


def lift_commutativity(i: CommutativityRelation, f: AtomicFusion) -> CommutativityRelation:
    """Lift a relation to block symbols: a block commutes with something
    exactly when every action of its body does."""
    outer_plain = {a for a in f.outer.plain_alphabet if a.kind is not ActionKind.BLOCK}
    body_of: dict[Action, Action] = {}
    for sym, body in f.blocks:
        for x in body.plain_alphabet:
            body_of[x] = sym
    alphabet: set[Action] = {a for a in outer_plain if a in i.alphabet}
    for sym, body in f.blocks:
        if all(b in i.alphabet for b in body.plain_alphabet):
            alphabet.add(sym)
    conflicts: set[tuple[Action, Action]] = set()
    for x, y in i.explicit_conflicts:
        lx = body_of.get(x, x if x in outer_plain else None)
        ly = body_of.get(y, y if y in outer_plain else None)
        if lx is None or ly is None:
            continue
        if lx in alphabet and ly in alphabet:
            conflicts.add((lx, ly))
    return CommutativityRelation(alphabet, conflicts=conflicts)


def check_natural_reduction(
    t: Optional[ThreadTemplate],
    spec: NaturalReductionSpec,
    i: CommutativityRelation,
) -> Verdict:
    """Combined check: the fusion must be sound, and the instrumentation must
    be sound over the fused template with the block-lifted relation."""
    report = spec.validate()
    report.raise_if_invalid()
    fusion = spec.fusion
    conditions: list[tuple[str, Verdict]] = []
    flags: tuple[str, ...] = ()
    if fusion is not None and fusion.blocks:
        v2 = check_atomic_fusion(t, fusion, i)
    else:
        v2 = Verdict(SOUND, notes=("no atomic blocks",))
    conditions.append(("atomic-fusion", v2))
    flags += v2.flags
    if spec.instrumentation is not None and spec.instrumentation.sync_point_count > 0:
        lifted = lift_commutativity(i, fusion) if fusion is not None else i
        v1 = check_sync_instrumentation(spec.instrumentation, lifted)
    else:
        v1 = Verdict(SOUND, notes=("no rendezvous points",))
    conditions.append(("sync-instrumentation", v1))
    flags += tuple(fl for fl in v1.flags if fl not in flags)
    if v2.is_unsound or v1.is_unsound:
        first_bad = v2 if v2.is_unsound else v1
        return Verdict(
            UNSOUND,
            witness=first_bad.witness,
            checked_conditions=tuple(conditions),
            flags=flags,
        )
    return Verdict(SOUND, checked_conditions=tuple(conditions), flags=flags)


# -- witness utilities -------------------------------------------------------


def verify_fusion_witness(
    t: Optional[ThreadTemplate],
    f: AtomicFusion,
    i: CommutativityRelation,
    w: FusionWitness,
) -> bool:
    """Re-check an unsoundness witness directly against the definitions."""
    if t is None:
        t = substitute_blocks(f)
    if t.has_sync_actions:
        f = AtomicFusion(_erase_sync(f.outer, _SYNC_KINDS), f.blocks)
        t = substitute_blocks(f)
    body = f.block_map[w.block]
    if not (1 <= w.i < w.j <= len(w.body_trace)):
        return False
    # the body trace must label an init-to-exit path
    loc = body.init
    for a in w.body_trace:
        e = body.the_edge(a)
        if e.src != loc:
            return False
        loc = e.dst
    if loc != body.exit:
        return False
    eng = _EscapeAnalysis(t, f, i)
    links = w.chain
    if len(links) < 3 or len(links) % 2 == 0:
        return False
    if links[0].source != w.body_trace[w.i - 1] or links[-1].target != w.body_trace[w.j - 1]:
        return False
    for idx, link in enumerate(links):
        if idx % 2 == 0:
            if link.kind != CONFLICT or i.commutes(link.source, link.target):
                return False
        else:
            if link.kind == CONFLICT or eng.order_step(link.source, link.target) != link.kind:
                return False
        if idx and links[idx - 1].target != link.source:
            return False
    return True


def verify_sync_witness(inst: SyncPointInstrumentation, i: CommutativityRelation, w: SyncWitness) -> bool:
    """Re-check a phase-order witness via rendezvous counts on real paths."""
    g = inst.instrumented
    g = _erase_sync(g, _LOCK_KINDS)
    a, b = w.pair
    if i.commutes(b, a):
        return False

    def walk(pw: PathWitness) -> bool:
        loc: Optional[str] = g.init
        for act in pw.prefix + (pw.action,):
            loc = next((e.dst for e in g.successors.get(loc, ()) if e.action == act), None)
            if loc is None:
                return False
        return loc in g.co_reachable_to([g.exit])

    if not walk(w.path_a) or not walk(w.path_b):
        return False
    ca = sum(_sync_weight(x) for x in w.path_a.prefix)
    cb = sum(_sync_weight(x) for x in w.path_b.prefix)
    return ca == w.path_a.sync_count and cb == w.path_b.sync_count and ca < cb


def induced_interleaving(
    t: Optional[ThreadTemplate],
    f: AtomicFusion,
    w: FusionWitness,
) -> tuple[tuple[Action, int], ...]:
    """Materialize the interleaving a fusion witness describes.

    Thread 1 runs the witness body trace split between positions i and j;
    each order step of the chain contributes one further thread whose trace
    realizes that step.  The result is a complete interleaving of the
    original program with no atomic representative.
    """
    if t is None:
        t = substitute_blocks(f)
    body = f.block_map[w.block]
    outer_edge = f.outer.the_edge(w.block)
    rho0 = _path_words(t, t.init, outer_edge.src)
    sigma0 = _path_words(t, outer_edge.dst, t.exit)
    thread = 1
    pre = [(x, thread) for x in rho0 + tuple(w.body_trace[: w.i])]
    post = [(x, thread) for x in tuple(w.body_trace[w.i :]) + sigma0]

    middle: list[tuple[Action, int]] = []
    prefixes: list[tuple[Action, int]] = []
    suffixes: list[tuple[Action, int]] = []
    for kind, a_r, b_r in w.inner_pairs:
        thread += 1
        if kind == PROGRAM_ORDER:
            ea, eb = t.the_edge(a_r), t.the_edge(b_r)
            rho = _path_words(t, t.init, ea.src)
            if a_r == b_r:
                iota = (a_r,)
                last = ea.dst
            else:
                iota = (a_r,) + _path_words(t, ea.dst, eb.src) + (b_r,)
                last = eb.dst
            sigma = _path_words(t, last, t.exit)
        else:
            sym, _ = next(
                (s, bd) for s, bd in f.blocks if a_r in bd.plain_alphabet
            )
            bd = f.block_map[sym]
            eb, ea = bd.the_edge(b_r), bd.the_edge(a_r)
            word = (
                _path_words(bd, bd.init, eb.src)
                + (b_r,)
                + _path_words(bd, eb.dst, ea.src)
                + (a_r,)
                + _path_words(bd, ea.dst, bd.exit)
            )
            oe = f.outer.the_edge(sym)
            rho = _path_words(t, t.init, oe.src)
            iota = word
            sigma = _path_words(t, oe.dst, t.exit)
        prefixes.extend((x, thread) for x in rho)
        middle.extend((x, thread) for x in iota)
        suffixes.extend((x, thread) for x in sigma)
    return tuple(prefixes + pre + middle + post + suffixes)
