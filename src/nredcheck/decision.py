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
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterator, Mapping, NamedTuple, Optional

from . import graphs
from .model import (
    Action,
    ActionKind,
    AtomicFusion,
    CommutativityRelation,
    Edge,
    InconsistentInputs,
    SyncPointInstrumentation,
    NaturalReductionSpec,
    ThreadTemplate,
    plain,
    _SYNC_POINT,
    _memo,
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


@dataclass(frozen=True)
class ChainLink:
    kind: str  # CONFLICT | PROGRAM_ORDER | ATOMIC_ORDER
    source: Action
    target: Action


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
class ReentryWitness:
    """A one-thread trace of the original program that the fused program
    cannot run.

    A body edge into its body's init or out of its exit becomes, in the
    substituted template, an edge between outer locations, so one thread
    can leave a block part-way and run on outside it.  `blocks` are the
    blocks whose bodies have such an edge.
    """

    trace: tuple[Action, ...]
    blocks: tuple[Action, ...]


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
    """Memoized forward location reachability for one template, searched on
    its numbered view."""

    def __init__(self, t: ThreadTemplate):
        self.t = t
        self._fwd: dict[int, set[int]] = {}

    def reaches(self, u: str, v: str) -> bool:
        view = self.t.numbered  # built on the first question only
        start = view.index[u]
        fwd = self._fwd.get(start)
        if fwd is None:
            fwd = self._fwd[start] = view.reach([start])
        return view.index[v] in fwd


def _on_path_actions(t: ThreadTemplate) -> list[Action]:
    """Plain/block actions whose unique edge lies on some init-to-exit path,
    in edge order."""
    fwd, bwd, edge_of = t.from_init, t.to_exit, t._edge_of
    out = []
    for e in t.edges:
        a = e.action
        if not a.is_sync:
            if edge_of[a] is None:
                t.the_edge(a)  # raises: the label is not unique
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
        for b in actions:
            if reach.reaches(t.the_edge(a).dst, t.the_edge(b).src):
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


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _EscapeAnalysis:
    """Sparse chain-relation engine over one original template and fusion.

    Conflicts are enumerated explicitly (actions missing from the declared
    alphabet conflict with everything).  Chains are resolved through a meta
    graph whose nodes are the conflict sources, numbered in sort order:
    source u leads to each source that a conflict target of u order-steps
    to.  Those steps are read off bitsets of sources, one row per conflict
    target, built on first use from one condensation pass over the
    template, so the cost scales with the number of conflicts rather than
    with the alphabet squared, and no order step is asked twice.
    `order_step` is the pairwise definition the rows must agree with; only
    the witness re-check calls it.
    """

    def __init__(self, t: ThreadTemplate, fusion: AtomicFusion, rel: CommutativityRelation):
        self.t = t
        self.reach = _Reach(t)
        self.action_set = set(_on_path_actions(t))
        self.body_of: dict[Action, tuple[Action, ThreadTemplate]] = {}
        self.body_reach: dict[Action, _Reach] = {}
        for sym, body in fusion.blocks:
            self.body_reach[sym] = _Reach(body)
            for x in body.plain_alphabet:
                self.body_of[x] = (sym, body)
        self.conflicts = list(rel.conflicts_over(self.action_set))
        self.conflict_sources: list[Action] = sorted(
            {x for x, _ in self.conflicts}, key=Action.sort_key
        )
        self.number = {u: k for k, u in enumerate(self.conflict_sources)}
        self.by_source: dict[Action, list[Action]] = {}
        for x, y in self.conflicts:
            self.by_source.setdefault(x, []).append(y)

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

    @cached_property
    def _rows(self) -> dict[Action, tuple[int, int]]:
        """For each conflict target v, two bitsets over the numbered
        conflict sources: those v steps to in program order, and those it
        order-steps to at all (program order or reverse order in its block
        body)."""
        t, view = self.t, self.t.numbered
        bit = {u: 1 << k for u, k in self.number.items()}
        starting = [0] * len(view.names)  # sources whose edge starts at a location
        for u, b in bit.items():
            starting[view.index[t.the_edge(u).src]] |= b
        # sources whose edge starts at a location reachable from each one,
        # folded over the components in Tarjan's reverse topological order
        # (a successor in another component has its mask already)
        below = [0] * len(view.names)
        off, nxt = view.out_off, view.out_next
        for comp in graphs.tarjan_scc(range(len(view.names)), off, nxt):
            mask = 0
            for loc in comp:
                mask |= starting[loc]
                for succ in nxt[off[loc] : off[loc + 1]]:
                    mask |= below[succ]
            for loc in comp:
                below[loc] = mask
        rows: dict[Action, tuple[int, int]] = {}
        for v in {y for _, y in self.conflicts}:
            program = below[view.index[t.the_edge(v).dst]] | bit.get(v, 0)
            steps = program
            if v in self.body_of:  # bodies are tiny: test them pairwise
                sym, body = self.body_of[v]
                v_src, reach = body.the_edge(v).src, self.body_reach[sym]
                for w in body.plain_alphabet:
                    if w in bit and reach.reaches(body.the_edge(w).dst, v_src):
                        steps |= bit[w]
            rows[v] = (program, steps)
        return rows

    def _kind(self, v: Action, k: int) -> str:
        """Kind of the step from conflict target v to source number k."""
        return PROGRAM_ORDER if self._rows[v][0] >> k & 1 else ATOMIC_ORDER

    def _last_step(self, u: Action, k: int) -> Optional[Action]:
        """The first conflict target of u that order-steps to source k."""
        rows = self._rows
        return next((v for v in self.by_source[u] if rows[v][1] >> k & 1), None)

    def chain(self, x: Action, y: Action) -> Optional[tuple[ChainLink, ...]]:
        """A shortest conflict/order chain realizing the step relation from
        conflict target x to conflict source y, as alternating order and
        conflict links; None when absent."""
        rows, sources, by_source = self._rows, self.conflict_sources, self.by_source
        ky = self.number[y]
        if rows[x][1] >> ky & 1:
            return (ChainLink(self._kind(x, ky), x, y),)
        # breadth-first over source numbers; a source already discovered is
        # never yielded again, which leaves every first discovery, and so
        # every parent, as it would be with all successors yielded
        seen = rows[x][1]

        def successors(u: int) -> Iterator[tuple[int, tuple[int, Action, int]]]:
            nonlocal seen
            for v in by_source[sources[u]]:
                new = rows[v][1] & ~seen
                seen |= new
                for w in _bits(new):
                    yield w, (u, v, w)

        found = graphs.bfs_path(
            _bits(seen), successors, lambda u: self._last_step(sources[u], ky) is not None
        )
        if found is None:
            return None
        goal, hops = found
        root = hops[0][0] if hops else goal
        links = [ChainLink(self._kind(x, root), x, sources[root])]
        for u, v, w in hops:
            links += [ChainLink(CONFLICT, sources[u], v), ChainLink(self._kind(v, w), v, sources[w])]
        v = self._last_step(sources[goal], ky)
        assert v is not None
        links += [ChainLink(CONFLICT, sources[goal], v), ChainLink(self._kind(v, ky), v, y)]
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
    rows, sources = eng._rows, eng.conflict_sources
    # a chain from a reaches conflict source b exactly when b is reachable
    # in the meta graph from the conflict sources a order-steps to
    succ = [0] * len(sources)
    for k, u in enumerate(sources):
        for v in eng.by_source[u]:
            succ[k] |= rows[v][1]
    escapes: dict[Action, set[Action]] = {}
    for a, (_, steps) in rows.items():
        seen = steps

        def unseen(k: int) -> Iterator[int]:
            nonlocal seen
            new = succ[k] & ~seen
            seen |= new
            return _bits(new)

        reached = graphs.reachable(unseen, _bits(steps))
        escapes[a] = {zp for k in reached for zp in eng.by_source[sources[k]]}
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
        return s2 in graphs.reachable(self.scc_adj.__getitem__, [s1])


def _block_sccs(body: ThreadTemplate) -> _BlockSccs:
    edges, v = body.edges, body.numbered
    # the edge graph: edge k leads to each edge leaving its target, in edge order
    offsets = array("i", accumulate((v.out_off[d + 1] - v.out_off[d] for d in v.dst), initial=0))
    targets = array("i", chain.from_iterable(map(v.out, v.dst)))
    comps = graphs.tarjan_scc(range(len(edges)), offsets, targets)
    comp_of = [0] * len(edges)
    members: list[list[Edge]] = []
    nontrivial: list[bool] = []
    for idx, comp in enumerate(comps):
        members.append([edges[k] for k in comp])
        nontrivial.append(len(comp) > 1 or v.src[comp[0]] == v.dst[comp[0]])
        for k in comp:
            comp_of[k] = idx
    scc_adj: dict[int, set[int]] = {i: set() for i in range(len(comps))}
    for k in range(len(edges)):
        for k2 in targets[offsets[k] : offsets[k + 1]]:
            if comp_of[k] != comp_of[k2]:
                scc_adj[comp_of[k]].add(comp_of[k2])
    scc_of = {edges[k]: comp_of[k] for k in range(len(edges))}
    return _BlockSccs(edges, scc_of, members, nontrivial, scc_adj)


def _erase_sync(t: ThreadTemplate, kinds: frozenset[ActionKind]) -> ThreadTemplate:
    """Replace edges whose action is of one of `kinds` with fresh,
    pairwise-distinct plain actions (which then commute with nothing).
    The erased template is cached on `t` per set of kinds."""
    if not any(a.kind in kinds for a in t.alphabet):
        return t
    return _memo(t, ("erased", kinds), lambda: _erased_template(t, kinds))


def _erased_fusion(f: AtomicFusion) -> AtomicFusion:
    """`f` with every synchronization edge of its outer template erased,
    cached on `f`, so its substituted template is built once."""
    return _memo(f, "erased", lambda: AtomicFusion(_erase_sync(f.outer, _SYNC_KINDS), f.blocks))


def _erased_template(t: ThreadTemplate, kinds: frozenset[ActionKind]) -> ThreadTemplate:
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
    if t is not None and t is not derived and t.plain_alphabet != derived.plain_alphabet:
        raise InconsistentInputs("template does not match the fusion's substituted form")
    fusion_alphabet = set(f.outer.plain_alphabet)
    for _, body in f.blocks:
        fusion_alphabet.update(body.plain_alphabet)
    base = t if t is not None else derived
    missing = fusion_alphabet - base.plain_alphabet - i.alphabet - set(f.block_symbols)
    if missing:
        raise InconsistentInputs(
            f"fusion actions {sorted(a.name for a in missing)} not covered by template or relation"
        )

    work, fusion = base, f
    if work.has_sync_actions:
        fusion = _erased_fusion(f)
        work = substitute_blocks(fusion)
        flags = (FLAG_LOCK_ABSTRACTION,)

    eng = _EscapeAnalysis(work, fusion, i)
    conditions: list[tuple[str, Verdict]] = []
    for sym, body in fusion.blocks:
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
    # every block is atomic; the fused program must still run every
    # thread trace of the original
    reentry = reentry_witness(base, f)
    if reentry is not None:
        conditions.append(("re-entry", Verdict(UNSOUND, witness=reentry)))
        return Verdict(UNSOUND, witness=reentry, checked_conditions=tuple(conditions), flags=flags)
    return Verdict(SOUND, checked_conditions=tuple(conditions), flags=flags)


def _fused_expansion(f: AtomicFusion) -> ThreadTemplate:
    """The fused program's thread traces with block symbols expanded: each
    block edge is replaced by a fresh copy of its body, entered from the
    edge's source only by the body's init edges and left into the edge's
    target only by its exit edges, so every pass through a copy runs one
    body trace from init to exit."""
    bodies = f.block_map
    edges = [e for e in f.outer.edges if e.action not in bodies]
    for sym, body in f.blocks:
        src, _, dst = f.outer.the_edge(sym)
        for u, a, w in body.edges:
            froms = [f"{sym.name}::{u}"] + ([src] if u == body.init else [])
            tos = [f"{sym.name}::{w}"] + ([dst] if w == body.exit else [])
            edges += [(p, a, q) for p in froms for q in tos]
    return ThreadTemplate.make(edges, f.outer.init, f.outer.exit)


def reentry_witness(t: Optional[ThreadTemplate], f: AtomicFusion) -> Optional[ReentryWitness]:
    """A thread trace of the original program (`t`, else the substituted
    template) that the fused program cannot run, or None.

    Only a body edge into its init or out of its exit can make one: without
    such an edge the substituted and the expanded templates have the same
    traces, so the languages are compared only when one exists.
    """
    blocks = tuple(
        sym
        for sym, body in f.blocks
        if any(e.dst == body.init or e.src == body.exit for e in body.edges)
    )
    if not blocks:
        return None
    from . import automata  # only inputs with such an edge need it

    same, word = automata.language_equivalent(
        t if t is not None else substitute_blocks(f), _fused_expansion(f)
    )
    return None if same else ReentryWitness(word, blocks)  # type: ignore[arg-type]


# -- rendezvous counting ----------------------------------------------------


def _sync_weight(a: Action) -> int:
    return 1 if a.kind is _SYNC_POINT else 0


class _SyncCounts(NamedTuple):
    """Fewest and greatest rendezvous counts from init to each reachable
    location, by id in the template's numbered view (greatest is inf when a
    rendezvous loop can pump the count).

    `least_parent` maps a location to the id of the edge that ends a
    fewest-rendezvous path to it; `greatest_parent` maps it to the id of the
    edge that enters its strongly connected component on a greatest-count
    path.
    """

    least: dict[int, int]
    least_parent: dict[int, int]
    greatest: dict[int, float]
    greatest_parent: dict[int, int]


def _sync_counts(g: ThreadTemplate) -> _SyncCounts:
    v = g.numbered
    src, dst = v.src, v.dst
    weight = bytes(e.action.kind is _SYNC_POINT for e in g.edges)
    least, least_slot = graphs.zero_one_shortest(
        v.index[g.init], v.out_off, v.out_next, bytes(map(weight.__getitem__, v.out_edges))
    )
    least_parent = {u: v.out_edges[j] for u, j in least_slot.items()}
    # greatest counts: longest paths over the condensation of the part
    # reachable from init, which is the key set of `least`; roots and
    # successor rows sorted by id (by name) keep the component order, and
    # with it the choice between equally long greatest-count paths, off
    # set order
    by_target = sorted(sorted(range(len(g.edges)), key=dst.__getitem__), key=src.__getitem__)
    comps = graphs.tarjan_scc(sorted(least), v.out_off, array("i", map(dst.__getitem__, by_target)))
    n_comps = len(comps)
    comp_of = [n_comps] * len(v.names)  # unreachable locations: one extra row
    for idx, comp in enumerate(comps):
        for u in comp:
            comp_of[u] = idx
    pumping = {
        comp_of[src[k]] for k, w in enumerate(weight) if w and comp_of[src[k]] == comp_of[dst[k]]
    }
    rows, row_edges = graphs.csr(n_comps + 1, [comp_of[u] for u in src])
    value: list[Optional[float]] = [None] * n_comps
    value[comp_of[v.index[g.init]]] = 0.0
    parent: dict[int, int] = {}
    for idx in reversed(range(n_comps)):  # Tarjan emits reverse topological order
        base = value[idx]
        if base is None:
            continue
        if idx in pumping:
            base = value[idx] = math.inf
        for k in row_edges[rows[idx] : rows[idx + 1]]:
            d = comp_of[dst[k]]
            if d != idx:
                cand = base + weight[k]
                if value[d] is None or value[d] < cand:  # type: ignore[operator]
                    value[d] = cand
                    parent[d] = k
    greatest = {u: value[comp_of[u]] for u in least}
    greatest_parent = {u: parent[comp_of[u]] for u in least if comp_of[u] in parent}
    return _SyncCounts(least, least_parent, greatest, greatest_parent)  # type: ignore[arg-type]


def _phase_bounds(g: ThreadTemplate, counts: _SyncCounts) -> PhaseBounds:
    index, edge_of = g.numbered.index, g._edge_of
    min_count: dict[Action, int] = {}
    max_count: dict[Action, float] = {}
    for a in _on_path_actions(g):  # each labels one edge
        src = index[edge_of[a].src]
        min_count[a] = counts.least[src]
        max_count[a] = counts.greatest[src]
    return PhaseBounds(min_count, max_count)


def phase_bounds(g: ThreadTemplate) -> PhaseBounds:
    return _phase_bounds(g, _sync_counts(g))


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
    v = g.numbered
    word: list[Action] = []
    loc, init = v.index[g.the_edge(a).src], v.index[g.init]
    while loc != init:
        k = counts.least_parent[loc]
        word.append(g.edges[k].action)
        loc = v.src[k]
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
    v = g.numbered
    target = g.the_edge(b).src
    if not math.isinf(counts.greatest[v.index[target]]):
        # walk the condensation parents back; connect inside components by
        # plain BFS (finite components never contain a rendezvous edge)
        hops: list[Edge] = []
        cur = v.index[target]
        while cur in counts.greatest_parent:
            k = counts.greatest_parent[cur]
            hops.append(g.edges[k])
            cur = v.src[k]
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
    for e in sorted(x for x in g.edges if x.action.kind is _SYNC_POINT):
        if e.src in g.from_init and reach.reaches(e.dst, e.src) and reach.reaches(e.dst, target):
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
    for b, a in i.conflicts_over(pb.min_count):
        # (b, a) does not commute; unsound if a can be phase-later than b
        if pb.min_count[a] < pb.max_count[b]:
            path_a = _min_sync_path(g, a, counts)
            path_b = _max_sync_path(g, b, path_a.sync_count, counts)
            witness = SyncWitness(pair=(a, b), path_a=path_a, path_b=path_b)
            return Verdict(UNSOUND, witness=witness, flags=flags)
    return Verdict(SOUND, flags=flags)


def lift_commutativity(i: CommutativityRelation, f: AtomicFusion) -> CommutativityRelation:
    """Lift a relation to block symbols: a block commutes with something
    exactly when every action of its body does.  The result is cached on
    `f` for the relation lifted last, so a check and the re-check of its
    witness share one lift."""
    cached = f.__dict__.get("_lifted")
    if cached is None or cached[0] is not i:
        cached = f.__dict__["_lifted"] = (i, _lift_commutativity(i, f))
    return cached[1]


def _lift_commutativity(i: CommutativityRelation, f: AtomicFusion) -> CommutativityRelation:
    plain_alphabet = f.outer.plain_alphabet
    outer_plain = plain_alphabet - {a for a in plain_alphabet if a.kind is ActionKind.BLOCK}
    body_of: dict[Action, Action] = {}
    for sym, body in f.blocks:
        for x in body.plain_alphabet:
            body_of[x] = sym
    alphabet = set(outer_plain & i.alphabet)
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
    w: FusionWitness | ReentryWitness,
) -> bool:
    """Re-check an unsoundness witness of `check_atomic_fusion` directly
    against the definitions."""
    if isinstance(w, ReentryWitness):
        return verify_reentry_witness(t, f, w)
    if t is None:
        t = substitute_blocks(f)
    if t.has_sync_actions:
        f = _erased_fusion(f)
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


def verify_reentry_witness(
    t: Optional[ThreadTemplate], f: AtomicFusion, w: ReentryWitness
) -> bool:
    """Re-check a re-entry witness by running its trace: the original
    program runs it on one thread, and the fused program cannot."""
    from . import automata

    if t is None:
        t = substitute_blocks(f)
    return automata.accepts(t, w.trace) and not automata.accepts(_fused_expansion(f), w.trace)


def verify_sync_witness(inst: SyncPointInstrumentation, i: CommutativityRelation, w: SyncWitness) -> bool:
    """Re-check a phase-order witness via rendezvous counts on real paths."""
    g = _erase_sync(inst.instrumented, _LOCK_KINDS)
    v = g.numbered
    a, b = w.pair
    if i.commutes(b, a):
        return False

    def walk(pw: PathWitness) -> bool:
        loc: Optional[int] = v.index[g.init]
        for act in pw.prefix + (pw.action,):
            loc = next((v.dst[k] for k in v.out(loc) if g.edges[k].action == act), None)
            if loc is None:
                return False
        # searched on the walked edges, not read off reach sets a
        # derivation may have handed the template
        return v.index[g.exit] in v.reach([loc])

    if not walk(w.path_a) or not walk(w.path_b):
        return False
    ca = sum(_sync_weight(x) for x in w.path_a.prefix)
    cb = sum(_sync_weight(x) for x in w.path_b.prefix)
    return ca == w.path_a.sync_count and cb == w.path_b.sync_count and ca < cb


def induced_interleaving(
    t: Optional[ThreadTemplate],
    f: AtomicFusion,
    w: FusionWitness | ReentryWitness,
) -> tuple[tuple[Action, int], ...]:
    """Materialize the interleaving a fusion witness describes.

    Thread 1 runs the witness body trace split between positions i and j;
    each order step of the chain contributes one further thread whose trace
    realizes that step.  A re-entry witness is thread 1 running its trace
    alone.  The result is a complete interleaving of the original program
    with no atomic representative.
    """
    if isinstance(w, ReentryWitness):
        return tuple((x, 1) for x in w.trace)
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
