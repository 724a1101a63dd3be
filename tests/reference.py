"""Hand-rolled reference evaluators and instance generators for the tests.

Everything here takes a deliberately different route from the package code:
predicates follow their defining grammar or recursion directly, relations
come from bounded path enumeration, and the covering preorder is decided
both by exhaustive closure and by an order-theoretic criterion.  Sizes are
expected to be tiny.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

from nredcheck import decision, graphs, oracle
from nredcheck.model import (
    Action,
    ActionKind,
    AtomicFusion,
    CommutativityRelation,
    Edge,
    ParameterizedProgram,
    SYNC,
    SyncKind,
    ThreadTemplate,
    acquire,
    block_symbol,
    plain,
    release,
    substitute_blocks,
)

# -- predicates ----------------------------------------------------------------


def lock_feasible_ref(tr) -> bool:
    """Per lock, the projection must be complete same-thread acquire/release
    rounds with at most one trailing acquire (checked against the pattern
    itself, not a holder map)."""
    locks = {a.lock for a, _ in tr if a.lock}
    for m in locks:
        proj = [(a, t) for a, t in tr if a.lock == m]
        k = 0
        while k + 1 < len(proj):
            (a1, t1), (a2, t2) = proj[k], proj[k + 1]
            if a1.kind is ActionKind.ACQUIRE and a2.kind is ActionKind.RELEASE and t1 == t2:
                k += 2
            else:
                break
        rest = proj[k:]
        if rest and not (len(rest) == 1 and rest[0][0].kind is ActionKind.ACQUIRE):
            return False
    return True


def barrier_feasible_ref(tr) -> bool:
    """Direct recursion on the phase grammar: a feasible trace is blocks of
    running-thread steps and complete rendezvous rounds, followed by a trace
    feasible for a strictly smaller running set; the empty set accepts only
    the empty trace."""
    tr = tuple(tr)
    threads = frozenset(t for _, t in tr)

    def prefix_splits(rest: tuple, team: frozenset) -> set[int]:
        # positions i such that rest[:i] parses as ((steps by team)* + round)*
        reach = {0}
        frontier = [0]
        while frontier:
            pos = frontier.pop()
            if pos >= len(rest):
                continue
            a, t = rest[pos]
            if a.kind is not ActionKind.SYNC_POINT and t in team and pos + 1 not in reach:
                reach.add(pos + 1)
                frontier.append(pos + 1)
            end = pos + len(team)
            if team and end <= len(rest):
                chunk = rest[pos:end]
                if all(a2.kind is ActionKind.SYNC_POINT for a2, _ in chunk) and {
                    t2 for _, t2 in chunk
                } == set(team):
                    if end not in reach:
                        reach.add(end)
                        frontier.append(end)
        return reach

    seen: dict[tuple, bool] = {}

    def feasible(rest: tuple, team: frozenset) -> bool:
        key = (rest, team)
        if key in seen:
            return seen[key]
        if not team:
            out = not rest
        else:
            out = False
            for i in prefix_splits(rest, team):
                tail = rest[i:]
                for k in range(len(team)):
                    for sub in itertools.combinations(sorted(team), k):
                        if feasible(tail, frozenset(sub)):
                            out = True
                            break
                    if out:
                        break
                if out:
                    break
        seen[key] = out
        return out

    return feasible(tr, threads)


def sync_feasible_ref(tr, kind: SyncKind) -> bool:
    """The program's synchronization predicate: the lock discipline on the
    trace without its rendezvous steps, the rendezvous discipline on all of
    it."""
    if kind is SyncKind.TRIVIAL:
        return True
    no_rendezvous = [(a, t) for a, t in tr if a.kind is not ActionKind.SYNC_POINT]
    if not lock_feasible_ref(no_rendezvous):
        return False
    return kind is SyncKind.LOCKS or barrier_feasible_ref(tr)


def enumerate_interleavings_ref(
    p: ParameterizedProgram, bounds, keep_sync: bool = False
) -> frozenset:
    """Every bounded interleaving by brute force: each ordered choice of
    local words for threads 1..k, each sequence of thread labels with the
    right counts, kept when the whole trace meets the synchronization
    predicate; no pruning, no thread symmetry."""
    words = oracle._local_traces(p.template, bounds)
    out = {()}
    for k in range(1, bounds.max_threads + 1):
        for assignment in itertools.product(words, repeat=k):
            for tr in all_interleavings(assignment):
                if sync_feasible_ref(tr, p.sync_kind):
                    out.add(tr if keep_sync else tuple((a, t) for a, t in tr if not a.is_sync))
    return frozenset(out)


def all_interleavings(assignment):
    """Every interleaving of the words, thread t running `assignment[t - 1]`,
    with no synchronization predicate applied."""

    def label_sequences(left: list[int]):
        if not any(left):
            yield ()
            return
        for t, n in enumerate(left):
            if n:
                left[t] -= 1
                for rest in label_sequences(left):
                    yield (t + 1,) + rest
                left[t] += 1

    for labels in label_sequences([len(w) for w in assignment]):
        steps = [iter(w) for w in assignment]
        yield tuple((next(steps[t - 1]), t) for t in labels)


def interleavings_ref(codec, p: ParameterizedProgram, bounds, keep_sync: bool, budget) -> set:
    """The coded enumeration as it ran before planning: each multiset of
    local words is shuffled and built as it is met, and the budget is
    charged along the way (path enumeration, then per multiset its shuffle
    nodes, then one step per trace for each distinct relabelling)."""
    words = [codec.ranks(w) for w in oracle._local_traces(p.template, bounds, budget)]
    out = {()}
    use_locks = p.sync_kind is not SyncKind.TRIVIAL
    use_barrier = p.sync_kind is SyncKind.LOCKS_AND_SYNC_POINTS
    tables = {}
    for k in range(1, bounds.max_threads + 1):
        for combo in itertools.combinations_with_replacement(words, k):
            base = _shuffle_ref(codec, combo, use_locks, use_barrier, budget, keep_sync)
            seen_perms = set()
            for perm in itertools.permutations(range(k)):
                arranged = tuple(combo[j] for j in perm)
                if arranged in seen_perms:
                    continue
                seen_perms.add(arranged)
                if arranged == combo:
                    out.update(base)
                    continue
                table = tables.get(perm)
                if table is None:
                    table = tables[perm] = codec.relabel_table(perm)
                relabel = table.__getitem__
                budget.spend(len(base))  # one step per relabelled trace
                out.update(tuple(map(relabel, tr)) for tr in base)
    return out


def _shuffle_ref(codec, assignment, use_locks, use_barrier, budget, keep_sync) -> set:
    """One multiset's shuffle, searched level by level (the budget charged
    the paths into each state), then built at once along the moves that
    reach an accepted state.  The current rendezvous round is the set of
    threads that joined it; it closes once every thread with a step of its
    word left has joined, and a state is accepted when no round is open."""
    k = len(assignment)
    width = codec.width
    steps = [tuple(r * width + j for r in w) for j, w in enumerate(assignment, 1)]
    lengths = [len(w) for w in steps]
    kind = [a.kind for a, _ in codec.pairs]
    lock = [a.lock for a, _ in codec.pairs]
    held = []
    for w in steps:
        now = frozenset()
        row = [now]
        for c in w:
            if kind[c] is ActionKind.ACQUIRE:
                now = now | {lock[c]}
            elif kind[c] is ActionKind.RELEASE:
                now = now - {lock[c]}
            row.append(now)
        held.append(row)

    start = ((0,) * k, frozenset() if use_barrier else None)
    level = {start: 1}
    nodes = 1
    moves_by_level = []
    for _ in range(sum(lengths)):
        nxt = {}
        moves = []
        for state, paths in level.items():
            pos, joined = state
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
                after = joined
                if joined is not None and kind[c] is ActionKind.SYNC_POINT:
                    if j + 1 in joined:
                        continue
                    after = joined | {j + 1}
                    if {i + 1 for i in range(k) if pos[i] < lengths[i]} <= after:
                        after = frozenset()
                elif joined:
                    continue
                to = (pos[:j] + (p + 1,) + pos[j + 1 :], after)
                nxt[to] = nxt.get(to, 0) + paths
                moves.append((state, c, to))
        moves_by_level.append(moves)
        level = nxt
        nodes += sum(nxt.values())
    budget.spend(nodes)

    alive = {s for s in level if not s[1]}
    for moves in reversed(moves_by_level):
        moves[:] = [m for m in moves if m[2] in alive]
        alive = {m[0] for m in moves}
    keep = codec.plain
    project = not keep_sync and not all(keep[c] for w in steps for c in w)
    prefixes = {start: {()}}
    for moves in moves_by_level:
        grown = {}
        for state, c, to in moves:
            before = prefixes[state]
            longer = before if project and not keep[c] else {tr + (c,) for tr in before}
            into = grown.get(to)
            if into is not None:
                into |= longer
            else:
                grown[to] = set(before) if longer is before else longer
        prefixes = grown
    out = set()
    for traces in prefixes.values():
        out |= traces
    return out


def expansions_ref(codec, tr, block_words, bounds, budget):
    """Block expansion of one coded fused trace as it was charged before
    the charge moved to whole shuffles: one budget step per choice of block
    words, then the choices that fit each thread's room."""
    slots = [block_words[c] for c in tr if c in block_words]
    if slots:
        for _ in itertools.product(*slots):
            budget.spend()
    return substituted_ref(codec.width, tr, room_ref(codec, tr, block_words, bounds), block_words)


def room_ref(codec, tr, block_words, bounds) -> list[int]:
    """Per thread, the non-rendezvous steps its block expansions may still
    take: the local bound less the steps of the coded fused trace outside
    its block slots (negative when those alone pass the bound)."""
    width, counted = codec.width, codec.counted
    room = [bounds.max_local_len] * width
    for c in tr:
        if c not in block_words:
            room[c % width] -= counted[c]
    return room


def substituted_ref(width, tr, room, block_words):
    """Every choice of words for the block slots of a coded trace that fits
    each thread's room, substituted, one trace at a time."""
    slots = [idx for idx, c in enumerate(tr) if c in block_words]
    if not slots:
        if min(room) >= 0:
            yield tr
        return
    cuts = [-1, *slots, len(tr)]
    pieces = [tr[lo + 1 : hi] for lo, hi in zip(cuts, cuts[1:])]
    threads = [tr[idx] % width for idx in slots]
    for choice in itertools.product(*(block_words[tr[idx]] for idx in slots)):
        left = list(room)
        for t, (_, n) in zip(threads, choice):
            left[t] -= n
        if min(left) < 0:
            continue
        expanded = pieces[0]
        for (word, _), piece in zip(choice, pieces[1:]):
            expanded += word + piece
        yield expanded


def expand_blocks_ref(tr, f: AtomicFusion, bounds):
    """All block-symbol expansions of a fused interleaving, keeping each
    thread's expanded non-rendezvous length within the local bound.

    `tr` must still contain its synchronization steps so the length
    accounting matches the unfused enumeration exactly.
    """
    actions = [a for a, _ in tr] + [a for sym, body in f.blocks for a in (sym, *body.alphabet)]
    codec = oracle._Codec(actions, max((t for _, t in tr), default=0))
    block_words = oracle._block_words(codec, f.blocks, bounds)
    coded = codec.encode(tr)
    room = room_ref(codec, coded, block_words, bounds)
    return map(codec.decode, substituted_ref(codec.width, coded, room, block_words))


def bucketed(width: int, traces) -> dict:
    """Coded traces bucketed by key (their steps sorted by thread), as the
    representative check reads l1, keyed one trace at a time."""
    by_thread = width.__rmod__
    out: dict = {}
    for tr in traces:
        out.setdefault(tuple(sorted(tr, key=by_thread)), set()).add(tr)
    return out


def set_reader(l2: frozenset):
    """A built set of coded traces as the representative check reads l2:
    its traces less l1's in code order, and an l1 bucket's traces outside
    it."""
    return (lambda l1: sorted(l2.difference(*l1.values())), lambda _key, cands: cands - l2)


# -- covering preorder ----------------------------------------------------------


def cover_closure(src, rel: CommutativityRelation, cap: int = 200_000) -> set:
    """The full set of traces reachable from src by allowed swaps."""
    out = {tuple(src)}
    frontier = [tuple(src)]
    while frontier:
        tr = frontier.pop()
        for k in range(len(tr) - 1):
            (a, ta), (b, tb) = tr[k], tr[k + 1]
            if ta != tb and rel.commutes(a, b):
                nxt = tr[:k] + ((b, tb), (a, ta)) + tr[k + 2 :]
                if nxt not in out:
                    if len(out) >= cap:
                        raise RuntimeError("closure too large for the reference")
                    out.add(nxt)
                    frontier.append(nxt)
    return out


def covers_ref(src, dst, rel: CommutativityRelation) -> bool:
    return tuple(dst) in cover_closure(src, rel)


def covers_inversion(src, dst, rel: CommutativityRelation) -> bool:
    """Order-theoretic criterion: same per-thread sequences, and every pair
    of occurrences whose relative order flips must be a commuting
    cross-thread pair (flipping is one-shot, so this is exact)."""
    src, dst = tuple(src), tuple(dst)
    if len(src) != len(dst) or Counter(src) != Counter(dst):
        return False
    threads = {t for _, t in src} | {t for _, t in dst}
    for t in threads:
        if [a for a, tt in src if tt == t] != [a for a, tt in dst if tt == t]:
            return False
    # identify occurrences as (thread, per-thread occurrence number)
    def occurrences(tr):
        counts: Counter = Counter()
        out = []
        for a, t in tr:
            out.append((t, counts[t], a))
            counts[t] += 1
        return out

    src_occ = occurrences(src)
    dst_pos = {(t, k): idx for idx, (t, k, _) in enumerate(occurrences(dst))}
    for p in range(len(src_occ)):
        tp, kp, ap = src_occ[p]
        for q in range(p + 1, len(src_occ)):
            tq, kq, aq = src_occ[q]
            if dst_pos[(tq, kq)] < dst_pos[(tp, kp)]:
                if tp == tq or not rel.commutes(ap, aq):
                    return False
    return True


# -- coverability ---------------------------------------------------------------


def bounded_coverability_ref(p: ParameterizedProgram, config, threads: int) -> tuple[bool, int]:
    """Whether `threads` labelled threads reach a configuration covering
    `config`, and the depth the breadth-first search reached: the length of
    a shortest covering run or, when none covers, the greatest distance of
    a reachable state.  It searches ordered tuples of per-thread (location,
    held locks), with no symmetry reduction.  An acquire needs the lock
    free on every thread, its own included; a release needs it held by the
    releasing thread."""
    t = p.template
    goal = Counter(config)
    start = tuple((t.init, frozenset()) for _ in range(threads))
    seen = {start}
    frontier = [start]
    depth = 0
    while True:
        nxt_frontier = []
        for state in frontier:
            have = Counter(loc for loc, _ in state)
            if all(have[loc] >= k for loc, k in goal.items()):
                return True, depth
            held = [lock for _, locks in state for lock in locks]
            for idx, (loc, locks) in enumerate(state):
                for e in t.successors.get(loc, ()):
                    a = e.action
                    if a.kind is ActionKind.ACQUIRE:
                        if a.lock in held:
                            continue
                        moved = (e.dst, locks | {a.lock})
                    elif a.kind is ActionKind.RELEASE:
                        if a.lock not in locks:
                            continue
                        moved = (e.dst, locks - {a.lock})
                    else:
                        moved = (e.dst, locks)
                    nxt = state[:idx] + (moved,) + state[idx + 1 :]
                    if nxt not in seen:
                        seen.add(nxt)
                        nxt_frontier.append(nxt)
        if not nxt_frontier:
            return False, depth
        frontier = nxt_frontier
        depth += 1


# -- relations by bounded path enumeration ---------------------------------------


def traces_up_to(t: ThreadTemplate, max_len: int) -> list[tuple[Action, ...]]:
    return sorted(t.traces(max_len), key=lambda w: (len(w), [a.sort_key() for a in w]))


def program_order_ref(t: ThreadTemplate, max_len: int | None = None) -> frozenset:
    cap = max_len if max_len is not None else 3 * len(t.locations) + 2
    pairs = set()
    for w in t.traces(cap):
        for p in range(len(w)):
            for q in range(p, len(w)):
                if not w[p].is_sync and not w[q].is_sync:
                    pairs.add((w[p], w[q]))
    return frozenset(pairs)


def at_relation_ref(f: AtomicFusion, max_len: int | None = None) -> frozenset:
    pairs = set()
    for _, body in f.blocks:
        cap = max_len if max_len is not None else 3 * len(body.locations) + 4
        for w in body.traces(cap):
            for p in range(len(w)):
                for q in range(p + 1, len(w)):
                    pairs.add((w[q], w[p]))
    return frozenset(pairs)


def compose(r1, r2) -> frozenset:
    by_left = {}
    for x, y in r2:
        by_left.setdefault(x, set()).add(y)
    out = set()
    for x, y in r1:
        for z in by_left.get(y, ()):
            out.add((x, z))
    return frozenset(out)


def escape_relation_ref(
    t: ThreadTemplate, f: AtomicFusion, rel: CommutativityRelation
) -> frozenset:
    """Explicit relational composition of the escape chain definition."""
    actions = sorted(t.plain_alphabet, key=Action.sort_key)
    conflicts = frozenset(
        (x, y) for x in actions for y in actions if not rel.commutes(x, y)
    )
    order = program_order_ref(t) | at_relation_ref(f)
    step = compose(order, conflicts)
    closure = frozenset(step)
    while True:
        grown = closure | compose(closure, step)
        if grown == closure:
            break
        closure = grown
    return compose(conflicts, closure)


class PairwiseEscape(decision._EscapeAnalysis):
    """The escape engine as it was before the source bitsets: the meta
    graph over conflict sources is materialised hop by hop, with one
    pairwise `order_step` per (conflict target, conflict source) pair."""

    def _meta_edges(self) -> dict:
        """Out-hops (u, v, kind, w) of each conflict source u: one to each
        source w that a conflict target v of u order-steps to."""
        if "_meta" not in self.__dict__:
            self._meta = {
                u: [
                    (u, v, kind, w)
                    for v in self.by_source[u]
                    for w in self.conflict_sources
                    if (kind := self.order_step(v, w)) is not None
                ]
                for u in self.conflict_sources
            }
        return self._meta

    def _order_steps_to(self, x: Action) -> list:
        return [u for u in self.conflict_sources if self.order_step(x, u) is not None]

    def _last_step(self, u: Action, y: Action):
        for v in self.by_source.get(u, ()):
            kind = self.order_step(v, y)
            if kind is not None:
                return v, kind
        return None

    def chain(self, x: Action, y: Action):
        kind = self.order_step(x, y)
        if kind is not None:
            return (decision.ChainLink(kind, x, y),)
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
        links = [decision.ChainLink(self.order_step(x, root), x, root)]
        for u, via, kind, w in hops:
            links += [decision.ChainLink(decision.CONFLICT, u, via), decision.ChainLink(kind, via, w)]
        v, last_kind = self._last_step(goal, y)
        links += [decision.ChainLink(decision.CONFLICT, goal, v), decision.ChainLink(last_kind, v, y)]
        return tuple(links)


def escape_relation_pairwise(
    t: ThreadTemplate, f: AtomicFusion, rel: CommutativityRelation
) -> frozenset:
    """`decision.escape_relation` on the pairwise meta graph: one
    reachability search per conflict target."""
    eng = PairwiseEscape(t, f, rel)
    adj = {u: [hop[3] for hop in hops] for u, hops in eng._meta_edges().items()}
    escapes = {}
    for a in {y for _, y in eng.conflicts}:
        reached = graphs.reachable(adj.__getitem__, eng._order_steps_to(a))
        escapes[a] = {zp for b in reached for zp in eng.by_source[b]}
    return frozenset((z, zp) for z, a in eng.conflicts for zp in escapes[a])


def fused_traces_ref(f: AtomicFusion, max_len: int) -> set:
    """Thread traces of the fused program up to `max_len` steps: outer
    traces with every block symbol replaced by a trace of its body."""
    bodies = f.block_map
    words = set()
    for w in f.outer.traces(max_len):
        expansions = [()]
        for a in w:
            options = list(bodies[a].traces(max_len)) if a in bodies else [(a,)]
            expansions = [e + o for e in expansions for o in options if len(e) + len(o) <= max_len]
        words.update(expansions)
    return words


def fusion_sound_ref(
    t: ThreadTemplate, f: AtomicFusion, rel: CommutativityRelation
) -> bool:
    """The characterization, brute force: unsound exactly when some block
    trace has two positions linked by the escape relation, or when one
    thread of the original program runs a trace that the fused program
    cannot (a body edge re-enters its init or leaves its exit)."""
    escape = escape_relation_ref(t, f, rel)
    for _, body in f.blocks:
        for w in body.traces(2 * len(body.locations) + 4):
            for p in range(len(w)):
                for q in range(p + 1, len(w)):
                    if (w[p], w[q]) in escape:
                        return False
    cap = 2 * len(t.locations) + 2
    return set(t.traces(cap)) <= fused_traces_ref(f, cap)


def phase_order_ref(instrumented: ThreadTemplate, max_len: int | None = None) -> frozenset:
    cap = max_len if max_len is not None else 4 * len(instrumented.locations) + 6
    best_min: dict[Action, int] = {}
    best_max: dict[Action, int] = {}
    for w in instrumented.traces(cap):
        count = 0
        for a in w:
            if a.kind is ActionKind.SYNC_POINT:
                count += 1
                continue
            if a not in best_min or count < best_min[a]:
                best_min[a] = count
            if a not in best_max or count > best_max[a]:
                best_max[a] = count
    return frozenset(
        (a, b)
        for a in best_min
        for b in best_max
        if best_min[a] < best_max[b]
    )


# -- dict-based template passes ----------------------------------------------------
#
# The location reachability, rendezvous counts and phase bounds as they ran
# on names and dicts before templates had a numbered view, kept as the
# reference the numbered passes must reproduce, tie-breaks and witness
# parents included.


def reach_ref(t: ThreadTemplate, starts, forward: bool = True) -> frozenset[str]:
    adj: dict[str, list[str]] = {}
    for e in t.edges:
        src, dst = (e.src, e.dst) if forward else (e.dst, e.src)
        adj.setdefault(src, []).append(dst)
    seen = set(starts)
    stack = list(seen)
    while stack:
        for m in adj.get(stack.pop(), ()):
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return frozenset(seen)


def validate_template_ref(t: ThreadTemplate) -> list[tuple[str, str, tuple]]:
    """The template invariants as (code, message, subject) entries."""
    out = []
    if t.init == t.exit:
        out.append(("init-equals-exit", "init equals exit", (t.init,)))
    if t.init not in t.locations:
        out.append(("unknown-init", f"init location {t.init!r} not declared", (t.init,)))
    if t.exit not in t.locations:
        out.append(("unknown-exit", f"exit location {t.exit!r} not declared", (t.exit,)))
    for e in t.edges:
        for loc in (e.src, e.dst):
            if loc not in t.locations:
                out.append(("unknown-location", f"edge {e} uses undeclared location {loc!r}", (loc,)))
    for loc in sorted(t.locations - reach_ref(t, [t.init])):
        out.append(("unreachable", f"{loc!r} unreachable from init", (loc,)))
    for loc in sorted(t.locations - reach_ref(t, [t.exit], forward=False)):
        out.append(("not-co-reachable", f"exit unreachable from {loc!r}", (loc,)))
    counts = Counter(e.action for e in t.edges)
    for a in sorted(counts, key=Action.sort_key):
        if counts[a] > 1 and not a.is_sync:
            out.append(("duplicate-label", f"action {a} labels {counts[a]} edges", (a.name,)))
    return out


def substitute_blocks_ref(fusion: AtomicFusion) -> ThreadTemplate:
    """The substituted template built from scratch by `make`, which drops
    repeated edges."""
    block_syms = set(fusion.block_symbols)
    edges = [e for e in fusion.outer.edges if e.action not in block_syms]
    extra = set(fusion.outer.locations)
    for sym, body in fusion.blocks:
        (src, _, dst), = fusion.outer.edges_labeled(sym)
        names = {body.init: src, body.exit: dst} if body.init != body.exit else {body.init: src}
        rename = lambda loc: names.get(loc, f"{sym.name}::{loc}")  # noqa: E731
        edges += [(rename(u), a, rename(w)) for u, a, w in body.edges]
        extra.update(map(rename, body.locations))
    return ThreadTemplate.make(edges, fusion.outer.init, fusion.outer.exit, extra_locations=extra)


def insert_syncpoints_ref(t: ThreadTemplate, m) -> ThreadTemplate:
    """The instrumented template built from scratch by `make`: each location
    of `m` with an out-edge, in sorted order, hands its out-edges to a fresh
    copy reached by a rendezvous edge."""
    copies: dict[str, str] = {}
    for loc in sorted(m):
        if any(e.src == loc for e in t.edges):
            copy = loc + "^"
            while copy in t.locations or copy in copies.values():
                copy += "^"
            copies[loc] = copy
    edges = [(copies.get(u, u), a, w) for u, a, w in t.edges]
    edges += [(loc, SYNC, copy) for loc, copy in copies.items()]
    return ThreadTemplate.make(edges, t.init, t.exit, extra_locations=t.locations | set(copies.values()))


def _tarjan_ref(nodes, adj) -> list[list]:
    """Recursive Tarjan: components in reverse topological order."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    out: list[list] = []

    def visit(node) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        for child in adj.get(node, ()):
            if child not in index:
                visit(child)
                low[node] = min(low[node], low[child])
            elif child in on_stack:
                low[node] = min(low[node], index[child])
        if low[node] == index[node]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == node:
                    break
            out.append(comp)

    for node in nodes:
        if node not in index:
            visit(node)
    return out


def sync_counts_ref(g: ThreadTemplate):
    """(least, least_parent, greatest, greatest_parent) by location name:
    the least count by 0/1 breadth-first search over `g.successors`, with
    the (location, action) step that last lowered it; the greatest by
    longest paths over the condensation of the part reachable from init,
    with the edge that enters each component."""
    def weight(a: Action) -> int:
        return 1 if a.kind is ActionKind.SYNC_POINT else 0

    least: dict[str, int] = {g.init: 0}
    least_parent: dict[str, tuple[str, Action]] = {}
    queue = [g.init]  # a deque by hand: 0-steps go to the front
    while queue:
        loc = queue.pop(0)
        for e in g.successors.get(loc, ()):
            d = least[loc] + weight(e.action)
            if e.dst not in least or d < least[e.dst]:
                least[e.dst] = d
                least_parent[e.dst] = (loc, e.action)
                if weight(e.action):
                    queue.append(e.dst)
                else:
                    queue.insert(0, e.dst)
    fwd = reach_ref(g, [g.init])
    adj: dict[str, set[str]] = {loc: set() for loc in fwd}
    for e in g.edges:
        if e.src in fwd:
            adj[e.src].add(e.dst)
    comps = _tarjan_ref(sorted(fwd), {loc: sorted(nxt) for loc, nxt in adj.items()})
    scc_of = {loc: idx for idx, comp in enumerate(comps) for loc in comp}
    pumping = [False] * len(comps)
    cross: dict[int, list] = {i: [] for i in range(len(comps))}
    for e in g.edges:
        if e.src not in fwd:
            continue
        s, d = scc_of[e.src], scc_of[e.dst]
        if s == d:
            pumping[s] = pumping[s] or bool(weight(e.action))
        else:
            cross[s].append((d, weight(e.action), e))
    value: dict[int, float] = {scc_of[g.init]: 0.0}
    parent: dict[int, Edge] = {}
    for idx in reversed(range(len(comps))):
        if idx not in value:
            continue
        if pumping[idx]:
            value[idx] = math.inf
        for dst, w, e in cross[idx]:
            if dst not in value or value[dst] < value[idx] + w:
                value[dst] = value[idx] + w
                parent[dst] = e
    greatest = {loc: value[scc_of[loc]] for loc in fwd if scc_of[loc] in value}
    greatest_parent = {loc: parent[scc_of[loc]] for loc in fwd if scc_of[loc] in parent}
    return least, least_parent, greatest, greatest_parent


def phase_bounds_ref(g: ThreadTemplate) -> tuple[dict, dict]:
    """(min_count, max_count) per plain or block action on an
    init-to-exit path."""
    least, _, greatest, _ = sync_counts_ref(g)
    bwd = reach_ref(g, [g.exit], forward=False)
    min_count, max_count = {}, {}
    for a in g.plain_alphabet:
        e = g.the_edge(a)
        if e.src in least and e.dst in bwd:
            min_count[a] = least[e.src]
            max_count[a] = greatest[e.src]
    return min_count, max_count


# -- random instances -------------------------------------------------------------


def random_fusion_instance(rng: random.Random):
    """A random trivially-synchronized instance: original template with at
    most 6 locations and 5 actions, up to 2 atomic blocks, up to 2 rendezvous
    insertion points, and a commutativity relation of density 0.3-0.9.

    Returns (original, fusion, insertion_locations, relation).
    """
    counter = itertools.count()

    def fresh_plain() -> Action:
        return plain(f"p{next(counter)}")

    n_blocks = rng.choice([0, 1, 1, 2])
    body_sizes = [rng.randint(1, 2) for _ in range(n_blocks)]
    while sum(body_sizes) > 4:
        body_sizes[body_sizes.index(2)] = 1
    rem = 5 - sum(body_sizes)  # plain-action budget left for the outer part
    syms = [block_symbol(f"B{k + 1}") for k in range(n_blocks)]

    spine_len = rng.randint(1, min(3, n_blocks + rem))
    n_plains = rng.randint(max(0, spine_len - n_blocks), rem)
    labels: list[Action] = list(syms) + [fresh_plain() for _ in range(n_plains)]
    rng.shuffle(labels)
    # block symbols must sit on real edges; all labels get placed
    outer_locs = [f"o{k}" for k in range(spine_len + 1)]
    edges = []
    for k in range(spine_len):
        edges.append((outer_locs[k], labels[k], outer_locs[k + 1]))
    # at most one backward edge keeps the trace language small enough for
    # the path-enumeration references
    allow_back = rng.random() < 0.5
    for lab in labels[spine_len:]:
        ui = rng.randrange(len(outer_locs) - 1)
        if allow_back:
            vi = rng.randrange(len(outer_locs))
            if vi <= ui:
                allow_back = False
        else:
            vi = rng.randrange(ui + 1, len(outer_locs))
        edges.append((outer_locs[ui], lab, outer_locs[vi]))
    outer = ThreadTemplate.make(edges, outer_locs[0], outer_locs[-1])

    blocks = {}
    for sym, size in zip(syms, body_sizes):
        prefix = sym.name.lower()
        if size == 2 and rng.random() < 0.3:
            # one forward edge plus a back edge: the body language is a loop
            blocks[sym] = ThreadTemplate.make(
                [
                    (f"{prefix}u0", fresh_plain(), f"{prefix}u1"),
                    (f"{prefix}u1", fresh_plain(), f"{prefix}u0"),
                ],
                f"{prefix}u0",
                f"{prefix}u1",
            )
        else:
            body_edges = [
                (f"{prefix}u{k}", fresh_plain(), f"{prefix}u{k + 1}")
                for k in range(size)
            ]
            blocks[sym] = ThreadTemplate.make(body_edges, f"{prefix}u0", f"{prefix}u{size}")
    fusion = AtomicFusion.make(outer, blocks)
    original = substitute_blocks(fusion)

    sync_locs: list[str] = []
    if rng.random() < 0.6:
        candidates = [l for l in sorted(outer.locations) if outer.successors.get(l)]
        rng.shuffle(candidates)
        sync_locs = candidates[: rng.choice([1, 1, 2])]

    density = rng.uniform(0.3, 0.9)
    alphabet = sorted(original.plain_alphabet, key=Action.sort_key)
    pairs = [(x, y) for x in alphabet for y in alphabet if rng.random() < density]
    relation = CommutativityRelation(alphabet, pairs=pairs)
    return original, fusion, sync_locs, relation


def random_lock_template(
    rng: random.Random, max_locs: int = 6, visible_start: bool = False
) -> ThreadTemplate:
    """A small valid template mixing plain and lock edges (possibly loops).

    With `visible_start`, every edge out of the initial location is plain, so
    any thread that moves at all shows up in the plain projection (which the
    rendezvous-gadget contract needs: a thread whose whole history is lock
    operations vanishes from the interleaving, and dropping it entirely
    covers the run).
    """
    n = rng.randint(2, max_locs)
    locs = [f"q{k}" for k in range(n)]
    lock_pool = ["ma", "mb"]
    edges = []
    plain_idx = 0

    def fresh_plain() -> Action:
        nonlocal plain_idx
        plain_idx += 1
        return plain(f"z{plain_idx}")

    def any_label(src: str) -> Action:
        if visible_start and src == locs[0]:
            return fresh_plain()
        roll = rng.random()
        if roll < 0.4:
            return fresh_plain()
        if roll < 0.7:
            return acquire(rng.choice(lock_pool))
        return release(rng.choice(lock_pool))

    for k in range(n - 1):
        edges.append((locs[k], any_label(locs[k]), locs[k + 1]))
    for _ in range(rng.randint(0, 2)):
        u = rng.choice(locs[:-1])
        v = rng.choice(locs)
        edges.append((u, any_label(u), v))
    return ThreadTemplate.make(edges, locs[0], locs[-1])
