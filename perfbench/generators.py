"""Seeded input generators for the benchmark workloads.

These are the benchmark's own copies of the generators the acceptance suite
uses (`tests/reference.py` and `tests/test_acceptance.py`), so that later
edits there cannot shift a workload.  Each copy draws from its `random.Random`
in exactly the same order as the original: the same seed gives the same
instance, which `selfcheck.py` pins through `FINGERPRINTS`.
`dense_fusion_instance` is new and exists only here.
"""

from __future__ import annotations

import hashlib
import itertools
import random

from nredcheck.model import (
    Action,
    AtomicFusion,
    CommutativityRelation,
    ThreadTemplate,
    acquire,
    block_symbol,
    plain,
    release,
    substitute_blocks,
)

# -- criterion 7: the rendezvous chain ----------------------------------------


def chain_spec(n: int, rng: random.Random | None = None) -> dict:
    """The criterion-7 chain of n locations: a spine of plain actions with
    one two-step block in the middle, rendezvous points at n/4 and 3n/4, and
    one conflict pair between the first and the last action.

    Without `rng` the names are the acceptance suite's (`a<k>`, `L<k>`).
    With `rng`, action and location numbers are permuted and the edge lines
    shuffled; the graph, and so the work, stays the same.

    Returns the spine as fused labels from init to exit (a rendezvous shows
    as `None`), the block name and body, and the conflict pairs.
    """
    act_ids = list(range(1, n))
    loc_ids = list(range(n))
    if rng is not None:
        rng.shuffle(act_ids)
        rng.shuffle(loc_ids)
    act = {k: f"a{act_ids[k - 1]}" for k in range(1, n)}
    loc = {k: f"L{loc_ids[k]}" for k in range(n)}
    mid = n // 2
    edges = [(loc[k - 1], act[k], loc[k]) for k in range(1, n) if k not in (mid, mid + 1)]
    edges.append((loc[mid - 1], "B", loc[mid + 1]))
    sync_at = (n // 4, (3 * n) // 4)
    spine: list = []
    for k in range(1, n):
        if k - 1 in sync_at:
            spine.append(None)
        if k == mid:
            spine.append("B")
        elif k != mid + 1:
            spine.append(act[k])
    return {
        "actions": [act[k] for k in range(1, n)],
        "init": loc[0],
        "exit": loc[n - 1],
        "edges": edges,
        "body": [act[mid], act[mid + 1]],
        "syncpoints": [loc[k] for k in sync_at],
        "conflicts": [(act[1], act[n - 1]), (act[n - 1], act[1])],
        "spine": spine,
        "edge_order": rng.sample(range(len(edges)), len(edges)) if rng else None,
    }


def chain_text(spec: dict) -> str:
    """The .nred text of a `chain_spec`, line for line as criterion 7 writes
    it when the spec is unshuffled."""
    edges = spec["edges"]
    order = spec["edge_order"] or range(len(edges))
    b0, b1 = spec["body"]
    lines = ["actions " + " ".join(spec["actions"]), f"init {spec['init']}", f"exit {spec['exit']}"]
    lines += [f"edge {edges[i][0]} {edges[i][1]} {edges[i][2]}" for i in order]
    lines += ["block B {", "  init u0", "  exit u2", f"  edge u0 {b0} u1", f"  edge u1 {b1} u2", "}"]
    lines += [f"syncpoint at {loc}" for loc in spec["syncpoints"]]
    lines.append("conflicts { " + " ".join(f"({x},{y})" for x, y in spec["conflicts"]) + " }")
    return "\n".join(lines) + "\n"


# -- criterion 3/4: small random fusion instances -----------------------------


def random_fusion_instance(rng: random.Random):
    """A random trivially-synchronized instance: original template with at
    most 6 locations and 5 actions, up to 2 atomic blocks, up to 2
    rendezvous insertion points, and a relation of density 0.3-0.9.

    Returns (original, fusion, insertion_locations, relation).
    """
    counter = itertools.count()

    def fresh_plain() -> Action:
        return plain(f"p{next(counter)}")

    n_blocks = rng.choice([0, 1, 1, 2])
    body_sizes = [rng.randint(1, 2) for _ in range(n_blocks)]
    while sum(body_sizes) > 4:
        body_sizes[body_sizes.index(2)] = 1
    rem = 5 - sum(body_sizes)
    syms = [block_symbol(f"B{k + 1}") for k in range(n_blocks)]

    spine_len = rng.randint(1, min(3, n_blocks + rem))
    n_plains = rng.randint(max(0, spine_len - n_blocks), rem)
    labels: list[Action] = list(syms) + [fresh_plain() for _ in range(n_plains)]
    rng.shuffle(labels)
    outer_locs = [f"o{k}" for k in range(spine_len + 1)]
    edges = [(outer_locs[k], labels[k], outer_locs[k + 1]) for k in range(spine_len)]
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
        u = f"{sym.name.lower()}u"
        if size == 2 and rng.random() < 0.3:
            body_edges = [(f"{u}0", fresh_plain(), f"{u}1"), (f"{u}1", fresh_plain(), f"{u}0")]
            blocks[sym] = ThreadTemplate.make(body_edges, f"{u}0", f"{u}1")
        else:
            body_edges = [(f"{u}{k}", fresh_plain(), f"{u}{k + 1}") for k in range(size)]
            blocks[sym] = ThreadTemplate.make(body_edges, f"{u}0", f"{u}{size}")
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
    return original, fusion, sync_locs, CommutativityRelation(alphabet, pairs=pairs)


# -- criterion 5: 3-literal CNF ----------------------------------------------


def draw_cnf(rng: random.Random, n_clauses: int | None = None, n_vars: int | None = None):
    """Criterion 5's draw: (num_vars, clauses).  Sizes left as None are drawn
    uniformly from 1..4, as the acceptance suite does."""
    if n_clauses is None:
        n_clauses = rng.randint(1, 4)
    if n_vars is None:
        n_vars = rng.randint(1, 4)
    clauses = tuple(
        tuple(rng.choice([1, -1]) * rng.randint(1, n_vars) for _ in range(3))
        for _ in range(n_clauses)
    )
    return n_vars, clauses


# -- criterion 6: small lock templates ----------------------------------------


def random_lock_template(
    rng: random.Random, max_locs: int = 6, visible_start: bool = False
) -> ThreadTemplate:
    """A small valid template mixing plain and lock edges (possibly loops).

    With `visible_start`, every edge out of the initial location is plain.
    """
    n = rng.randint(2, max_locs)
    locs = [f"q{k}" for k in range(n)]
    plain_ids = itertools.count(1)

    def label(src: str) -> Action:
        if visible_start and src == locs[0]:
            return plain(f"z{next(plain_ids)}")
        roll = rng.random()
        if roll < 0.4:
            return plain(f"z{next(plain_ids)}")
        if roll < 0.7:
            return acquire(rng.choice(["ma", "mb"]))
        return release(rng.choice(["ma", "mb"]))

    edges = [(locs[k], label(locs[k]), locs[k + 1]) for k in range(n - 1)]
    for _ in range(rng.randint(0, 2)):
        u = rng.choice(locs[:-1])
        v = rng.choice(locs)
        edges.append((u, label(u), v))
    return ThreadTemplate.make(edges, locs[0], locs[-1])


def lock_gadget_draw(rng: random.Random, max_locs: int):
    """One criterion-6 draw: a lock template and a width-2 target config."""
    t = random_lock_template(rng, max_locs=max_locs, visible_start=True)
    locs = sorted(set(t.locations) - {t.init})
    return t, (rng.choice(locs), rng.choice(locs))


# -- dense atomic fusion (new) -------------------------------------------------


def dense_fusion_instance(
    rng: random.Random,
    *,
    unsound: bool,
    spine: int = 240,
    skips: int = 40,
    blocks: int = 4,
    body_len: int = 3,
    conflicts: int = 300,
):
    """A large trivially-synchronized fusion whose verdict is known by
    construction.

    The outer template is a spine of plain actions with forward skip edges
    and `blocks` block edges spread over it; each body is a chain of
    `body_len` fresh actions.  Every action gets the spine index of its edge
    (body actions that of their block edge).  All edges go forward, so
    program order never decreases the index, and every drawn conflict
    (x, y) has index(x) <= index(y), strictly when a body action is
    involved.  Then no conflict/order chain leaves a body and comes back
    into it, and the fusion is sound.  An unsound instance plants one
    escape into the last block: first body action # a later action, one
    backward conflict from after the block to before it, and an earlier
    action # last body action.

    Returns (original, fusion, relation, index, conflicts) with `index`
    mapping each action to its spine index.
    """
    locs = [f"s{k}" for k in range(spine + 1)]
    block_at = sorted(rng.sample(range(spine // 8, spine - spine // 8), blocks))
    index: dict[Action, int] = {}
    body_of: dict[Action, Action] = {}
    edges = []
    bodies = {}
    for k in range(spine):
        if k in block_at:
            sym = block_symbol(f"B{block_at.index(k) + 1}")
            body = [plain(f"b{block_at.index(k) + 1}_{j}") for j in range(body_len)]
            bodies[sym] = ThreadTemplate.make(
                [(f"u{j}", a, f"u{j + 1}") for j, a in enumerate(body)], "u0", f"u{body_len}"
            )
            edges.append((locs[k], sym, locs[k + 1]))
            for a in body:
                index[a] = k
                body_of[a] = sym
        else:
            a = plain(f"x{k}")
            index[a] = k
            edges.append((locs[k], a, locs[k + 1]))
    for j in range(skips):
        k = rng.randrange(spine - 2)
        a = plain(f"y{j}")
        index[a] = k
        edges.append((locs[k], a, locs[rng.randint(k + 2, min(spine, k + 20))]))
    fusion = AtomicFusion.make(ThreadTemplate.make(edges, locs[0], locs[-1]), bodies)
    original = substitute_blocks(fusion)

    actions = sorted(index, key=Action.sort_key)
    drawn: set[tuple[Action, Action]] = set()
    while len(drawn) < conflicts:
        x, y = rng.choice(actions), rng.choice(actions)
        if index[x] > index[y]:
            x, y = y, x
        if (x in body_of or y in body_of) and index[x] == index[y]:
            continue
        drawn.add((x, y))
    if unsound:
        last = block_at[-1]
        first_b = plain(f"b{blocks}_0")
        last_b = plain(f"b{blocks}_{body_len - 1}")
        spine_actions = [a for a in actions if a.name.startswith("x")]
        after = rng.choice([a for a in spine_actions if index[a] > last])
        before = rng.choice([a for a in spine_actions if index[a] < last])
        drawn |= {(first_b, after), (after, before), (before, last_b)}
    return original, fusion, CommutativityRelation(actions, conflicts=drawn), index, drawn


# -- fingerprints ---------------------------------------------------------------


def _template_text(t: ThreadTemplate) -> str:
    edges = sorted((e.src, e.action.kind.name, e.action.name, e.dst) for e in t.edges)
    return f"{t.init}>{t.exit}:{edges}"


def fingerprint(items) -> str:
    """A stable digest of generated instances (templates, fusions, relations,
    location lists, formulas), for pinning the generators' output."""
    h = hashlib.sha256()

    def feed(x) -> None:
        if isinstance(x, ThreadTemplate):
            h.update(_template_text(x).encode())
        elif isinstance(x, AtomicFusion):
            feed(x.outer)
            for sym, body in x.blocks:
                h.update(sym.name.encode())
                feed(body)
        elif isinstance(x, CommutativityRelation):
            pairs = sorted((a.name, b.name) for a, b in x.explicit_conflicts)
            h.update(f"{sorted(a.name for a in x.alphabet)}#{pairs}".encode())
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for y in x:
                feed(y)
            h.update(b"]")
        else:
            h.update(repr(x).encode())

    feed(items)
    return h.hexdigest()[:16]
