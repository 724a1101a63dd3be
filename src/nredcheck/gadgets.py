"""Instance generators built from the hardness constructions.

Each generator is a faithful, deterministic syntactic transformation whose
output contract ties a coverability question to the soundness of a reduction
(or, for the CNF generator, ties satisfiability to coverability).  They are
used as cross-checks for the bounded oracle and as stress inputs for the
checkers.  Naming is canonical so generated instances are reproducible
byte for byte: chain actions `c1..cr`, block symbol `B`, clause locks
`m<i>_<lit>` with literal tokens `x<v>`/`nx<v>`, packaging guard locks
`g<i>`, exit connector `w`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import (
    Action,
    AtomicFusion,
    CommutativityRelation,
    ModelError,
    ParameterizedProgram,
    SyncKind,
    SyncPointInstrumentation,
    ThreadTemplate,
    acquire,
    block_symbol,
    insert_syncpoints,
    plain,
    release,
)


class AlphabetCollision(ModelError):
    """Templates meant to be combined share plain actions."""


class TooManyVariables(ModelError):
    """The exhaustive assignment search would not terminate in reason."""


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula with exactly three (possibly repeated) literals per
    clause; literals are signed 1-based variable indices."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValueError("formula needs at least one variable")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError("every clause must have exactly 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")


def brute_sat(phi: CnfFormula) -> bool:
    """Exhaustive assignment search (independent oracle; <= 24 variables)."""
    if phi.num_vars > 24:
        raise TooManyVariables("brute force limited to 24 variables")
    for bits in range(1 << phi.num_vars):
        ok = True
        for clause in phi.clauses:
            if not any(
                (bits >> (abs(l) - 1)) & 1 == (1 if l > 0 else 0) for l in clause
            ):
                ok = False
                break
        if ok:
            return True
    return not phi.clauses


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF.  Clauses shorter than three literals are padded by
    repeating their last literal (semantically neutral); longer ones are
    rejected."""
    num_vars = 0
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) < 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {raw!r}")
            num_vars = int(parts[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                if not current:
                    continue
                if len(current) > 3:
                    raise ValueError("only clauses with at most 3 literals are supported")
                while len(current) < 3:
                    current.append(current[-1])
                clauses.append((current[0], current[1], current[2]))
                current = []
            else:
                current.append(lit)
    if current:
        raise ValueError("unterminated clause (missing trailing 0)")
    if num_vars == 0:
        num_vars = max((abs(l) for cl in clauses for l in cl), default=1)
    return CnfFormula(num_vars, tuple(clauses))


def _fresh(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def coverability_to_fusion(
    p: ParameterizedProgram, c: Sequence[str]
) -> tuple[ParameterizedProgram, AtomicFusion, CommutativityRelation]:
    """Reduce coverability of `c` to unsoundness of a two-action atomic block.

    Fresh actions `a; b` become a block `B` branching from init to a fresh
    exit; each configuration slot gets a chain action `c<i>` from its
    location to that exit, and the only conflicts are along the chain
    a -> c1 -> ... -> cr -> b.  The block is unsound exactly when the chain
    locations are coverable together.  A fresh `w` edge reconnects the old
    exit so the result stays a well-formed template.
    """
    t = p.template
    r = len(c)
    if r < 1:
        raise ValueError("configuration must name at least one location")
    unknown = set(c) - set(t.locations)
    if unknown:
        raise ModelError(f"configuration uses unknown locations {sorted(unknown)}")
    taken_actions = {x.name for x in t.alphabet}
    name_a = _fresh("a", taken_actions)
    name_b = _fresh("b", taken_actions)
    chain = [_fresh(f"c{i}", taken_actions) for i in range(1, r + 1)]
    name_w = _fresh("w", taken_actions)
    taken_locs = set(t.locations)
    loc_a = _fresh("ga", taken_locs)
    loc_exit = _fresh("gexit", taken_locs)

    act_a, act_b, act_w = plain(name_a), plain(name_b), plain(name_w)
    chain_actions = [plain(x) for x in chain]
    new_edges = list(t.edges)
    new_edges.append((t.init, act_a, loc_a))
    new_edges.append((loc_a, act_b, loc_exit))
    for loc, ca in zip(c, chain_actions):
        new_edges.append((loc, ca, loc_exit))
    new_edges.append((t.exit, act_w, loc_exit))
    extended = ThreadTemplate.make(
        new_edges, t.init, loc_exit, extra_locations=t.locations | {loc_a, loc_exit}
    )

    sym = block_symbol(_fresh("B", taken_actions))
    outer_edges = [
        e for e in extended.edges if e.action not in (act_a, act_b)
    ]
    outer_edges.append((t.init, sym, loc_exit))
    outer = ThreadTemplate.make(
        outer_edges, t.init, loc_exit, extra_locations=extended.locations - {loc_a}
    )
    body = ThreadTemplate.make(
        [("B0", act_a, "B1"), ("B1", act_b, "B2")], "B0", "B2"
    )
    fusion = AtomicFusion.make(outer, {sym: body})

    alphabet = sorted(extended.plain_alphabet, key=Action.sort_key)
    conflict_chain = [act_a, *chain_actions, act_b]
    conflicts = list(zip(conflict_chain, conflict_chain[1:]))
    relation = CommutativityRelation(alphabet, conflicts=conflicts)
    program = ParameterizedProgram(extended, p.sync_kind)
    return program, fusion, relation


def sat_to_coverability(phi: CnfFormula) -> tuple[ParameterizedProgram, tuple[str, ...]]:
    """Build a lock program whose target configuration is coverable exactly
    when the formula is satisfiable.

    Per clause i and literal l, a branch acquires `m<i>_<l>` (the clause's
    "opinion" on l) and then probes, in ascending clause order, that no
    other clause holds the contradicting opinion, by acquiring and releasing
    `m<j>_<not l>`.  The clause threads are packaged into one template via
    `bounded_to_parameterized`; the target marks every clause's goal location.
    """
    n = len(phi.clauses)
    if n < 1:
        raise ValueError("formula needs at least one clause")

    def lit_token(lit: int) -> str:
        return f"x{lit}" if lit > 0 else f"nx{-lit}"

    def neg(lit: int) -> int:
        return -lit

    templates = []
    goals = []
    for i, clause in enumerate(phi.clauses, start=1):
        edges: list[tuple[str, Action, str]] = []
        init, goal, exit_ = f"s{i}", f"l{i}", f"e{i}"
        for bi, lit in enumerate(clause):
            probes = [j for j in range(1, n + 1) if j != i]
            cur = init
            hop = f"s{i}.{bi}.acq"
            edges.append((cur, acquire(f"m{i}_{lit_token(lit)}"), goal if not probes else hop))
            cur = hop
            for step, j in enumerate(probes):
                probe = f"m{j}_{lit_token(neg(lit))}"
                mid = f"s{i}.{bi}.{step}a"
                last = step == len(probes) - 1
                nxt = goal if last else f"s{i}.{bi}.{step + 1}"
                edges.append((cur, acquire(probe), mid))
                edges.append((mid, release(probe), nxt))
                cur = nxt
        edges.append((goal, plain(f"done{i}"), exit_))
        templates.append(ThreadTemplate.make(edges, init, exit_))
        goals.append(goal)
    combined = bounded_to_parameterized(templates)
    config = tuple(f"t{i}::{goal}" for i, goal in enumerate(goals, start=1))
    return ParameterizedProgram(combined, SyncKind.LOCKS), config


def coverability_to_syncpoint(
    p: ParameterizedProgram, c: Sequence[str]
) -> tuple[ParameterizedProgram, SyncPointInstrumentation]:
    """Reduce coverability of `c` (width > 1) to rendezvous unsoundness.

    Every configuration slot i gets an escape branch: acquire a fresh lock
    `m<i>`, probe one other slot's lock (any j != i), release, and leave by a
    fresh exit.  The instrumentation puts one rendezvous just before each
    final release.  When `c` is coverable, the run that fills every slot
    deadlocks under the rendezvous and loses its only representative, for
    every commutativity relation; otherwise the instrumentation changes
    nothing.  A fresh `w` edge reconnects the old exit.
    """
    t = p.template
    n = len(c)
    if n <= 1:
        raise ValueError("the construction needs a configuration of width > 1")
    unknown = set(c) - set(t.locations)
    if unknown:
        raise ModelError(f"configuration uses unknown locations {sorted(unknown)}")
    taken_actions = {x.name for x in t.alphabet}
    taken_locks = {x.lock for x in t.alphabet if x.lock}
    locks = [_fresh(f"m{i}", taken_locks) for i in range(1, n + 1)]
    name_w = _fresh("w", taken_actions)
    taken_locs = set(t.locations)
    new_exit = _fresh("gexit", taken_locs)

    edges = list(t.edges)
    sync_at = []
    for i, loc in enumerate(c, start=1):
        li = locks[i - 1]
        l_acq = _fresh(f"u{i}L", taken_locs)
        l_rel = _fresh(f"u{i}U", taken_locs)
        edges.append((loc, acquire(li), l_acq))
        for j in range(1, n + 1):
            if j == i:
                continue
            mid = _fresh(f"u{i}.{j}", taken_locs)
            edges.append((l_acq, acquire(locks[j - 1]), mid))
            edges.append((mid, release(locks[j - 1]), l_rel))
        edges.append((l_rel, release(li), new_exit))
        sync_at.append(l_rel)
    edges.append((t.exit, plain(name_w), new_exit))
    extended = ThreadTemplate.make(
        edges, t.init, new_exit, extra_locations=t.locations | {new_exit}
    )
    inst = insert_syncpoints(extended, sync_at)
    return ParameterizedProgram(extended, SyncKind.LOCKS), inst


def bounded_to_parameterized(templates: Sequence[ThreadTemplate]) -> ThreadTemplate:
    """Package distinct thread templates into one, one guarded branch each.

    Branch i opens by acquiring a fresh lock `g<i>` that is never released,
    so at most one thread instance ever runs each original template; all
    branch exits merge into one fresh exit.
    """
    if not templates:
        raise ValueError("need at least one template")
    seen: set[Action] = set()
    for t in templates:
        overlap = {a for a in t.plain_alphabet} & seen
        if overlap:
            raise AlphabetCollision(
                f"plain actions shared between templates: {sorted(a.name for a in overlap)}"
            )
        seen.update(t.plain_alphabet)
    taken_locks = {x.lock for t in templates for x in t.alphabet if x.lock}
    edges: list[tuple[str, Action, str]] = []
    init, exit_ = "init", "exit"
    for i, t in enumerate(templates, start=1):
        guard = _fresh(f"g{i}", taken_locks)

        def ns(loc: str, i=i, t=t) -> str:
            return exit_ if loc == t.exit else f"t{i}::{loc}"

        edges.append((init, acquire(guard), ns(t.init)))
        for e in t.edges:
            edges.append((ns(e.src), e.action, ns(e.dst)))
    return ThreadTemplate.make(edges, init, exit_)
