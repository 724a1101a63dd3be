"""Core domain objects: thread templates, programs, commutativity, reduction specs.

A thread template is a finite control-flow graph whose edges carry actions.
A parameterized program runs an unbounded number of identical copies of one
template, coordinated (or not) by a synchronization discipline.  Reductions
are specified syntactically, by fusing a sub-graph into an atomic block
and/or by inserting global rendezvous points, and everything here is the
structural layer: representation plus validation.

All values are immutable after construction and safe to share across threads.
Because they never change, derived views (alphabets, successor maps, the
numbered graph of a template and its reach sets, the substituted template
of a fusion, the instrumented template at a location set) and validation
reports are computed on first use and cached on the object they describe,
so a structure handed from the parser to the checks is built and validated
once.  An `Action` computes its hash, `is_sync` and `sort_key()` when it is
made.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import product, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, TypeVar

from . import graphs


SYNC_POINT_NAME = "•"  # the unique rendezvous symbol, rendered as a bullet

_T = TypeVar("_T")


def _memo(obj: object, key: object, make: Callable[[], _T]) -> _T:
    """`make()`, computed on the first call per `key` and kept on `obj`
    (in its instance dict, which a frozen dataclass allows)."""
    memo = obj.__dict__.setdefault("_memo", {})
    if key not in memo:
        memo[key] = make()
    return memo[key]


class ActionKind(Enum):
    PLAIN = "plain"
    ACQUIRE = "acquire"
    RELEASE = "release"
    SYNC_POINT = "syncpoint"
    BLOCK = "block"

    # the members are singletons, so identity is their equality; Enum's own
    # hash is a Python-level call on every action made and every kind looked up
    __hash__ = object.__hash__


_PLAIN, _ACQUIRE, _RELEASE, _SYNC_POINT, _BLOCK = ActionKind  # Enum attribute lookups are slow


@dataclass(frozen=True, slots=True)
class Action:
    """An abstract program action, identified by name.

    Lock operations are structured (kind + lock name) so the lock semantics
    never has to parse names.  Block symbols stand for whole atomic blocks.
    """

    name: str
    kind: ActionKind = ActionKind.PLAIN
    lock: Optional[str] = None
    # derived from the three fields above when the action is made
    _hash: int = field(init=False, repr=False, compare=False)
    is_sync: bool = field(init=False, repr=False, compare=False)
    _sort_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        name, kind, lock = self.name, self.kind, self.lock
        if not name:
            raise ValueError("action name must be non-empty")
        if kind is _ACQUIRE or kind is _RELEASE:
            if not lock:
                raise ValueError(f"{kind.value} action needs a lock name")
        elif lock is not None:
            raise ValueError(f"{kind.value} action must not carry a lock")
        elif kind is _SYNC_POINT and name != SYNC_POINT_NAME:
            raise ValueError("the rendezvous symbol is unique")
        # actions are hashed and sorted in every inner loop, and a parse
        # makes one per name, so the derived values are computed once and
        # cheaply; the hash is the generated dataclass's value
        put = object.__setattr__
        put(self, "_hash", hash((name, kind, lock)))
        # True for synchronization actions (lock ops and the rendezvous)
        put(self, "is_sync", kind is not _PLAIN and kind is not _BLOCK)
        put(self, "_sort_key", (kind._value_, name, lock or ""))  # `.value` is a slow property

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # rebuild from the fields: the cached hash is only valid in this process
        return Action, (self.name, self.kind, self.lock)

    def sort_key(self) -> tuple:
        return self._sort_key

    def __lt__(self, other: "Action") -> bool:
        if not isinstance(other, Action):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        if self.kind is ActionKind.PLAIN:
            return f"Action({self.name!r})"
        return f"Action({self.name!r}, {self.kind.value})"


def plain(name: str) -> Action:
    return Action(name, ActionKind.PLAIN)


def block_symbol(name: str) -> Action:
    return Action(name, ActionKind.BLOCK)


def acquire(lock: str) -> Action:
    return Action(f"acq({lock})", ActionKind.ACQUIRE, lock)


def release(lock: str) -> Action:
    return Action(f"rel({lock})", ActionKind.RELEASE, lock)


SYNC = Action(SYNC_POINT_NAME, ActionKind.SYNC_POINT)


class Edge(NamedTuple):
    src: str
    action: Action
    dst: str


class NumberedView:
    """A template's graph on ints.

    Locations are numbered 0..n-1 in sorted-name order, so sorted ids are
    sorted names and a search that orders its work by id orders it as it
    would by name.  Every name the template mentions is numbered, undeclared
    ones too, so validation can run on it.  Edge k is `template.edges[k]`;
    `src` and `dst` hold its endpoints.  The edges leaving each location
    are compressed sparse rows (`graphs.csr`) of edge ids, in edge order,
    with their targets in `out_next`.  The sources of the edges entering
    each location, in rows of the same kind, are built on the first
    backward search.
    """

    __slots__ = ("names", "index", "src", "dst", "out_off", "out_edges", "out_next", "_in_rows")

    def __init__(self, t: "ThreadTemplate") -> None:
        names = set(t.locations)
        names.update((t.init, t.exit))
        names.update(map(itemgetter(0), t.edges))
        names.update(map(itemgetter(2), t.edges))
        self.names = sorted(names)
        index = self.index = {name: k for k, name in enumerate(self.names)}
        self.src = src = array("i", map(index.__getitem__, map(itemgetter(0), t.edges)))
        self.dst = dst = array("i", map(index.__getitem__, map(itemgetter(2), t.edges)))
        self.out_off, self.out_edges = graphs.csr(len(self.names), src)
        self.out_next = array("i", map(dst.__getitem__, self.out_edges))
        self._in_rows: Optional[tuple[array, array]] = None

    def out(self, u: int) -> array:
        """Ids of the edges leaving location `u`."""
        return self.out_edges[self.out_off[u] : self.out_off[u + 1]]

    def reach(self, starts: Iterable[int], forward: bool = True) -> set[int]:
        """Ids reachable from `starts` (that reach them when not forward)."""
        if not forward and self._in_rows is None:
            in_off, in_edges = graphs.csr(len(self.names), self.dst)
            self._in_rows = (in_off, array("i", map(self.src.__getitem__, in_edges)))
        off, nxt = (self.out_off, self.out_next) if forward else self._in_rows
        return graphs.reachable(lambda u: nxt[off[u] : off[u + 1]], starts)

    def reach_names(self, starts: Iterable[str], forward: bool) -> frozenset[str]:
        """`reach` on names; a name the template never mentions reaches
        only itself."""
        starts = frozenset(starts)
        ids = self.reach([self.index[s] for s in starts if s in self.index], forward)
        return starts.union(map(self.names.__getitem__, ids))


class ModelError(Exception):
    """Base class for structural errors raised by this package."""


class BlockSymbolMissing(ModelError):
    """A declared block symbol labels no edge of the outer template."""


class UnknownLocation(ModelError):
    """A referenced location is not part of the template."""


class InconsistentInputs(ModelError):
    """Jointly supplied structures do not fit together."""


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    subject: tuple = ()

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.entries

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.entries)

    def raise_if_invalid(self) -> None:
        if not self.ok:
            raise ValidationError(self)


class ValidationError(ModelError):
    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


class _ReportBuilder:
    def __init__(self) -> None:
        self.entries: list[Violation] = []

    def add(self, code: str, message: str, subject: tuple = ()) -> None:
        self.entries.append(Violation(code, message, subject))

    def build(self) -> ValidationReport:
        return ValidationReport(tuple(self.entries))


@dataclass(frozen=True)
class ThreadTemplate:
    """Finite control-flow graph with one initial and one exit location.

    `make` builds a template with unique edges whose locations include init,
    exit and every edge endpoint; the derivations (`substitute_blocks`,
    `insert_syncpoints`) keep both properties without re-checking them.
    """

    locations: frozenset[str]
    edges: tuple[Edge, ...]
    init: str
    exit: str

    @staticmethod
    def make(
        edges: Iterable[tuple[str, Action, str]],
        init: str,
        exit: str,
        extra_locations: Iterable[str] = (),
    ) -> "ThreadTemplate":
        """Build a template, inferring the location set from the edges."""
        # first copy of each edge; tuple.__new__ builds an Edge without a
        # Python-level call per edge
        es = tuple(dict.fromkeys(map(tuple.__new__, repeat(Edge), edges)))
        if es and set(map(len, es)) != {3}:
            raise ValueError("an edge is a (src, action, dst) triple")
        locs = {init, exit, *extra_locations}
        locs.update(map(itemgetter(0), es))
        locs.update(map(itemgetter(2), es))
        return ThreadTemplate(frozenset(locs), es, init, exit)

    # -- derived views (computed on first use and kept in the instance
    # dict, which a frozen dataclass allows) ------------------------------

    @cached_property
    def _edge_of(self) -> dict[Action, Optional[Edge]]:
        """Each action's edge; None for an action that labels several."""
        edge_of: dict[Action, Optional[Edge]] = {}
        for e in self.edges:
            edge_of[e.action] = None if e.action in edge_of else e
        return edge_of

    @cached_property
    def alphabet(self) -> frozenset[Action]:
        return frozenset(self._edge_of)

    @cached_property
    def plain_alphabet(self) -> frozenset[Action]:
        """Plain and block-symbol actions (everything but synchronization)."""
        return self.alphabet - {a for a in self.alphabet if a.is_sync}

    @cached_property
    def successors(self) -> Mapping[str, tuple[Edge, ...]]:
        adj: dict[str, list[Edge]] = {loc: [] for loc in self.locations}
        for e in self.edges:
            adj.setdefault(e.src, []).append(e)
        return {k: tuple(v) for k, v in adj.items()}

    @cached_property
    def numbered(self) -> "NumberedView":
        """The template's graph on ints (see `NumberedView`)."""
        return NumberedView(self)

    @cached_property
    def from_init(self) -> frozenset[str]:
        """Locations reachable from init."""
        return self.reachable_from([self.init])

    @cached_property
    def to_exit(self) -> frozenset[str]:
        """Locations from which exit is reachable."""
        return self.co_reachable_to([self.exit])

    def edges_labeled(self, action: Action) -> tuple[Edge, ...]:
        if action not in self._edge_of:
            return ()
        e = self._edge_of[action]
        return (e,) if e is not None else tuple(x for x in self.edges if x.action == action)

    def the_edge(self, action: Action) -> Edge:
        """The unique edge labeled by a plain or block action."""
        e = self._edge_of.get(action)
        if e is None:
            es = self.edges_labeled(action)
            if not es:
                raise KeyError(f"no edge labeled {action}")
            raise InconsistentInputs(f"action {action} labels {len(es)} edges")
        return e

    @property
    def has_sync_actions(self) -> bool:
        return any(a.is_sync for a in self.alphabet)

    @property
    def has_sync_points(self) -> bool:
        return SYNC in self.alphabet  # the rendezvous symbol is unique

    def reachable_from(self, starts: Iterable[str]) -> frozenset[str]:
        return self.numbered.reach_names(starts, forward=True)

    def co_reachable_to(self, targets: Iterable[str]) -> frozenset[str]:
        return self.numbered.reach_names(targets, forward=False)

    def traces(self, max_len: int) -> Iterator[tuple[Action, ...]]:
        """All words labeling init-to-exit paths of length at most max_len.

        Exhaustive (loops unrolled up to the bound); intended for small
        templates and test oracles only.
        """
        succ = self.successors
        seen_words = set()
        stack: list[tuple[str, tuple[Action, ...]]] = [(self.init, ())]
        while stack:
            loc, word = stack.pop()
            if loc == self.exit and word and word not in seen_words:
                seen_words.add(word)
                yield word
            if len(word) >= max_len:
                continue
            for e in succ.get(loc, ()):
                stack.append((e.dst, word + (e.action,)))

    def rename(self, loc_map: Mapping[str, str]) -> "ThreadTemplate":
        def m(loc: str) -> str:
            return loc_map.get(loc, loc)

        return ThreadTemplate.make(
            [(m(e.src), e.action, m(e.dst)) for e in self.edges],
            m(self.init),
            m(self.exit),
            extra_locations=[m(l) for l in self.locations],
        )


def validate_template(t: ThreadTemplate) -> ValidationReport:
    """Check every structural template invariant; violations are report entries.

    An empty report means all downstream operations are defined on `t`.  The
    report is cached on `t`.
    """
    return _memo(t, "validation", lambda: _validate_template(t))


def _validate_template(t: ThreadTemplate) -> ValidationReport:
    rb = _ReportBuilder()
    if t.init == t.exit:
        rb.add("init-equals-exit", "init equals exit", (t.init,))
    if t.init not in t.locations:
        rb.add("unknown-init", f"init location {t.init!r} not declared", (t.init,))
    if t.exit not in t.locations:
        rb.add("unknown-exit", f"exit location {t.exit!r} not declared", (t.exit,))
    for e in t.edges:
        for loc in (e.src, e.dst):
            if loc not in t.locations:
                rb.add("unknown-location", f"edge {e} uses undeclared location {loc!r}", (loc,))

    for loc in sorted(t.locations - t.from_init):
        rb.add("unreachable", f"{loc!r} unreachable from init", (loc,))
    for loc in sorted(t.locations - t.to_exit):
        rb.add("not-co-reachable", f"exit unreachable from {loc!r}", (loc,))

    dups = {a for a, e in t._edge_of.items() if e is None and not a.is_sync}
    if dups:
        _duplicate_labels(rb, Counter(e.action for e in t.edges if e.action in dups))
    return rb.build()


def _duplicate_labels(rb: _ReportBuilder, counts: Mapping[Action, int]) -> None:
    """Report each action of `counts` as labeling that many edges."""
    for a in sorted(counts, key=Action.sort_key):
        rb.add("duplicate-label", f"action {a} labels {counts[a]} edges", (a.name,))


def _derived_from_valid(t: ThreadTemplate, report: ValidationReport) -> None:
    """Seed `t`, derived from valid templates, with its validation report,
    which can only list duplicate labels, and its reach sets: every location
    is reachable from init and reaches exit."""
    t.__dict__.setdefault("_memo", {})["validation"] = report
    t.__dict__["from_init"] = t.__dict__["to_exit"] = t.locations


class SyncKind(Enum):
    TRIVIAL = "trivial"
    LOCKS = "locks"
    LOCKS_AND_SYNC_POINTS = "locks_and_syncpoints"


@dataclass(frozen=True)
class ParameterizedProgram:
    """A thread template together with its synchronization discipline."""

    template: ThreadTemplate
    sync_kind: SyncKind = SyncKind.TRIVIAL

    def validate(self) -> ValidationReport:
        rb = _ReportBuilder()
        for v in validate_template(self.template).entries:
            rb.entries.append(v)
        if self.sync_kind is SyncKind.TRIVIAL and self.template.has_sync_actions:
            bad = sorted(a.name for a in self.template.alphabet if a.is_sync)
            rb.add("sync-in-trivial", f"trivial program uses synchronization actions {bad}")
        if self.sync_kind is SyncKind.LOCKS and self.template.has_sync_points:
            rb.add("syncpoint-in-lock-program", "lock program contains rendezvous edges")
        return rb.build()


def infer_sync_kind(t: ThreadTemplate) -> SyncKind:
    has_locks = any(a.kind is _ACQUIRE or a.kind is _RELEASE for a in t.alphabet)
    if t.has_sync_points:
        return SyncKind.LOCKS_AND_SYNC_POINTS
    return SyncKind.LOCKS if has_locks else SyncKind.TRIVIAL


class CommutativityRelation:
    """A (semi-)commutativity relation: ordered pairs of actions that may swap.

    `(a, b)` in the relation means an adjacent `a b` by two different threads
    may be reordered to `b a`.  No symmetry is required.  The relation is
    declared over an alphabet of plain/block actions; pairs with an endpoint
    outside the alphabet never commute.

    Only the complement ("conflicts") is stored: a relation given by its
    `pairs` is complemented once, when it is made.
    """

    __slots__ = ("alphabet", "explicit_conflicts", "_sorted_conflicts")

    def __init__(
        self,
        alphabet: Iterable[Action],
        *,
        conflicts: Optional[Iterable[tuple[Action, Action]]] = None,
        pairs: Optional[Iterable[tuple[Action, Action]]] = None,
    ):
        if (conflicts is None) == (pairs is None):
            raise ValueError("give exactly one of conflicts= or pairs=")
        self.alphabet: frozenset[Action] = frozenset(alphabet)
        for a in self.alphabet:
            if a.is_sync:
                raise ValueError(f"synchronization action {a} cannot be in the alphabet")
        side = conflicts if conflicts is not None else pairs
        declared = frozenset((x, y) for x, y in side)  # type: ignore[union-attr]
        for x, y in declared:
            if x not in self.alphabet or y not in self.alphabet:
                raise ValueError(f"pair ({x}, {y}) mentions an undeclared action")
        if pairs is not None:
            declared = frozenset(product(self.alphabet, repeat=2)) - declared
        # the non-commuting pairs within the declared alphabet
        self.explicit_conflicts: frozenset[tuple[Action, Action]] = declared
        # `explicit_conflicts` in sort-key order, filled on first use
        self._sorted_conflicts: Optional[tuple[tuple[Action, Action], ...]] = None

    @staticmethod
    def full(alphabet: Iterable[Action]) -> "CommutativityRelation":
        return CommutativityRelation(alphabet, conflicts=())

    @staticmethod
    def empty(alphabet: Iterable[Action]) -> "CommutativityRelation":
        return CommutativityRelation(alphabet, pairs=())

    def commutes(self, a: Action, b: Action) -> bool:
        if a not in self.alphabet or b not in self.alphabet:
            return False
        return (a, b) not in self.explicit_conflicts

    @property
    def pairs(self) -> frozenset[tuple[Action, Action]]:
        """The positive relation, materialized (quadratic in the alphabet)."""
        return frozenset(product(self.alphabet, repeat=2)) - self.explicit_conflicts

    def conflicts_over(self, universe: Iterable[Action]) -> Iterator[tuple[Action, Action]]:
        """All non-commuting ordered pairs over `universe`.

        Actions outside the declared alphabet conflict with everything.
        """
        uni_set = set(universe)
        absent = sorted(uni_set - self.alphabet, key=Action.sort_key)
        ordered = self._sorted_conflicts
        if ordered is None:
            ordered = self._sorted_conflicts = tuple(
                sorted(self.explicit_conflicts, key=lambda p: (p[0].sort_key(), p[1].sort_key()))
            )
        for x, y in ordered:
            if x in uni_set and y in uni_set:
                yield (x, y)
        uni = sorted(uni_set, key=Action.sort_key) if absent else []
        for x in absent:
            for y in uni:
                yield (x, y)
                if y not in self.alphabet:
                    continue
                yield (y, x)

    def is_symmetric(self) -> bool:
        confl = self.explicit_conflicts
        return all((b, a) in confl for a, b in confl)

    def symmetric_core(self) -> "CommutativityRelation":
        """Largest symmetric relation contained in this one."""
        confl = self.explicit_conflicts
        sym_conflicts = set(confl)
        sym_conflicts.update((b, a) for a, b in confl)
        return CommutativityRelation(self.alphabet, conflicts=sym_conflicts)

    def with_extra_pairs(self, extra: Iterable[tuple[Action, Action]]) -> "CommutativityRelation":
        """This relation plus `extra` (pairs off the alphabet are ignored)."""
        return CommutativityRelation(self.alphabet, conflicts=self.explicit_conflicts.difference(extra))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommutativityRelation):
            return NotImplemented
        return self.alphabet == other.alphabet and self.explicit_conflicts == other.explicit_conflicts

    def __hash__(self) -> int:
        return hash((self.alphabet, self.explicit_conflicts))

    def __repr__(self) -> str:
        return (
            f"CommutativityRelation(|alphabet|={len(self.alphabet)}, "
            f"|conflicts|={len(self.explicit_conflicts)})"
        )


@dataclass(frozen=True)
class AtomicFusion:
    """An outer template with block-symbol edges plus one body per block.

    The original (unfused) template is derived by `substitute_blocks`; it is
    never stored, which makes the substitution invariant hold by construction.
    """

    outer: ThreadTemplate
    blocks: tuple[tuple[Action, ThreadTemplate], ...]

    @staticmethod
    def make(outer: ThreadTemplate, blocks: Mapping[Action, ThreadTemplate]) -> "AtomicFusion":
        ordered = tuple(sorted(blocks.items(), key=lambda kv: kv[0].sort_key()))
        return AtomicFusion(outer, ordered)

    @property
    def block_map(self) -> dict[Action, ThreadTemplate]:
        return dict(self.blocks)

    @property
    def block_symbols(self) -> tuple[Action, ...]:
        return tuple(sym for sym, _ in self.blocks)

    @staticmethod
    def identity(outer: ThreadTemplate) -> "AtomicFusion":
        return AtomicFusion(outer, ())


def substitute_blocks(fusion: AtomicFusion) -> ThreadTemplate:
    """Expand every block-symbol edge of the outer template with its body.

    Body locations are renamed `<blocksym>::<location>`; the body's init and
    exit are identified with the fused edge's endpoints.  The result is
    cached on `fusion`, so every caller gets the same template object.
    """
    return _memo(fusion, "substituted", lambda: _substitute_blocks(fusion))


def _substitute_blocks(fusion: AtomicFusion) -> ThreadTemplate:
    """The outer edges but the block edges, then the renamed body edges
    that repeat no earlier edge: the edges `make` would keep, found without
    a pass over them all.  The action index is the outer one, updated.
    When the outer template and every body are valid (their reports are
    made here if no one asked before), and no renamed body location is an
    outer or another renamed one, only a label that two of them share can
    break validity (see `_derived_from_valid`).
    """
    outer = fusion.outer
    block_syms = set(fusion.block_symbols)
    added: dict[Edge, None] = {}  # renamed body edges, in order, once each
    inner: list[str] = []  # renamed body locations other than init and exit
    for sym, body in fusion.blocks:
        hits = outer.edges_labeled(sym)
        if not hits:
            raise BlockSymbolMissing(f"block symbol {sym} has no edge in the outer template")
        if len(hits) > 1:
            raise InconsistentInputs(f"block symbol {sym} labels {len(hits)} edges")
        src, _, dst = hits[0]

        def rename(loc: str, sym=sym, body=body, src=src, dst=dst) -> str:
            if loc == body.init:
                return src
            if loc == body.exit:
                return dst
            return f"{sym.name}::{loc}"

        for u, a, w in body.edges:
            e = tuple.__new__(Edge, (rename(u), a, rename(w)))
            if a in block_syms or e not in outer.edges_labeled(a):
                added.setdefault(e)
        inner += [rename(loc) for loc in body.locations - {body.init, body.exit}]
    edges = [e for e in outer.edges if e.action not in block_syms]
    t = ThreadTemplate(outer.locations.union(inner), (*edges, *added), outer.init, outer.exit)
    edge_of = t.__dict__["_edge_of"] = dict(outer._edge_of)
    for sym in block_syms:
        del edge_of[sym]
    for e in added:
        edge_of[e.action] = None if e.action in edge_of else e
    if (
        len(set(inner)) == len(inner)
        and outer.locations.isdisjoint(inner)
        and validate_template(outer).ok
        and all(validate_template(body).ok for _, body in fusion.blocks)
    ):
        # an action labels at most one outer edge and one edge per body; the
        # outer edge of a block symbol is cut
        counts = Counter(e.action for e in added if edge_of[e.action] is None and not e.action.is_sync)
        for a in counts:
            counts[a] += a in outer._edge_of and a not in block_syms
        rb = _ReportBuilder()
        _duplicate_labels(rb, counts)
        _derived_from_valid(t, rb.build())
    return t


def validate_fusion(fusion: AtomicFusion, declared_original: Optional[ThreadTemplate] = None) -> ValidationReport:
    """Check all atomic-fusion invariants.

    When `declared_original` is given, the substituted template is compared
    against it by trace-language equivalence (see `automata`).
    """
    rb = _ReportBuilder()
    for v in validate_template(fusion.outer).entries:
        rb.add("outer:" + v.code, "outer template: " + v.message, v.subject)
    block_syms = set(fusion.block_symbols)
    for sym, body in fusion.blocks:
        tag = f"block {sym.name}"
        if sym.kind is not ActionKind.BLOCK:
            rb.add("bad-block-symbol", f"{tag}: symbol is not a block action", (sym.name,))
        if not fusion.outer.edges_labeled(sym):
            rb.add("block-symbol-missing", f"{tag}: no edge in the outer template", (sym.name,))
        for v in validate_template(body).entries:
            rb.add("body:" + v.code, f"{tag}: {v.message}", v.subject)
        for a in sorted(body.alphabet, key=Action.sort_key):
            if a.is_sync:
                rb.add("sync-in-body", f"{tag}: body contains synchronization action {a}", (a.name,))
            if a.kind is ActionKind.BLOCK or a in block_syms:
                rb.add("block-in-body", f"{tag}: body contains block symbol {a}", (a.name,))
        # A valid body always has an init-to-exit path; record it explicitly
        # when the body is broken in exactly that way.
        if body.init in body.locations and body.exit not in body.from_init:
            rb.add("empty-body-language", f"{tag}: no path from body init to body exit", (sym.name,))
    if rb.entries:
        return rb.build()

    derived = substitute_blocks(fusion)
    for v in validate_template(derived).entries:
        rb.add("substituted:" + v.code, "substituted template: " + v.message, v.subject)
    if declared_original is not None:
        from . import automata

        eq, counterexample = automata.language_equivalent(derived, declared_original)
        if not eq:
            word = " ".join(a.name for a in counterexample or ())
            rb.add(
                "substitution-mismatch",
                f"substituted template and declared original disagree on trace {word!r}",
            )
    return rb.build()


@dataclass(frozen=True)
class SyncPointInstrumentation:
    """A base template plus a rendezvous-instrumented variant of it.

    When built syntactically (`insert_syncpoints`), `insertion_locations`
    records where the rendezvous was inserted.
    """

    base: ThreadTemplate
    instrumented: ThreadTemplate
    insertion_locations: Optional[frozenset[str]] = None

    @property
    def sync_point_count(self) -> int:
        return sum(1 for e in self.instrumented.edges if e.action.kind is _SYNC_POINT)


def insert_syncpoints(t: ThreadTemplate, m: Iterable[str]) -> SyncPointInstrumentation:
    """Insert a rendezvous edge after every location in `m`.

    Each location keeps its incoming edges, gains an edge to a fresh copy
    labeled by the rendezvous symbol, and its outgoing edges move to the
    copy.  A location without outgoing edges is left untouched (a rendezvous
    there could never be passed and would only break co-reachability).
    The instrumented template is cached on `t` per location set, so
    rebuilding an instrumentation to compare it gives the same template.
    """
    m = frozenset(m)
    unknown = m - t.locations
    if unknown:
        raise UnknownLocation(f"locations not in template: {sorted(unknown)}")
    # a template that gains no edge is not kept in its own cache
    instrumented = _memo(t, ("instrumented", m), lambda: _insert_syncpoints(t, m))
    return SyncPointInstrumentation(t, instrumented or t, m)


def _insert_syncpoints(t: ThreadTemplate, m: frozenset[str]) -> Optional[ThreadTemplate]:
    """The instrumented template, or None when no location of `m` has an
    outgoing edge.  Only the edges leaving a location of `m` change, and the
    action index is `t`'s, updated; copies, named in sorted order, are new
    names.  A valid `t` gives a valid result: a split location keeps its
    in-edges, and its copy takes its out-edges (see `_derived_from_valid`).
    """
    v = t.numbered
    copies: dict[str, str] = {}
    for loc in sorted(m):
        if v.out(v.index[loc]):
            copy = loc + "^"
            while copy in t.locations or copy in copies.values():
                copy += "^"
            copies[loc] = copy
    if not copies:
        return None
    edges = list(t.edges)
    edge_of = dict(t._edge_of)
    for loc, copy in copies.items():
        for k in v.out(v.index[loc]):
            old = edges[k]
            e = edges[k] = tuple.__new__(Edge, (copy, old.action, old.dst))
            if edge_of[old.action] is old:
                edge_of[old.action] = e
    for loc, copy in copies.items():
        e = tuple.__new__(Edge, (loc, SYNC, copy))
        edges.append(e)
        edge_of[SYNC] = None if SYNC in edge_of else e
    inst = ThreadTemplate(t.locations.union(copies.values()), tuple(edges), t.init, t.exit)
    inst.__dict__["_edge_of"] = edge_of
    if validate_template(t).ok:
        _derived_from_valid(inst, ValidationReport())
    return inst


def validate_instrumentation(inst: SyncPointInstrumentation) -> ValidationReport:
    """Check the two semantic instrumentation invariants by automaton products.

    (i) erasing the rendezvous from the instrumented traces yields exactly the
    base trace language; (ii) distinct instrumented traces never share the
    same erased form.  Both are decided exactly on these finite graphs.
    """
    from . import automata

    rb = _ReportBuilder()
    fatal = False
    for side, t in (("base", inst.base), ("instrumented", inst.instrumented)):
        for v in validate_template(t).entries:
            rb.add(f"{side}:{v.code}", f"{side} template: {v.message}", v.subject)
            if v.code in ("init-equals-exit", "unknown-init", "unknown-exit"):
                fatal = True
    if inst.base.has_sync_points:
        rb.add("syncpoint-in-base", "base template already contains rendezvous edges")
        fatal = True
    if fatal:
        return rb.build()

    eq, counterexample = automata.language_equivalent(
        inst.base, inst.instrumented, erase_right={ActionKind.SYNC_POINT}
    )
    if not eq:
        word = " ".join(a.name for a in counterexample or ())
        rb.add("projection-mismatch", f"erased instrumented language differs from base on {word!r}")
    pair = automata.find_projection_collision(inst.instrumented, erased={ActionKind.SYNC_POINT})
    if pair is not None:
        w1, w2 = pair
        rb.add(
            "projection-not-injective",
            "two instrumented traces share one erased form: "
            f"{' '.join(a.name for a in w1)!r} vs {' '.join(a.name for a in w2)!r}",
        )
    return rb.build()


@dataclass(frozen=True)
class NaturalReductionSpec:
    """A reduction given by an optional fusion and an optional instrumentation.

    When both are present, the instrumentation applies to the fused template.
    """

    fusion: Optional[AtomicFusion] = None
    instrumentation: Optional[SyncPointInstrumentation] = None

    def validate(self) -> ValidationReport:
        """All fusion and instrumentation invariants; cached on the spec."""
        return _memo(self, "validation", self._validate)

    def _validate(self) -> ValidationReport:
        rb = _ReportBuilder()
        if self.fusion is not None:
            for v in validate_fusion(self.fusion).entries:
                rb.entries.append(v)
            for sym, body in self.fusion.blocks:
                if body.has_sync_points:
                    rb.add("syncpoint-in-block", f"atomic block {sym.name} contains a rendezvous")
        if self.instrumentation is not None:
            inst = self.instrumentation
            if self.fusion is not None and inst.base != self.fusion.outer:
                rb.add("instrumentation-base-mismatch", "instrumentation is not over the fused template")
            if inst.insertion_locations is not None:
                rebuilt = insert_syncpoints(inst.base, inst.insertion_locations)
                if rebuilt.instrumented != inst.instrumented:
                    rb.add("instrumentation-mismatch", "instrumented template does not match its insertion set")
            # a syntactic insertion keeps the base language, and erasing its
            # rendezvous is injective unless a lock action labels two edges
            if inst.insertion_locations is None or any(
                e is None and a.lock is not None for a, e in inst.base._edge_of.items()
            ):
                rb.entries.extend(validate_instrumentation(inst).entries)
        return rb.build()

