"""Finite-automaton checks over thread templates.

Templates are edge-labeled NFAs with one initial and one accepting state.
This module decides trace-language equivalence (optionally erasing a set of
action kinds on either side) and searches for projection collisions: two
distinct accepted words that agree after erasure.  Both checks return
concrete counterexample words.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import graphs
from .model import Action, ActionKind, ThreadTemplate

Word = tuple[Action, ...]


class _Nfa:
    def __init__(self, t: ThreadTemplate, erase: frozenset[ActionKind]):
        self.init = t.init
        self.exit = t.exit
        self.moves: dict[str, dict[Action, set[str]]] = {}
        self.eps: dict[str, set[str]] = {}
        for e in t.edges:
            if e.action.kind in erase:
                self.eps.setdefault(e.src, set()).add(e.dst)
            else:
                self.moves.setdefault(e.src, {}).setdefault(e.action, set()).add(e.dst)

    def closure(self, states: Iterable[str]) -> frozenset[str]:
        return frozenset(graphs.reachable(lambda s: self.eps.get(s, ()), states))

    def start(self) -> frozenset[str]:
        return self.closure([self.init])

    def step(self, states: frozenset[str], a: Action) -> frozenset[str]:
        out: set[str] = set()
        for s in states:
            out.update(self.moves.get(s, {}).get(a, ()))
        return self.closure(out)

    def labels(self, states: frozenset[str]) -> set[Action]:
        out: set[Action] = set()
        for s in states:
            out.update(self.moves.get(s, {}).keys())
        return out

    def accepts(self, states: frozenset[str]) -> bool:
        return self.exit in states


def accepts(t: ThreadTemplate, word: Iterable[Action]) -> bool:
    """Whether `word` labels an init-to-exit path of `t`."""
    nfa = _Nfa(t, frozenset())
    states = nfa.start()
    for a in word:
        states = nfa.step(states, a)
    return nfa.accepts(states)


def language_equivalent(
    left: ThreadTemplate,
    right: ThreadTemplate,
    erase_right: Iterable[ActionKind] = (),
) -> tuple[bool, Optional[Word]]:
    """Decide T(left) == T(right)|erased via lazy joint determinization.

    Returns (True, None) on equality, else (False, word) where `word` is
    accepted by exactly one side.  The empty word never counts (templates
    with distinct init and exit never accept it).
    """
    n1 = _Nfa(left, frozenset())
    n2 = _Nfa(right, frozenset(erase_right))

    def successors(state: tuple[frozenset[str], frozenset[str]]):
        s1, s2 = state
        for a in sorted(n1.labels(s1) | n2.labels(s2), key=Action.sort_key):
            nxt = (n1.step(s1, a), n2.step(s2, a))
            if nxt[0] or nxt[1]:
                yield nxt, a

    found = graphs.bfs_path(
        [(n1.start(), n2.start())],
        successors,
        lambda state: n1.accepts(state[0]) != n2.accepts(state[1]),
    )
    if found is None:
        return True, None
    return False, tuple(found[1])


def find_projection_collision(
    t: ThreadTemplate, erased: Iterable[ActionKind]
) -> Optional[tuple[Word, Word]]:
    """Find two distinct accepted words whose erased projections coincide.

    Runs a product search over two copies of the template.  Erased steps are
    consumed in matched pairs until, in one guessed projection gap, the first
    copy takes strictly more erased steps than the second; afterwards the
    counts are free.  Any accepting product state past that guess witnesses
    the collision.  Returns the two full words, or None if the projection is
    injective on the trace language.
    """
    erased = frozenset(erased)
    plain_moves: dict[str, list[tuple[Action, str]]] = {}
    erased_moves: dict[str, list[tuple[Action, str]]] = {}
    for e in t.edges:
        bucket = erased_moves if e.action.kind in erased else plain_moves
        bucket.setdefault(e.src, []).append((e.action, e.dst))

    MATCHED, EXCESS, FREE = 0, 1, 2

    # a step's label is the pair of suffixes it adds to the two words
    def successors(state: tuple):
        u, v, phase = state
        for a, u2 in plain_moves.get(u, ()):
            for b, v2 in plain_moves.get(v, ()):
                if a == b:
                    nxt_phase = FREE if phase != MATCHED else MATCHED
                    yield (u2, v2, nxt_phase), (a, b)
        if phase == MATCHED:
            for a, u2 in erased_moves.get(u, ()):
                for b, v2 in erased_moves.get(v, ()):
                    yield (u2, v2, MATCHED), (a, b)
                yield (u2, v, EXCESS), (a, None)
        elif phase == EXCESS:
            for a, u2 in erased_moves.get(u, ()):
                yield (u2, v, EXCESS), (a, None)
        else:
            for a, u2 in erased_moves.get(u, ()):
                yield (u2, v, FREE), (a, None)
            for b, v2 in erased_moves.get(v, ()):
                yield (u, v2, FREE), (None, b)

    found = graphs.bfs_path(
        [(t.init, t.init, MATCHED)],
        successors,
        lambda state: state[2] != MATCHED and state[0] == t.exit and state[1] == t.exit,
    )
    if found is None:
        return None
    steps = found[1]
    return (
        tuple(a for a, _ in steps if a is not None),
        tuple(b for _, b in steps if b is not None),
    )
