"""Mover classification and the classic one-pivot atomicity rule.

An action is a left-mover when everything commutes into it from the left,
a right-mover when it commutes over everything to its right.  The classic
rule certifies an atomic block when every path through it is a sequence of
right-movers, one arbitrary pivot, then left-movers.  The rule is sound but
not complete; the complete check lives in `decision`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from . import graphs
from .model import Action, AtomicFusion, CommutativityRelation

CERTIFIED_SOUND = "certified-sound"
UNKNOWN = "unknown"


class Mover(Enum):
    BOTH = "both"
    LEFT = "left"
    RIGHT = "right"
    NON = "non"

    @property
    def is_left(self) -> bool:
        return self in (Mover.LEFT, Mover.BOTH)

    @property
    def is_right(self) -> bool:
        return self in (Mover.RIGHT, Mover.BOTH)


def _mover_of(a: Action, i: CommutativityRelation, universe: Iterable[Action]) -> Mover:
    left = all(i.commutes(b, a) for b in universe)
    right = all(i.commutes(a, b) for b in universe)
    if left and right:
        return Mover.BOTH
    if left:
        return Mover.LEFT
    if right:
        return Mover.RIGHT
    return Mover.NON


def classify_movers(alphabet: Iterable[Action], i: CommutativityRelation) -> dict[Action, Mover]:
    """Mover class of each action, quantified over the declared alphabet."""
    alphabet = sorted(set(alphabet), key=Action.sort_key)
    stray = [a for a in alphabet if a not in i.alphabet]
    if stray:
        raise ValueError(f"actions {[a.name for a in stray]} not in the relation's alphabet")
    universe = sorted(i.alphabet, key=Action.sort_key)
    return {a: _mover_of(a, i, universe) for a in alphabet}


@dataclass(frozen=True)
class LiptonResult:
    result: str  # CERTIFIED_SOUND | UNKNOWN
    failing_block: Optional[Action] = None
    failing_trace: Optional[tuple[Action, ...]] = None
    dead_actions: tuple[Action, ...] = ()

    @property
    def certified(self) -> bool:
        return self.result == CERTIFIED_SOUND


def lipton_check(f: AtomicFusion, i: CommutativityRelation) -> LiptonResult:
    """Certify a fusion when every block trace is right-movers, pivot, left-movers.

    Decided by running each body against the three-state acceptor of that
    shape; `unknown` comes with a concrete non-conforming trace.  Mover
    classes quantify over the declared alphabet joined with the program
    alphabet, so undeclared program actions soundly demote movers.
    """
    program = program_alphabet(f)
    universe = sorted(set(i.alphabet) | program, key=Action.sort_key)
    dead = tuple(a for a in universe if a in i.alphabet and a not in program)

    mover = {
        a: _mover_of(a, i, universe) for _, body in f.blocks for a in body.alphabet
    }
    P, PQ, Q, DEAD = 0, 1, 2, 3

    def step(state: int, a: Action) -> int:
        if state in (P, PQ):
            return PQ if mover[a].is_right else Q
        if state == Q:
            return Q if mover[a].is_left else DEAD
        return DEAD

    for sym, body in f.blocks:
        assert body.init != body.exit  # block traces are never empty
        found = graphs.bfs_path(
            [(body.init, P)],
            lambda node: [
                ((e.dst, step(node[1], e.action)), e.action)
                for e in body.successors.get(node[0], ())
            ],
            lambda node: node[0] == body.exit and node[1] in (P, DEAD),
        )
        if found is not None:
            return LiptonResult(
                UNKNOWN,
                failing_block=sym,
                failing_trace=tuple(found[1]),
                dead_actions=dead,
            )
    return LiptonResult(CERTIFIED_SOUND, dead_actions=dead)


def program_alphabet(f: AtomicFusion) -> set[Action]:
    """Plain alphabet of the program the fusion describes (blocks expanded)."""
    out = {a for a in f.outer.plain_alphabet if a not in set(f.block_symbols)}
    for _, body in f.blocks:
        out.update(body.plain_alphabet)
    return out
