"""The escape analysis on conflict-source bitsets against the pairwise engine.

Random fusions with cyclic outer templates, loop bodies (so reverse order
inside a block matters), lock edges, actions missing from the relation's
alphabet, and empty or full relations: `check_atomic_fusion` must give the
verdict and witness the pairwise meta-graph engine of `tests/reference.py`
gives, and `escape_relation` the same pairs.  A work count pins that the
search asks no pairwise order step.
"""

from __future__ import annotations

from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from nredcheck import decision, graphs
from nredcheck.decision import (
    check_atomic_fusion,
    escape_relation,
    verify_fusion_witness,
)
from nredcheck.model import (
    AtomicFusion,
    CommutativityRelation,
    ThreadTemplate,
    acquire,
    block_symbol,
    plain,
    release,
    substitute_blocks,
)
from nredcheck.nredfile import parse_input

import reference

ROOT = Path(__file__).resolve().parent.parent


@st.composite
def graph_edges(draw, locs: list[str], labels: list, forward: bool) -> list[tuple]:
    """A spine through `locs` (so every location lies on an init-to-exit
    path) plus extra edges: forward only, or anywhere, back edges and
    self-loops included; `labels` are placed in order, spine first."""
    pairs = [(locs[k], locs[k + 1]) for k in range(len(locs) - 1)]
    while len(pairs) < len(labels):
        u = draw(st.integers(0, len(locs) - 2 if forward else len(locs) - 1))
        v = draw(st.integers(u + 1 if forward else 0, len(locs) - 1))
        pairs.append((locs[u], locs[v]))
    return [(u, a, v) for (u, v), a in zip(pairs, labels)]


@st.composite
def fusions(draw, sparse: bool = False) -> tuple[AtomicFusion, CommutativityRelation]:
    """Random fusions; `sparse` ones have a longer acyclic outer template
    and a few drawn conflicts over a declared alphabet, so chains take
    several conflict steps."""
    names = iter(f"p{k}" for k in range(100))
    syms = [block_symbol(f"B{k + 1}") for k in range(draw(st.integers(1, 3)))]
    bodies = {}
    for sym in syms:
        size = draw(st.integers(1, 3))
        locs = [f"{sym.name.lower()}u{k}" for k in range(size + 1)]
        labels = [plain(next(names)) for _ in range(size + draw(st.integers(0, 2)))]
        edges = draw(graph_edges(locs, labels, forward=draw(st.booleans())))
        bodies[sym] = ThreadTemplate.make(edges, locs[0], locs[-1])
    locs = [f"o{k}" for k in range(draw(st.integers(4 if sparse else 1, 9 if sparse else 6)) + 1)]
    labels = syms + [plain(next(names)) for _ in range(draw(st.integers(0, 10 if sparse else 8)))]
    labels = draw(st.permutations(labels))
    labels += draw(st.lists(st.sampled_from([acquire("m"), release("m")]), max_size=1))
    edges = draw(graph_edges(locs, labels, forward=sparse or draw(st.booleans())))
    outer = ThreadTemplate.make(edges, locs[0], locs[-1])
    fusion = AtomicFusion.make(outer, bodies)
    actions = sorted(substitute_blocks(fusion).plain_alphabet)
    # some actions stay undeclared, and so conflict with everything
    alphabet = [a for a in actions if sparse or draw(st.integers(0, 9))]
    shape = "drawn" if sparse else draw(st.sampled_from(["empty", "full", "drawn"]))
    if shape == "empty":
        rel = CommutativityRelation.empty(alphabet)
    elif shape == "full":
        rel = CommutativityRelation.full(alphabet)
    else:
        pairs = [(x, y) for x in alphabet for y in alphabet]
        drawn = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
        rel = CommutativityRelation(alphabet, conflicts=drawn)
    return fusion, rel


@settings(max_examples=300, deadline=None)
@given(st.booleans().flatmap(fusions))
def test_bitsets_match_the_pairwise_engine(case):
    fusion, rel = case
    t = substitute_blocks(fusion)
    got = check_atomic_fusion(t, fusion, rel)
    with mock.patch.object(decision, "_EscapeAnalysis", reference.PairwiseEscape):
        want = check_atomic_fusion(t, fusion, rel)
    assert got == want
    if got.is_unsound:
        assert verify_fusion_witness(t, fusion, rel, got.witness)
    assert escape_relation(t, fusion, rel).pairs == reference.escape_relation_pairwise(t, fusion, rel)
    # every row bit is one pairwise order step, with its kind, every chain
    # the search can be asked for is the pairwise engine's, and the closure
    # holds a source exactly when there is a chain to it
    eng = decision._EscapeAnalysis(t, fusion, rel)
    ref = reference.PairwiseEscape(t, fusion, rel)
    for v in {y for _, y in eng.conflicts}:
        for k, w in enumerate(eng.conflict_sources):
            kind = eng.order_step(v, w)
            assert bool(eng._rows[v][1] >> k & 1) == (kind is not None)
            if kind is not None:
                assert eng._kind(v, k) == kind
            chain = ref.chain(v, w)
            assert eng.chain(v, w) == chain
            assert bool(eng.closure(v) >> k & 1) == (chain is not None)


def _counted(monkeypatch, owner, name: str) -> list[int]:
    calls = [0]
    inner = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_search_asks_no_pairwise_order_step(monkeypatch):
    # the golden dense fusion (288 actions, 303 conflicts, four blocks), and
    # a sound variant without the conflicts of the first action of block
    # B4, where the planted escape starts; the pairwise engine asked about
    # 52,000 order steps per verdict on such inputs
    parsed = parse_input((ROOT / "cases" / "dense_fusion.nred").read_text(encoding="utf-8"))
    t, fusion, rel = parsed.program.template, parsed.spec.fusion, parsed.relation
    start = plain("b4_0")
    sound_rel = CommutativityRelation(
        rel.alphabet, conflicts=[p for p in rel.explicit_conflicts if start not in p]
    )
    steps = _counted(monkeypatch, decision._EscapeAnalysis, "order_step")
    tarjans = _counted(monkeypatch, graphs, "tarjan_scc")
    for relation, result in ((rel, "unsound"), (sound_rel, "sound")):
        steps[0] = tarjans[0] = 0
        verdict = check_atomic_fusion(t, fusion, relation)
        assert verdict.result == result
        assert steps[0] == 0
        # one component pass per block body, and one for the bitsets
        assert tarjans[0] <= len(fusion.blocks) + 1
    # the witness re-check is the pairwise definition: one step per order link
    verdict = check_atomic_fusion(t, fusion, rel)
    steps[0] = 0
    assert verify_fusion_witness(t, fusion, rel, verdict.witness)
    assert steps[0] == len(verdict.witness.chain) // 2
