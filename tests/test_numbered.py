"""The numbered view of a template against the dict-based reference passes.

Random templates with cycles, dead and unreachable locations, undeclared
names and rendezvous loops that pump: every whole-template pass that runs
on the numbered view must give what the name-based passes in
`tests/reference.py` give, witness parents and tie-breaks included.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nredcheck import decision
from nredcheck.model import (
    SYNC,
    Action,
    ActionKind,
    AtomicFusion,
    CommutativityRelation,
    Edge,
    InconsistentInputs,
    SyncPointInstrumentation,
    ThreadTemplate,
    block_symbol,
    insert_syncpoints,
    plain,
    substitute_blocks,
    validate_template,
)

import reference

# creation order and sorted order differ ("x10" < "x2"), so numbering by
# sorted name is exercised
NAMES = ["x2", "x10", "b", "a", "x1", "c", "d", "e"]


@st.composite
def edge_lists(draw, names: list[str], unique_labels: bool) -> list[Edge]:
    edges = []
    for k in range(draw(st.integers(0, 14))):
        src, dst = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        if draw(st.integers(0, 3)) == 0:
            action = SYNC
        else:
            action = plain(f"p{k}" if unique_labels else draw(st.sampled_from(["p", "q", "r"])))
        edges.append(Edge(src, action, dst))
    return edges


@st.composite
def made_templates(draw) -> ThreadTemplate:
    """Templates with unique plain labels, as `make` builds them."""
    locs = draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=8, unique=True))
    edges = draw(edge_lists(locs, unique_labels=True))
    init, exit = draw(st.sampled_from(locs)), draw(st.sampled_from(locs))
    return ThreadTemplate.make(edges, init, exit, extra_locations=locs)


@st.composite
def constructed_templates(draw) -> ThreadTemplate:
    """Templates from the plain constructor: init, exit and edge endpoints
    may be undeclared, and plain labels, even whole edges, may repeat."""
    declared = draw(st.lists(st.sampled_from(NAMES), max_size=6, unique=True))
    names = NAMES + ["zz"]
    edges = draw(edge_lists(names, unique_labels=False))
    init, exit = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    return ThreadTemplate(frozenset(declared), tuple(edges), init, exit)


@settings(max_examples=300, deadline=None)
@given(constructed_templates(), st.sampled_from(NAMES + ["zz", "unknown"]))
def test_reach_sets_match_the_reference(t, start):
    assert t.from_init == reference.reach_ref(t, [t.init])
    assert t.to_exit == reference.reach_ref(t, [t.exit], forward=False)
    assert t.reachable_from([start]) == reference.reach_ref(t, [start])
    assert t.co_reachable_to([start]) == reference.reach_ref(t, [start], forward=False)


# one edge object listed twice labels its action twice
TWICE = Edge("a", plain("p"), "b")


@settings(max_examples=300, deadline=None)
@given(constructed_templates())
@example(ThreadTemplate(frozenset({"a", "b"}), (TWICE, TWICE), "a", "b"))
def test_constructed_templates_keep_their_validation_messages(t):
    report = validate_template(t)
    assert [(v.code, v.message, v.subject) for v in report.entries] == reference.validate_template_ref(t)


# two equally long greatest-count paths into `a`, via x1 and via x10: which
# one the witness takes depends on the order the components are searched in
TIE = ThreadTemplate.make(
    [(src, plain(f"p{k}"), dst) for k, (src, dst) in enumerate(
        [("x1", "a"), ("x1", "a"), ("d", "x10"), ("d", "x1"), ("d", "d"), ("x10", "a")]
    )],
    "d",
    "a",
)


@settings(max_examples=300, deadline=None)
@given(made_templates())
@example(TIE)
def test_sync_counts_and_phase_bounds_match_the_reference(t):
    counts = decision._sync_counts(t)
    names, edges = t.numbered.names, t.edges
    by_name = (
        {names[u]: d for u, d in counts.least.items()},
        {names[u]: (edges[k].src, edges[k].action) for u, k in counts.least_parent.items()},
        {names[u]: d for u, d in counts.greatest.items()},
        {names[u]: edges[k] for u, k in counts.greatest_parent.items()},
    )
    assert by_name == reference.sync_counts_ref(t)
    pb = decision._phase_bounds(t, counts)
    assert (pb.min_count, pb.max_count) == reference.phase_bounds_ref(t)


@settings(max_examples=200, deadline=None)
@given(made_templates())
def test_block_components_match_the_reference(t):
    by_src: dict[str, list[Edge]] = {}
    for e in t.edges:
        by_src.setdefault(e.src, []).append(e)
    edge_graph = {e: by_src.get(e.dst, []) for e in t.edges}
    assert decision._block_sccs(t).members == reference._tarjan_ref(t.edges, edge_graph)


# -- derived templates ---------------------------------------------------------
#
# `substitute_blocks` and `insert_syncpoints` hand their template the edges,
# action index, validation report and reach sets that follow from the outer
# template and the bodies.  Everything a check reads off a derived template
# must be what a copy built by `make`, with nothing cached, gives.

LABELS = ["p", "q", "r", "s"]  # shared by the outer template and the bodies
OUTER = ["o0", "o1", "o2", "o3", "B1::u1"]  # the last one meets a renamed body location
BODY = ["u0", "u1", "u2", "u3"]


@st.composite
def drawn_templates(draw, names: list[str], labels: list[Action], valid: bool) -> ThreadTemplate:
    """A template over some of `names` labeled by `labels`, each used once.
    When `valid`, the locations form a path from init to exit, labeled first
    (by fresh labels where `labels` run out); otherwise anything goes."""
    locs = draw(st.lists(st.sampled_from(names), min_size=2, max_size=len(names), unique=True))
    labels = list(labels)
    edges = []
    if valid:
        for k, (u, w) in enumerate(zip(locs, locs[1:])):
            edges.append((u, labels.pop() if labels else plain(f"{u}-{k}"), w))
        init, exit = locs[0], locs[-1]
    else:
        init, exit = draw(st.sampled_from(locs)), draw(st.sampled_from(locs))
    edges += [(draw(st.sampled_from(locs)), a, draw(st.sampled_from(locs))) for a in labels]
    return ThreadTemplate.make(draw(st.permutations(edges)), init, exit, locs)


@st.composite
def fusions(draw) -> tuple[AtomicFusion, frozenset[str], CommutativityRelation]:
    """A fusion whose outer template and bodies are mostly valid, may share
    labels, and whose outer locations may meet renamed body locations; an
    insertion set over the outer template; a relation over every label."""
    valid = draw(st.integers(0, 3)) > 0
    some_labels = st.lists(st.sampled_from(LABELS), max_size=3, unique=True)
    blocks = {}
    for k in range(1, draw(st.integers(1, 2)) + 1):
        labels = [plain(x) for x in draw(some_labels)] + [plain(f"b{k}")]
        blocks[block_symbol(f"B{k}")] = draw(drawn_templates(BODY, labels, valid))
    labels = list(blocks) + [plain(x) for x in draw(some_labels)] + [SYNC] * draw(st.integers(0, 2))
    outer = draw(drawn_templates(OUTER, draw(st.permutations(labels)), valid))
    m = frozenset(draw(st.lists(st.sampled_from(sorted(outer.locations)), min_size=1, max_size=3)))
    alphabet = sorted(
        {e.action for t in (outer, *blocks.values()) for e in t.edges if e.action.kind is ActionKind.PLAIN},
        key=Action.sort_key,
    )
    conflicts = draw(st.lists(st.tuples(st.sampled_from(alphabet), st.sampled_from(alphabet)), max_size=6))
    return AtomicFusion.make(outer, blocks), m, CommutativityRelation(alphabet, conflicts=conflicts)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InconsistentInputs as exc:
        return ("raised", str(exc))


def _decision_views(base: ThreadTemplate, t: ThreadTemplate, rel: CommutativityRelation) -> tuple:
    """What the checks read off `t`, with ids replaced by names and edges."""
    names, edges = t.numbered.names, t.edges
    counts = decision._sync_counts(t)
    witness = _outcome(decision.check_sync_instrumentation, SyncPointInstrumentation(base, t), rel)
    return (
        [(v.code, v.message, v.subject) for v in validate_template(t).entries],
        t.from_init,
        t.to_exit,
        _outcome(decision._on_path_actions, t),
        {names[u]: d for u, d in counts.least.items()},
        {names[u]: edges[k] for u, k in counts.least_parent.items()},
        {names[u]: d for u, d in counts.greatest.items()},
        {names[u]: edges[k] for u, k in counts.greatest_parent.items()},
        witness,
    )


def _fresh(t: ThreadTemplate) -> ThreadTemplate:
    return ThreadTemplate.make(t.edges, t.init, t.exit, t.locations)


def _renamed_duplicates() -> tuple[AtomicFusion, frozenset[str], CommutativityRelation]:
    # body B1 repeats the outer label p and shares q with body B2; the outer
    # location B1::u1 is what B1's inner location u1 is renamed to
    p, q = plain("p"), plain("q")
    b1 = ThreadTemplate.make([("u0", p, "u1"), ("u1", q, "u2")], "u0", "u2")
    b2 = ThreadTemplate.make([("u0", q, "u1")], "u0", "u1")
    outer = ThreadTemplate.make(
        [("o0", p, "B1::u1"), ("B1::u1", block_symbol("B1"), "o1"), ("o1", block_symbol("B2"), "o2")], "o0", "o2"
    )
    fusion = AtomicFusion.make(outer, {block_symbol("B1"): b1, block_symbol("B2"): b2})
    return fusion, frozenset({"o1"}), CommutativityRelation([p, q], conflicts=[(p, q)])


@settings(max_examples=300, deadline=None)
@given(fusions())
@example(_renamed_duplicates())
def test_derived_templates_match_fresh_copies(drawn):
    fusion, m, rel = drawn
    outer = fusion.outer
    substituted = substitute_blocks(fusion)
    reference_s = reference.substitute_blocks_ref(fusion)
    assert (substituted.edges, substituted.locations) == (reference_s.edges, reference_s.locations)
    assert dict(substituted._edge_of) == dict(_fresh(substituted)._edge_of)
    assert _decision_views(outer, substituted, rel) == _decision_views(outer, _fresh(substituted), rel)

    instrumented = insert_syncpoints(outer, m).instrumented
    reference_i = reference.insert_syncpoints_ref(outer, m)
    assert (instrumented.edges, instrumented.locations) == (reference_i.edges, reference_i.locations)
    assert dict(instrumented._edge_of) == dict(_fresh(instrumented)._edge_of)
    assert _decision_views(outer, instrumented, rel) == _decision_views(outer, _fresh(instrumented), rel)
