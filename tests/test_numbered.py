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
from nredcheck.model import SYNC, Edge, ThreadTemplate, plain, validate_template

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
