"""Fuzzed inputs at the input edge.

Random `.nred` text and random JSON shapes either parse or raise an input
error (`ParseError`, `ValidationError`, `ModelError`); `nredcheck check`
answers them with a verdict or with exit 3 and a message, never with an
internal error; and what `to_nred_text` writes parses back to the fused
template, relation, blocks and rendezvous locations it was written from.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nredcheck.cli import main
from nredcheck.model import CommutativityRelation, ModelError, ValidationError
from nredcheck.nredfile import ParseError, parse_input, to_nred_text

import reference

KEYWORDS = [
    "actions", "locations", "init", "exit", "edge", "lock-edge", "conflicts", "commutes",
    "block", "}", "syncpoint", "cover", "bogus", "#",
]
# names, lock operations, the rendezvous symbol, brackets and pair syntax,
# and names like the ones the model derives (renamed body locations, copies)
TOKENS = [
    "l0", "l1", "l2", "u0", "u1", "a", "b", "B", "acq", "rel", "m", "at", "{", "}",
    "(a,b)", "(b,a)", "(a,", "•", "B::u1", "l1^",
]
FIELDS = [
    "actions", "template", "conflicts", "commutes", "blocks", "syncpoints", "cover",
    "init", "exit", "edges", "lock_edges", "locations",
]

_lines = st.builds(
    lambda kw, toks: " ".join([kw, *toks]),
    st.sampled_from(KEYWORDS),
    st.lists(st.sampled_from(TOKENS), max_size=4),
)
_locs = st.sampled_from(["l0", "l1", "l2", "u0", "u1", "B::u1", "l1^"])
_acts = st.sampled_from(["a", "b", "c", "B", "•"])
# well-formed lines, so that a share of the inputs parse and reach the checks
_directives = st.one_of(
    st.builds("init {}".format, _locs),
    st.builds("exit {}".format, _locs),
    st.builds("edge {} {} {}".format, _locs, _acts, _locs),
    st.builds("lock-edge {} {} m {}".format, _locs, st.sampled_from(["acq", "rel"]), _locs),
    st.just("actions a b c"),
    st.builds("conflicts {{ ({},{}) }}".format, _acts, _acts),
    st.builds("syncpoint at {}".format, _locs),
    st.builds("cover {}".format, _locs),
    st.just("block B {"),
    st.just("}"),
)


@st.composite
def _programs(draw) -> str:
    """A valid program, a block or a rendezvous point in it maybe, with a
    few drawn lines put in anywhere."""
    second = draw(st.sampled_from(["b", "B"]))
    lines = ["actions a b c", "init l0", "exit l2", "edge l0 a l1", f"edge l1 {second} l2"]
    if second == "B":
        lines += ["block B {", "init u0", "exit u1", "edge u0 c u1", "}"]
    for line in draw(st.lists(st.one_of(_directives, _directives, _lines), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


texts = st.one_of(_programs(), _programs(), st.lists(_lines, max_size=14).map("\n".join), st.text(max_size=60))

_names = st.one_of(_locs, _acts, st.sampled_from(TOKENS + [""]))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 2) | _names,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(FIELDS + TOKENS), inner, max_size=4),
    max_leaves=16,
)


def _shaped(strategy):
    """A field that is mostly of the right shape and sometimes anything."""
    return st.one_of(strategy, strategy, strategy, _json_values)


_name_lists = _shaped(st.lists(_names, max_size=4))
_json_templates = _shaped(
    st.fixed_dictionaries(
        {"init": _shaped(_locs), "exit": _shaped(_locs)},
        optional={
            "locations": _name_lists,
            "edges": _shaped(st.lists(st.tuples(_locs, _names, _locs).map(list), max_size=5)),
            "lock_edges": _shaped(
                st.lists(st.tuples(_locs, st.sampled_from(["acq", "rel", "x"]), _names, _locs).map(list), max_size=3)
            ),
        },
    )
)
_json_fields = {
    "template": _json_templates,
    "blocks": _shaped(st.dictionaries(st.sampled_from(["B", "C", "", "•"]), _json_templates, max_size=2)),
    "actions": _name_lists,
    "conflicts": _shaped(st.lists(st.tuples(_acts, _names).map(list), max_size=3)),
    "commutes": _shaped(st.lists(st.tuples(_acts, _names).map(list), max_size=3)),
    "syncpoints": _name_lists,
    "cover": _name_lists,
}


@st.composite
def _json_programs(draw) -> str:
    """A valid JSON program with up to two fields redrawn."""
    data = {
        "actions": ["a", "b", "c"],
        "template": {"init": "l0", "exit": "l2", "edges": [["l0", "a", "l1"], ["l1", "B", "l2"]]},
        "blocks": {"B": {"init": "u0", "exit": "u1", "edges": [["u0", "c", "u1"]]}},
    }
    for key in draw(st.lists(st.sampled_from(sorted(_json_fields)), max_size=2, unique=True)):
        data[key] = draw(_json_fields[key])
    return json.dumps(data)


json_texts = st.one_of(_json_programs(), st.fixed_dictionaries({}, optional=_json_fields).map(json.dumps))


def _check(text: str) -> tuple[int, str]:
    """`nredcheck check -` on `text`: the exit code and stderr."""
    err = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["check", "-"])
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


@settings(max_examples=500, deadline=None)
@given(st.one_of(texts, json_texts))
@example('{"template": {"init": "a", "exit": "b", "edges": [["a", "", "b"]]}}')
@example('{"template": {"init": "a", "exit": "b", "lock_edges": [["a", "acq", "", "b"]]}}')
@example('{"template": {"init": "a", "exit": "b", "edges": [["a", "", "b"]]}, "blocks": {"": {}}}')
@example("init l0\nexit l1\nedge l0 a l1\nsyncpoint at l0\nactions a\nconflicts { (a,a) }")
@example("conflicts }")
def test_random_input_parses_or_is_an_input_error(text):
    try:
        parse_input(text)
        parsed = True
    except (ParseError, ValidationError, ModelError):
        parsed = False
    code, err = _check(text)
    assert "internal error" not in err, err
    if parsed:
        assert code in (0, 1, 2, 3)
    else:
        assert code == 3 and err.startswith("error: "), (code, err)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_serialized_input_parses_back(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        _, fusion, sync_locs, rel = reference.random_fusion_instance(rng)
        fused, blocks = fusion.outer, fusion.block_map
    else:
        fused, blocks = reference.random_lock_template(rng), {}
        alphabet = sorted(fused.plain_alphabet, key=lambda a: a.sort_key())
        rel = CommutativityRelation(alphabet, conflicts=[(x, y) for x in alphabet for y in alphabet if rng.random() < 0.3])
        sync_locs = rng.sample(sorted(fused.locations), rng.randint(0, 2))
    parsed = parse_input(to_nred_text(fused, relation=rel, blocks=blocks, syncpoints=list(sync_locs)))

    def shape(t):
        return set(t.edges), t.locations, t.init, t.exit

    assert shape(parsed.fused) == shape(fused)
    assert parsed.relation == rel
    got_blocks = parsed.spec.fusion.block_map if parsed.spec.fusion else {}
    assert {sym: shape(body) for sym, body in got_blocks.items()} == {sym: shape(body) for sym, body in blocks.items()}
    inst = parsed.spec.instrumentation
    assert (inst.insertion_locations if inst else frozenset()) == frozenset(sync_locs)
