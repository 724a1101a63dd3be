"""Fuzzed inputs at the input edge.

Random `.nred` text, random JSON shapes and random bytes on stdin either
parse or raise an input error (`ParseError`, `ValidationError`,
`ModelError`, or bytes that are not UTF-8); `nredcheck check` answers them
with a verdict or with exit 3 and a message, never with an internal error;
what `to_nred_text` writes parses back to the fused template, relation,
blocks and rendezvous locations it was written from; and criterion 3's
instances, written out, reach exit 1 with witnesses that re-check.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nredcheck.cli import main
from nredcheck.model import (
    CommutativityRelation,
    ModelError,
    ValidationError,
    insert_syncpoints,
    validate_instrumentation,
)
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


@st.composite
def _truncated_utf8(draw) -> bytes:
    """A program's UTF-8 bytes with the first bytes of a multi-byte
    character put in anywhere, cut off inside one at the end, or added to
    every occurrence of one name (so that the program may still parse)."""
    data = draw(_programs()).encode()
    cut = "•".encode()[: draw(st.integers(1, 2))]
    how = draw(st.sampled_from(["end", "anywhere", "name"]))
    if how == "end":
        return data + cut
    if how == "name":
        name = draw(st.sampled_from([b"a", b"b", b"l0", b"l1", b"l2"]))
        return re.sub(rb"(?<![\w^:])" + name + rb"(?![\w^:])", name + cut, data)
    at = draw(st.integers(0, len(data)))
    return data[:at] + cut + data[at:]


# bytes on stdin, decoded as under a UTF-8 locale (strict) or under the C
# locale (lone surrogates for bytes that are not UTF-8)
stdin_bytes = st.tuples(
    st.one_of(st.binary(max_size=60), _truncated_utf8()), st.sampled_from(["strict", "surrogateescape"])
)


def _check(text, argv=("check", "-")) -> tuple[int, str]:
    """`nredcheck check -` on `text`, or on (bytes, decoding errors): the
    exit code and stderr."""
    err = io.StringIO()
    if isinstance(text, str):
        stream = io.StringIO(text)
    else:
        stream = io.TextIOWrapper(io.BytesIO(text[0]), encoding="utf-8", errors=text[1])
    stdin, sys.stdin = sys.stdin, stream
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


@settings(max_examples=500, deadline=None)
@given(st.one_of(texts, json_texts, stdin_bytes))
@example('{"template": {"init": "a", "exit": "b", "edges": [["a", "", "b"]]}}')
@example('{"template": {"init": "a", "exit": "b", "lock_edges": [["a", "acq", "", "b"]]}}')
@example('{"template": {"init": "a", "exit": "b", "edges": [["a", "", "b"]]}, "blocks": {"": {}}}')
@example("init l0\nexit l1\nedge l0 a l1\nsyncpoint at l0\nactions a\nconflicts { (a,a) }")
@example("conflicts }")
@example((b"actions a\xe2\x80\ninit l0\nexit l1\nedge l0 a\xe2\x80 l1", "surrogateescape"))
def test_random_input_parses_or_is_an_input_error(text):
    try:
        parse_input(text if isinstance(text, str) else text[0].decode("utf-8"))
        parsed = True
    except (ParseError, ValidationError, ModelError, UnicodeDecodeError):
        parsed = False
    code, err = _check(text)
    assert "internal error" not in err, err
    if parsed:
        assert code in (0, 1, 2, 3)
    else:
        assert code == 3 and err.startswith("error: "), (code, err)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
@example(5038466)  # acq(mb) labels three edges, and two rendezvous make the erasure non-injective
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
    text = to_nred_text(fused, relation=rel, blocks=blocks, syncpoints=list(sync_locs))
    # a lock action on several edges makes the parser check that erasing the
    # rendezvous is injective, and such a draw may fail that check
    if any(a.lock is not None and len(fused.edges_labeled(a)) > 1 for a in fused.alphabet):
        report = validate_instrumentation(insert_syncpoints(fused, sync_locs))
        if "projection-not-injective" in [v.code for v in report.entries]:
            with pytest.raises(ValidationError) as rejected:
                parse_input(text)
            assert [v.code for v in rejected.value.report.entries] == ["projection-not-injective"]
            return
    parsed = parse_input(text)

    def shape(t):
        return set(t.edges), t.locations, t.init, t.exit

    assert shape(parsed.fused) == shape(fused)
    assert parsed.relation == rel
    got_blocks = parsed.spec.fusion.block_map if parsed.spec.fusion else {}
    assert {sym: shape(body) for sym, body in got_blocks.items()} == {sym: shape(body) for sym, body in blocks.items()}
    inst = parsed.spec.instrumentation
    assert (inst.insertion_locations if inst else frozenset()) == frozenset(sync_locs)


def test_fusion_instances_reach_exit_1():
    """Criterion 3's instances, written out: `check --mode natural
    --witness` answers each with a verdict whose witness re-checks (never
    exit 4), and a tenth of them at least are unsound."""
    codes = Counter()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32))
    def check(seed):
        _, fusion, sync_locs, rel = reference.random_fusion_instance(random.Random(seed))
        text = to_nred_text(fusion.outer, relation=rel, blocks=fusion.block_map, syncpoints=list(sync_locs))
        code, err = _check(text, ("check", "--mode", "natural", "--witness", "-"))
        assert code != 4, err
        codes[code] += 1

    check()
    assert codes[1] * 10 >= sum(codes.values()), codes
