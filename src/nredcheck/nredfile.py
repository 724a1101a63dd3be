"""The .nred input format (text and JSON mirror) and DOT output.

A line-oriented description of one thread template plus its reduction:

    # comment
    actions a b1 b2 c            # commutativity alphabet (plain actions)
    locations l0 l1 l2           # optional; edges declare their endpoints
    init l0
    exit l2
    edge l0 a l2                 # plain edge (or block edge, see below)
    lock-edge l0 acq m l1        # lock operation on lock m
    conflicts { (a,b2) (b1,c) }  # relation = alphabet^2 minus these pairs
    commutes { (a,b) }           # ...or the positive relation, exclusively
    block B {                    # atomic block body; an `edge .. B ..` above
      init u0                    # refers to it
      exit u2
      edge u0 b1 u1
      edge u1 b2 u2
    }
    syncpoint at l1              # rendezvous insertion on the (fused) template
    cover l1 l2                  # coverability target (accumulates, multiset)

The template described by the top-level `edge`/`lock-edge` lines is the
*reduced* (fused) one; the original program is derived by substituting each
block body for its symbol's edge.  The JSON mirror carries the same fields:

    {"actions": [...], "template": {"init": .., "exit": .., "edges": [[src,
    action, dst], ...], "lock_edges": [[src, "acq"|"rel", lock, dst], ...],
    "locations": [...]}, "conflicts": [[a, b], ...] | "commutes": [...],
    "blocks": {name: {template fields}}, "syncpoints": [...], "cover": [...]}

Every name in the JSON mirror is a string; a field of the wrong shape is a
ParseError.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Optional

from .model import (
    Action,
    ActionKind,
    AtomicFusion,
    CommutativityRelation,
    ModelError,
    NaturalReductionSpec,
    ParameterizedProgram,
    SYNC_POINT_NAME,
    SyncPointInstrumentation,
    ThreadTemplate,
    ValidationError,
    acquire,
    block_symbol,
    infer_sync_kind,
    insert_syncpoints,
    plain,
    release,
    substitute_blocks,
    validate_fusion,
    validate_template,
)


class ParseError(ModelError):
    def __init__(self, message: str, line: Optional[int] = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)
        self.line = line


@dataclass
class ParsedInput:
    program: ParameterizedProgram  # the original (substituted) program
    relation: CommutativityRelation
    spec: NaturalReductionSpec
    fused: ThreadTemplate
    cover: Optional[tuple[str, ...]]
    warnings: tuple[str, ...]
    source_text: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.source_text.encode("utf-8")).hexdigest()


_PAIR_RE = re.compile(r"\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)")


class _Actions(dict):
    """`actions[maker, name]` is `maker(name)` (`plain`, `block_symbol`,
    `acquire` or `release`), made once per parse, so the templates and the
    relation share their action objects.  A name no action can have (the
    JSON mirror can give an empty one) is a ParseError."""

    def __missing__(self, key: tuple) -> Action:
        maker, name = key
        try:
            act = self[key] = maker(name)
        except ValueError as exc:
            raise ParseError(f"bad action name {name!r}: {exc}") from exc
        return act


@dataclass
class _RawTemplate:
    init: Optional[str] = None
    exit: Optional[str] = None
    locations: list[str] = field(default_factory=list)
    edges: list[tuple[str, str, str]] = field(default_factory=list)
    lock_edges: list[tuple[str, str, str, str]] = field(default_factory=list)

    def build(self, block_names: set[str], where: str, actions: _Actions) -> ThreadTemplate:
        if self.init is None:
            raise ParseError(f"{where}: missing init")
        if self.exit is None:
            raise ParseError(f"{where}: missing exit")
        edges: list[tuple[str, Action, str]] = []
        for src, name, dst in self.edges:
            if name == SYNC_POINT_NAME:
                raise ParseError(f"{where}: rendezvous edges are declared via 'syncpoint at'")
            act = actions[block_symbol if name in block_names else plain, name]
            edges.append((src, act, dst))
        for src, op, lock, dst in self.lock_edges:
            act = actions[acquire if op == "acq" else release, lock]
            edges.append((src, act, dst))
        return ThreadTemplate.make(edges, self.init, self.exit, extra_locations=self.locations)


def parse_input(text: str) -> ParsedInput:
    """Parse a program + reduction description; structures are validated.

    Raises ParseError on malformed input and ValidationError when the
    structures break a model invariant.
    """
    if text.lstrip().startswith("{"):
        return _from_json(text)
    top = _RawTemplate()
    actions: list[str] = []
    conflicts: Optional[list[tuple[str, str]]] = None
    commutes: Optional[list[tuple[str, str]]] = None
    blocks: dict[str, _RawTemplate] = {}
    syncpoints: list[str] = []
    cover: list[str] = []

    lines = text.splitlines()
    n = len(lines)
    idx = 0

    def strip(line: str) -> str:
        return line.split("#", 1)[0].strip()

    def read_paired_section(first_line: str, start_line: int) -> tuple[list[tuple[str, str]], int]:
        buf = first_line
        j = start_line
        while "}" not in buf:
            j += 1
            if j >= n:
                raise ParseError("unterminated pair section", start_line + 1)
            buf += " " + strip(lines[j])
        opening, closing = buf.find("{"), buf.index("}")
        if not 0 <= opening < closing:
            raise ParseError(f"expected: {first_line.split()[0]} {{ (a,b) ... }}", start_line + 1)
        body = buf[opening + 1 : closing]
        leftover = body
        pairs = []
        for m in _PAIR_RE.finditer(body):
            pairs.append((m.group(1), m.group(2)))
            leftover = leftover.replace(m.group(0), "", 1)
        if leftover.strip():
            raise ParseError(f"stray text in pair section: {leftover.strip()!r}", start_line + 1)
        return pairs, j

    current: _RawTemplate = top
    in_block: Optional[str] = None
    while idx < n:
        line = strip(lines[idx])
        lineno = idx + 1
        if not line:
            idx += 1
            continue
        parts = line.split()
        kw = parts[0]
        try:
            if kw == "}":
                if in_block is None:
                    raise ParseError("unexpected '}'", lineno)
                in_block = None
                current = top
            elif kw == "block":
                if in_block is not None:
                    raise ParseError("blocks cannot nest", lineno)
                if len(parts) != 3 or parts[2] != "{":
                    raise ParseError("expected: block <name> {", lineno)
                name = parts[1]
                if name in blocks:
                    raise ParseError(f"duplicate block {name!r}", lineno)
                blocks[name] = _RawTemplate()
                current = blocks[name]
                in_block = name
            elif kw == "actions":
                if in_block:
                    raise ParseError("actions section not allowed inside a block", lineno)
                actions.extend(parts[1:])
            elif kw == "locations":
                current.locations.extend(parts[1:])
            elif kw == "init":
                if len(parts) != 2:
                    raise ParseError("expected: init <location>", lineno)
                current.init = parts[1]
            elif kw == "exit":
                if len(parts) != 2:
                    raise ParseError("expected: exit <location>", lineno)
                current.exit = parts[1]
            elif kw == "edge":
                if len(parts) != 4:
                    raise ParseError("expected: edge <src> <action> <dst>", lineno)
                current.edges.append((parts[1], parts[2], parts[3]))
            elif kw == "lock-edge":
                if len(parts) != 5 or parts[2] not in ("acq", "rel"):
                    raise ParseError("expected: lock-edge <src> acq|rel <lock> <dst>", lineno)
                current.lock_edges.append((parts[1], parts[2], parts[3], parts[4]))
            elif kw == "conflicts":
                if conflicts is not None or commutes is not None:
                    raise ParseError("only one relation section is allowed", lineno)
                conflicts, idx = read_paired_section(line, idx)
            elif kw == "commutes":
                if conflicts is not None or commutes is not None:
                    raise ParseError("only one relation section is allowed", lineno)
                commutes, idx = read_paired_section(line, idx)
            elif kw == "syncpoint":
                if len(parts) != 3 or parts[1] != "at":
                    raise ParseError("expected: syncpoint at <location>", lineno)
                syncpoints.append(parts[2])
            elif kw == "cover":
                cover.extend(parts[1:])
            else:
                raise ParseError(f"unknown directive {kw!r}", lineno)
        except ParseError:
            raise
        except ModelError as exc:
            raise ParseError(str(exc), lineno) from exc
        idx += 1
    if in_block is not None:
        raise ParseError(f"unterminated block {in_block!r}")
    return _assemble(
        text, actions, top, blocks, conflicts, commutes, syncpoints, cover
    )


def _from_json(text: str) -> ParsedInput:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc

    def names(obj: dict, key: str, where: str, size: Optional[int] = None) -> list:
        """`obj[key]` as a list of names (or of `size`-lists of names)."""
        items = obj.get(key, [])
        if not isinstance(items, list):
            raise ParseError(f"{where}: '{key}' must be a list")
        for item in items:
            parts = [item] if size is None else item
            shaped = size is None or (isinstance(item, list) and len(item) == size)
            if not (shaped and all(isinstance(x, str) for x in parts)):
                raise ParseError(f"{where}: bad {key} entry {item!r}")
        return items

    def raw_template(obj: object, where: str) -> _RawTemplate:
        if not isinstance(obj, dict):
            raise ParseError(f"{where} must be an object")
        raw = _RawTemplate()
        for key in ("init", "exit"):
            if not isinstance(obj.get(key, ""), str):
                raise ParseError(f"{where}: '{key}' must be a location name")
        raw.init = obj.get("init")
        raw.exit = obj.get("exit")
        raw.locations = names(obj, "locations", where)
        raw.edges = [tuple(e) for e in names(obj, "edges", where, 3)]
        for e in names(obj, "lock_edges", where, 4):
            if e[1] not in ("acq", "rel"):
                raise ParseError(f"{where}: bad lock edge {e!r}")
            raw.lock_edges.append(tuple(e))
        return raw

    if not isinstance(data, dict) or "template" not in data:
        raise ParseError("JSON input needs a 'template' object")
    top = raw_template(data["template"], "template")
    blocks = data.get("blocks", {})
    if not isinstance(blocks, dict):
        raise ParseError("'blocks' must be an object mapping names to templates")
    raw_blocks = {
        name: raw_template(obj, f"block {name}") for name, obj in sorted(blocks.items())
    }
    conflicts = None
    commutes = None
    if "conflicts" in data and "commutes" in data:
        raise ParseError("give only one of 'conflicts' and 'commutes'")
    if "conflicts" in data:
        conflicts = [tuple(p) for p in names(data, "conflicts", "JSON input", 2)]
    if "commutes" in data:
        commutes = [tuple(p) for p in names(data, "commutes", "JSON input", 2)]
    return _assemble(
        text,
        names(data, "actions", "JSON input"),
        top,
        raw_blocks,
        conflicts,
        commutes,
        names(data, "syncpoints", "JSON input"),
        names(data, "cover", "JSON input"),
    )


def _assemble(
    text: str,
    actions: list[str],
    top: _RawTemplate,
    raw_blocks: dict[str, _RawTemplate],
    conflicts: Optional[list[tuple[str, str]]],
    commutes: Optional[list[tuple[str, str]]],
    syncpoints: list[str],
    cover: list[str],
) -> ParsedInput:
    block_names = set(raw_blocks)
    made = _Actions()
    fused = top.build(block_names, "template", made)
    bodies = {
        made[block_symbol, name]: raw.build(set(), f"block {name}", made)
        for name, raw in sorted(raw_blocks.items())
    }
    for name in sorted(block_names):
        if not fused.edges_labeled(made[block_symbol, name]):
            raise ParseError(f"block {name!r} is never used by an edge")

    report = validate_template(fused)
    report.raise_if_invalid()
    fusion = AtomicFusion.make(fused, bodies) if bodies else None
    if fusion is not None:
        # a valid fusion has a valid substituted template
        validate_fusion(fusion).raise_if_invalid()
        original = substitute_blocks(fusion)
    else:
        original = fused

    instrumentation: Optional[SyncPointInstrumentation] = None
    if syncpoints:
        instrumentation = insert_syncpoints(fused, syncpoints)

    declared = [made[plain, a] for a in actions]
    try:
        if commutes is not None:
            relation = CommutativityRelation(
                declared, pairs=[(made[plain, a], made[plain, b]) for a, b in commutes]
            )
        else:
            relation = CommutativityRelation(
                declared, conflicts=[(made[plain, a], made[plain, b]) for a, b in (conflicts or [])]
            )
    except ValueError as exc:
        raise ValidationError(
            _single_violation("bad-relation", str(exc))
        ) from exc

    warnings = []
    undeclared = sorted(
        a.name
        for a in original.plain_alphabet - relation.alphabet
        if a.kind is ActionKind.PLAIN
    )
    if undeclared:
        warnings.append(
            "template actions not in the declared alphabet (treated as "
            f"non-commuting): {', '.join(undeclared)}"
        )
    unknown_cover = sorted(set(cover) - set(original.locations))
    if unknown_cover:
        raise ParseError(f"cover uses unknown locations: {unknown_cover}")

    spec = NaturalReductionSpec(fusion=fusion, instrumentation=instrumentation)
    spec.validate().raise_if_invalid()
    # `original` is valid (see above) and its kind is inferred from its own
    # edges, so the program is valid too
    program = ParameterizedProgram(original, infer_sync_kind(original))
    return ParsedInput(
        program=program,
        relation=relation,
        spec=spec,
        fused=fused,
        cover=tuple(cover) if cover else None,
        warnings=tuple(warnings),
        source_text=text,
    )


def _single_violation(code: str, message: str):
    from .model import ValidationReport, Violation

    return ValidationReport((Violation(code, message),))


# -- serialization -------------------------------------------------------------


def template_sections(t: ThreadTemplate) -> list[str]:
    out = [f"locations {' '.join(sorted(t.locations))}"]
    out.append(f"init {t.init}")
    out.append(f"exit {t.exit}")
    for e in sorted(t.edges, key=lambda e: (e.src, e.action.sort_key(), e.dst)):
        a = e.action
        if a.kind is ActionKind.ACQUIRE:
            out.append(f"lock-edge {e.src} acq {a.lock} {e.dst}")
        elif a.kind is ActionKind.RELEASE:
            out.append(f"lock-edge {e.src} rel {a.lock} {e.dst}")
        elif a.kind is ActionKind.SYNC_POINT:
            raise ValueError("rendezvous edges cannot be serialized directly")
        else:
            out.append(f"edge {e.src} {a.name} {e.dst}")
    return out


def to_nred_text(
    fused: ThreadTemplate,
    relation: Optional[CommutativityRelation] = None,
    blocks: Optional[dict[Action, ThreadTemplate]] = None,
    syncpoints: Optional[list[str]] = None,
    cover: Optional[list[str]] = None,
    header: Optional[str] = None,
) -> str:
    lines: list[str] = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    if relation is not None:
        names = sorted(a.name for a in relation.alphabet)
        if names:
            lines.append(f"actions {' '.join(names)}")
    lines.extend(template_sections(fused))
    if relation is not None:
        pairs = sorted(
            relation.explicit_conflicts, key=lambda p: (p[0].name, p[1].name)
        )
        body = " ".join(f"({a.name},{b.name})" for a, b in pairs)
        lines.append(f"conflicts {{ {body} }}".replace("{  }", "{ }"))
    for sym, body in sorted((blocks or {}).items(), key=lambda kv: kv[0].name):
        lines.append(f"block {sym.name} {{")
        lines.extend("  " + s for s in template_sections(body))
        lines.append("}")
    for loc in sorted(syncpoints or []):
        lines.append(f"syncpoint at {loc}")
    if cover:
        lines.append(f"cover {' '.join(cover)}")
    return "\n".join(lines) + "\n"


def to_dot(t: ThreadTemplate, name: str = "template") -> str:
    """Plain DOT rendering of a template (display only)."""
    def q(s: str) -> str:
        return '"' + s.replace('"', '\\"') + '"'

    lines = [f"digraph {q(name)} {{", "  rankdir=LR;"]
    for loc in sorted(t.locations):
        shape = "doublecircle" if loc == t.exit else "circle"
        mark = ' style=filled fillcolor="lightgrey"' if loc == t.init else ""
        lines.append(f"  {q(loc)} [shape={shape}{mark}];")
    for e in sorted(t.edges, key=lambda e: (e.src, e.action.sort_key(), e.dst)):
        lines.append(f"  {q(e.src)} -> {q(e.dst)} [label={q(e.action.name)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
