"""Command-line frontend.

Subcommands: `check` (decision procedures and bounded oracle), `oracle` and
`movers` (shorthands for the matching check modes), `validate` (structural
and semantic input validation), and `gen` (hardness-gadget generators).

Exit codes: 0 sound/true, 1 unsound/false, 2 inconclusive or unknown,
3 input or usage error, 4 internal error (an unsoundness witness failed its
re-validation, or a subcommand raised an unexpected exception; no verdict
is reported).  Reports are emitted as text or as JSON (schema
`nred-report/1`); identical inputs and flags produce byte-identical JSON up
to the wall-time field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

from . import __version__
from . import decision, gadgets, movers
from .decision import (
    FusionWitness,
    ReentryWitness,
    SyncWitness,
    Verdict,
    check_atomic_fusion,
    check_natural_reduction,
    check_sync_instrumentation,
    lift_commutativity,
    verify_fusion_witness,
    verify_sync_witness,
)
from .model import (
    ActionKind,
    AtomicFusion,
    CommutativityRelation,
    ModelError,
    SyncKind,
    ValidationError,
    validate_fusion,
    validate_instrumentation,
    validate_template,
)
from .nredfile import ParsedInput, ParseError, parse_input, to_dot, to_nred_text
from .oracle import Bounds, bounded_coverability, format_trace, oracle_check_natural

EXIT_SOUND = 0
EXIT_UNSOUND = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4

MODES = ("natural", "atomic", "sync", "movers", "oracle", "coverability")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _witness_json(w: object) -> object:
    if isinstance(w, FusionWitness):
        return {
            "type": "atomic-block",
            "block": w.block.name,
            "body_trace": [a.name for a in w.body_trace],
            "positions": [w.i, w.j],
            "chain": [
                {"kind": l.kind, "from": l.source.name, "to": l.target.name}
                for l in w.chain
            ],
        }
    if isinstance(w, ReentryWitness):
        return {
            "type": "re-entry",
            "blocks": [b.name for b in w.blocks],
            "trace": [a.name for a in w.trace],
        }
    if isinstance(w, SyncWitness):
        def path(p):
            return {
                "prefix": [a.name for a in p.prefix],
                "action": p.action.name,
                "sync_count": p.sync_count,
                "pumped": p.pumped,
            }

        return {
            "type": "phase-pair",
            "pair": [w.pair[0].name, w.pair[1].name],
            "later": path(w.path_a),
            "earlier": path(w.path_b),
        }
    return {"type": "trace", "trace": format_trace(w)}  # an oracle counterexample


def _verdict_json(v: Verdict) -> dict:
    out: dict = {"result": v.result}
    if v.flags:
        out["flags"] = sorted(v.flags)
    if v.notes:
        out["notes"] = list(v.notes)
    if v.witness is not None:
        out["witness"] = _witness_json(v.witness)
    if v.checked_conditions:
        out["conditions"] = [
            {"name": name, **_verdict_json(sub)} for name, sub in v.checked_conditions
        ]
    if v.bounds is not None:
        out["bounds"] = v.bounds.describe()
    return out


_ARROWS = {"conflict": "#", "program-order": "->", "atomic-order": "~>"}


def _witness_text(mode: str, w: dict) -> list[str]:
    """Text lines of a report's witness dict."""
    if w["type"] == "trace":
        lead = "witness" if mode == "coverability" else "counterexample interleaving"
        return [f"  {lead}: {w['trace']}"]
    if w["type"] == "atomic-block":
        i, j = w["positions"]
        return [
            f"  witness: block {w['block']}, body trace {' '.join(w['body_trace'])} "
            f"(positions {i} < {j})",
            "  chain:   "
            + "  ".join(f"{l['from']} {_ARROWS[l['kind']]} {l['to']}" for l in w["chain"]),
        ]
    if w["type"] == "re-entry":
        return [
            f"  witness: one thread runs {' '.join(w['trace'])}, "
            "which the fused program cannot run",
            "  body edge into init or out of exit in block " + ", ".join(w["blocks"]),
        ]
    a, b = w["pair"]

    def path(p: dict) -> str:
        tail = " (pumpable)" if p["pumped"] else ""
        return (
            f"    {p['action']} after {p['sync_count']} rendezvous{tail}: "
            f"{' '.join(p['prefix'])} {p['action']}"
        )

    return [
        f"  witness: ({a}, {b}) phase-ordered but ({b}, {a}) does not commute",
        path(w["later"]),
        path(w["earlier"]),
    ]


def _text(report: dict, witness: bool) -> str:
    """The text form of a report: for a check mode its result, flags,
    notes, conditions, mover classes, failing block, the witness (when
    asked for) and the input warnings; for `validate` its violations."""
    mode, v = report["mode"], report["verdict"]
    warnings = report.get("warnings", ())
    if mode == "validate":
        lines = [
            f"invalid ({bad['check']}): {entry}"
            for bad in v["violations"]
            for entry in bad["violations"]
        ] or ["valid"]
        return "\n".join(lines + [f"warning: {w}" for w in warnings])
    lines = [
        f"{mode}: {v['result']}",
        *(f"  flag: {flag}" for flag in v.get("flags", ())),
        *(f"  note: {note}" for note in v.get("notes", ())),
        *(f"  condition {c['name']}: {c['result']}" for c in v.get("conditions", ())),
        *(f"  {name}: {cls}" for name, cls in sorted(v.get("movers", {}).items())),
    ]
    if "failing_block" in v:
        lines.append(
            f"  non-conforming trace in block {v['failing_block']}: " + " ".join(v["failing_trace"])
        )
    if witness and "witness" in v:
        lines += _witness_text(mode, v["witness"])
    return "\n".join(lines + [f"  warning: {w}" for w in warnings])


def _emit(report: dict, args, t0: Optional[float] = None) -> None:
    """Print `report` as JSON (with the wall time since `t0`, when given) or
    as text."""
    if args.json:
        if t0 is not None:
            report["wall_time_ms"] = round(1000 * (time.perf_counter() - t0), 3)
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        print(_text(report, getattr(args, "witness", False)))


def _base_report(mode: str, parsed: ParsedInput, args) -> dict:
    report = {
        "schema": "nred-report/1",
        "tool": {"name": "nredcheck", "version": __version__},
        "mode": mode,
        "input": {"path": args.input, "sha256": parsed.digest},
    }
    if parsed.warnings:
        report["warnings"] = list(parsed.warnings)
    if getattr(args, "strict_locks", False):
        report["strictness"] = "strict-locks"
    return report


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _bounds_from_args(args) -> Bounds:
    # only coverability mode runs without --max-len
    return Bounds(
        max_threads=args.threads,
        max_local_len=args.max_len if args.max_len is not None else 1,
    )


def _exit_for(verdict: Verdict) -> int:
    if verdict.result == decision.SOUND:
        return EXIT_SOUND
    if verdict.result == decision.UNSOUND:
        return EXIT_UNSOUND
    return EXIT_INCONCLUSIVE


def _witness_ok(parsed: ParsedInput, verdict: Verdict) -> bool:
    """Re-check an unsound verdict's witness against the definitions: a
    block or re-entry witness against the fusion, a phase-pair witness
    against the instrumentation and the relation lifted to block symbols."""
    spec, rel = parsed.spec, parsed.relation
    if isinstance(verdict.witness, (FusionWitness, ReentryWitness)):
        return verify_fusion_witness(parsed.program.template, spec.fusion, rel, verdict.witness)
    if spec.fusion is not None:
        rel = lift_commutativity(rel, spec.fusion)
    return verify_sync_witness(spec.instrumentation, rel, verdict.witness)


def run_check(args) -> int:
    mode = args.mode
    try:
        parsed = parse_input(_read_input(args.input))
    except (ParseError, ValidationError, ModelError, OSError) as exc:
        return _input_error(str(exc))
    t0 = time.perf_counter()
    report = _base_report(mode, parsed, args)
    program = parsed.program

    if args.dot:
        Path(args.dot).write_text(to_dot(program.template), encoding="utf-8")

    has_locks = program.sync_kind is not SyncKind.TRIVIAL
    if args.strict_locks and has_locks and mode in ("atomic", "sync", "natural"):
        return _input_error("program uses locks and --strict-locks refuses the abstract view")

    try:
        if mode == "atomic":
            fusion = parsed.spec.fusion
            if fusion is None:
                verdict = Verdict(decision.SOUND, notes=("no atomic blocks declared",))
            else:
                verdict = check_atomic_fusion(program.template, fusion, parsed.relation)
        elif mode == "sync":
            inst = parsed.spec.instrumentation
            if inst is None:
                verdict = Verdict(decision.SOUND, notes=("no rendezvous points declared",))
            else:
                rel = parsed.relation
                if parsed.spec.fusion is not None:
                    rel = lift_commutativity(rel, parsed.spec.fusion)
                verdict = check_sync_instrumentation(inst, rel)
        elif mode == "natural":
            verdict = check_natural_reduction(program.template, parsed.spec, parsed.relation)
        elif mode == "movers":
            return _run_movers(parsed, report, args, t0)
        elif mode == "oracle":
            if args.threads is None or args.max_len is None:
                return _input_error(f"mode {mode!r} needs --threads and --max-len")
            verdict = oracle_check_natural(
                program.template, parsed.spec, parsed.relation, _bounds_from_args(args)
            )
        elif mode == "coverability":
            return _run_coverability(parsed, report, args, t0)
        else:  # pragma: no cover - argparse restricts choices
            raise AssertionError(mode)
        if mode in ("atomic", "sync", "natural") and verdict.is_unsound:
            if not _witness_ok(parsed, verdict):
                print("internal error: witness failed re-validation", file=sys.stderr)
                return EXIT_INTERNAL_ERROR
    except ModelError as exc:
        return _input_error(str(exc))

    report["verdict"] = _verdict_json(verdict)
    _emit(report, args, t0)
    return _exit_for(verdict)


def _run_coverability(parsed: ParsedInput, report: dict, args, t0: float) -> int:
    if parsed.cover is None:
        return _input_error("coverability mode needs a 'cover' section")
    if args.threads is None:
        return _input_error("coverability mode needs --threads")
    bounds = _bounds_from_args(args)
    covered, trace = bounded_coverability(parsed.program, parsed.cover, bounds)
    report["verdict"] = {
        "result": "coverable" if covered else "not-coverable",
        "bounds": bounds.describe(),
    }
    if trace is not None:
        report["verdict"]["witness"] = {"type": "trace", "trace": format_trace(trace)}
    _emit(report, args, t0)
    return EXIT_SOUND if covered else EXIT_UNSOUND


def _run_movers(parsed: ParsedInput, report: dict, args, t0: float) -> int:
    relation = parsed.relation
    fusion = parsed.spec.fusion or AtomicFusion.identity(parsed.fused)
    classes = {}
    universe = sorted(
        set(relation.alphabet) | set(movers.program_alphabet(fusion)),
        key=lambda a: a.sort_key(),
    )
    for a in sorted(parsed.program.template.plain_alphabet, key=lambda a: a.sort_key()):
        if a.kind is ActionKind.BLOCK:
            continue
        classes[a.name] = movers._mover_of(a, relation, universe).value
    result = movers.lipton_check(fusion, relation)
    report["verdict"] = {"result": result.result, "movers": classes}
    if result.failing_block is not None:
        report["verdict"]["failing_block"] = result.failing_block.name
        report["verdict"]["failing_trace"] = [a.name for a in result.failing_trace or ()]
    if result.dead_actions:
        report["verdict"]["dead_actions"] = sorted(a.name for a in result.dead_actions)
    _emit(report, args, t0)
    return EXIT_SOUND if result.certified else EXIT_INCONCLUSIVE


def run_validate(args) -> int:
    try:
        text = _read_input(args.input)
    except OSError as exc:
        return _input_error(str(exc))
    try:
        parsed = parse_input(text)
    except (ParseError, ValidationError, ModelError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    checks = [("template", validate_template(parsed.program.template))]
    if parsed.spec.fusion is not None:
        checks.append(("fusion", validate_fusion(parsed.spec.fusion)))
    if parsed.spec.instrumentation is not None:
        checks.append(("instrumentation", validate_instrumentation(parsed.spec.instrumentation)))
    bad = [(name, rep) for name, rep in checks if not rep.ok]
    report = _base_report("validate", parsed, args)
    report["verdict"] = {
        "result": "invalid" if bad else "valid",
        "violations": [
            {"check": name, "violations": [str(v) for v in rep.entries]} for name, rep in bad
        ],
    }
    _emit(report, args)
    return EXIT_INPUT_ERROR if bad else EXIT_SOUND


def run_gen(args) -> int:
    try:
        if args.generator == "3sat":
            text = _read_input(args.dimacs)
            phi = gadgets.parse_dimacs(text)
            program, cover = gadgets.sat_to_coverability(phi)
            out = to_nred_text(
                program.template,
                relation=CommutativityRelation.full(program.template.plain_alphabet),
                cover=list(cover),
                header=f"lock program from a {len(phi.clauses)}-clause CNF; "
                "the cover target is reachable iff the formula is satisfiable",
            )
        elif args.generator == "thm1":
            parsed = parse_input(_read_input(args.input))
            cover = args.cover.split(",") if args.cover else []
            if not cover:
                return _input_error("gen thm1 needs --cover")
            program, fusion, relation = gadgets.coverability_to_fusion(
                parsed.program, cover
            )
            out = to_nred_text(
                fusion.outer,
                relation=relation,
                blocks=fusion.block_map,
                header="atomic-block gadget: the block is unsound iff the "
                f"configuration [{', '.join(cover)}] is coverable",
            )
        elif args.generator == "thm6":
            parsed = parse_input(_read_input(args.input))
            cover = args.cover.split(",") if args.cover else []
            if len(cover) <= 1:
                return _input_error("gen thm6 needs --cover with at least two locations")
            program, inst = gadgets.coverability_to_syncpoint(parsed.program, cover)
            out = to_nred_text(
                inst.base,
                relation=CommutativityRelation.full(inst.base.plain_alphabet),
                syncpoints=sorted(inst.insertion_locations or ()),
                header="rendezvous gadget: the instrumentation is sound (for "
                f"every relation) iff [{', '.join(cover)}] is not coverable",
            )
        elif args.generator == "b2p":
            templates = [parse_input(_read_input(p)).program.template for p in args.inputs]
            combined = gadgets.bounded_to_parameterized(templates)
            out = to_nred_text(
                combined,
                relation=CommutativityRelation.full(combined.plain_alphabet),
                header=f"{len(templates)} thread templates packaged into one "
                "guarded-branch parameterized template",
            )
        else:  # pragma: no cover
            raise AssertionError(args.generator)
    except (ParseError, ValidationError, ModelError, OSError, ValueError) as exc:
        return _input_error(str(exc))
    if args.output and args.output != "-":
        Path(args.output).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    return EXIT_SOUND


def _add_common_check_args(sp) -> None:
    sp.add_argument("input", nargs="?", default="-",
                    help="input file (.nred text or JSON mirror; default: stdin)")
    sp.add_argument("--threads", type=int, default=None, help="oracle thread bound")
    sp.add_argument("--max-len", type=int, default=None, help="oracle per-thread length bound")
    sp.add_argument("--json", action="store_true", help="emit a JSON report")
    sp.add_argument("--witness", action="store_true", help="render witnesses in text output")
    sp.add_argument("--strict-locks", action="store_true",
                    help="refuse the abstract view of lock programs")
    sp.add_argument("--dot", default=None, metavar="FILE",
                    help="also dump the original template as DOT")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 like other input errors; argparse's own exit 2
    would read as an inconclusive verdict.  Subparsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="nredcheck",
        description="soundness checker for atomic-block and rendezvous reductions",
    )
    ap.add_argument("--version", action="version", version=f"nredcheck {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a decision procedure or the bounded oracle")
    check.add_argument("--mode", choices=MODES, default="natural")
    _add_common_check_args(check)
    check.set_defaults(func=run_check)

    orc = sub.add_parser("oracle", help="bounded ground-truth check (same as check --mode oracle)")
    _add_common_check_args(orc)
    orc.set_defaults(func=run_check, mode="oracle")

    mov = sub.add_parser("movers", help="mover classification (same as check --mode movers)")
    _add_common_check_args(mov)
    mov.set_defaults(func=run_check, mode="movers")

    val = sub.add_parser("validate", help="validate an input file")
    val.add_argument("input")
    val.add_argument("--json", action="store_true")
    val.set_defaults(func=run_validate)

    gen = sub.add_parser("gen", help="emit a generated instance")
    gsub = gen.add_subparsers(dest="generator", required=True)
    g1 = gsub.add_parser("thm1", help="coverability -> atomic-block soundness gadget")
    g1.add_argument("input")
    g1.add_argument("--cover", required=True, help="comma-separated configuration locations")
    g3 = gsub.add_parser("3sat", help="CNF -> lock-program coverability gadget")
    g3.add_argument("--dimacs", required=True, help="DIMACS CNF file ('-' for stdin)")
    g6 = gsub.add_parser("thm6", help="coverability -> rendezvous soundness gadget")
    g6.add_argument("input")
    g6.add_argument("--cover", required=True)
    gb = gsub.add_parser("b2p", help="package bounded thread templates into one")
    gb.add_argument("inputs", nargs="+")
    for g in (g1, g3, g6, gb):
        g.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        g.set_defaults(func=run_gen)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # no verdict came out, so no verdict's exit code
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        place = f"{Path(where.filename).name}:{where.lineno} in {where.name}"
        print(f"  raised at {place}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def entry() -> None:  # console-script hook
    sys.exit(main())
