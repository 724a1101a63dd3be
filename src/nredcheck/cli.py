"""Command-line frontend.

Subcommands: `check` (decision procedures and bounded oracle), `oracle` and
`movers` (shorthands for the matching check modes), `validate` (structural
and semantic input validation), and `gen` (hardness-gadget generators).

Exit codes: 0 sound/true, 1 unsound/false, 2 inconclusive or unknown,
3 input error, 4 internal error (an unsoundness witness failed its
re-validation; no verdict is reported).  Reports are emitted as text or as
JSON (schema `nred-report/1`); identical inputs and flags produce
byte-identical JSON up to the wall-time field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from . import __version__
from . import decision, gadgets, movers, oracle
from .decision import (
    FusionWitness,
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
    if isinstance(w, tuple):
        return {"type": "trace", "trace": format_trace(w)}
    return {"type": "opaque", "repr": repr(w)}


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


def _render_witness_text(w: object, out: list[str]) -> None:
    if isinstance(w, FusionWitness):
        out.append(f"  witness: block {w.block.name}, body trace "
                   f"{' '.join(a.name for a in w.body_trace)} (positions {w.i} < {w.j})")
        out.append("  chain:   " + "  ".join(str(l) for l in w.chain))
    elif isinstance(w, SyncWitness):
        a, b = w.pair
        out.append(f"  witness: ({a.name}, {b.name}) phase-ordered but ({b.name}, {a.name}) does not commute")
        out.append(
            f"    {a.name} after {w.path_a.sync_count} rendezvous: "
            f"{' '.join(x.name for x in w.path_a.prefix)} {a.name}"
        )
        tail = " (pumpable)" if w.path_b.pumped else ""
        out.append(
            f"    {b.name} after {w.path_b.sync_count} rendezvous{tail}: "
            f"{' '.join(x.name for x in w.path_b.prefix)} {b.name}"
        )
    elif isinstance(w, tuple):
        out.append(f"  counterexample interleaving: {format_trace(w)}")


def _emit(report: dict, verdict: Optional[Verdict], args) -> None:
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
        return
    lines = [f"{report['mode']}: {report['verdict']['result']}"]
    v = report["verdict"]
    for flag in v.get("flags", ()):
        lines.append(f"  flag: {flag}")
    for note in v.get("notes", ()):
        lines.append(f"  note: {note}")
    for cond in v.get("conditions", ()):
        lines.append(f"  condition {cond['name']}: {cond['result']}")
    if verdict is not None and verdict.witness is not None and getattr(args, "witness", False):
        _render_witness_text(verdict.witness, lines)
    for warning in report.get("warnings", ()):
        lines.append(f"  warning: {warning}")
    print("\n".join(lines))


def _base_report(mode: str, parsed: Optional[ParsedInput], args, path: str) -> dict:
    report = {
        "schema": "nred-report/1",
        "tool": {"name": "nredcheck", "version": __version__},
        "mode": mode,
        "input": {"path": path},
    }
    if parsed is not None:
        report["input"]["sha256"] = parsed.digest
        if parsed.warnings:
            report["warnings"] = list(parsed.warnings)
    if getattr(args, "strict_locks", False):
        report["strictness"] = "strict-locks"
    return report


def _bounds_from_args(args) -> Bounds:
    return Bounds(
        max_threads=args.threads,
        max_local_len=args.max_len,
        max_swap_depth=args.swap_depth,
    )


def _exit_for(verdict: Verdict) -> int:
    if verdict.result == decision.SOUND:
        return EXIT_SOUND
    if verdict.result == decision.UNSOUND:
        return EXIT_UNSOUND
    return EXIT_INCONCLUSIVE


def _witness_ok(parsed: ParsedInput, verdict: Verdict) -> bool:
    """Re-check an unsound verdict's witness against the definitions: a
    block witness against the fusion, a phase-pair witness against the
    instrumentation and the relation lifted to block symbols."""
    spec, rel = parsed.spec, parsed.relation
    if isinstance(verdict.witness, FusionWitness):
        return verify_fusion_witness(parsed.program.template, spec.fusion, rel, verdict.witness)
    if spec.fusion is not None:
        rel = lift_commutativity(rel, spec.fusion)
    return verify_sync_witness(spec.instrumentation, rel, verdict.witness)


def _require_bounds(args, mode: str) -> Optional[str]:
    if args.threads is None or args.max_len is None:
        return f"mode {mode!r} needs --threads and --max-len"
    return None


def run_check(args) -> int:
    mode = args.mode
    try:
        text = _read_input(args.input)
        parsed = parse_input(text)
    except (ParseError, ValidationError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    t0 = time.perf_counter()
    report = _base_report(mode, parsed, args, args.input)
    program = parsed.program
    has_locks = program.sync_kind is not SyncKind.TRIVIAL

    if args.dot:
        Path(args.dot).write_text(to_dot(program.template), encoding="utf-8")

    if args.strict_locks and has_locks and mode in ("atomic", "sync", "natural"):
        print(
            "error: program uses locks and --strict-locks refuses the abstract view",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR

    verdict: Optional[Verdict] = None
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
            missing = _require_bounds(args, mode)
            if missing:
                print(f"error: {missing}", file=sys.stderr)
                return EXIT_INPUT_ERROR
            verdict = oracle_check_natural(
                program.template, parsed.spec, parsed.relation, _bounds_from_args(args)
            )
        elif mode == "coverability":
            if parsed.cover is None:
                print("error: coverability mode needs a 'cover' section", file=sys.stderr)
                return EXIT_INPUT_ERROR
            if args.threads is None:
                print("error: coverability mode needs --threads", file=sys.stderr)
                return EXIT_INPUT_ERROR
            bounds = Bounds(
                max_threads=args.threads,
                max_local_len=args.max_len if args.max_len else 1,
                max_swap_depth=args.swap_depth,
            )
            covered, witness_trace = bounded_coverability(program, parsed.cover, bounds)
            result = "coverable" if covered else "not-coverable"
            report["verdict"] = {"result": result}
            report["verdict"]["bounds"] = bounds.describe()
            if witness_trace is not None:
                report["verdict"]["witness"] = {
                    "type": "trace",
                    "trace": format_trace(witness_trace),
                }
            report["wall_time_ms"] = round(1000 * (time.perf_counter() - t0), 3)
            _emit(report, None, args)
            return EXIT_SOUND if covered else EXIT_UNSOUND
        else:  # pragma: no cover - argparse restricts choices
            raise AssertionError(mode)
        if mode in ("atomic", "sync", "natural") and verdict.is_unsound:
            if not _witness_ok(parsed, verdict):
                print("internal error: witness failed re-validation", file=sys.stderr)
                return EXIT_INTERNAL_ERROR
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    assert verdict is not None
    report["verdict"] = _verdict_json(verdict)
    report["wall_time_ms"] = round(1000 * (time.perf_counter() - t0), 3)
    _emit(report, verdict, args)
    return _exit_for(verdict)


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
    report["verdict"] = {
        "result": result.result,
        "movers": classes,
    }
    if result.failing_block is not None:
        report["verdict"]["failing_block"] = result.failing_block.name
        report["verdict"]["failing_trace"] = [a.name for a in result.failing_trace or ()]
    if result.dead_actions:
        report["verdict"]["dead_actions"] = sorted(a.name for a in result.dead_actions)
    report["wall_time_ms"] = round(1000 * (time.perf_counter() - t0), 3)
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        lines = [f"movers: {result.result}"]
        for name, cls in sorted(classes.items()):
            lines.append(f"  {name}: {cls}")
        if result.failing_block is not None:
            lines.append(
                f"  non-conforming trace in block {result.failing_block.name}: "
                + " ".join(a.name for a in result.failing_trace or ())
            )
        print("\n".join(lines))
    return EXIT_SOUND if result.certified else EXIT_INCONCLUSIVE


def run_validate(args) -> int:
    try:
        text = _read_input(args.input)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
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
    if args.json:
        report = {
            "schema": "nred-report/1",
            "tool": {"name": "nredcheck", "version": __version__},
            "mode": "validate",
            "input": {"path": args.input, "sha256": parsed.digest},
            "verdict": {
                "result": "valid" if not bad else "invalid",
                "violations": [
                    {"check": name, "violations": [str(v) for v in rep.entries]}
                    for name, rep in bad
                ],
            },
        }
        if parsed.warnings:
            report["warnings"] = list(parsed.warnings)
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        if bad:
            for name, rep in bad:
                for v in rep.entries:
                    print(f"invalid ({name}): {v}")
        else:
            print("valid")
        for w in parsed.warnings:
            print(f"warning: {w}")
    return EXIT_SOUND if not bad else EXIT_INPUT_ERROR


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
                print("error: gen thm1 needs --cover", file=sys.stderr)
                return EXIT_INPUT_ERROR
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
                print("error: gen thm6 needs --cover with at least two locations", file=sys.stderr)
                return EXIT_INPUT_ERROR
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
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
    sp.add_argument("--swap-depth", type=int, default=None, help="covering-search depth bound")
    sp.add_argument("--json", action="store_true", help="emit a JSON report")
    sp.add_argument("--witness", action="store_true", help="render witnesses in text output")
    sp.add_argument("--strict-locks", action="store_true",
                    help="refuse the abstract view of lock programs")
    sp.add_argument("--dot", default=None, metavar="FILE",
                    help="also dump the original template as DOT")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
    return args.func(args)


def entry() -> None:  # console-script hook
    sys.exit(main())
