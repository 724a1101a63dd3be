"""Layer spans for nredcheck, recorded from outside the program.

While a verdict is open (`begin` to `end`), every public module-level
function of the `nredcheck` modules is replaced by a timing wrapper, in
every module namespace that binds it (so `cli.parse_input` and
`nredfile.parse_input` both report as `nredfile.parse_input`); `end` puts
the originals back.  Input generation, output checks and untraced verdicts
therefore run the program as it is.

Each call inside a verdict becomes a span (name, start, end, parent span,
verdict id), kept in memory and written by `write_spans`.  Per-function
totals are kept as the spans close: calls, inclusive time (outermost call
only, so recursion is not counted twice) and self time (inclusive minus the
time of child spans).  A few per-call hooks read work counts off arguments
and results, such as trace-set sizes and the oracle's enumeration budget.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict


# Per-trace and per-action helpers.  They run up to millions of times per
# verdict, each for less than a microsecond, so a span around each call
# would cost more than the work; their time shows in their callers' self
# time instead.
LEAF_HELPERS = frozenset({
    "model.plain", "model.block_symbol", "model.acquire", "model.release",
    "oracle.indexed", "oracle.thread_projection", "oracle.thread_indices",
    "oracle.project_plain", "oracle.trace_key", "oracle.format_trace",
    "oracle.lock_feasible", "oracle.barrier_feasible",
})

# Spans beyond this many per run are counted but not kept for writing.
MAX_KEPT_SPANS = 200_000

ORACLE_CHECKS = ("oracle.oracle_check_atomic", "oracle.oracle_check_sync", "oracle.oracle_check_natural")
DECISION_CHECKS = (
    "decision.check_natural_reduction", "decision.check_atomic_fusion",
    "decision.check_sync_instrumentation",
)


class Tracer:
    def __init__(self):
        package = importlib.import_module("nredcheck")
        self.modules = [
            importlib.import_module(f"nredcheck.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        self.modules.append(package)
        self.verdict = -1
        self.spans: list = []
        self.dropped = 0
        self.stack: list[int] = []
        self.child: list[float] = []
        self.depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # work counts read by the hooks
        self.covered = 0.0  # time under top-level spans of the open verdict
        self._budgets: dict[int, object] = {}
        self._patched = self._patches()

    # -- installation ---------------------------------------------------------

    def public_functions(self) -> dict[object, str]:
        out = {}
        for mod in self.modules[:-1]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                key = f"{short}.{name}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and key not in LEAF_HELPERS
                ):
                    out[obj] = key
        return out

    def _patches(self) -> list[tuple[object, str, object, object]]:
        wrappers = {fn: self._wrap(fn, key) for fn, key in self.public_functions().items()}
        return [
            (mod, name, obj, wrappers[obj])
            for mod in self.modules
            for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj in wrappers
        ]

    def _wrap(self, fn, key: str):
        clock = time.perf_counter
        before = _BEFORE.get(key)
        after = _AFTER.get(key)

        def wrapper(*args, **kwargs):
            stack, child = self.stack, self.child
            if len(self.spans) < MAX_KEPT_SPANS:
                idx = len(self.spans)
                self.spans.append(None)
            else:
                idx = -1
                self.dropped += 1
            parent = stack[-1] if stack else -1
            stack.append(idx)
            child.append(0.0)
            self.depth[key] += 1
            if before is not None:
                before(self, args, kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                inner = child.pop()
                dur = t1 - t0
                if child:
                    child[-1] += dur
                else:
                    self.covered += dur
                self.depth[key] -= 1
                if not self.depth[key]:
                    self.incl[key] += dur
                self.self_time[key] += dur - inner
                self.calls[key] += 1
                if idx >= 0:
                    self.spans[idx] = (key, t0, t1, parent, self.verdict)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- verdicts -------------------------------------------------------------

    def begin(self, verdict_id: int) -> None:
        self.verdict = verdict_id
        self.covered = 0.0
        for mod, name, _, wrapper in self._patched:
            setattr(mod, name, wrapper)

    def end(self) -> float:
        """Close the verdict; returns the seconds covered by its top-level
        spans."""
        for mod, name, original, _ in self._patched:
            setattr(mod, name, original)
        self.stack.clear()
        self.child.clear()
        self.depth.clear()
        self._budgets.clear()
        return self.covered

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tverdict\n")
            for idx, span in enumerate(self.spans):
                if span is not None:
                    key, t0, t1, parent, vid = span
                    fh.write(f"{idx}\t{key}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{vid}\n")


# -- hooks: work counts read at layer boundaries ----------------------------------


def _outermost(tracer: Tracer, keys) -> bool:
    return sum(tracer.depth[k] for k in keys) == 0


def _parse_lines(tr, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    tr.counts["nredfile.lines"] += text.count("\n")


def _decision_conflicts(tr, args, kwargs, result):
    if _outermost(tr, DECISION_CHECKS):
        rel = args[2] if len(args) > 2 else kwargs["i"]
        tr.counts["decision.conflicts"] += len(rel.explicit_conflicts)


def _sync_conflicts(tr, args, kwargs, result):
    if _outermost(tr, DECISION_CHECKS):
        rel = args[1] if len(args) > 1 else kwargs["i"]
        tr.counts["decision.conflicts"] += len(rel.explicit_conflicts)


def _enum_budget(tr, args, kwargs):
    budget = kwargs.get("budget")
    if budget is not None:
        tr._budgets[id(budget)] = budget


def _enum_traces(tr, args, kwargs, result):
    tr.counts["oracle.enum_traces"] += len(result)


def _maz_sizes(tr, args, kwargs, result):
    l1, l2 = args[0], args[1]
    tr.counts["oracle.maz.l1_traces"] += len(l1)
    tr.counts["oracle.maz.l2_traces"] += len(l2)


def _oracle_check(tr, args, kwargs, result):
    if not _outermost(tr, ORACLE_CHECKS):
        return
    tr.counts["oracle.enum_nodes"] += sum(b.used for b in tr._budgets.values())
    tr._budgets.clear()
    if result.result == "inconclusive":
        for note in result.notes:
            if " exceeded " in note:
                name = note.split(" exceeded ")[0].replace(" ", "_")
                tr.counts[f"oracle.budget_exhausted.{name}"] += 1


def _coverability(tr, args, kwargs, result):
    covered, trace = result
    if covered:
        tr.counts["oracle.coverable"] += 1
        tr.counts["oracle.witness_steps"] += len(trace)


_BEFORE = {"oracle.enumerate_interleavings": _enum_budget}
_AFTER = {
    "nredfile.parse_input": _parse_lines,
    "decision.check_natural_reduction": _decision_conflicts,
    "decision.check_atomic_fusion": _decision_conflicts,
    "decision.check_sync_instrumentation": _sync_conflicts,
    "oracle.enumerate_interleavings": _enum_traces,
    "oracle.is_mazurkiewicz_reduction": _maz_sizes,
    "oracle.oracle_check_atomic": _oracle_check,
    "oracle.oracle_check_sync": _oracle_check,
    "oracle.oracle_check_natural": _oracle_check,
    "oracle.bounded_coverability": _coverability,
}
