"""nredcheck benchmark: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory, never from an installed copy.  The loop asks for the next
verdict only after the previous one returned, in a fixed number of whole
rounds of the workload's mix, sized to take about `--seconds` on the
machine the baseline was taken on (see workloads.py).  The count does not
follow the program's speed, so the tail percentile stays the same when the
program gets faster.  Every verdict's output is checked; an exception
counts as a failed verdict and the run goes on.

With `--trace 0` the end-to-end metrics are measured, with wall times
scaled to a reference machine speed by a kernel that a sampler process runs
beside the measured one (speed.py); the report also prints them as
measured.  `setup_s` is the median of seven fresh processes that each
import nredcheck and generate the first round.  With `--trace 1` every
input is checked twice, untraced and then with the public functions of
every nredcheck module wrapped (see tracer.py); the per-layer figures are
per traced verdict and as measured, the tracing overhead is the difference
of the two passes, and both passes must give identical verdicts.

The human-readable report goes to stdout, and its last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import REF_KERNEL_MS, Sampler

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
REPEAT_SECONDS = 0.25
MAX_REPEATS = 9
WORKDIR = Path(".perfbench")  # inputs and span files, inside the checkout


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for selfcheck.py")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_program():
    """Import nredcheck from ./src and the workloads beside this file."""
    src = Path.cwd() / "src"
    if not (src / "nredcheck" / "__init__.py").is_file():
        raise SystemExit("error: no src/nredcheck here; run from the root of a nredcheck checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import nredcheck

    if Path(nredcheck.__file__).resolve().parent != (src / "nredcheck").resolve():
        raise SystemExit(f"error: imported nredcheck from {nredcheck.__file__}, not ./src")
    import workloads

    return workloads


def _setup(args):
    """Import the program and generate the first round; returns the
    workload and the seconds this took."""
    t0 = time.perf_counter()
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    WORKDIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, WORKDIR)
    wl.setup()
    return wl, time.perf_counter() - t0


def _probe_setup(args) -> tuple[float, float]:
    """Set up in a fresh process; returns (start, seconds)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    start, seconds = map(float, done.stdout.split()[-2:])
    return start, seconds


class Record:
    __slots__ = ("times", "ok", "conclusive", "signature", "covered")

    def __init__(self, times, ok, conclusive, signature, covered=0.0):
        self.times = times  # (start, seconds) of each check
        self.ok = ok
        self.conclusive = conclusive
        self.signature = signature
        self.covered = covered  # seconds under top-level spans, when traced

    @property
    def seconds(self) -> float:
        """Median seconds of one check, as measured."""
        return statistics.median(s for _, s in self.times)

    def scaled(self, sampler: Sampler) -> float:
        """Median seconds of one check, scaled to the reference speed."""
        return statistics.median(s * sampler.scale(t, t + s) for t, s in self.times)


def _one(wl, inp, tracer=None, vid=0) -> Record:
    """One timed verdict, then its output check."""
    if tracer is not None:
        tracer.begin(vid)
    raised = False
    t0 = time.perf_counter()
    try:
        out = wl.verdict(inp)
    except Exception:
        raised = True
        traceback.print_exc(file=sys.stderr)
    finally:
        times = [(t0, time.perf_counter() - t0)]
        covered = tracer.end() if tracer is not None else 0.0
    if raised:
        return Record(times, False, False, "raised", covered)
    try:
        ok, conclusive, sig = wl.check(inp, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok, conclusive, sig = False, False, "check raised"
    return Record(times, ok, conclusive, sig, covered)


def _repeated(wl, inp) -> Record:
    """Check one input, each time on a fresh copy (the model caches views
    on its objects), until REPEAT_SECONDS of verdict time or MAX_REPEATS
    checks: a single short verdict is too noisy a sample of its cost.
    Every check must pass and give the same verdict."""
    first = _one(wl, copy.deepcopy(inp))
    total = first.times[0][1]
    while total < REPEAT_SECONDS and len(first.times) < MAX_REPEATS:
        again = _one(wl, copy.deepcopy(inp))
        first.times += again.times
        first.ok = first.ok and again.ok and again.signature == first.signature
        total += again.times[0][1]
    return first


def tail(values: list[float]) -> tuple[int, float, int]:
    """Nearest-rank percentile p, highest with at least ten values beyond
    it, or the maximum (p100) when there are ten values or fewer.  Returns
    (p, value, values beyond)."""
    n = len(values)
    if n <= 10:
        return 100, max(values), 0
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(values)[rank - 1], n - rank


def end_to_end(records: list[Record], sampler: Sampler, setups, loop_s: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics, times scaled to the reference speed: each
    check's time is scaled, and a verdict's time is the median over its
    checks.  `verdicts_per_s` counts verdicts per second of verdict time,
    not of the loop's wall time: the loop also repeats short verdicts,
    copies inputs and runs the output checks, none of which is the
    program's own work.  The report prints the loop's rate beside it."""
    n = len(records)
    ms = [1000 * r.scaled(sampler) for r in records]
    raw_ms = [1000 * r.seconds for r in records]
    p, tail_ms, beyond = tail(ms)
    failed = sum(not r.ok for r in records)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(s * sampler.scale(t, t + s) for t, s in setups), "s"),
        "verdicts_per_s": (1000 * n / sum(ms), "1/s"),
        "verdict_ms.p50": (statistics.median(ms), "ms"),
        "verdict_ms.tail": (tail_ms, "ms"),
        "conclusive_ratio": (sum(r.conclusive for r in records) / n, "ratio"),
        "correct_ratio": (1 - failed / n, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    notes = [
        f"verdicts: {n} inputs, {sum(len(r.times) for r in records)} checks  (one caller, closed loop)",
        f"verdict_ms.tail is p{p}: {beyond} verdicts lie beyond it",
        f"error_ratio: {failed}/{n} = {failed / n:.4f}",
        f"loop: {loop_s:.2f} s with repeated checks and output checks; "
        f"{n / loop_s:.4f} verdicts per second of it, as measured",
        f"as measured: verdicts_per_s {1000 * n / sum(raw_ms):.4f}, "
        f"verdict_ms.p50 {statistics.median(raw_ms):.3f}, "
        f"verdict_ms.tail {tail(raw_ms)[1]:.3f}, "
        f"setup_s {statistics.median(s for _, s in setups):.4f}",
        f"speed sampler: {len(sampler.kernels)} kernel runs, median "
        f"{1000 * statistics.median(sampler.kernels):.3f} ms ({REF_KERNEL_MS} ms at the reference speed)",
    ]
    return metrics, notes


def _traced(args) -> tuple[list[Record], dict, list[str]]:
    """Check each input untraced and then traced, from two fresh copies,
    so that both passes meet the same warm-up."""
    import layers
    from tracer import Tracer

    wl, _ = _setup(args)
    twin, _ = _setup(args)
    tracer = Tracer()
    plain: list[Record] = []
    traced: list[Record] = []

    for r in range(wl.rounds):
        for a, b in zip(wl.round(r), twin.round(r)):
            plain.append(_one(wl, a))
            traced.append(_one(twin, b, tracer, len(traced)))
    mismatched = 0
    for t, u in zip(traced, plain):
        if t.signature != u.signature or not u.ok:
            t.ok = False
            mismatched += 1
    spans_path = WORKDIR / f"spans-{args.workload}-{args.seed}.tsv"
    tracer.write_spans(spans_path)
    notes = [
        f"traced verdicts: {len(traced)}, each also run untraced; "
        f"verdicts differing between the two: {mismatched}",
        f"spans: {len(tracer.spans)} written to {spans_path}, "
        f"{tracer.dropped} more counted but not kept",
    ]
    return traced, layers.per_layer(tracer, traced, plain), notes


def _main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_probe:
        start = time.perf_counter()
        _, seconds = _setup(args)
        print(f"{start:.9f} {seconds:.9f}")
        return 0

    if args.trace:
        records, metrics, notes = _traced(args)
    else:
        wl, _ = _setup(args)
        sampler = Sampler(WORKDIR / f"speed-{args.workload}-{args.seed}.txt")
        sampler.start()
        try:
            setups = [_probe_setup(args) for _ in range(SETUP_PROBES)]
            records = []
            t0 = time.perf_counter()
            for r in range(wl.rounds):
                records += [_repeated(wl, inp) for inp in wl.round(r)]
            loop_s = time.perf_counter() - t0
        finally:
            sampler.stop()
        metrics, notes = end_to_end(records, sampler, setups, loop_s)

    failed = sum(not r.ok for r in records)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
