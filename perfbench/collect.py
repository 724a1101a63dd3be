"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads chain,gadgets]
        [--traced-seeds 1] [--out BENCH_label.json]

Runs one `run.py` process at a time from the current directory (the root of
a checkout), with `run_seconds` from BENCHMARK.json.  For every workload and
end-to-end metric it prints the median, the quartiles and the spread, that
is (q3 - q1) / median with `statistics.quantiles(values, n=4)`, next to the
metric's bound.  Per-layer metrics come from the traced runs.  With `--out`
the summary, every run's values and the machine it ran on are written as
JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    # The report's notes; its metric lines repeat the JSON.
    result["report"] = [
        line for line in done.stdout.strip().splitlines()[:-1]
        if line.split()[0] not in result["metrics"]
    ]
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else float("nan"),
        "values": values,
    }


def machine() -> dict:
    info = {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                info["mem_total_kb"] = int(line.split()[1])
                break
    except OSError:
        pass
    return info


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced-seeds", default="")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report: dict = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for wl in args.workloads.split(","):
        runs = [_run(spec["command"], wl, s, seconds, 0) for s in _seeds(args.seeds)]
        traced = [_run(spec["command"], wl, s, seconds, 1) for s in _seeds(args.traced_seeds)]
        entry: dict = {
            "seeds": _seeds(args.seeds),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [round(r["wall_s"], 3) for r in runs + traced],
            "end_to_end": {},
            "per_layer": {},
        }
        print(f"{wl}: {len(runs)} runs, attempted {entry['attempted']}, failed {entry['failed']}")
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            print(
                f"  {name:20s} median {s['median']:12.4f} {s['unit']:6s} "
                f"q1 {s['q1']:12.4f} q3 {s['q3']:12.4f} spread {s['spread']:.4f} "
                f"(bound {bounds[name]}){flag}"
            )
        if traced:
            for name, m in traced[0]["metrics"].items():
                s = summarise([r["metrics"][name]["value"] for r in traced])
                s["unit"] = m["unit"]
                entry["per_layer"][name] = s
        entry["reports"] = [r["report"] for r in runs + traced]
        report["workloads"][wl] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
