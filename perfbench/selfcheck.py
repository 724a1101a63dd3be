"""Quick self-check of the benchmark (about half a minute).

    python3 perfbench/selfcheck.py

From the root of a checkout it checks that
- the seeded generators still produce the pinned instances (the acceptance
  suite's seed-2026 corpus, seed-500 formulas and seed-606 lock programs,
  and the criterion-7 chain text);
- every workload runs at a tiny size, untraced and traced, and prints every
  metric BENCHMARK.json names, with its unit, with no failed verdict
  (error_ratio 0) and identical traced and untraced verdicts;
- the benchmark refuses to run, without printing a result, where there is
  no program to measure.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]

# Digests of the generators' output, taken when they were copied from the
# acceptance suite and compared against it instance by instance.
FINGERPRINTS = {
    "corpus-2026x500": "9843dc5e366858d0",
    "cnf-500x20": "e0adcdf915ff957b",
    "locks-606x60": "793b14d767b75e20",
    "chain-10000": "8865fa0ef298e2b0",
}


def generator_fingerprints() -> dict:
    import generators as gen

    rng = random.Random(2026)
    corpus = [gen.random_fusion_instance(rng) for _ in range(500)]
    rng = random.Random(500)
    cnf = [gen.draw_cnf(rng) for _ in range(20)]
    rng = random.Random(606)
    locks = [gen.lock_gadget_draw(rng, max_locs=4) for _ in range(60)]
    chain = gen.chain_text(gen.chain_spec(10_000))
    return {
        "corpus-2026x500": gen.fingerprint(corpus),
        "cnf-500x20": gen.fingerprint(cnf),
        "locks-606x60": gen.fingerprint(locks),
        "chain-10000": hashlib.sha256(chain.encode()).hexdigest()[:16],
    }


def run(workload: str, trace: int, cwd: Path = Path.cwd()) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def main() -> int:
    problems = []
    got = generator_fingerprints()
    for name, want in FINGERPRINTS.items():
        if got[name] != want:
            problems.append(f"generator {name}: fingerprint {got[name]}, pinned {want}")

    spec = json.loads(Path("BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run(wl, trace)
            tag = f"{wl} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{tag}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != wanted[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: {units}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{tag}: {result['failed']}/{result['attempted']} verdicts failed")
            print(f"{tag}: {result['attempted']} verdicts, {result['failed']} failed")

    bare = Path(".perfbench/bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    done = run("chain", 0, cwd=bare)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("without src/ the benchmark still ran or printed a result")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
