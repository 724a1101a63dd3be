"""The four benchmark workloads.

A workload hands out its inputs in rounds of fresh objects (the model caches
derived views on its objects, so an input is never checked twice).  Every
round holds the same mix.  `rounds` is the fixed number of rounds of a run,
so the verdict count, and with it the tail percentile, stays the same when
the program gets faster.  Chain and fusion-dense draw their inputs from the
run's seed.  Oracle-corpus and gadgets check one round of a fixed
population from the acceptance suite's seeds, ordered by the run's seed:
their per-instance cost is heavy-tailed (8 ms to 7 s), so a population
drawn afresh per seed, small enough for one run, swings a run's figures by
more than the bounds allow.  `verdict` is the timed call into nredcheck;
`check` judges its output against an answer that does not come from the
code under test and returns (ok, conclusive, signature), the signature being
what must agree between a traced and an untraced run.

Calls go through module attributes (`decision.check_atomic_fusion`, not a
name imported here) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

from nredcheck import cli, decision, gadgets, model, movers, oracle

import generators as gen

DECISIVE = {"sound", "unsound", "coverable", "not-coverable"}


class Chain:
    """`check --mode natural --json` on the criterion-7 chain, n = 10^4,
    twelve times, so that the tail has ten verdicts beyond it."""

    name = "chain"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.n = 200 if tiny else 10_000
        self.rounds = 3 if tiny else 12
        self.seed = seed
        self.path = workdir / f"chain-{seed}.nred"

    def setup(self) -> None:
        self.spec = gen.chain_spec(self.n, random.Random(self.seed))
        self.path.write_text(gen.chain_text(self.spec), encoding="utf-8")

    def round(self, r: int) -> list:
        return [str(self.path)]

    def verdict(self, path: str):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["check", "--mode", "natural", "--json", path])
        return code, buf.getvalue()

    def check(self, path: str, out):
        code, text = out
        result = json.loads(text)["verdict"]
        witness = result.get("witness", {})
        ok = code == 1 and result["result"] == "unsound" and self._witness_ok(witness)
        pair = tuple(witness.get("pair", ()))
        return ok, result["result"] in DECISIVE, (code, result["result"], pair)

    def _witness_ok(self, w: dict) -> bool:
        """Re-walk both witness paths along the generated spine: each must be
        the spine's own prefix, with its rendezvous counted right, and the
        pair must be a declared conflict reached past more rendezvous."""
        if w.get("type") != "phase-pair":
            return False
        spine = self.spec["spine"]

        def walk(p: dict) -> bool:
            word = p["prefix"] + [p["action"]]
            if len(word) > len(spine):
                return False
            for label, want in zip(word, spine):
                if label != (model.SYNC_POINT_NAME if want is None else want):
                    return False
            return p["sync_count"] == spine[: len(p["prefix"])].count(None)

        later, earlier = w["later"], w["earlier"]
        return (
            walk(later)
            and walk(earlier)
            and later["sync_count"] < earlier["sync_count"]
            and w["pair"] == [later["action"], earlier["action"]]
            and (earlier["action"], later["action"]) in self.spec["conflicts"]
        )


class FusionDense:
    """`check_atomic_fusion` plus `verify_fusion_witness` on large fusions
    whose verdict is known by construction; every third one is unsound."""

    name = "fusion-dense"
    ROUND = 3

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.rounds = 2 if tiny else 16
        self.size = (
            dict(spine=40, skips=6, blocks=2, conflicts=40) if tiny else {}
        )

    def setup(self) -> None:
        self.first = self._make(0)

    def round(self, r: int) -> list:
        return self.first if r == 0 else self._make(r)

    def _make(self, r: int) -> list:
        out = []
        for k in range(r * self.ROUND, (r + 1) * self.ROUND):
            unsound = k % self.ROUND == self.ROUND - 1
            rng = random.Random(f"fusion-dense:{self.seed}:{k}")
            out.append((unsound,) + gen.dense_fusion_instance(rng, unsound=unsound, **self.size))
        return out

    def verdict(self, inp):
        _, original, fusion, rel, _, _ = inp
        v = decision.check_atomic_fusion(original, fusion, rel)
        verified = (
            decision.verify_fusion_witness(original, fusion, rel, v.witness)
            if v.is_unsound
            else None
        )
        return v, verified

    def check(self, inp, out):
        unsound, _, fusion, rel, index, drawn = inp
        v, verified = out
        ok = v.result == ("unsound" if unsound else "sound")
        if v.is_unsound:
            ok = ok and verified is True and self._chain_ok(v.witness, index, drawn)
        if movers.lipton_check(fusion, rel).certified and v.is_unsound:
            ok = False
        w = v.witness
        sig = (v.result, w.block.name, w.i, w.j) if v.is_unsound else (v.result,)
        return ok, True, sig

    @staticmethod
    def _chain_ok(w, index, drawn) -> bool:
        """Conflict links must be drawn conflicts, and order links must not
        run backwards along the spine."""
        for k, link in enumerate(w.chain):
            if k % 2 == 0:
                if (link.source, link.target) not in drawn:
                    return False
            elif index[link.source] > index[link.target]:
                return False
        return True


class OracleCorpus:
    """Criterion 3's decision-versus-oracle calls on the first 40 instances
    of its seed-2026 corpus, one round per run; the seed sets the order."""

    name = "oracle-corpus"
    rounds = 1

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.size = 6 if tiny else 40

    def setup(self) -> None:
        self.first = self._make(0)

    def round(self, r: int) -> list:
        return self.first if r == 0 else self._make(r)

    def _make(self, r: int) -> list:
        rng = random.Random(2026)
        corpus = [gen.random_fusion_instance(rng) for _ in range(self.size)]
        random.Random(f"oracle-corpus:{self.seed}:{r}").shuffle(corpus)
        return corpus

    def verdict(self, inp):
        original, fusion, sync_locs, rel = inp
        spec = model.NaturalReductionSpec(
            fusion=fusion, instrumentation=model.insert_syncpoints(fusion.outer, sync_locs)
        )
        v = decision.check_natural_reduction(original, spec, rel)
        if v.is_unsound and isinstance(v.witness, decision.FusionWitness):
            threads = min(4, len(v.witness.inner_pairs) + 1)
        else:
            threads = 2
        bounds = oracle.Bounds(
            max_threads=threads, max_local_len=8, max_swap_depth=64, max_enum_nodes=150_000
        )
        return v, oracle.oracle_check_natural(original, spec, rel, bounds)

    def check(self, inp, out):
        v, ov = out
        conclusive = ov.result in DECISIVE
        ok = not conclusive or ov.result == v.result
        return ok, conclusive, (v.result, ov.result)


def _satisfiable(num_vars: int, clauses) -> bool:
    for bits in itertools.product((False, True), repeat=num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return True
    return False


class Gadgets:
    """Criterion 5's seed-500 formulas of at most three clauses and its
    cheapest four-clause formula (SAT to coverability), and the first 28
    programs criterion 6 accepts from seed 606 (lock gadgets to the oracle,
    at smaller bounds), one round per run; the seed sets the order."""

    name = "gadgets"
    rounds = 1
    # Draw 11 of the 20: two variables, about 6.5 s and 120 MB in
    # bounded_coverability.  The other two four-clause draws take 12-14 s.
    FOUR_CLAUSE_KEPT = 11

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.formulas = 6 if tiny else 20
        self.programs = 3 if tiny else 28
        self.budget = 20_000 if tiny else 60_000

    def setup(self) -> None:
        self.first = self._make(0)

    def round(self, r: int) -> list:
        return self.first if r == 0 else self._make(r)

    def _make(self, r: int) -> list:
        rng = random.Random(500)
        out = []
        for k in range(self.formulas):
            num_vars, clauses = gen.draw_cnf(rng)
            if len(clauses) <= 3 or k == self.FOUR_CLAUSE_KEPT:
                out.append(("sat", gadgets.CnfFormula(num_vars, clauses)))
        rng = random.Random(606)
        out += [("lock",) + self._lock_program(rng) for _ in range(self.programs)]
        random.Random(f"gadgets:{self.seed}:{r}").shuffle(out)
        return out

    @staticmethod
    def _lock_program(rng: random.Random):
        """Criterion 6's next accepted draw: a not-coverable target is kept
        only when neither slot can be piled up, as the rendezvous gadget's
        contract needs."""
        cb = oracle.Bounds(max_threads=2, max_local_len=8)
        while True:
            t, config = gen.lock_gadget_draw(rng, max_locs=4)
            p = model.ParameterizedProgram(t, model.SyncKind.LOCKS)
            if oracle.bounded_coverability(p, config, cb)[0]:
                return p, config
            if not any(oracle.bounded_coverability(p, (c, c), cb)[0] for c in config):
                return p, config

    def verdict(self, inp):
        if inp[0] == "sat":
            prog, cover = gadgets.sat_to_coverability(inp[1])
            bounds = oracle.Bounds(max_threads=len(inp[1].clauses), max_local_len=10)
            return (oracle.bounded_coverability(prog, cover, bounds)[0],)
        _, p, config = inp
        covered, _ = oracle.bounded_coverability(
            p, config, oracle.Bounds(max_threads=2, max_local_len=8)
        )
        prog1, fusion1, rel1 = gadgets.coverability_to_fusion(p, config)
        v1 = oracle.oracle_check_atomic(
            prog1.template, fusion1, rel1,
            oracle.Bounds(max_threads=3, max_local_len=6, max_enum_nodes=self.budget),
        )
        prog6, inst6 = gadgets.coverability_to_syncpoint(p, config)
        alphabet = sorted(prog6.template.plain_alphabet, key=model.Action.sort_key)
        sync_bounds = oracle.Bounds(max_threads=2, max_local_len=8, max_enum_nodes=self.budget)
        v6_full = oracle.oracle_check_sync(
            inst6, model.CommutativityRelation(alphabet, conflicts=[]), sync_bounds
        )
        v6_empty = oracle.oracle_check_sync(
            inst6, model.CommutativityRelation(alphabet, pairs=[]), sync_bounds
        )
        return covered, v1.result, v6_full.result, v6_empty.result

    def check(self, inp, out):
        if inp[0] == "sat":
            phi = inp[1]
            return out[0] == _satisfiable(phi.num_vars, phi.clauses), True, out
        covered, *results = out
        conclusive = all(r in DECISIVE for r in results)
        ok = all(r == ("unsound" if covered else "sound") for r in results if r in DECISIVE)
        return ok, conclusive, out


WORKLOADS = {w.name: w for w in (Chain, FusionDense, OracleCorpus, Gadgets)}
