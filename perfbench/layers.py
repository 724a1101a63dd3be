"""Per-layer metrics from a traced pass.

Times and counts are per traced verdict, so runs of different lengths
compare.  `ms` is inclusive time, `self_ms` excludes the time of child spans,
`calls` counts calls.  LAYERS.md says which end-to-end metric each one
should move, on which workload.
"""

from __future__ import annotations


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, traced: list, untraced: list) -> dict:
    n = len(traced)
    ms = lambda key: 1000 * tracer.incl[key] / n  # noqa: E731
    self_ms = lambda key: 1000 * tracer.self_time[key] / n  # noqa: E731
    calls = lambda key: tracer.calls[key] / n  # noqa: E731
    count = lambda key: tracer.counts[key] / n  # noqa: E731
    layer_self = lambda prefix: sum(  # noqa: E731
        v for k, v in tracer.self_time.items() if k.startswith(prefix)
    ) * 1000 / n

    # Overhead compares the two passes; the unattributed time compares one
    # traced verdict with its own spans.
    traced_s = sum(r.seconds for r in traced)
    untraced_s = sum(r.seconds for r in untraced)
    uncovered_s = sum(r.seconds - r.covered for r in traced)
    m = {}
    m["nredfile.parse_input.ms"] = (ms("nredfile.parse_input"), "ms/verdict")
    m["nredfile.parse_input.self_ms"] = (self_ms("nredfile.parse_input"), "ms/verdict")
    m["nredfile.parse_input.lines_per_s"] = (
        _ratio(tracer.counts["nredfile.lines"], tracer.incl["nredfile.parse_input"]), "lines/s"
    )
    for key in ("model.validate_template", "model.substitute_blocks"):
        m[f"{key}.calls"] = (calls(key), "calls/verdict")
        m[f"{key}.ms"] = (ms(key), "ms/verdict")
    for key in ("model.validate_fusion", "model.validate_instrumentation"):
        m[f"{key}.ms"] = (ms(key), "ms/verdict")
    m["automata.language_equivalent.calls"] = (calls("automata.language_equivalent"), "calls/verdict")
    for key in ("automata.language_equivalent", "automata.find_projection_collision"):
        m[f"{key}.ms"] = (ms(key), "ms/verdict")
    m["decision.check_natural_reduction.self_ms"] = (
        self_ms("decision.check_natural_reduction"), "ms/verdict"
    )
    for name in (
        "check_atomic_fusion", "check_sync_instrumentation", "phase_bounds",
        "lift_commutativity", "verify_fusion_witness", "verify_sync_witness",
    ):
        m[f"decision.{name}.ms"] = (ms(f"decision.{name}"), "ms/verdict")
    m["decision.conflicts"] = (count("decision.conflicts"), "pairs/verdict")
    m["graphs.tarjan_scc.calls"] = (calls("graphs.tarjan_scc"), "calls/verdict")
    m["graphs.tarjan_scc.ms"] = (ms("graphs.tarjan_scc"), "ms/verdict")
    m["graphs.reachable.calls"] = (calls("graphs.reachable"), "calls/verdict")
    m["graphs.zero_one_shortest.calls"] = (calls("graphs.zero_one_shortest"), "calls/verdict")

    key = "oracle.enumerate_interleavings"
    m[f"{key}.calls"] = (calls(key), "calls/verdict")
    m[f"{key}.ms"] = (ms(key), "ms/verdict")
    m[f"{key}.traces"] = (count("oracle.enum_traces"), "traces/verdict")
    m["oracle.enum_nodes"] = (count("oracle.enum_nodes"), "nodes/verdict")
    m["oracle.enum_nodes_per_trace"] = (
        _ratio(tracer.counts["oracle.enum_nodes"], tracer.counts["oracle.enum_traces"]), "nodes/trace"
    )
    m["oracle.is_mazurkiewicz_reduction.ms"] = (ms("oracle.is_mazurkiewicz_reduction"), "ms/verdict")
    m["oracle.maz.l1_traces"] = (count("oracle.maz.l1_traces"), "traces/verdict")
    m["oracle.maz.l2_traces"] = (count("oracle.maz.l2_traces"), "traces/verdict")
    m["oracle.oracle_check.self_ms"] = (
        sum(self_ms(f"oracle.oracle_check_{k}") for k in ("atomic", "sync", "natural")), "ms/verdict"
    )
    for budget in ("interleaving_enumeration", "path_enumeration"):
        name = f"oracle.budget_exhausted.{budget}"
        m[name] = (count(name), "count/verdict")
    key = "oracle.bounded_coverability"
    m[f"{key}.calls"] = (calls(key), "calls/verdict")
    m[f"{key}.ms"] = (ms(key), "ms/verdict")
    m[f"{key}.witness_len"] = (
        _ratio(tracer.counts["oracle.witness_steps"], tracer.counts["oracle.coverable"]), "steps/witness"
    )
    for name in ("sat_to_coverability", "coverability_to_fusion", "coverability_to_syncpoint"):
        m[f"gadgets.{name}.ms"] = (ms(f"gadgets.{name}"), "ms/verdict")
    m["cli.main.self_ms"] = (layer_self("cli."), "ms/verdict")

    m["trace.overhead_ms"] = (1000 * (traced_s - untraced_s) / n, "ms/verdict")
    m["trace.overhead_pct"] = (100 * _ratio(traced_s - untraced_s, untraced_s), "%")
    m["trace.spans"] = ((len(tracer.spans) + tracer.dropped) / n, "spans/verdict")
    m["unattributed_ms"] = (1000 * uncovered_s / n, "ms/verdict")
    m["unattributed_pct"] = (100 * _ratio(uncovered_s, sum(r.seconds for r in traced)), "%")
    return m
