"""Soundness checking for atomic-block and rendezvous reductions of
parameterized concurrent programs, with a brute-force interleaving oracle
and hardness-gadget generators."""

from __future__ import annotations

__version__ = "0.1.0"

from .model import (
    Action,
    ActionKind,
    AtomicFusion,
    CommutativityRelation,
    Edge,
    NaturalReductionSpec,
    ParameterizedProgram,
    SYNC,
    SyncKind,
    SyncPointInstrumentation,
    ThreadTemplate,
    ValidationReport,
    acquire,
    block_symbol,
    insert_syncpoints,
    plain,
    release,
    substitute_blocks,
    validate_fusion,
    validate_instrumentation,
    validate_template,
)
from .decision import (
    Verdict,
    at_relation,
    check_atomic_fusion,
    check_natural_reduction,
    check_sync_instrumentation,
    escape_relation,
    lift_commutativity,
    phase_order,
    program_order,
)
from .movers import classify_movers, lipton_check
from .oracle import (
    Bounds,
    barrier_feasible,
    bounded_coverability,
    covers,
    enumerate_interleavings,
    is_mazurkiewicz_reduction,
    lock_feasible,
    oracle_check_atomic,
    oracle_check_natural,
    oracle_check_sync,
)
from .gadgets import (
    CnfFormula,
    bounded_to_parameterized,
    brute_sat,
    coverability_to_fusion,
    coverability_to_syncpoint,
    parse_dimacs,
    sat_to_coverability,
)

__all__ = [name for name in dir() if not name.startswith("_")]
