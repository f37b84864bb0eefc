"""Fixpoint dataflow analyses over register automata.

``framework`` is the generic worklist solver (lattice protocol, forward
*and* backward problems, budgeted fixpoints); ``equality_domain``
instantiates it forward with the reachable-equality-types domain used by
the ``DF001``--``DF005`` analysis passes
(:mod:`repro.analysis.passes_dataflow`) and the sound pruner
(:mod:`repro.core.pruning`); ``liveness_domain`` instantiates it backward
with register liveness and co-reachability, feeding the
``DF006``--``DF008`` passes and the reduction layer
(:mod:`repro.core.reduction`).  See docs/ANALYSIS.md ("Dataflow
analyses" and "Backward dataflow") for the lattices, the soundness
arguments, and the diagnostic codes.
"""

from repro.analysis.dataflow.framework import (
    BackwardProblem,
    FixpointResult,
    ForwardProblem,
    Lattice,
    PowersetLattice,
    SubsumptionLattice,
    solve_backward,
    solve_forward,
)
from repro.analysis.dataflow.equality_domain import (
    DEFAULT_EDGE_BUDGET,
    MAX_REGISTERS,
    ReachableTypes,
    analyze_reachable_types,
    reachable_types_outcome,
)
from repro.analysis.dataflow.liveness_domain import (
    CoReachability,
    RegisterLiveness,
    analyze_co_reachability,
    analyze_register_liveness,
    co_reachability_outcome,
    guard_read_registers,
    register_liveness_outcome,
)

__all__ = [
    "Lattice",
    "PowersetLattice",
    "SubsumptionLattice",
    "ForwardProblem",
    "BackwardProblem",
    "FixpointResult",
    "solve_forward",
    "solve_backward",
    "ReachableTypes",
    "analyze_reachable_types",
    "reachable_types_outcome",
    "RegisterLiveness",
    "CoReachability",
    "guard_read_registers",
    "analyze_register_liveness",
    "register_liveness_outcome",
    "analyze_co_reachability",
    "co_reachability_outcome",
    "MAX_REGISTERS",
    "DEFAULT_EDGE_BUDGET",
]
