"""Dataflow-powered feasibility passes (``DF0xx``).

These upgrade the syntactic liveness checks of
:mod:`repro.analysis.passes_automata` (graph reachability, RA11x) into
semantic proofs from the reachable-equality-types analysis
(:mod:`repro.analysis.dataflow`): a state can be graph-reachable yet
provably unreachable by any *valid* run, and a transition's guard can be
satisfiable in isolation yet unsatisfiable under every register
configuration that actually reaches its source.

Code block (docs/ANALYSIS.md has the full table):

* ``DF001`` -- transition infeasible: its guard is unsatisfiable under
  every reachable equality type at its source.  Carries an infeasibility
  proof (the reachable types, each inconsistent with the guard).
* ``DF002`` -- state abstractly unreachable by any valid run even though
  it is graph-reachable (RA110 already covers the graph-unreachable case).
* ``DF004`` -- register-constancy fact: a register pair provably equal at
  a state on every run reaching it.  Carries a reachability witness.
* ``DF005`` -- analysis skipped (register count above the Bell-domain cap
  or fixpoint budget exhausted); informational, mirrors ``RA139``.
* ``DF006`` -- dead register: its content at a state can never be read
  again (backward liveness).  Carries a "never read after here" cone
  certificate.
* ``DF007`` -- non-co-reachable state: no accepting lasso is abstractly
  reachable from it, refining the graph-level ``RA111`` check.
* ``DF008`` -- write-only register: written/constrained but never read
  by any guard, so it is a projection candidate
  (:func:`repro.core.reduction.project_dead_registers`).

Findings carry machine-readable payloads in ``Diagnostic.data`` so the
JSON report (``--format json``) exposes the witness / proof to CI.
"""

from dataclasses import replace
from typing import Iterator, List, Optional

from repro.core.register_automaton import RegisterAutomaton, Transition
from repro.foundations.diagnostics import Diagnostic, info, warning
from repro.logic.types import abstract_successor_types

from repro.analysis.engine import analysis_pass
from repro.analysis.dataflow import (
    MAX_REGISTERS,
    ReachableTypes,
    analyze_co_reachability,
    analyze_reachable_types,
    analyze_register_liveness,
    reachable_types_outcome,
)
from repro.analysis.passes_automata import _coaccessible, _forward_reachable

#: Witness paths are pair-graph BFS walks; cap how many get computed per
#: report so analysing a large automaton stays linear-ish.
WITNESS_CAP = 10


def _witness_payload(
    types: ReachableTypes, state, budget: List[int]
) -> Optional[list]:
    """A JSON-ready reachability witness for *state*, or ``None`` past the cap."""
    if budget[0] <= 0:
        return None
    budget[0] -= 1
    path = types.witness_path(state)
    if path is None:
        return None
    return [repr(transition) for transition in path]


def _infeasibility_proof(types: ReachableTypes, transition: Transition) -> dict:
    """The per-type refutation: every reachable source type kills the guard."""
    k = types.automaton.k
    source_types = sorted(
        phi.pretty() for phi in types.types_at(transition.source)
    )
    refuted = [
        phi.pretty()
        for phi in sorted(types.types_at(transition.source), key=repr)
        if not abstract_successor_types(phi, transition.guard, k)
    ]
    return {
        "guard": transition.guard.pretty(),
        "reachable_source_types": source_types,
        "refuted_types": refuted,
    }


@analysis_pass(
    "dataflow-feasibility",
    RegisterAutomaton,
    codes=("DF001", "DF002", "DF005"),
)
def dataflow_feasibility_pass(automaton: RegisterAutomaton) -> Iterator[Diagnostic]:
    """Transitions and states proved dead by the equality-types fixpoint."""
    outcome = reachable_types_outcome(automaton)
    types = outcome.value
    if types is None:
        yield replace(
            info(
                "DF005",
                "dataflow analysis skipped: more than %d registers or fixpoint "
                "budget exhausted (the Bell-number domain is too large here)"
                % MAX_REGISTERS,
            ),
            data=dict(outcome.stats),
        )
        return
    witness_budget = [WITNESS_CAP]
    graph_reachable = _forward_reachable(automaton)
    for state in types.unreachable_states():
        if state not in graph_reachable:
            continue  # RA110 already reports graph-unreachable states
        yield warning(
            "DF002",
            "state is graph-reachable but no valid run prefix can reach it "
            "(proved by the reachable-equality-types fixpoint)",
            "state %r" % (state,),
        )
    for transition in types.infeasible_transitions():
        if not types.is_reachable(transition.source):
            continue  # source unreachable: DF002/RA110 is the root cause
        proof = _infeasibility_proof(types, transition)
        witness = _witness_payload(types, transition.source, witness_budget)
        yield replace(
            warning(
                "DF001",
                "transition can never fire: guard %s is unsatisfiable under "
                "every reachable register configuration at %r"
                % (transition.guard.pretty(), transition.source),
                repr(transition),
            ),
            data={"proof": proof, "witness_to_source": witness},
        )


@analysis_pass("dataflow-constancy", RegisterAutomaton, codes=("DF004",))
def dataflow_constancy_pass(automaton: RegisterAutomaton) -> Iterator[Diagnostic]:
    """Register pairs provably equal at a state on every run reaching it.

    Informational refinement facts: they justify narrowing the candidate
    enumeration (see :class:`repro.core.symkernel.CodedNarrowing`) and
    often reveal redundant registers.  Skipped silently when the analysis
    is over budget (``DF005`` from the feasibility pass covers that).
    """
    if automaton.k < 2:
        return
    types = analyze_reachable_types(automaton)
    if types is None:
        return
    witness_budget = [WITNESS_CAP]
    for state in sorted(automaton.states, key=repr):
        if not types.is_reachable(state):
            continue
        pairs = types.forced_equalities(state)
        if not pairs:
            continue
        witness = _witness_payload(types, state, witness_budget)
        yield replace(
            info(
                "DF004",
                "registers provably aliased on every run reaching this "
                "state: %s"
                % ", ".join("x%d = x%d" % pair for pair in pairs),
                "state %r" % (state,),
            ),
            data={"pairs": [list(pair) for pair in pairs], "witness": witness},
        )


@analysis_pass(
    "dataflow-liveness", RegisterAutomaton, codes=("DF006", "DF008")
)
def dataflow_liveness_pass(automaton: RegisterAutomaton) -> Iterator[Diagnostic]:
    """Dead and write-only registers from the backward liveness fixpoint.

    ``DF008`` (warning) flags registers some guard writes but no guard
    ever reads -- their stored content never influences acceptance, so
    they are exactly the registers
    :func:`repro.core.reduction.project_dead_registers` can drop.
    ``DF006`` (info, like the ``DF004`` refinement facts) reports, per
    reachable state, the registers whose content is provably never read
    *from that state on* -- restricted to registers that are read
    somewhere else (never-read registers are ``DF008``'s, never-mentioned
    ones ``RA120``'s), so each finding is a genuinely positional fact.
    Skipped silently when the analysis is over budget (the backward
    powerset domain declines only past the antichain register cap or the
    edge budget; ``RS004`` events record the decline).
    """
    liveness = analyze_register_liveness(automaton)
    if liveness is None:
        return
    for register in liveness.write_only_registers():
        yield replace(
            warning(
                "DF008",
                "register %d is written but live at no state: no guard "
                "reads it and it is never copied into a live register, so "
                "its content never influences acceptance (projection "
                "candidate)" % register,
            ),
            data={
                "register": register,
                "reduction": "repro.core.reduction.project_dead_registers",
            },
        )
    read_somewhere = set(liveness.read_registers())
    proof_budget = [WITNESS_CAP]
    graph_reachable = _forward_reachable(automaton)
    for state in sorted(automaton.states, key=repr):
        if state not in graph_reachable:
            continue  # RA110 already reports unreachable states
        dead = [r for r in liveness.dead_at(state) if r in read_somewhere]
        if not dead:
            continue
        proofs = {}
        if proof_budget[0] > 0:
            proof_budget[0] -= 1
            proofs = {
                str(register): liveness.never_read_proof(state, register)
                for register in dead
            }
        yield replace(
            info(
                "DF006",
                "register%s %s dead here: the stored content can never be "
                "read again on any path from this state"
                % ("s" if len(dead) > 1 else "",
                   ", ".join("x%d" % r for r in dead)),
                "state %r" % (state,),
            ),
            data={"dead": dead, "proofs": proofs},
        )


@analysis_pass("dataflow-coreachability", RegisterAutomaton, codes=("DF007",))
def dataflow_coreachability_pass(
    automaton: RegisterAutomaton,
) -> Iterator[Diagnostic]:
    """States from which no accepting lasso is abstractly reachable.

    Refines ``RA111`` (graph co-accessibility to an accepting *state*)
    to Buchi semantics under the equality-types abstraction: a state is
    flagged when every path to an accepting cycle is cut by an
    infeasible guard, or when the accepting states it reaches sit on no
    feasible cycle at all.  States other passes already explain are
    skipped -- graph-unreachable (``RA110``), abstractly unreachable
    (``DF002``), graph-dead (``RA111``) -- as is the no-accepting-states
    case (``RA112``).  Silent when the analysis is over budget (``DF005``
    reports the forward decline).
    """
    if not automaton.accepting:
        return  # RA112 covers the empty acceptance condition
    co_reachability = analyze_co_reachability(automaton)
    if co_reachability is None:
        return
    types = analyze_reachable_types(automaton)
    if types is None:
        return
    graph_reachable = _forward_reachable(automaton)
    graph_live = _coaccessible(automaton)
    anchors = sorted(co_reachability.anchors, key=repr)
    for state in co_reachability.non_co_reachable_states():
        if state not in graph_reachable:
            continue  # RA110
        if not types.is_reachable(state):
            continue  # DF002
        if state not in graph_live:
            continue  # RA111
        yield replace(
            warning(
                "DF007",
                "state cannot reach any accepting lasso: every accepting "
                "cycle is abstractly unreachable from here, so no "
                "accepting run visits this state (Buchi semantics)",
                "state %r" % (state,),
            ),
            data={
                "anchors": [repr(a) for a in anchors],
                "reachable_anchors": [],
                "graph_coaccessible": True,
            },
        )
