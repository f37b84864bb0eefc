"""Sound automaton reduction: trim and dead-register projection.

The consumer layer of the backward dataflow analyses
(:mod:`repro.analysis.dataflow.liveness_domain`) inside the core
pipeline, the mirror image of :mod:`repro.core.pruning` (which consumes
the *forward* analysis):

* :func:`trim` / :func:`trim_extended` -- drop states through which no
  accepting lasso can pass: states not graph-reachable from an initial
  state, or from which no accepting cycle is graph-reachable.  This is
  deliberately the *graph-level* trim, not the abstract one: every
  candidate lasso the emptiness enumeration yields -- realisable or not
  -- visits only states that are reachable and co-reach an accepting
  cycle (both closed under path membership), so trimming the complement
  preserves the candidate sequence *exactly*.  Verdict, witness, and
  ``candidates_checked`` are byte-identical to the untrimmed run, while
  normalisation, narrowing, and enumeration all work on a smaller graph.
  (The abstract co-reachability analysis cuts more states but may cut
  enumerated-yet-unrealisable candidates with them, which would change
  ``candidates_checked``; it powers the ``DF007`` diagnostics instead.)

  Two guard rails keep the byte-identity argument airtight:

  - if trimming would flip ``is_complete()`` or ``is_state_driven()``
    (all offending guards/states happened to be trimmed), the trim
    falls back to identity -- the normalisation path itself must not
    change shape;
  - the traversals are budgeted (:data:`DEFAULT_TRIM_BUDGET` edge
    steps); on exhaustion the automaton is returned unchanged and an
    ``RS006`` event records the honest degradation.

* :func:`project_dead_registers` -- drop write-only registers (live at
  no state: never read, never copied into a live register;
  :meth:`~repro.analysis.dataflow.liveness_domain.RegisterLiveness.write_only_registers`)
  by renaming them past the kept block and projecting every guard with
  the closure-saturated restriction.  This changes ``k`` and therefore
  the completion/normalisation shape downstream, so it is *not* wired
  into ``check_emptiness`` -- it is the explicit reduction API behind
  the ``DF008`` projection-candidate diagnostics, preserving the
  emptiness *verdict* (asserted in ``tests/test_reduction.py``) rather
  than the byte-exact witness.

Layering note: this module lives in ``core`` but the analysis lives
above it, so the dataflow import happens lazily inside the functions.
"""

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.foundations.diagnostics import Severity
from repro.foundations.resilience import Budget, record_event
from repro.core.extended import ExtendedAutomaton, restrict_extended
from repro.core.register_automaton import RegisterAutomaton, State, Transition
from repro.logic.literals import eq as lit_eq
from repro.logic.literals import neq as lit_neq
from repro.logic.terms import X, Y
from repro.logic.types import SigmaType

__all__ = [
    "DEFAULT_TRIM_BUDGET",
    "trim",
    "trim_extended",
    "project_dead_registers",
]

#: Edge-traversal budget for the three trim sweeps (forward, cycle,
#: backward).  Each sweep is linear in the transition count, so ordinary
#: workloads stay far below this; hitting it means the automaton is too
#: large to trim cheaply and the caller keeps the original.
DEFAULT_TRIM_BUDGET = 200_000


def _declined(automaton: RegisterAutomaton, budget: Budget) -> None:
    record_event(
        "RS006",
        "trim declined (edge budget) for automaton with %d states / %d "
        "transitions" % (len(automaton.states), len(automaton.transitions)),
        severity=Severity.INFO,
        location="repro.core.reduction.trim",
        data={"reason": "edge-budget", "budget": budget.snapshot()},
    )


def _lasso_keep_set(
    automaton: RegisterAutomaton, steps: "Budget"
) -> Optional[FrozenSet[State]]:
    """States on some path ``initial -->* accepting cycle``, or ``None``.

    Three budgeted sweeps: forward reachability, one bounded search per
    accepting state for a cycle through it (anchors), and backward
    reachability from the anchors.  All FIFO with declaration-ordered
    edges, so the charge sequence -- and the budget's stopping point --
    is a pure function of the automaton.
    """
    reachable: Set[State] = set(automaton.initial)
    frontier: List[State] = sorted(reachable, key=repr)
    while frontier:
        state = frontier.pop(0)
        for transition in automaton.transitions_from(state):
            if not steps.charge():
                return None
            if transition.target not in reachable:
                reachable.add(transition.target)
                frontier.append(transition.target)

    predecessors: Dict[State, List[State]] = {}
    for transition in automaton.transitions:
        predecessors.setdefault(transition.target, []).append(transition.source)

    anchors: Set[State] = set()
    for anchor in sorted(automaton.accepting, key=repr):
        seen: Set[State] = set()
        frontier = [anchor]
        found = False
        while frontier and not found:
            state = frontier.pop(0)
            for transition in automaton.transitions_from(state):
                if not steps.charge():
                    return None
                if transition.target == anchor:
                    found = True
                    break
                if transition.target not in seen:
                    seen.add(transition.target)
                    frontier.append(transition.target)
        if found:
            anchors.add(anchor)

    co_lasso: Set[State] = set(anchors)
    frontier = sorted(anchors, key=repr)
    while frontier:
        state = frontier.pop(0)
        for predecessor in predecessors.get(state, ()):
            if not steps.charge():
                return None
            if predecessor not in co_lasso:
                co_lasso.add(predecessor)
                frontier.append(predecessor)
    return frozenset(reachable & co_lasso)


def trim(
    automaton: RegisterAutomaton,
    max_steps: Optional[int] = DEFAULT_TRIM_BUDGET,
) -> RegisterAutomaton:
    """Drop states through which no accepting lasso can pass.

    Returns the *same object* when nothing is trimmed (or the budget
    trips, or the trim would change the normalisation shape -- see the
    module docstring), so identity-keyed caches downstream stay warm on
    the common path.
    """
    budget = Budget("reduction")
    steps = budget.scope("steps", max_steps)
    keep = _lasso_keep_set(automaton, steps)
    if keep is None:
        _declined(automaton, budget)
        return automaton
    if keep == automaton.states:
        return automaton
    if not keep & automaton.initial:
        # The language is empty and the enumeration over the original
        # graph is already trivial (no accepting lasso exists); the
        # untouched automaton also sidesteps empty-state-set edge cases.
        return automaton
    trimmed = automaton.restricted(keep)
    # Guard rail: the normalisation pipeline branches on these two
    # predicates; a False -> True flip (every incomplete guard or every
    # multi-guard state was trimmed away) would change the witness state
    # shapes, so fall back to identity there.
    if trimmed.is_complete() != automaton.is_complete():
        return automaton
    if trimmed.is_state_driven() != automaton.is_state_driven():
        return automaton
    return trimmed


def trim_extended(
    extended: ExtendedAutomaton,
    max_steps: Optional[int] = DEFAULT_TRIM_BUDGET,
) -> ExtendedAutomaton:
    """:func:`trim` lifted to an extended automaton.

    Constraint DFAs are remapped onto the surviving state alphabet with
    their state sets untouched (:func:`repro.core.extended.restrict_extended`,
    exactly as :func:`repro.core.pruning.prune_extended` does): runs and
    candidate lassos of the trimmed automaton visit only surviving
    states, so every constraint accepts/rejects exactly the factors it
    did before, and downstream product constructions (Proposition 6,
    normalisation lifting) see identical DFA state names.
    """
    return restrict_extended(extended, trim(extended.automaton, max_steps=max_steps))


def _saturated_projection(
    guard: SigmaType, renaming: Dict, kept: int, k: int
) -> SigmaType:
    """The closure-saturated restriction of *guard* to the kept block.

    The syntactic ``restrict`` would lose facts entailed *through* a
    dropped register (``x1 = y3 and x2 = y3`` entails ``x1 = x2``), and
    an under-constrained projection is not sound for emptiness -- it
    could turn an empty automaton nonempty.  For pure equality logic the
    closure is complete: a valuation of the kept terms extends to the
    dropped ones iff it satisfies every entailed (dis)equality among the
    kept terms, so emitting exactly those literals is an *exact*
    projection.
    """
    renamed = guard.rename(renaming)
    closure = renamed.closure
    terms = [X(i) for i in range(1, kept + 1)] + [Y(i) for i in range(1, kept + 1)]
    literals = []
    for index, left in enumerate(terms):
        for right in terms[index + 1 :]:
            if closure.same(left, right):
                literals.append(lit_eq(left, right))
            elif closure.entails_neq(left, right):
                literals.append(lit_neq(left, right))
    # restrict() keeps the syntactic literals over the kept block (always a
    # subset of the saturated set); with_literals() canonicalises the union.
    return renamed.restrict(terms).with_literals(literals)


def project_dead_registers(
    automaton: RegisterAutomaton,
) -> Tuple[RegisterAutomaton, Tuple[int, ...]]:
    """Drop write-only registers; returns ``(projected, dropped)``.

    A write-only register (see
    :meth:`~repro.analysis.dataflow.liveness_domain.RegisterLiveness.write_only_registers`)
    is written or copied into but live at no state: no guard's
    enabledness, and no observable constraint on another register,
    depends on its stored content.  Dropping it preserves the state
    traces (dead kept registers can be re-chosen when lifting a
    projected run back, by the liveness soundness invariant) and the
    emptiness verdict exactly -- every run of the projected automaton
    lifts back by choosing values for the dropped registers (the domain
    is infinite and the only facts about them are satisfiable writes),
    and every original run projects down.

    Returns ``(automaton, ())`` unchanged when there is nothing to drop,
    when the liveness analysis declines, or when the signature carries
    relations/constants (relational literals cannot be renamed term by
    term; the same restriction as Theorem 13's projection).
    """
    if automaton.signature.relations or automaton.signature.constants:
        return automaton, ()
    from repro.analysis.dataflow import analyze_register_liveness

    liveness = analyze_register_liveness(automaton)
    if liveness is None:
        return automaton, ()
    dropped = liveness.write_only_registers()
    if not dropped:
        return automaton, ()
    k = automaton.k
    kept = [i for i in range(1, k + 1) if i not in dropped]
    m = len(kept)
    # Permute registers so the kept block is 1..m, then project onto it.
    position = {register: index + 1 for index, register in enumerate(kept)}
    for offset, register in enumerate(dropped):
        position[register] = m + 1 + offset
    renaming = {}
    for register, target in position.items():
        renaming[X(register)] = X(target)
        renaming[Y(register)] = Y(target)
    transitions = [
        Transition(
            t.source,
            _saturated_projection(t.guard, renaming, m, k),
            t.target,
        )
        for t in automaton.transitions
    ]
    projected = RegisterAutomaton(
        m,
        automaton.signature,
        automaton.states,
        automaton.initial,
        automaton.accepting,
        transitions,
    )
    return projected, dropped
