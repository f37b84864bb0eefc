"""Backward dataflow: register liveness and co-reachability.

The two instantiations of :class:`~repro.analysis.dataflow.framework.BackwardProblem`
that power the ``DF006``/``DF007``/``DF008`` passes
(:mod:`repro.analysis.passes_dataflow`) and the sound reduction layer
(:mod:`repro.core.reduction`).

Register liveness
-----------------
The domain element at a control state is the *set of live registers*: a
register is live at ``q`` iff some guard on some path from ``q`` can
*read* its current content before every corridor carrying that content is
cut.  Reads are computed by :func:`guard_read_registers` -- a comparison
with another current register, a disequality, a relational literal, or a
constant/foreign-variable equality observes a value; a pure copy
``x_i = y_j`` does not read by itself, it only *forwards* the value, so
the backward transfer turns it into a read exactly when the written
register is live after the step::

    live(q)  >=  union over transitions (q --delta--> q') of
                 reads(delta)  |  { i : images_delta[i] & live(q') != {} }

where ``images_delta = y_successor_images(delta, k)`` are the paper's
equality corridors.  The lattice is the plain powerset of registers
(2^k states of information, never materialised), so unlike the forward
Bell-number domain it is cheap at every ``k`` the antichain cap admits --
the register cap here is :data:`~repro.analysis.dataflow.equality_domain.MAX_REGISTERS`
in *both* domain modes.

Soundness invariant (checked by the tests against brute-force bounded
runs): if register ``i`` is *not* live at ``q``, then no continuation of
any run from ``q`` can observe the value stored in ``i`` -- replacing it
with any fresh value preserves the set of accepting continuations.

Co-reachability
---------------
The second backward problem computes, per state, the set of *anchors* --
accepting states on an abstractly feasible cycle -- still abstractly
reachable from it, flowing anchor sets backwards over transitions the
forward reachable-equality-types analysis certifies feasible.  A state
with an empty anchor set admits no accepting lasso continuation; this is
the semantic refinement of the graph-level ``RA111`` co-accessibility
check (a state can be graph-co-accessible while every path to an
accepting cycle is cut by an infeasible guard).  The facts are sound at
forward-reachable states: a valid accepting run suffix from a reachable
state only uses feasible transitions and pumps a feasible accepting
cycle, so its anchor is found.

Budgets
-------
Both analyses mirror :func:`~repro.analysis.dataflow.equality_domain.reachable_types_outcome`:
one :class:`~repro.foundations.resilience.Budget` hierarchy
(``dataflow`` -> ``registers`` / ``edges``), an ``RS004`` event on every
declination, and a ``DEGRADED`` outcome whose stats carry the snapshot.
Consumers of the plain ``analyze_*`` wrappers treat ``None`` as "no
information" and behave as if the analysis never ran.
"""

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.automata.graphs import cyclic_components
from repro.foundations.diagnostics import Severity
from repro.foundations.resilience import Budget, Outcome, record_event
from repro.core.register_automaton import RegisterAutomaton, State, Transition
from repro.logic.terms import X, register_index
from repro.logic.types import SigmaType, y_successor_images
from repro.analysis.dataflow.framework import (
    BackwardProblem,
    PowersetLattice,
    solve_backward,
)
from repro.analysis.dataflow.equality_domain import (
    DEFAULT_EDGE_BUDGET,
    MAX_REGISTERS,
    analyze_reachable_types,
)

__all__ = [
    "guard_read_registers",
    "RegisterLiveness",
    "CoReachability",
    "register_liveness_outcome",
    "analyze_register_liveness",
    "co_reachability_outcome",
    "analyze_co_reachability",
]

#: Cone certificates (DF006 payloads) list at most this many states.
PROOF_CONE_CAP = 25


def guard_read_registers(delta: SigmaType, k: int) -> Tuple[int, ...]:
    """The registers whose *current* value the guard observes.

    A guard reads ``x_i`` when its enabledness, or the constraint it
    imposes on other values, depends on the content of register ``i``:

    * the equality closure forces ``x_i`` equal to another current
      register -- a comparison, even when stated through ``y``-corridors
      (``x1 = y2 and x2 = y2`` entails ``x1 = x2``);
    * a literal that observes a value -- any negative literal, any
      relational literal, any equality touching a constant or a
      non-register variable -- mentions a term in ``x_i``'s class.

    Positive register-to-register equalities that survive both filters
    are pure copies: they forward the value without inspecting it, and
    the backward liveness transfer counts them as reads exactly when the
    written register is live after the step.  Cached on the type
    instance per *k*, like its sibling accessors in
    :mod:`repro.logic.types`.
    """
    cache = delta.__dict__.get("_read_registers")
    if cache is None:
        cache = delta.__dict__["_read_registers"] = {}
    found = cache.get(k)
    if found is None:
        closure = delta.closure
        reads: Set[int] = set()
        for i in range(1, k + 1):
            for m in range(i + 1, k + 1):
                if closure.same(X(i), X(m)):
                    reads.add(i)
                    reads.add(m)
        for literal in delta.canonical_literals:
            observing = not literal.positive or not literal.is_equality()
            if not observing:
                observing = any(
                    register_index(term) is None for term in literal.terms
                )
            if not observing:
                continue
            for term in literal.terms:
                for i in range(1, k + 1):
                    if i not in reads and closure.same(X(i), term):
                        reads.add(i)
        found = cache[k] = tuple(sorted(reads))
    return found


class _LivenessProblem(BackwardProblem[FrozenSet[int]]):
    """The backward problem: nodes are control states, labels transitions."""

    def __init__(self, automaton: RegisterAutomaton) -> None:
        self.lattice = PowersetLattice()
        self._automaton = automaton
        self._k = automaton.k

    def nodes(self):
        return self._automaton.states

    def exit(self, node: State) -> FrozenSet[int]:
        # Acceptance is by control states alone; no register is read at
        # the boundary.
        return frozenset()

    def out_edges(self, node: State):
        return ((t, t.target) for t in self._automaton.transitions_from(node))

    def transfer(
        self, transition: Transition, value: FrozenSet[int]
    ) -> FrozenSet[int]:
        guard = transition.guard
        k = self._k
        live: Set[int] = set(guard_read_registers(guard, k))
        if value:
            images = y_successor_images(guard, k)
            for i in range(1, k + 1):
                if i not in live and images[i] & value:
                    live.add(i)
        return frozenset(live)


class RegisterLiveness:
    """The solved liveness analysis: live registers per control state.

    ``per_state[q]`` is the set of registers some future guard can read
    from ``q``; its complement (:meth:`dead_at`) is a proof that the
    register's content at ``q`` can never matter again.  All query
    methods are deterministic functions of the automaton structure.
    """

    __slots__ = ("automaton", "per_state", "iterations", "edge_evaluations")

    def __init__(
        self,
        automaton: RegisterAutomaton,
        per_state: Dict[State, FrozenSet[int]],
        iterations: int,
        edge_evaluations: int,
    ) -> None:
        self.automaton = automaton
        self.per_state = per_state
        self.iterations = iterations
        self.edge_evaluations = edge_evaluations

    def live_at(self, state: State) -> FrozenSet[int]:
        return self.per_state.get(state, frozenset())

    def dead_at(self, state: State) -> Tuple[int, ...]:
        """Registers provably never read after *state* (sorted)."""
        live = self.live_at(state)
        return tuple(
            i for i in range(1, self.automaton.k + 1) if i not in live
        )

    def read_registers(self) -> Tuple[int, ...]:
        """Registers some guard reads (sorted union over all transitions)."""
        k = self.automaton.k
        reads: Set[int] = set()
        for transition in self.automaton.transitions:
            reads.update(guard_read_registers(transition.guard, k))
        return tuple(sorted(reads))

    def mentioned_registers(self) -> Tuple[int, ...]:
        """Registers some guard mentions at all (``x`` or ``y`` side)."""
        mentioned: Set[int] = set()
        for transition in self.automaton.transitions:
            for variable in transition.guard.variables:
                decomposed = register_index(variable)
                if decomposed is not None and decomposed[1] <= self.automaton.k:
                    mentioned.add(decomposed[1])
        return tuple(sorted(mentioned))

    def write_only_registers(self) -> Tuple[int, ...]:
        """Registers that are written/constrained but live at *no* state.

        The projection candidates of the ``DF008`` pass: their stored
        content can never be observed -- not read by any guard, and never
        copied into a register that is live afterwards (``x3 = y1`` with
        register 1 read later makes register 3 observable *through*
        register 1, so "never read directly" alone would be unsound) --
        which is exactly "live nowhere" in the fixpoint.  These are the
        registers :func:`repro.core.reduction.project_dead_registers`
        can drop while preserving the emptiness verdict.  Registers no
        guard mentions at all are excluded -- ``RA120`` covers those.
        """
        live_somewhere: Set[int] = set()
        for live in self.per_state.values():
            live_somewhere |= live
        return tuple(
            i
            for i in self.mentioned_registers()
            if i not in live_somewhere
        )

    def never_read_proof(
        self, state: State, register: int, cap: int = PROOF_CONE_CAP
    ) -> dict:
        """A machine-checkable "never read after here" certificate.

        Walks the forward cone of *state* (FIFO, declaration-ordered
        transitions, so the payload is deterministic) and records, per
        step, the guard's read set and the live registers the tracked
        register's corridor flows into -- both empty everywhere is
        exactly the closure property the fixpoint proved.  Truncated
        past *cap* states so diagnostics on large automata stay small.
        """
        cone: List[dict] = []
        seen = {state}
        frontier: List[State] = [state]
        truncated = False
        k = self.automaton.k
        while frontier:
            if len(cone) >= cap:
                truncated = True
                break
            current = frontier.pop(0)
            steps: List[dict] = []
            for transition in self.automaton.transitions_from(current):
                images = y_successor_images(transition.guard, k)
                steps.append(
                    {
                        "transition": repr(transition),
                        "reads": list(guard_read_registers(transition.guard, k)),
                        "flows_into_live": sorted(
                            images[register] & self.live_at(transition.target)
                        ),
                    }
                )
                if transition.target not in seen:
                    seen.add(transition.target)
                    frontier.append(transition.target)
            cone.append(
                {
                    "state": repr(current),
                    "dead_here": register not in self.live_at(current),
                    "steps": steps,
                }
            )
        return {"register": register, "cone": cone, "truncated": truncated}


class _CoReachabilityProblem(BackwardProblem[FrozenSet[State]]):
    """Anchor sets flowing backwards over feasible transitions."""

    def __init__(
        self,
        automaton: RegisterAutomaton,
        anchors: FrozenSet[State],
        feasible: FrozenSet[Transition],
    ) -> None:
        self.lattice = PowersetLattice()
        self._automaton = automaton
        self._anchors = anchors
        self._feasible = feasible

    def nodes(self):
        return self._automaton.states

    def exit(self, node: State) -> FrozenSet[State]:
        if node in self._anchors:
            return frozenset((node,))
        return frozenset()

    def out_edges(self, node: State):
        return ((t, t.target) for t in self._automaton.transitions_from(node))

    def transfer(
        self, transition: Transition, value: FrozenSet[State]
    ) -> FrozenSet[State]:
        if transition not in self._feasible:
            return frozenset()
        return value


class CoReachability:
    """The solved co-reachability analysis: reachable anchors per state.

    ``anchors`` are the accepting states sitting on an abstractly
    feasible cycle; ``per_state[q]`` the anchors abstractly reachable
    from ``q``.  An empty set at a *forward-reachable* state is a proof
    that no accepting lasso continuation exists from it (see the module
    docstring for the soundness precondition).
    """

    __slots__ = (
        "automaton",
        "anchors",
        "per_state",
        "iterations",
        "edge_evaluations",
    )

    def __init__(
        self,
        automaton: RegisterAutomaton,
        anchors: FrozenSet[State],
        per_state: Dict[State, FrozenSet[State]],
        iterations: int,
        edge_evaluations: int,
    ) -> None:
        self.automaton = automaton
        self.anchors = anchors
        self.per_state = per_state
        self.iterations = iterations
        self.edge_evaluations = edge_evaluations

    def anchors_from(self, state: State) -> FrozenSet[State]:
        return self.per_state.get(state, frozenset())

    def is_co_reachable(self, state: State) -> bool:
        return bool(self.anchors_from(state))

    def non_co_reachable_states(self) -> Tuple[State, ...]:
        return tuple(
            state
            for state in sorted(self.automaton.states, key=repr)
            if not self.is_co_reachable(state)
        )


def _declined(budget: Budget, automaton: RegisterAutomaton, reason: str, what: str):
    snapshot = budget.snapshot()
    record_event(
        "RS004",
        "%s analysis declined (%s) for %d-register automaton"
        % (what, reason, automaton.k),
        severity=Severity.INFO,
        location="repro.analysis.dataflow.liveness_domain",
        data={"reason": reason, "budget": snapshot},
    )
    return Outcome.degraded(None, reason=reason, budget=snapshot)


def register_liveness_outcome(
    automaton: RegisterAutomaton,
    max_edge_evaluations: Optional[int] = DEFAULT_EDGE_BUDGET,
) -> "Outcome[RegisterLiveness]":
    """The register-liveness analysis as a budgeted outcome.

    ``COMPLETE`` carries the solved :class:`RegisterLiveness`;
    ``DEGRADED`` carries no value and a ``reason`` of ``"register-cap"``
    (more than :data:`~repro.analysis.dataflow.equality_domain.MAX_REGISTERS`
    registers) or ``"edge-budget"`` (the backward solver exhausted
    *max_edge_evaluations* transfer applications).  The stats always
    include the budget snapshot, exposed to CI through the diagnostics
    that consume this analysis.
    """
    budget = Budget("dataflow")
    registers = budget.scope("registers", MAX_REGISTERS)
    edges = budget.scope("edges", max_edge_evaluations)
    if not registers.charge(automaton.k):
        return _declined(budget, automaton, "register-cap", "liveness")
    result = solve_backward(_LivenessProblem(automaton), edges)
    if result is None:
        return _declined(budget, automaton, "edge-budget", "liveness")
    return Outcome.complete(
        RegisterLiveness(
            automaton, result.values, result.iterations, result.edge_evaluations
        ),
        budget=budget.snapshot(),
    )


def analyze_register_liveness(
    automaton: RegisterAutomaton,
    max_edge_evaluations: Optional[int] = DEFAULT_EDGE_BUDGET,
) -> Optional[RegisterLiveness]:
    """Run the liveness analysis; ``None`` when over budget.

    ``None`` means "no information" and every consumer must behave
    exactly as if the analysis never ran (the no-op degradation shared
    with :func:`~repro.analysis.dataflow.equality_domain.analyze_reachable_types`).
    """
    return register_liveness_outcome(automaton, max_edge_evaluations).value


def _feasible_cycle_anchors(
    automaton: RegisterAutomaton,
    feasible_targets: Dict[State, Tuple[State, ...]],
    edges: "Budget",
) -> Optional[FrozenSet[State]]:
    """Accepting states on a cycle of feasible transitions.

    One Tarjan pass (:func:`~repro.automata.graphs.cyclic_components`)
    from the accepting states, in ``repr`` order, over the feasible
    transitions: every cycle through an accepting state is reachable
    from it.  Each edge the pass follows charges *edges* once, so the
    charge sequence is deterministic; ``None`` when the budget runs out.
    """

    def successors(state: State) -> Tuple[State, ...]:
        targets = feasible_targets.get(state, ())
        if not edges.charge(len(targets)):
            # Spent: from here on no state has successors, so the pass
            # ends early; its answer is dropped below.
            return ()
        return targets

    accepting = automaton.accepting
    anchors = frozenset(
        state
        for component in cyclic_components(sorted(accepting, key=repr), successors)
        for state in component
        if state in accepting
    )
    return None if edges.exhausted else anchors


def co_reachability_outcome(
    automaton: RegisterAutomaton,
    max_edge_evaluations: Optional[int] = DEFAULT_EDGE_BUDGET,
) -> "Outcome[CoReachability]":
    """The co-reachability analysis as a budgeted outcome.

    Degrades (value ``None``) with reason ``"register-cap"``,
    ``"forward-analysis"`` (the reachable-equality-types prerequisite
    itself declined -- over its register cap or edge budget), or
    ``"edge-budget"`` (the anchor search or the backward solve exhausted
    *max_edge_evaluations*).
    """
    budget = Budget("dataflow")
    registers = budget.scope("registers", MAX_REGISTERS)
    edges = budget.scope("edges", max_edge_evaluations)
    if not registers.charge(automaton.k):
        return _declined(budget, automaton, "register-cap", "co-reachability")
    types = analyze_reachable_types(automaton, max_edge_evaluations)
    if types is None:
        return _declined(budget, automaton, "forward-analysis", "co-reachability")
    feasible = tuple(
        t for t in automaton.transitions if types.feasible(t)
    )
    feasible_targets: Dict[State, List[State]] = {}
    for transition in feasible:
        feasible_targets.setdefault(transition.source, []).append(
            transition.target
        )
    anchors = _feasible_cycle_anchors(
        automaton,
        {s: tuple(ts) for s, ts in feasible_targets.items()},
        edges,
    )
    if anchors is None:
        return _declined(budget, automaton, "edge-budget", "co-reachability")
    problem = _CoReachabilityProblem(automaton, anchors, frozenset(feasible))
    result = solve_backward(problem, edges)
    if result is None:
        return _declined(budget, automaton, "edge-budget", "co-reachability")
    return Outcome.complete(
        CoReachability(
            automaton,
            anchors,
            result.values,
            result.iterations,
            result.edge_evaluations,
        ),
        budget=budget.snapshot(),
    )


def analyze_co_reachability(
    automaton: RegisterAutomaton,
    max_edge_evaluations: Optional[int] = DEFAULT_EDGE_BUDGET,
) -> Optional[CoReachability]:
    """Run the co-reachability analysis; ``None`` when over budget."""
    return co_reachability_outcome(automaton, max_edge_evaluations).value
