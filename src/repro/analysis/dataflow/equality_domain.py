"""Reachable equality types of registers, per control state.

The instantiation of :mod:`repro.analysis.dataflow.framework` that powers
the ``DF0xx`` feasibility passes and :func:`repro.core.pruning.prune_infeasible`.

Abstract domain
---------------
For a ``k``-register automaton the domain element at a control state is a
*set of complete equality x-types* over ``x1..xk``
(:func:`repro.logic.types.complete_equality_x_types` -- the Bell(k) set
partitions of the registers).  The concretisation of a set ``S`` at
state ``q`` is::

    { register valuations d  |  the complete equality type of d is in S }

Soundness invariant (checked by the tests against brute-force bounded
runs): after solving, ``types_at(q)`` contains the equality type of
**every** register valuation ``d`` such that some valid run prefix from
an initial state reaches ``(q, d)``.  Initial states start at top (all
types): initial register contents are arbitrary.

The set is never stored explicitly.  Each state carries an antichain of
partition-code *intervals* (every partition containing all pairs of one
bitmask and none of another) under containment, and the transfer
function is :func:`repro.logic.types.successor_atoms`, whose downward
closure is :func:`repro.logic.types.abstract_successor_types` -- exact
on the equality skeleton of the guard, dropping relational and constant
facts (an over-approximation, hence sound).  This is a finite exact
representation of register configurations in the sense of
Chen--Wang--Yen, with antichain subsumption in the style of VATA.

Budgets
-------
Bell numbers grow fast (B(6) = 203, B(7) = 877), so the analysis refuses
automata with more than :data:`MAX_REGISTERS` registers and the solver
carries an edge-evaluation budget.  Both caps live on one
:class:`~repro.foundations.resilience.Budget` hierarchy
(``dataflow`` -> ``registers`` / ``edges``), so every degradation is
reported uniformly: :func:`reachable_types_outcome` returns a
``DEGRADED`` :class:`~repro.foundations.resilience.Outcome` whose stats
carry the budget snapshot (and an ``RS004`` event is recorded), while the
plain :func:`analyze_reachable_types` wrapper keeps the historical
``None``-means-no-information contract for consumers that only care
about the value.
"""

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.foundations.diagnostics import Severity
from repro.foundations.resilience import Budget, Outcome, record_event
from repro.core.register_automaton import RegisterAutomaton, State, Transition
from repro.logic.types import (
    SigmaType,
    abstract_successor_types,
    all_pairs_mask,
    complete_equality_x_types,
    decode_partition_code,
    enumerate_interval_codes,
    interval_contains,
    pair_bits,
    successor_atoms,
)
from repro.analysis.dataflow.framework import (
    ForwardProblem,
    SubsumptionLattice,
    solve_forward,
)

__all__ = [
    "MAX_REGISTERS",
    "DEFAULT_EDGE_BUDGET",
    "ReachableTypes",
    "analyze_reachable_types",
    "reachable_types_outcome",
]

#: Refuse the analysis above this register count.  The antichain domain
#: (partition-code intervals with subsumption pruning) never materialises
#: the Bell(k) lattice, so the edge budget below remains the real guard
#: for huge automata.
MAX_REGISTERS = 12

#: Default cap on transfer-function applications in the fixpoint solver.
#: Each state is re-queued at most Bell(k) times (its value strictly grows),
#: so ordinary workloads stay far below this; hitting it means the
#: automaton is too large to analyse cheaply and the caller gets ``None``.
DEFAULT_EDGE_BUDGET = 60_000


#: An interval (atom) of partition codes: ``(e, d)`` denotes every
#: partition whose code contains all bits of ``e`` and none of ``d``.
Interval = Tuple[int, int]

#: The full interval -- no pair forced equal or apart -- i.e. "all types".
TOP_INTERVAL: Interval = (0, 0)


class _ReachableIntervalsProblem(ForwardProblem[FrozenSet[Interval]]):
    """The forward problem: per-state antichains of code intervals.

    Nodes are control states and labels transitions; initial states start
    at the top interval.  The value at a state is an antichain of
    intervals under containment (:func:`repro.logic.types.interval_contains`)
    and the transfer function is the sigma-reduced
    :func:`repro.logic.types.successor_atoms` -- Bell(|guard registers|)
    work per interval instead of Bell(k) per state.  The downward closure
    of the fixpoint is the set of complete equality types the explicit
    powerset iteration over :func:`abstract_successor_types` computes
    (``tests.helpers.explicit_reachable_types`` is that oracle).
    """

    def __init__(self, automaton: RegisterAutomaton) -> None:
        self.lattice = SubsumptionLattice(interval_contains)
        self._automaton = automaton
        self._k = automaton.k

    def nodes(self) -> Iterable[State]:
        return self._automaton.states

    def entry(self, node: State) -> FrozenSet[Interval]:
        if node in self._automaton.initial:
            return frozenset((TOP_INTERVAL,))
        return frozenset()

    def out_edges(self, node: State) -> Iterable[Tuple[Transition, State]]:
        return ((t, t.target) for t in self._automaton.transitions_from(node))

    def transfer(
        self, transition: Transition, value: FrozenSet[Interval]
    ) -> FrozenSet[Interval]:
        guard = transition.guard
        k = self._k
        successors = set()
        for e_mask, d_mask in sorted(value):
            successors.update(successor_atoms(e_mask, d_mask, guard, k))
        return self.lattice.prune(successors)


class ReachableTypes:
    """The solved analysis: reachable equality types per control state.

    Each state carries an antichain of partition-code intervals
    (:meth:`intervals_at`); the state's type set is their downward
    closure.  ``types_at`` materialises (and caches) that set on demand,
    while the predicates answer directly on the intervals:

    * reachability / feasibility without decoding any type at all,
    * ``forced_equalities`` as a bitwise AND over the interval lower
      bounds (the minimal member of ``(e, d)`` is exactly ``e``, so a pair
      is forced on every member of every interval iff its bit survives
      the AND).

    A state has no intervals exactly when no valid run prefix can reach
    it (abstract unreachability -- a proof, since the domain
    over-approximates).  All query methods are deterministic functions of
    the automaton structure: no iteration order leaks from set hashing.
    """

    __slots__ = (
        "automaton",
        "per_state_intervals",
        "iterations",
        "edge_evaluations",
        "_materialised",
    )

    def __init__(
        self,
        automaton: RegisterAutomaton,
        per_state_intervals: Dict[State, FrozenSet[Interval]],
        iterations: int,
        edge_evaluations: int,
    ) -> None:
        self.automaton = automaton
        self.per_state_intervals = per_state_intervals
        self.iterations = iterations
        self.edge_evaluations = edge_evaluations
        self._materialised: Dict[State, FrozenSet[SigmaType]] = {}

    # ------------------------------------------------------------------ #
    # feasibility queries
    # ------------------------------------------------------------------ #

    def intervals_at(self, state: State) -> FrozenSet[Interval]:
        return self.per_state_intervals.get(state, frozenset())

    def types_at(self, state: State) -> FrozenSet[SigmaType]:
        found = self._materialised.get(state)
        if found is None:
            k = self.automaton.k
            types = set()
            for e_mask, d_mask in self.intervals_at(state):
                for code in enumerate_interval_codes(e_mask, d_mask, k):
                    types.add(decode_partition_code(code, k))
            found = self._materialised[state] = frozenset(types)
        return found

    def is_reachable(self, state: State) -> bool:
        """Whether some valid run prefix can reach *state*.

        Intervals are built from satisfiable types only, so every stored
        interval is non-empty.
        """
        return bool(self.intervals_at(state))

    def feasible(self, transition: Transition) -> bool:
        """Whether *transition* can fire from some reachable configuration."""
        return self.feasible_from(transition.source, transition.guard)

    def feasible_from(self, state: State, guard: SigmaType) -> bool:
        """Whether *guard* is satisfiable under some reachable type at *state*."""
        k = self.automaton.k
        return any(
            successor_atoms(e_mask, d_mask, guard, k)
            for e_mask, d_mask in sorted(self.intervals_at(state))
        )

    def unreachable_states(self) -> Tuple[State, ...]:
        """States proved unreachable by any valid run prefix (sorted)."""
        return tuple(
            state
            for state in sorted(self.automaton.states, key=repr)
            if not self.is_reachable(state)
        )

    def infeasible_transitions(self) -> Tuple[Transition, ...]:
        """Transitions proved unable to fire on any valid run (stable order)."""
        return tuple(
            t for t in self.automaton.transitions if not self.feasible(t)
        )

    # ------------------------------------------------------------------ #
    # witnesses and refinement facts
    # ------------------------------------------------------------------ #

    def witness_path(self, state: State) -> Optional[List[Transition]]:
        """A feasibility-certified transition path from an initial state.

        BFS over the ``(control state, equality type)`` pair graph, so every
        step of the returned path is abstractly firable from the type
        reached so far -- a reachability witness for the diagnostics.
        ``None`` when *state* is (proved) unreachable.  Deterministic:
        frontier seeding and expansion are repr-sorted.
        """
        automaton = self.automaton
        k = automaton.k
        if state in automaton.initial:
            return []
        parents: Dict[Tuple[State, SigmaType], Tuple] = {}
        frontier = deque()
        for source in sorted(automaton.initial, key=repr):
            for phi in sorted(complete_equality_x_types(k), key=repr):
                pair = (source, phi)
                if pair not in parents:
                    parents[pair] = ()
                    frontier.append(pair)
        while frontier:
            source, phi = frontier.popleft()
            for transition in automaton.transitions_from(source):
                for psi in abstract_successor_types(phi, transition.guard, k):
                    pair = (transition.target, psi)
                    if pair in parents:
                        continue
                    parents[pair] = ((source, phi), transition)
                    if transition.target == state:
                        path = [transition]
                        step = parents[(source, phi)]
                        while step:
                            path.append(step[1])
                            step = parents[step[0]]
                        path.reverse()
                        return path
                    frontier.append(pair)
        return None

    def forced_equalities(self, state: State) -> Tuple[Tuple[int, int], ...]:
        """Register pairs ``(i, j)`` provably equal at *state* on every run.

        Empty when the state is unreachable (no types to force anything) --
        callers should check :meth:`is_reachable` first.  This is the
        register-constancy fact consumed by the ``DF004`` refinement
        diagnostics.
        """
        intervals = self.intervals_at(state)
        if not intervals:
            return ()
        k = self.automaton.k
        common = all_pairs_mask(k)
        for e_mask, _d_mask in intervals:
            common &= e_mask
        return tuple(
            pair
            for bit, pair in enumerate(pair_bits(k))
            if common >> bit & 1
        )


def reachable_types_outcome(
    automaton: RegisterAutomaton,
    max_edge_evaluations: Optional[int] = DEFAULT_EDGE_BUDGET,
) -> "Outcome[ReachableTypes]":
    """The reachable-equality-types analysis as a budgeted outcome.

    ``COMPLETE`` carries the solved :class:`ReachableTypes`; ``DEGRADED``
    carries no value and a ``reason`` of ``"register-cap"`` (more than
    :data:`MAX_REGISTERS` registers) or ``"edge-budget"`` (the fixpoint
    solver exhausted *max_edge_evaluations* transfer applications).
    Either way the stats include the full budget snapshot, which is what
    the ``DF005`` diagnostic and the ``RS004`` resilience event expose to
    CI.  The snapshot is deterministic: the solver stops on exactly the
    same edge evaluation the historical integer cap stopped on.
    """
    budget = Budget("dataflow")
    registers = budget.scope("registers", MAX_REGISTERS)
    edges = budget.scope("edges", max_edge_evaluations)

    def declined(reason: str) -> "Outcome[ReachableTypes]":
        snapshot = budget.snapshot()
        record_event(
            "RS004",
            "dataflow analysis declined (%s) for %d-register automaton"
            % (reason, automaton.k),
            severity=Severity.INFO,
            location="repro.analysis.dataflow.reachable_types_outcome",
            data={"reason": reason, "budget": snapshot},
        )
        return Outcome.degraded(None, reason=reason, budget=snapshot)

    if not registers.charge(automaton.k):
        return declined("register-cap")
    result = solve_forward(_ReachableIntervalsProblem(automaton), edges)
    if result is None:
        return declined("edge-budget")
    return Outcome.complete(
        ReachableTypes(
            automaton, result.values, result.iterations, result.edge_evaluations
        ),
        budget=budget.snapshot(),
    )


def analyze_reachable_types(
    automaton: RegisterAutomaton,
    max_edge_evaluations: Optional[int] = DEFAULT_EDGE_BUDGET,
) -> Optional[ReachableTypes]:
    """Run the reachable-equality-types analysis; ``None`` when over budget.

    ``None`` means "no information" -- too many registers for the Bell-sized
    domain, or the solver exhausted *max_edge_evaluations* -- and every
    consumer must then behave exactly as if the analysis never ran.  (The
    richer :func:`reachable_types_outcome` says *why* and how much budget
    was spent.)
    """
    return reachable_types_outcome(automaton, max_edge_evaluations).value
