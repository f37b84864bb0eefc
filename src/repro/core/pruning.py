"""Sound pruning of proved-dead control, powered by the dataflow analysis.

Consumers of the reachable-equality-types fixpoint
(:mod:`repro.analysis.dataflow`) inside the core pipeline:

* :func:`prune_infeasible` -- drop states no valid run prefix can reach
  and transitions whose guard is unsatisfiable under every reachable
  register configuration.  Sound for *both* the omega-language and every
  finite run prefix: a valid (finite or lasso) run starts in an initial
  state, so each of its prefixes witnesses concrete reachability of every
  state it visits and fires only feasible transitions -- none of which are
  pruned.  The valid-run set is therefore preserved exactly (asserted
  brute-force in ``tests/test_dataflow.py``).
* :func:`prune_extended` -- the same on an extended automaton; constraint
  DFAs are remapped onto the surviving state alphabet (runs only visit
  surviving states, so the constraint semantics is unchanged).
* :class:`ConstraintNarrowing` -- an incremental prefix filter threaded
  through the candidate-lasso enumeration of
  :meth:`repro.automata.buchi.BuchiAutomaton.iter_accepted_lassos`.  It
  mirrors :func:`repro.core.emptiness.trace_is_consistent` exactly on the
  explored finite word: a global inequality constraint violated *inside*
  the word dooms every lasso extending it (the consistency walk is
  deterministic and reaches the violating position before any cycle-break
  or dead-state break can fire), so the whole enumeration subtree is
  skipped.  Surviving candidates keep their enumeration order, hence the
  verdict and the winning witness trace are identical to the unpruned
  run while ``candidates_checked`` can only shrink.

Layering note: this module lives in ``core`` but the analysis lives above
it, so the dataflow import happens lazily inside the functions.
"""

from typing import Iterable, List, Optional, Tuple

from repro.core.caching import dead_states
from repro.core.extended import ExtendedAutomaton, restrict_extended
from repro.core.register_automaton import RegisterAutomaton
from repro.logic.types import advance_registers, x_equality_classes

__all__ = [
    "prune_infeasible",
    "prune_extended",
    "ConstraintNarrowing",
    "build_narrowing",
]

def prune_infeasible(automaton: RegisterAutomaton) -> RegisterAutomaton:
    """Drop abstractly-unreachable states and infeasible transitions.

    Returns the *same object* when nothing is pruned (or the analysis
    declines the automaton), so identity-keyed caches downstream stay
    warm on the common path.
    """
    if automaton.k == 0:
        return automaton
    from repro.analysis.dataflow import analyze_reachable_types

    types = analyze_reachable_types(automaton)
    if types is None:
        return automaton
    dead_state_set = frozenset(types.unreachable_states())
    infeasible = set(types.infeasible_transitions())
    if not dead_state_set and not infeasible:
        return automaton
    return automaton.restricted(
        automaton.states - dead_state_set,
        (t for t in automaton.transitions if t not in infeasible),
    )


def prune_extended(extended: ExtendedAutomaton) -> ExtendedAutomaton:
    """:func:`prune_infeasible` lifted to an extended automaton.

    The surviving automaton has a smaller state alphabet, so constraint
    DFAs (whose alphabet must match the states exactly) are remapped onto
    it (:func:`repro.core.extended.restrict_extended`); runs of the pruned
    automaton visit only surviving states, hence every constraint
    accepts/rejects exactly the factors it did before.
    """
    return restrict_extended(extended, prune_infeasible(extended.automaton))


class ConstraintNarrowing:
    """Prefix-monotone infeasibility filter for the lasso enumeration.

    A *filter state* is ``(previous guard, per-constraint thread sets)``;
    each thread ``(dfa state, corridor members)`` is the exact
    configuration :func:`~repro.core.emptiness.trace_is_consistent` would
    hold after walking one constraint from one start position up to the
    current end of the explored word.  :meth:`step` advances every thread
    over the appended ``(state, guard)`` symbol, spawns the thread for the
    new start position, and returns ``None`` -- pruning the enumeration
    subtree -- when some accepting thread carries the constrained register
    in its corridor (the violation the full consistency check would find)
    or when the optional per-state abstract-configuration filter refutes
    the symbol outright.

    All thread bookkeeping uses frozensets queried with order-independent
    predicates, so decisions are identical across hash seeds, interning
    modes and worker counts.
    """

    __slots__ = ("_k", "_constraints", "_dfas", "_dead", "_types", "paths_pruned")

    def __init__(self, extended: ExtendedAutomaton, types=None) -> None:
        self._k = extended.automaton.k
        self._constraints = extended.inequality_constraints()
        self._dfas = [extended.constraint_dfa(c) for c in self._constraints]
        self._dead = [dead_states(dfa) for dfa in self._dfas]
        self._types = types
        self.paths_pruned = 0

    def empty(self) -> Tuple:
        """The filter state before any symbol has been read."""
        return (None, tuple(frozenset() for _ in self._constraints))

    def step(self, fstate: Tuple, symbol) -> Optional[Tuple]:
        """The filter state after appending *symbol*, or ``None`` to prune."""
        state, guard = symbol
        if self._types is not None and not self._types.feasible_from(state, guard):
            self.paths_pruned += 1
            return None
        previous_guard, all_threads = fstate
        k = self._k
        new_threads: List[frozenset] = []
        for index, constraint in enumerate(self._constraints):
            dfa = self._dfas[index]
            dead = self._dead[index]
            accepting = dfa.accepting
            advanced = set()
            for dfa_state, members in all_threads[index]:
                # Mirror of the consistency walk, in its exact order:
                # advance, then dead-break, then violation-check.
                next_state = dfa.delta(dfa_state, state)
                if next_state in dead:
                    continue
                next_members = advance_registers(previous_guard, members, k)
                if next_state in accepting and constraint.j in next_members:
                    self.paths_pruned += 1
                    return None
                advanced.add((next_state, next_members))
            # Spawn the thread for start = the appended position.
            spawn_state = dfa.delta(dfa.initial, state)
            if spawn_state not in dead:
                spawn_members = x_equality_classes(guard, k)[constraint.i]
                if spawn_state in accepting and constraint.j in spawn_members:
                    self.paths_pruned += 1
                    return None
                advanced.add((spawn_state, spawn_members))
            new_threads.append(frozenset(advanced))
        return (guard, tuple(new_threads))


def build_narrowing(normalised: ExtendedAutomaton) -> Optional[ConstraintNarrowing]:
    """A :class:`ConstraintNarrowing` for the normalised automaton, or ``None``.

    ``None`` when the automaton carries no inequality constraints (the
    emptiness check then has nothing to narrow on).  The per-state
    abstract configurations are attached when the dataflow analysis fits
    its budget; they make the filter also refuse symbols whose guard
    cannot fire from any reachable configuration (a no-op on completed
    automata, where the symbolic control graph is already exact, but
    sound and cheap everywhere).
    """
    if not normalised.inequality_constraints():
        return None
    from repro.analysis.dataflow import analyze_reachable_types

    types = analyze_reachable_types(normalised.automaton)
    return ConstraintNarrowing(normalised, types)
