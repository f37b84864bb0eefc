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

The search-side pruning needs no fixpoint and is the consistency filter
itself: :class:`repro.core.symkernel.CodedNarrowing`.

Layering note: this module lives in ``core`` but the analysis lives above
it, so the dataflow import happens lazily inside :func:`prune_infeasible`.
"""

from repro.core.extended import ExtendedAutomaton, restrict_extended
from repro.core.register_automaton import RegisterAutomaton

__all__ = [
    "prune_infeasible",
    "prune_extended",
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
