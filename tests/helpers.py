"""Shared helpers for the test suite."""

from contextlib import contextmanager
from unittest import mock


def canonical_trace(rows):
    """Rename data values by first occurrence (isomorphism-invariant form)."""
    names = {}
    return tuple(
        tuple(names.setdefault(value, len(names)) for value in row) for row in rows
    )


def value_pool_of_size(count):
    return tuple("v%d" % index for index in range(count))


def projection_prefix_sets(automaton, view, m, length, limit=None):
    """Compare ``Pi_m`` of *automaton*'s prefixes with *view*'s prefixes.

    Returns ``(original, image)`` as sets of canonical traces.  Pool sizes
    are chosen so both enumerations are complete up to isomorphism: the
    original side needs up to ``length`` distinct visible values plus fresh
    values for the hidden registers (``length * hidden`` is a safe bound),
    the view side up to ``length`` visible values plus slack.
    """
    from repro.core.runs import generate_finite_runs
    from repro.db import Database, Signature

    database = Database(Signature.empty())
    # Visible values: up to `length` distinct.  Hidden registers never need
    # more than 2k+1 extra fresh values (the pool-completeness argument in
    # repro.core.runs): at any point at most k are held, so k+1 spares
    # always realise a "fresh distinct value" demand.
    original_pool = value_pool_of_size(length + 2 * automaton.k + 1)
    image_pool = value_pool_of_size(length + 1)
    original = {
        canonical_trace(tuple(row[:m] for row in run.data))
        for run in generate_finite_runs(
            automaton, database, length, pool=original_pool, limit=limit
        )
    }
    image = {
        canonical_trace(run.data)
        for run in generate_finite_runs(
            view.automaton, database, length, pool=image_pool, limit=limit
        )
        if view.satisfies_constraints(run)
    }
    return original, image


def _successor_types(types, guard, k):
    """Every complete type some type in *types* can step to under *guard*."""
    from repro.logic.types import abstract_successor_types

    image = set()
    for phi in types:
        image.update(abstract_successor_types(phi, guard, k))
    return image


class ExplicitReachableTypes:
    """Oracle for :class:`repro.analysis.dataflow.ReachableTypes`.

    Holds explicit per-state sets of complete equality x-types and answers
    every query by its definition over them, with
    :func:`repro.logic.types.abstract_successor_types` as the transfer;
    ``certifies`` replays a witness path.  Built by
    :func:`explicit_reachable_types`.
    """

    def __init__(self, automaton, per_state):
        self.automaton = automaton
        self.per_state = per_state

    def types_at(self, state):
        return self.per_state.get(state, frozenset())

    def is_reachable(self, state):
        return bool(self.types_at(state))

    def feasible_from(self, state, guard):
        return bool(_successor_types(self.types_at(state), guard, self.automaton.k))

    def feasible(self, transition):
        return self.feasible_from(transition.source, transition.guard)

    def unreachable_states(self):
        return tuple(
            state
            for state in sorted(self.automaton.states, key=repr)
            if not self.is_reachable(state)
        )

    def infeasible_transitions(self):
        return tuple(t for t in self.automaton.transitions if not self.feasible(t))

    def forced_equalities(self, state):
        from repro.logic.literals import eq
        from repro.logic.terms import X

        types = self.types_at(state)
        if not types:
            return ()
        k = self.automaton.k
        return tuple(
            (i, j)
            for i in range(1, k + 1)
            for j in range(i + 1, k + 1)
            if all(phi.entails(eq(X(i), X(j))) for phi in types)
        )

    def certifies(self, path, state):
        """Whether *path* runs from an initial state to *state*, each step
        firable from some type the steps before it reach."""
        from repro.logic.types import complete_equality_x_types

        if not path:
            return state in self.automaton.initial
        position = path[0].source
        types = set()
        if position in self.automaton.initial:
            types = set(complete_equality_x_types(self.automaton.k))
        for transition in path:
            if transition.source != position:
                return False
            types = _successor_types(types, transition.guard, self.automaton.k)
            position = transition.target
        return position == state and bool(types)


def explicit_reachable_types(automaton):
    """The reachable-equality-types fixpoint over the explicit Bell(k) domain.

    A plain worklist: initial states start at every complete type, and a
    state is re-queued whenever its set grows.
    """
    from repro.logic.types import complete_equality_x_types

    per_state = {state: set() for state in automaton.states}
    worklist = sorted(automaton.initial, key=repr)
    for state in worklist:
        per_state[state].update(complete_equality_x_types(automaton.k))
    while worklist:
        source = worklist.pop()
        for transition in automaton.transitions_from(source):
            image = _successor_types(per_state[source], transition.guard, automaton.k)
            target = per_state[transition.target]
            if not image <= target:
                target.update(image)
                worklist.append(transition.target)
    return ExplicitReachableTypes(
        automaton, {state: frozenset(types) for state, types in per_state.items()}
    )


@contextmanager
def without_pruning():
    """Run ``check_emptiness`` with pruning and narrowing switched off.

    The baseline of the pruning identity tests: dead control is kept and
    the lasso enumeration is not narrowed, on both the literal and the
    symbolic-kernel path.
    """
    from repro.core import emptiness
    from repro.core.symkernel import SymbolicKernel

    with mock.patch.object(emptiness, "prune_extended", lambda extended: extended), \
            mock.patch.object(emptiness, "build_narrowing", lambda normalised: None), \
            mock.patch.object(SymbolicKernel, "build_narrowing", lambda self: None):
        yield


@contextmanager
def without_trim():
    """Run ``check_emptiness`` with the candidate-preserving trim off."""
    from repro.core import emptiness

    with mock.patch.object(emptiness, "trim_extended", lambda extended: extended):
        yield
