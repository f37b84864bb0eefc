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


def witness_on_original(extended, witness, length):
    """``witness.finite_witness(length)`` replayed on *extended* itself.

    The witness run lives on the normalised automaton: its states are
    ``(state, guard)`` pairs over Proposition 6's control states, and its
    registers include the ones Proposition 6 added.  Peel each state back
    to a state of *extended*, keep the first ``k`` registers, and fire at
    each step some transition of *extended* whose guard the data satisfy.
    Returns ``(database, run)``, or ``(database, None)`` when some step
    has no such transition.  Callers check ``extended.is_run(run,
    database)``, which also checks every global constraint.
    """
    from repro.core.runs import FiniteRun
    from repro.db.evaluation import evaluate_type, transition_valuation

    database, run = witness.finite_witness(length)
    automaton = extended.automaton

    def original(state):
        while state not in automaton.states:
            state = state[0]
        return state

    states = tuple(original(state) for state in run.states)
    data = tuple(row[: automaton.k] for row in run.data)
    guards = []
    for position in range(len(states) - 1):
        valuation = transition_valuation(data[position], data[position + 1])
        fired = [
            transition.guard
            for transition in automaton.transitions_between(states[position], states[position + 1])
            if evaluate_type(transition.guard, database, valuation)
        ]
        if not fired:
            return database, None
        guards.append(fired[0])
    return database, FiniteRun(data, states, tuple(guards))


def canonical_finite_runs(automaton, database, length, pool):
    """The runs of :func:`generate_finite_runs` whose values first occur in pool order.

    The same depth-first search, but each step offers only the values used
    so far plus the next ``k`` unused pool values, and keeps the tuples
    that introduce new values in pool order.  Over the empty database and
    without constants, every run over *pool* is a renaming of one of
    these, so the canonical traces of both enumerations agree.
    """
    from repro.core.runs import FiniteRun, _register_choices, initial_tuples

    k = automaton.k

    def offered(used):
        fresh = [value for value in pool if value not in used][:k]
        return tuple(value for value in pool if value in used) + tuple(fresh)

    def in_pool_order(row, used):
        fresh = [value for value in pool if value not in used]
        introduced = list(dict.fromkeys(value for value in row if value not in used))
        return introduced == fresh[: len(introduced)]

    def extend(data, states, guards, used):
        if len(states) == length:
            yield FiniteRun(tuple(data), tuple(states), tuple(guards))
            return
        for transition in automaton.transitions_from(states[-1]):
            for nxt in _register_choices(
                transition.guard, data[-1], offered(used), database, k
            ):
                if in_pool_order(nxt, used):
                    yield from extend(
                        data + [nxt],
                        states + [transition.target],
                        guards + [transition.guard],
                        used | set(nxt),
                    )

    seen = set()
    for state, first, _transition in initial_tuples(automaton, database, offered(set())):
        if in_pool_order(first, set()) and (state, first) not in seen:
            seen.add((state, first))
            yield from extend([first], [state], [], set(first))


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
            mock.patch.object(emptiness.LiteralControl, "build_narrowing", lambda self: None), \
            mock.patch.object(SymbolicKernel, "build_narrowing", lambda self: None):
        yield


@contextmanager
def without_trim():
    """Run ``check_emptiness`` with the candidate-preserving trim off."""
    from repro.core import emptiness

    with mock.patch.object(emptiness, "trim_extended", lambda extended: extended):
        yield


@contextmanager
def without_symkernel():
    """Run ``check_emptiness`` and ``verify`` on the literal normalisation path.

    The kernel declines every input, so the one selection both share
    (``repro.core.emptiness.normal_control``) answers with the
    ``completed()`` / ``state_driven()`` control even where the coded
    kernel would: the baseline of the symkernel byte-identity tests, of
    the coded ``verify`` tests and of E6.
    """
    from repro.core import emptiness

    with mock.patch.object(emptiness, "build_kernel", lambda without_eq, kept=None: None):
        yield


@contextmanager
def without_register_scopes():
    """Run ``check_emptiness`` and ``verify`` on the unscoped normal form.

    Proposition 6 reports every register as kept, so both normal forms
    complete each guard over all of ``x1..xk, y1..yk``
    (``repro.core.extended.register_scopes`` answers ``None``): the
    Bell(2k) completion the scoped one replaces, and the verdict oracle
    of the scoping tests.  A witness builds its normal form from its own
    trace, so it realises the same way after the block.
    """
    from repro.core import emptiness, verification
    from repro.core.extended import eliminate_equality_constraints

    def eliminate(extended):
        without_eq, _kept = eliminate_equality_constraints(extended)
        return without_eq, without_eq.k

    with mock.patch.object(emptiness, "eliminate_equality_constraints", eliminate), \
            mock.patch.object(verification, "eliminate_equality_constraints", eliminate):
        yield


# ---------------------------------------------------------------------- #
# literal Lemma 21 trackers and minimisation: the oracle for the coded ones
# ---------------------------------------------------------------------- #
#
# The trackers as the lemma states them: phases of a nondeterministic
# automaton over register *sets*, determinised by the subset construction
# and minimised by Moore refinement over DFA ``delta`` calls.  The coded
# constructions in ``repro.core.projection`` and ``Dfa.minimize`` must
# agree with these (language and size; minimisation byte for byte).


def literal_minimize(dfa):
    """Moore's partition refinement over reachable states, via ``delta``.

    Integer states, state 0 initial, the other blocks numbered by their
    first state in ``repr`` order.
    """
    from repro.automata.dfa import Dfa

    reachable = sorted(dfa.reachable_states(), key=repr)
    symbols = sorted(dfa.alphabet, key=repr)
    block = {state: (1 if state in dfa.accepting else 0) for state in reachable}
    while True:
        signatures = {}
        next_block = {}
        for state in reachable:
            signature = (block[state],) + tuple(
                block[dfa.delta(state, symbol)] for symbol in symbols
            )
            if signature not in signatures:
                signatures[signature] = len(signatures)
            next_block[state] = signatures[signature]
        if next_block == block:
            break
        block = next_block
    order = {}

    def number(b):
        if b not in order:
            order[b] = len(order)
        return order[b]

    number(block[dfa.initial])
    for state in reachable:
        number(block[state])
    transitions = {}
    for state in reachable:
        for symbol in symbols:
            transitions[(number(block[state]), symbol)] = number(
                block[dfa.delta(state, symbol)]
            )
    accepting = frozenset(number(block[s]) for s in reachable if s in dfa.accepting)
    return Dfa(
        states=frozenset(range(len(order))),
        alphabet=dfa.alphabet,
        transitions=transitions,
        initial=0,
        accepting=accepting,
    )


def advance_registers(delta, members, k):
    """The one-step image of the register set *members* under *delta*'s corridors."""
    from repro.logic.types import y_successor_images

    images = y_successor_images(delta, k)
    result = set()
    for l in members:
        result |= images[l]
    return frozenset(result)


def _literal_guards(automaton):
    """State -> its unique guard (state-driven automata)."""
    guards = {}
    for state in automaton.states:
        guard = automaton.guard_of_state(state)
        if guard is not None:
            guards[state] = guard
    return guards


def _literal_subset_dfa(transitions, initial, accepting, alphabet):
    from repro.automata.nfa import Nfa

    return literal_minimize(Nfa(transitions, {initial}, accepting).determinize(alphabet))


def _deterministic_tracker(automaton, start, advance, accepts):
    """A one-phase corridor tracker over ``(members, previous, ...)`` states."""
    from repro.automata.dfa import Dfa

    guards = _literal_guards(automaton)
    alphabet = frozenset(automaton.states)
    initial, dead = "init", "dead"
    transitions = {}
    states = {initial, dead}
    worklist = []
    for symbol in alphabet:
        transitions[(dead, symbol)] = dead
        guard = guards.get(symbol)
        if guard is None:
            transitions[(initial, symbol)] = dead
            continue
        target = start(guard, symbol)
        transitions[(initial, symbol)] = target
        if target not in states:
            states.add(target)
            worklist.append(target)
    while worklist:
        state = worklist.pop()
        guard = guards[state[1]]
        for symbol in alphabet:
            if symbol not in guards:
                transitions[(state, symbol)] = dead
                continue
            target = advance(guard, state, symbol)
            transitions[(state, symbol)] = target
            if target not in states:
                states.add(target)
                worklist.append(target)
    accepting = {
        state for state in states
        if isinstance(state, tuple) and accepts(guards[state[1]], state)
    }
    return literal_minimize(Dfa(states, alphabet, transitions, initial, accepting))


def literal_equality_tracker_dfa(automaton, i, j):
    """``e=_{ij}``: the set of registers carrying the start value of ``i``."""
    from repro.logic.types import x_equality_classes

    k = automaton.k
    return _deterministic_tracker(
        automaton,
        lambda guard, symbol: (x_equality_classes(guard, k)[i], symbol),
        lambda guard, state, symbol: (advance_registers(guard, state[0], k), symbol),
        lambda guard, state: j in state[0],
    )


def literal_corridor_dfa(automaton, start, end):
    """The x/y-endpoint corridor tracker, one register set per position."""
    from repro.logic.terms import Y
    from repro.logic.types import x_equality_classes, y_successor_images

    k = automaton.k
    start_kind, start_register = start
    end_kind, end_register = end

    def first(guard, symbol):
        if start_kind == "x":
            members = x_equality_classes(guard, k)[start_register]
        else:
            images = y_successor_images(guard, k)
            members = frozenset(
                m for m in range(1, k + 1) if start_register in images[m]
            )
        direct = (
            start_kind == "y"
            and end_kind == "y"
            and (
                start_register == end_register
                or guard.closure.same(Y(start_register), Y(end_register))
            )
        )
        return (members, symbol, direct)

    def accepts(guard, state):
        members, _previous, direct = state
        if direct:
            return True
        if end_kind == "x":
            return end_register in members
        images = y_successor_images(guard, k)
        return any(end_register in images[l] for l in members)

    return _deterministic_tracker(
        automaton,
        first,
        lambda guard, state, symbol: (advance_registers(guard, state[0], k), symbol, False),
        accepts,
    )


def restrict_endpoints(dfa, first, last, alphabet):
    """Intersect with "first letter is *first* and last letter is *last*"."""
    from repro.automata.dfa import Dfa

    # states: 0 init, 1 ok-first (last letter != last), 2 ok-first+last, 3 dead
    transitions = {}
    for symbol in alphabet:
        if symbol == first:
            transitions[(0, symbol)] = 2 if first == last else 1
        else:
            transitions[(0, symbol)] = 3
        transitions[(1, symbol)] = 2 if symbol == last else 1
        transitions[(2, symbol)] = 2 if symbol == last else 1
        transitions[(3, symbol)] = 3
    shape = Dfa({0, 1, 2, 3}, alphabet, transitions, 0, {2})
    return dfa.intersect(shape)


def literal_anchored_corridor_dfa(automaton, endpoints, first, last):
    """Literal corridors of every endpoint pair, intersected, then anchored.

    With no endpoints this is every word from *first* to *last*, terminal
    states included.
    """
    from repro.automata.dfa import Dfa

    alphabet = frozenset(automaton.states)
    factor = Dfa.universal(alphabet)
    for start, end in endpoints:
        factor = factor.intersect(literal_corridor_dfa(automaton, start, end))
    return literal_minimize(restrict_endpoints(factor, first, last, alphabet))


def no_terminal_before_last(automaton):
    """The words with no guardless state before their last letter."""
    from repro.automata.dfa import Dfa

    alphabet = frozenset(automaton.states)
    transitions = {}
    for symbol in alphabet:
        terminal = automaton.guard_of_state(symbol) is None
        transitions[(0, symbol)] = 1 if terminal else 0
        transitions[(1, symbol)] = 2
        transitions[(2, symbol)] = 2
    return Dfa({0, 1, 2}, alphabet, transitions, 0, {0, 1})


def literal_adom_position_dfa(automaton, register):
    """Theorem 24's active-domain selector over register *sets*, minimised.

    A position is selected when *register*'s value there has touched a
    positive relational literal so far, directly or through a corridor.
    """
    from repro.logic.terms import Const, X, Y

    k = automaton.k

    def positive(guard, term_of):
        touched = set()
        for literal in guard.relational_literals():
            if not literal.positive:
                continue
            for term in literal.atom.args:
                if isinstance(term, Const):
                    continue
                for r in range(1, k + 1):
                    if term == term_of(r) or guard.closure.same(term, term_of(r)):
                        touched.add(r)
        return frozenset(touched)

    return _deterministic_tracker(
        automaton,
        lambda guard, symbol: (positive(guard, X), symbol),
        lambda guard, state, symbol: (
            advance_registers(guard, state[0], k)
            | positive(guard, Y)
            | positive(automaton.guard_of_state(symbol), X),
            symbol,
        ),
        lambda guard, state: register in state[0],
    )


def literal_inequality_tracker_dfa(automaton, i, j):
    """``e!=_{ij}`` as the lemma's two-phase NFA, determinised.

    Phase one tracks the left corridor; a nondeterministic switch consumes
    a disequality literal ``x_l != x_m`` (at this position) or
    ``x_l != y_m`` (landing at the next); phase two tracks the right
    corridor and accepts when ``j`` is in it.
    """
    from repro.automata.nfa import EPSILON
    from repro.logic.terms import X, Y
    from repro.logic.types import x_equality_classes

    guards = _literal_guards(automaton)
    k = automaton.k
    alphabet = frozenset(automaton.states)
    transitions = {}
    initial = "init"
    seen = {initial}
    worklist = []

    def add(source, symbol, target):
        transitions.setdefault(source, {}).setdefault(symbol, set()).add(target)
        if target not in seen:
            seen.add(target)
            worklist.append(target)

    for symbol, guard in guards.items():
        add(initial, symbol, ("one", x_equality_classes(guard, k)[i], symbol))
    accepting = set()
    while worklist:
        state = worklist.pop()
        phase, members, previous = state
        guard = guards[previous]
        closure = guard.closure
        if phase == "two":
            if j in members:
                accepting.add(state)
            for symbol in guards:
                add(state, symbol, ("two", advance_registers(guard, members, k), symbol))
            continue
        for l in members:
            for m in range(1, k + 1):
                if closure.entails_neq(X(l), X(m)):
                    add(state, EPSILON, ("two", x_equality_classes(guard, k)[m], previous))
        for symbol in guards:
            add(state, symbol, ("one", advance_registers(guard, members, k), symbol))
            for l in members:
                for m in range(1, k + 1):
                    if closure.entails_neq(X(l), Y(m)):
                        landing = frozenset(
                            m2
                            for m2 in range(1, k + 1)
                            if closure.same(Y(m), Y(m2)) or m2 == m
                        )
                        add(state, symbol, ("two", landing, symbol))
    return _literal_subset_dfa(transitions, initial, accepting, alphabet)


def literal_bridge_dfa(base, constraint_dfa, i0, j0, i, j):
    """The factor NFA for one (constraint ``e!=_{i0 j0}``, ``i``, ``j``), determinised.

    ``left`` tracks the corridor of ``i``; when ``i0`` joins it the
    constraint DFA starts (``mid``); where the DFA accepts, ``right``
    tracks the corridor of ``j0`` and accepts when ``j`` is in it.
    """
    from repro.automata.nfa import EPSILON
    from repro.logic.types import x_equality_classes

    guards = _literal_guards(base)
    k = base.k
    alphabet = frozenset(base.states)
    transitions = {}
    initial = "init"
    seen = {initial}
    worklist = []

    def add(source, symbol, target):
        transitions.setdefault(source, {}).setdefault(symbol, set()).add(target)
        if target not in seen:
            seen.add(target)
            worklist.append(target)

    for symbol, guard in guards.items():
        add(initial, symbol, ("left", x_equality_classes(guard, k)[i], symbol))
    accepting = set()
    while worklist:
        state = worklist.pop()
        phase, payload, previous = state
        guard = guards[previous]
        if phase == "left":
            if i0 in payload:
                start = constraint_dfa.delta(constraint_dfa.initial, previous)
                add(state, EPSILON, ("mid", start, previous))
            for symbol in guards:
                add(state, symbol, ("left", advance_registers(guard, payload, k), symbol))
        elif phase == "mid":
            if payload in constraint_dfa.accepting:
                add(state, EPSILON, ("right", x_equality_classes(guard, k)[j0], previous))
            for symbol in guards:
                add(state, symbol, ("mid", constraint_dfa.delta(payload, symbol), symbol))
        else:
            if j in payload:
                accepting.add(state)
            for symbol in guards:
                add(state, symbol, ("right", advance_registers(guard, payload, k), symbol))
    return _literal_subset_dfa(transitions, initial, accepting, alphabet)


# ---------------------------------------------------------------------- #
# symbol-keyed trackers and pairwise agreement: the per-guard oracles
# ---------------------------------------------------------------------- #
#
# The Lemma 21 trackers as ``_explore`` built them while a tracker state
# held the index of the last symbol read, and type agreement as the
# pairwise entailment loop over every boundary atom.  The mask-row
# trackers of ``repro.core.projection`` and ``repro.core.theorem24`` must
# build the same minimal DFA, state numbering included, and ``agree``
# must return the same verdict.


def symbol_keyed_equality_tracker_dfa(automaton, i, j):
    """``e=_{ij}`` over ``(S, q)``: the corridor and the last symbol's index."""
    from repro.core.projection import _explore, _symbol_masks
    from repro.logic.types import advance_mask

    symbols, masks = _symbol_masks(automaton)
    j_bit = 1 << (j - 1)

    def step(state):
        members, previous = state
        advanced = advance_mask(masks[previous][1], members)
        return lambda q: (advanced, q)

    return _explore(
        symbols, masks, lambda q: (masks[q][0][i - 1], q), step, lambda state: state[0] & j_bit
    )


def symbol_keyed_inequality_tracker_dfa(automaton, i, j):
    """``e!=_{ij}`` over ``(S, U, q)``."""
    from repro.core.projection import _explore, _symbol_masks
    from repro.logic.types import advance_mask

    symbols, masks = _symbol_masks(automaton)
    j_bit = 1 << (j - 1)

    def first(q):
        left = masks[q][0][i - 1]
        return (left, advance_mask(masks[q][2], left), q)

    def step(state):
        left, right, previous = state
        _x_class, y_image, _x_switch, y_switch = masks[previous]
        advanced = advance_mask(y_image, left)
        carried = advance_mask(y_image, right) | advance_mask(y_switch, left)
        return lambda q: (advanced, carried | advance_mask(masks[q][2], advanced), q)

    return _explore(symbols, masks, first, step, lambda state: state[1] & j_bit)


def symbol_keyed_bridge_dfa(symbols, masks, constraint_dfa, i0, j0, i, j):
    """One ``project_extended`` bridge over ``(S, M, U, q)``."""
    from repro.core.projection import _explore
    from repro.logic.types import advance_mask

    delta = constraint_dfa.delta
    i0_bit = 1 << (i0 - 1)
    j_bit = 1 << (j - 1)

    def close(left, threads, right, q):
        if left & i0_bit:
            threads = threads | {delta(constraint_dfa.initial, symbols[q])}
        if not constraint_dfa.accepting.isdisjoint(threads):
            right |= masks[q][0][j0 - 1]
        return (left, threads, right, q)

    def step(state):
        left, threads, right, previous = state
        y_image = masks[previous][1]
        advanced = advance_mask(y_image, left)
        carried = advance_mask(y_image, right)
        return lambda q: close(
            advanced, frozenset(delta(thread, symbols[q]) for thread in threads), carried, q
        )

    return _explore(
        symbols,
        masks,
        lambda q: close(masks[q][0][i - 1], frozenset(), 0, q),
        step,
        lambda state: state[2] & j_bit,
    )


def symbol_keyed_adom_position_dfa(automaton, register):
    """Theorem 24's active-domain selector over ``(S, q)``."""
    from repro.core.projection import _explore, _symbol_masks
    from repro.core.theorem24 import _positive_masks
    from repro.logic.types import advance_mask

    k = automaton.k
    symbols, masks = _symbol_masks(automaton)
    touched = [
        None if found is None else _positive_masks(automaton.guard_of_state(symbol), k)
        for symbol, found in zip(symbols, masks)
    ]
    bit = 1 << (register - 1)

    def step(state):
        members, previous = state
        carried = advance_mask(masks[previous][1], members) | touched[previous][1]
        return lambda q: (carried | touched[q][0], q)

    return _explore(
        symbols, masks, lambda q: (touched[q][0], q), step, lambda state: state[0] & bit
    )


def literal_agree(delta_now, delta_next, k):
    """Condition (iii) as one entailment query per boundary atom and side.

    The atoms range over ``y1..yk`` (for *delta_now*) and ``x1..xk`` (for
    *delta_next*), paired position by position, plus the constants and
    relations either type mentions; the types disagree when one side
    entails an atom and the other its negation.
    """
    from itertools import product

    from repro.logic.literals import EqAtom, Literal, RelAtom
    from repro.logic.terms import X, Y

    constants = sorted(delta_now.constants | delta_next.constants)
    relations = {}
    for delta in (delta_now, delta_next):
        for literal in delta.literals:
            if isinstance(literal.atom, RelAtom):
                relations[literal.atom.relation] = len(literal.atom.args)

    def atoms(variable):
        terms = [variable(i) for i in range(1, k + 1)] + constants
        for a_index in range(len(terms)):
            for b_index in range(a_index + 1, len(terms)):
                yield EqAtom(terms[a_index], terms[b_index])
        for relation in sorted(relations):
            for combo in product(terms, repeat=relations[relation]):
                yield RelAtom(relation, combo)

    for atom_now, atom_next in zip(atoms(Y), atoms(X)):
        pos_now = delta_now.entails(Literal(atom_now, True))
        neg_now = delta_now.entails(Literal(atom_now, False))
        pos_next = delta_next.entails(Literal(atom_next, True))
        neg_next = delta_next.entails(Literal(atom_next, False))
        if (pos_now and neg_next) or (neg_now and pos_next):
            return False
    return True


# ---------------------------------------------------------------------- #
# unpruned Buchi lasso search: the oracle for the pruned one
# ---------------------------------------------------------------------- #
#
# The searches before cycle detection and distance pruning: one
# ``literal_cycle_through`` BFS per accepting state in BFS order, edges
# re-sorted at every visit, and every walk of every round kept as a list.
# ``BuchiAutomaton.find_accepted_lasso`` and ``iter_accepted_lassos`` must
# return exactly what these return, and ``accepts`` and the search tables'
# ``anchors()`` what the per-accepting-state cycle searches below return.


def literal_find_accepted_lasso(automaton):
    """A lasso accepted by *automaton*, or ``None`` if the language is empty."""
    from repro.automata.words import Lasso

    seeds = sorted(automaton._initial, key=repr)
    parent = {state: (None, None) for state in seeds}
    order = list(seeds)
    queue = list(seeds)
    while queue:
        state = queue.pop(0)
        for symbol, targets in sorted(
            automaton._transitions.get(state, {}).items(), key=lambda kv: repr(kv[0])
        ):
            for target in sorted(targets, key=repr):
                if target not in parent:
                    parent[target] = (state, symbol)
                    order.append(target)
                    queue.append(target)

    def path_to(state):
        word = []
        node = state
        while parent[node][0] is not None:
            node, symbol = parent[node]
            word.append(symbol)
        return tuple(reversed(word))

    for anchor in order:
        if anchor not in automaton._accepting:
            continue
        cycle = literal_cycle_through(automaton, anchor)
        if cycle is not None:
            return Lasso(path_to(anchor), cycle)
    return None


def literal_cycle_through(automaton, anchor):
    """A non-empty symbol word labelling a cycle anchor -> anchor."""
    local_parent = {}
    queue = []
    for symbol, targets in sorted(
        automaton._transitions.get(anchor, {}).items(), key=lambda kv: repr(kv[0])
    ):
        for target in sorted(targets, key=repr):
            if target == anchor:
                return (symbol,)
            if target not in local_parent:
                local_parent[target] = (anchor, symbol)
                queue.append(target)
    while queue:
        state = queue.pop(0)
        for symbol, targets in sorted(
            automaton._transitions.get(state, {}).items(), key=lambda kv: repr(kv[0])
        ):
            for target in sorted(targets, key=repr):
                if target == anchor:
                    word = [symbol]
                    node = state
                    while node != anchor:
                        node, back_symbol = local_parent[node]
                        word.append(back_symbol)
                    return tuple(reversed(word))
                if target not in local_parent:
                    local_parent[target] = (state, symbol)
                    queue.append(target)
    return None


def literal_anchors(automaton):
    """The reachable accepting states of *automaton* that lie on a cycle.

    One ``literal_cycle_through`` search per reachable accepting state.
    """
    reachable = set(automaton._initial)
    frontier = list(reachable)
    while frontier:
        state = frontier.pop()
        for targets in automaton._transitions.get(state, {}).values():
            for target in targets:
                if target not in reachable:
                    reachable.add(target)
                    frontier.append(target)
    return frozenset(
        state
        for state in reachable & automaton._accepting
        if literal_cycle_through(automaton, state) is not None
    )


def literal_accepts(automaton, word):
    """Whether *automaton* accepts the lasso *word*: one cycle search per accepting node."""
    current = set(automaton._initial)
    for symbol in word.prefix:
        current = {
            target for state in current for target in automaton.successors(state, symbol)
        }
        if not current:
            return False
    period = word.period

    def node_successors(node):
        state, offset = node
        for target in automaton.successors(state, period[offset]):
            yield (target, (offset + 1) % len(period))

    reachable = {(state, 0) for state in current}
    frontier = list(reachable)
    while frontier:
        for target in node_successors(frontier.pop()):
            if target not in reachable:
                reachable.add(target)
                frontier.append(target)
    for anchor in reachable:
        if anchor[0] not in automaton._accepting:
            continue
        seen = set()
        stack = list(node_successors(anchor))
        while stack:
            node = stack.pop()
            if node == anchor:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(node_successors(node))
    return False


def literal_iter_accepted_lassos(automaton, max_cycle_length, max_prefix_length, narrow=None):
    """Every accepted lasso within the bounds, in enumeration order.

    Keeps every walk of every prefix and cycle round; polls no deadline.
    """
    from repro.automata.words import Lasso

    adjacency = {}

    def sorted_edges(state):
        found = adjacency.get(state)
        if found is None:
            found = adjacency[state] = tuple(
                (symbol, tuple(sorted(targets, key=repr)))
                for symbol, targets in sorted(
                    automaton._transitions.get(state, {}).items(),
                    key=lambda kv: repr(kv[0]),
                )
            )
        return found

    def extend_paths(paths):
        for states_path, symbols_path, filter_state in paths:
            for symbol, targets in sorted_edges(states_path[-1]):
                if narrow is None:
                    next_filter = None
                else:
                    next_filter = narrow.step(filter_state, symbol)
                    if next_filter is None:
                        continue
                for target in targets:
                    yield (
                        states_path + (target,),
                        symbols_path + (symbol,),
                        next_filter,
                    )

    seed_filter = narrow.empty() if narrow is not None else None
    prefixes = [
        ((state,), (), seed_filter)
        for state in sorted(automaton._initial, key=repr)
    ]
    all_prefixes = list(prefixes)
    for _ in range(max_prefix_length):
        prefixes = list(extend_paths(prefixes))
        all_prefixes.extend(prefixes)
    for states_path, symbols_path, filter_state in all_prefixes:
        anchor = states_path[-1]
        if anchor not in automaton._accepting:
            continue
        cycles = [((anchor,), (), filter_state)]
        for _ in range(max_cycle_length):
            cycles = list(extend_paths(cycles))
            for cycle_states, cycle_symbols, _cycle_filter in cycles:
                if cycle_states[-1] == anchor and cycle_symbols:
                    yield Lasso(symbols_path, cycle_symbols)


# ---------------------------------------------------------------------- #
# one cycle search per accepting node: the oracles for the Tarjan pass
# ---------------------------------------------------------------------- #
#
# ``runs.find_lasso_run``, ``reduction.trim`` and the co-reachability
# analysis as they searched before ``repro.automata.graphs``: a breadth-first
# sweep, then one breadth-first cycle search per accepting node.  They
# must return exactly what these return.


def random_control_automaton(rng, k):
    """A relation-free register automaton with 1-5 states and up to 2n + 2 random transitions.

    Its initial and accepting sets are random, so states may be
    unreachable, dead ends or accepting off every cycle.
    """
    from repro.core.register_automaton import RegisterAutomaton, Transition
    from repro.db.schema import Signature
    from repro.generators.automata import random_guard

    states = ["q%d" % index for index in range(rng.randint(1, 5))]
    transitions = [
        Transition(rng.choice(states), random_guard(rng, k, Signature.empty()), rng.choice(states))
        for _ in range(rng.randint(0, 2 * len(states) + 2))
    ]
    return RegisterAutomaton(
        k=k,
        signature=Signature.empty(),
        states=states,
        initial=rng.sample(states, rng.randint(1, min(2, len(states)))),
        accepting=rng.sample(states, rng.randint(0, len(states))),
        transitions=transitions,
    )


def literal_configurations(automaton, database, pool):
    """The configurations of ``find_lasso_run``'s search, breadth-first from the initial ones.

    Returns ``(order, parents, successors)``: the reachable configurations
    in discovery order, each one's ``(parent, guard)`` (``None`` for an
    initial one), and the ``[(target, guard), ...]`` successor function.
    """
    from repro.core.runs import _register_choices, initial_tuples

    parents = {}
    order = []
    for state, first, _transition in initial_tuples(automaton, database, pool):
        if (state, first) not in parents:
            parents[(state, first)] = None
            order.append((state, first))

    def successors(config):
        state, registers = config
        return [
            ((transition.target, nxt), transition.guard)
            for transition in automaton.transitions_from(state)
            for nxt in _register_choices(transition.guard, registers, pool, database, automaton.k)
        ]

    for config in order:  # grows while it is walked
        for target, guard in successors(config):
            if target not in parents:
                parents[target] = (config, guard)
                order.append(target)
    return order, parents, successors


def literal_find_lasso_run(automaton, database, pool=None, max_configurations=200000):
    """``find_lasso_run``: a breadth-first sweep, then one cycle search per accepting configuration."""
    from repro.core.runs import LassoRun, value_pool
    from repro.foundations.errors import SpecificationError

    if pool is None:
        pool = value_pool(automaton, database)
    order, parents, successors = literal_configurations(automaton, database, pool)
    if len(order) > max_configurations:
        raise SpecificationError(
            "configuration graph exceeds %d nodes; shrink the pool or database"
            % max_configurations
        )

    def cycle_through(anchor):
        local_parent = {}
        queue = [anchor]
        while queue:
            config = queue.pop(0)
            for target, guard in successors(config):
                if target == anchor:
                    configs, guards = [anchor], [guard]
                    while config != anchor:
                        configs.append(config)
                        config, back_guard = local_parent[config]
                        guards.append(back_guard)
                    configs.append(anchor)
                    return configs[::-1], guards[::-1]
                if target not in local_parent:
                    local_parent[target] = (config, guard)
                    queue.append(target)
        return None

    for anchor in order:
        if anchor[0] not in automaton.accepting:
            continue
        cycle = cycle_through(anchor)
        if cycle is None:
            continue
        access, guards = [anchor], []
        node = anchor
        while parents[node] is not None:
            node, guard = parents[node]
            access.append(node)
            guards.append(guard)
        access.reverse()
        guards.reverse()
        configs = access[:-1] + cycle[0][:-1]
        return LassoRun(
            data=tuple(c[1] for c in configs),
            states=tuple(c[0] for c in configs),
            guards=tuple(guards + cycle[1]),
            loop_start=len(access) - 1,
        )
    return None


def _per_node_cycle_anchors(nodes, accepting, successors):
    """The nodes of *accepting* on a cycle: one breadth-first search back to each."""
    anchors = set()
    for anchor in nodes:
        if anchor not in accepting:
            continue
        seen = set()
        queue = list(successors(anchor))
        while queue:
            node = queue.pop(0)
            if node == anchor:
                anchors.add(anchor)
                break
            if node not in seen:
                seen.add(node)
                queue.extend(successors(node))
    return frozenset(anchors)


def literal_lasso_keep_set(automaton):
    """The states ``trim`` keeps: reachable, and co-reaching an accepting state on a cycle."""

    def successors(state):
        return [transition.target for transition in automaton.transitions_from(state)]

    reachable = set(automaton.initial)
    frontier = list(reachable)
    while frontier:
        for target in successors(frontier.pop()):
            if target not in reachable:
                reachable.add(target)
                frontier.append(target)
    anchors = _per_node_cycle_anchors(automaton.states, automaton.accepting, successors)
    co_lasso = set(anchors)
    frontier = list(anchors)
    while frontier:
        state = frontier.pop()
        for transition in automaton.transitions:
            if transition.target == state and transition.source not in co_lasso:
                co_lasso.add(transition.source)
                frontier.append(transition.source)
    return frozenset(reachable & co_lasso)


def literal_feasible_cycle_anchors(automaton):
    """The co-reachability analysis's anchors: accepting states on a cycle of feasible transitions."""
    from repro.analysis.dataflow import analyze_reachable_types

    types = analyze_reachable_types(automaton)
    feasible = [t for t in automaton.transitions if types.feasible(t)]

    def successors(state):
        return [t.target for t in feasible if t.source == state]

    return _per_node_cycle_anchors(automaton.states, automaton.accepting, successors)


# ---------------------------------------------------------------------- #
# the lifted flagged product: the oracle for the on-the-fly pair search
# ---------------------------------------------------------------------- #
#
# Theorem 12's product as ``verify`` built it before ``BuchiProduct``: the
# property automaton lifted onto the control's symbols, the flagged product
# ``intersect`` builds from the two, and the single-automaton searches
# over it.  ``BuchiProduct.find_accepted_lasso`` must agree with it on
# emptiness; the constrained ``verify`` path must agree byte for byte.


def lift_onto(left, right, letter_of):
    """*right* relabelled to read *left*'s symbols: ``a`` moves it on ``letter_of(a)``."""
    from repro.automata.buchi import BuchiAutomaton

    by_letter = {}
    for symbol in left.symbols():
        by_letter.setdefault(letter_of(symbol), []).append(symbol)
    transitions = {}
    for state in right.states():
        for letter, symbols in by_letter.items():
            targets = right.successors(state, letter)
            if targets:
                moves = transitions.setdefault(state, {})
                for symbol in symbols:
                    moves[symbol] = targets
    return BuchiAutomaton(transitions, right.initial, right.accepting)


class LiftedProduct:
    """``BuchiProduct``'s interface over ``left.intersect(lift_onto(left, right, letter_of))``."""

    def __init__(self, left, right, letter_of):
        self.product = left.intersect(lift_onto(left, right, letter_of))

    def find_accepted_lasso(self):
        return self.product.find_accepted_lasso()

    def iter_accepted_lassos(self, *bounds, **options):
        return self.product.iter_accepted_lassos(*bounds, **options)

    def size(self):
        return self.product.size()


@contextmanager
def without_product_search():
    """Run ``verify`` on the lifted flagged product instead of the pair search."""
    from repro.core import verification

    with mock.patch.object(verification, "BuchiProduct", LiftedProduct):
        yield


# ---------------------------------------------------------------------- #
# Section 5 cut graphs one cut at a time: the oracle for the cut sweep
# ---------------------------------------------------------------------- #


def cut_graph(window, h, right_margin=1):
    """``G^w_h`` of Section 5 within a :class:`TraceWindow`, built for one cut.

    Returns (left classes, right classes, edges): classes entirely on
    positions ``<= h`` vs entirely on positions ``> h``, with the
    inequality edges between the two sides.  Classes straddling the cut
    are excluded, as in Definition 15, and so are classes reaching into
    the last *right_margin* positions (they may extend beyond the window).
    The reference for ``TraceWindow.cut_edges``, which files every edge
    under its cuts in one sweep.
    """
    spans = {}
    for root, members in window.all_classes().items():
        positions = [node[0] for node in members if node[0] != "const"]
        if positions:
            spans[root] = (min(positions), max(positions))
    horizon = window.length - right_margin
    left = [c for c, (lo, hi) in spans.items() if hi <= h and hi < horizon]
    right = [c for c, (lo, hi) in spans.items() if lo > h and hi < horizon]
    left_set, right_set = set(left), set(right)
    edges = set()
    for a, b in window.inequality_edges():
        if (a in left_set and b in right_set) or (a in right_set and b in left_set):
            edges.add((a, b) if a in left_set else (b, a))
    return sorted(left, key=repr), sorted(right, key=repr), edges


def per_cut_profile(extended, trace, loops):
    """``lr_cover_profile(extended, trace, loops)``, one cut graph per cut."""
    from repro.core.lr import bipartite_vertex_cover
    from repro.core.tracewindow import TraceWindow

    automaton = extended.automaton
    window = TraceWindow(
        trace,
        automaton.k,
        length=len(trace.prefix) + loops * len(trace.period),
        inequality_constraints=extended.inequality_constraints(),
        states=automaton.states,
        equality_constraints=extended.equality_constraints(),
    )
    margin = len(trace.period) + 1
    horizon = window.length - margin
    return [
        bipartite_vertex_cover(*cut_graph(window, h, right_margin=margin))
        for h in range(max(horizon - 1, 0))
    ]


def present(automaton, rng):
    """A random isomorphic copy of *automaton*, as the pipeline's presentations.

    States are renamed, registers permuted and transitions shuffled.
    Returns ``(copy, registers, states)``: ``registers[i]`` is the copy's
    register for original register ``i``, and ``states`` lists the copy's
    states in the order of the original names, so constraints drawn over
    it match across copies up to renaming.
    """
    from repro.core.register_automaton import RegisterAutomaton
    from repro.logic.terms import X, Y

    k = automaton.k
    order = list(range(1, k + 1))
    rng.shuffle(order)
    registers = dict(zip(range(1, k + 1), order))
    terms = {X(i): X(j) for i, j in registers.items()}
    terms.update({Y(i): Y(j) for i, j in registers.items()})
    originals = sorted(automaton.states, key=repr)
    names = rng.sample(range(10 * len(originals) + 10), len(originals))
    renamed = {state: "q%d" % name for state, name in zip(originals, names)}
    transitions = [
        (renamed[t.source], t.guard.rename(terms), renamed[t.target])
        for t in automaton.transitions
    ]
    rng.shuffle(transitions)
    copy = RegisterAutomaton(
        k,
        automaton.signature,
        [renamed[state] for state in originals],
        {renamed[state] for state in automaton.initial},
        {renamed[state] for state in automaton.accepting},
        transitions,
    )
    return copy, registers, [renamed[state] for state in originals]
