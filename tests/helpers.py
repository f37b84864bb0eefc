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

    with mock.patch.object(emptiness, "build_kernel", lambda without_eq: None):
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
    from repro.logic.types import advance_registers, x_equality_classes

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
    from repro.logic.types import (
        advance_registers,
        x_equality_classes,
        y_successor_images,
    )

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


def literal_inequality_tracker_dfa(automaton, i, j):
    """``e!=_{ij}`` as the lemma's two-phase NFA, determinised.

    Phase one tracks the left corridor; a nondeterministic switch consumes
    a disequality literal ``x_l != x_m`` (at this position) or
    ``x_l != y_m`` (landing at the next); phase two tracks the right
    corridor and accepts when ``j`` is in it.
    """
    from repro.automata.nfa import EPSILON
    from repro.logic.terms import X, Y
    from repro.logic.types import advance_registers, x_equality_classes

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
    from repro.logic.types import advance_registers, x_equality_classes

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
# unpruned Buchi lasso search: the oracle for the pruned one
# ---------------------------------------------------------------------- #
#
# The searches before cycle detection and distance pruning: one
# ``_cycle_through`` BFS per accepting state in BFS order, edges re-sorted
# at every visit, and every walk of every round kept as a list.
# ``BuchiAutomaton.find_accepted_lasso`` and ``iter_accepted_lassos`` must
# return exactly what these return.


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
