"""Hiding the database: Theorem 24 (Section 6).

Given a register automaton ``A`` with database schema ``sigma`` and
``m <= k``, Theorem 24 builds an *enhanced* automaton ``B`` with ``m``
registers and **no database** such that ``Reg(B)`` is the union over all
databases ``D`` of ``Pi_m(Reg(D, A))``.  The construction assembles four
constraint families over the normalised (equality-complete, state-driven)
control:

1. **equality constraints** -- the Lemma 21 trackers for kept register
   pairs, exactly as in the database-free projection (Theorem 13);
2. **monadic inequality constraints** -- the Lemma 21 disequality trackers,
   expressed as arity-1 tuple inequality constraints;
3. **relational tuple-inequality constraints** -- for every relation ``R``,
   every (negative occurrence, positive occurrence) pair of ``R``-literals
   and every partition ``(E, F)`` of the components: if the ``E``
   components are corridor-connected between the two anchor positions, the
   tuples of ``F``-component values must differ (otherwise the negative
   literal would deny a fact the positive literal asserts).  ``E``
   corridors are intersections of :func:`~repro.core.projection.corridor_dfa`
   automata; ``F`` components must surface in *visible* registers at the
   anchor positions themselves (offset 0 for x-terms, 1 for y-terms) --
   partitions whose ``F`` components are hidden or constants are skipped,
   which can only make the result more permissive (the ``>=`` inclusion of
   the theorem always holds).  Example 23's binary and ternary variants are
   captured exactly.
4. **finiteness constraints** -- for each kept register, the positions
   whose value is forced into the database's active domain must use
   finitely many values.  The position selector tracks, along the prefix,
   the set of registers whose current value has touched a positive
   relational literal (directly or through an equality corridor); the
   forward half of the paper's MSO-definable ``adom_w`` membership (a value
   that will only *later* be forced into the active domain) is not
   prefix-computable and is documented in DESIGN.md as a relaxation, again
   on the permissive side.
"""

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.automata.dfa import Dfa
from repro.foundations.errors import SpecificationError
from repro.foundations.resilience import current_deadline
from repro.core.caching import agreement
from repro.foundations.memo import ValueCache
from repro.logic.terms import Const, X, Y, register_index
from repro.logic.types import SigmaType, advance_registers, project_type_dataless
from repro.core.enhanced import (
    EnhancedAutomaton,
    FinitenessConstraint,
    PairSelector,
    TupleInequalityConstraint,
)
from repro.core.extended import EQ, GlobalConstraint
from repro.core.projection import (
    corridor_dfa,
    equality_tracker_dfa,
    inequality_tracker_dfa,
)
from repro.core.pruning import prune_infeasible
from repro.core.register_automaton import RegisterAutomaton, State, Transition


def _normalize_db(automaton: RegisterAutomaton) -> RegisterAutomaton:
    """Equality-complete + state-driven normal form."""
    result = automaton
    if not result.is_equality_complete():
        result = result.equality_completed()
    if not result.is_state_driven():
        result = result.state_driven()
    return result


def _guard_map(automaton: RegisterAutomaton) -> Dict[State, SigmaType]:
    """State -> its unique guard (state-driven automata)."""
    guards: Dict[State, SigmaType] = {}
    for state in automaton.states:
        guard = automaton.guard_of_state(state)
        if guard is not None:
            guards[state] = guard
    return guards


def adom_position_dfa(automaton: RegisterAutomaton, register: int) -> Dfa:
    """Prefix DFA selecting positions whose value is in the active domain.

    Position ``h`` is selected when the value of *register* at ``h`` has
    touched a positive relational literal at some position ``<= h``,
    possibly through an equality corridor.  (The backward half of the
    paper's ``adom_w``; see the module docstring.)
    """
    guards = _guard_map(automaton)
    k = automaton.k
    alphabet = frozenset(automaton.states)

    def positive_registers(guard: SigmaType, kind: str) -> FrozenSet[int]:
        closure = guard.closure
        touched: Set[int] = set()
        for literal in guard.relational_literals():
            if not literal.positive:
                continue
            for term in literal.atom.args:
                if isinstance(term, Const):
                    continue
                for r in range(1, k + 1):
                    probe = X(r) if kind == "x" else Y(r)
                    if term == probe or closure.same(term, probe):
                        touched.add(r)
        return frozenset(touched)

    initial = "init"
    transitions: Dict[Tuple, object] = {}
    states: Set = {initial}
    accepting: Set = set()
    worklist: List = []

    def note(state) -> None:
        if state not in states:
            states.add(state)
            worklist.append(state)

    dead = "dead"
    states.add(dead)
    for symbol in alphabet:
        transitions[(dead, symbol)] = dead
        guard = guards.get(symbol)
        if guard is None:
            transitions[(initial, symbol)] = dead
            continue
        touched = positive_registers(guard, "x")
        target = (touched, symbol)
        transitions[(initial, symbol)] = target
        note(target)

    while worklist:
        state = worklist.pop()
        touched, previous = state
        if register in touched:
            accepting.add(state)
        guard = guards[previous]
        carried_y = positive_registers(guard, "y")
        for symbol in alphabet:
            next_guard = guards.get(symbol)
            if next_guard is None:
                transitions[(state, symbol)] = dead
                continue
            carried = advance_registers(guard, touched, k) | carried_y
            new_touched = carried | positive_registers(next_guard, "x")
            target = (frozenset(new_touched), symbol)
            transitions[(state, symbol)] = target
            note(target)
    for state in states:
        if isinstance(state, tuple) and register in state[0]:
            accepting.add(state)
    return Dfa(states, alphabet, transitions, initial, accepting).minimize()


def _literal_occurrences(automaton: RegisterAutomaton):
    """All (state, polarity, relation, args) relational literal occurrences."""
    occurrences = []
    for state in sorted(automaton.states, key=repr):
        guard = automaton.guard_of_state(state)
        if guard is None:
            continue
        for literal in guard.relational_literals():
            occurrences.append(
                (state, literal.positive, literal.atom.relation, literal.atom.args)
            )
    return occurrences


def _checkpoint(site: str) -> None:
    """Poll the ambient deadline (the Theorem 24 assembly is exponential)."""
    active = current_deadline()
    if active is not None:
        active.check(site)


def _term_endpoint(term) -> Optional[Tuple[str, int]]:
    """``("x"|"y", register)`` for register terms, ``None`` for constants."""
    decomposed = register_index(term)
    if decomposed is None:
        return None
    return decomposed


def _visible_anchor(term, m: int) -> Optional[Tuple[int, int]]:
    """(offset, register) when the term is a visible register at its anchor."""
    endpoint = _term_endpoint(term)
    if endpoint is None:
        return None
    kind, register = endpoint
    if register > m:
        return None
    return (0 if kind == "x" else 1, register)


def relational_tuple_constraints(
    automaton: RegisterAutomaton, m: int, universal_prefix
) -> List[TupleInequalityConstraint]:
    """Family 3: tuple inequalities from negative/positive literal pairs."""
    alphabet = frozenset(automaton.states)
    occurrences = _literal_occurrences(automaton)
    negatives = [o for o in occurrences if not o[1]]
    positives = [o for o in occurrences if o[1]]
    # Per-call memo (the automaton changes between calls); stats accumulate
    # under one shared name for the benchmark report.
    corridor_cache = ValueCache("theorem24.corridor")

    def corridor(start, end) -> Dfa:
        return corridor_cache.lookup(
            (start, end), lambda: corridor_dfa(automaton, start, end)
        )

    constraints: List[TupleInequalityConstraint] = []
    for neg_state, _np, relation_n, args_n in negatives:
        for pos_state, _pp, relation_p, args_p in positives:
            # One poll per literal pair: the partition fan-out (2^arity
            # corridor intersections) happens below this boundary.
            _checkpoint("theorem24.literal_pair")
            if relation_n != relation_p:
                continue
            arity = len(args_n)
            components = list(range(arity))
            for e_size in range(0, arity):
                for e_set in combinations(components, e_size):
                    f_set = [c for c in components if c not in e_set]
                    # Both orders of the anchors.
                    for first_args, second_args, first_state, second_state, swap in (
                        (args_n, args_p, neg_state, pos_state, False),
                        (args_p, args_n, pos_state, neg_state, True),
                    ):
                        constraint = _one_tuple_constraint(
                            first_args,
                            second_args,
                            first_state,
                            second_state,
                            e_set,
                            f_set,
                            m,
                            corridor,
                            alphabet,
                            universal_prefix,
                        )
                        if constraint is not None:
                            constraints.append(constraint)
    # Deduplicate structurally identical constraints.  The factor DFA is
    # identified by its structural fingerprint, not by its object id: ids
    # are recycled by the allocator, so two distinct factors could collide
    # (and one be silently dropped) under an id-based key.
    unique: List[TupleInequalityConstraint] = []
    seen: Set[Tuple] = set()
    for constraint in constraints:
        key = (
            constraint.left,
            constraint.right,
            constraint.selector.factor.structural_key(),
        )
        if key not in seen:
            seen.add(key)
            unique.append(constraint)
    return unique


def _one_tuple_constraint(
    first_args,
    second_args,
    first_state,
    second_state,
    e_set,
    f_set,
    m: int,
    corridor,
    alphabet,
    universal_prefix,
) -> Optional[TupleInequalityConstraint]:
    left: List[Tuple[int, int]] = []
    right: List[Tuple[int, int]] = []
    for component in f_set:
        first_anchor = _visible_anchor(first_args[component], m)
        second_anchor = _visible_anchor(second_args[component], m)
        if first_anchor is None or second_anchor is None:
            return None  # hidden / constant F component: inexpressible
        left.append(first_anchor)
        right.append(second_anchor)
    if not left:
        return None  # F empty: a consistency condition, not a run constraint
    factor: Optional[Dfa] = None
    for component in e_set:
        start = _term_endpoint(first_args[component])
        end = _term_endpoint(second_args[component])
        if start is None and end is None:
            # constant-to-constant: connected iff same constant symbol
            if first_args[component] == second_args[component]:
                continue
            return None
        if start is None or end is None:
            return None  # register/constant corridors are not tracked
        component_dfa = corridor(start, end)
        factor = component_dfa if factor is None else factor.intersect(component_dfa).minimize()
    if factor is None:
        factor = Dfa.universal(alphabet)
    # Anchor the factor at the first/second states: the occurrences live in
    # the guards of specific control states, so the factor must start at
    # first_state and end at second_state.
    anchored = _restrict_endpoints(factor, first_state, second_state, alphabet)
    if anchored.is_empty():
        return None
    return TupleInequalityConstraint(
        left=tuple(left),
        right=tuple(right),
        selector=PairSelector(prefix=universal_prefix, factor=anchored),
    )


def _restrict_endpoints(dfa: Dfa, first, last, alphabet) -> Dfa:
    """Intersect with "first letter is *first* and last letter is *last*"."""
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
    return dfa.intersect(shape).minimize()


def project_with_database(automaton: RegisterAutomaton, m: int) -> EnhancedAutomaton:
    """**Theorem 24**: hide the database and the registers beyond *m*.

    Returns an enhanced automaton ``B`` with ``m`` registers and an empty
    signature such that ``Reg(B)`` equals the union over databases ``D`` of
    ``Pi_m(Reg(D, A))`` -- exactly on the fragment described in the module
    docstring, and always containing it.
    """
    if m > automaton.k:
        raise SpecificationError("cannot keep %d of %d registers" % (m, automaton.k))
    automaton = prune_infeasible(automaton)
    normalised = _normalize_db(automaton)
    from repro.db.schema import Signature
    from repro.automata.regex import any_of, star

    def agreeing(transition):
        source_guard = normalised.guard_of_state(transition.source)
        target_guard = normalised.guard_of_state(transition.target)
        if target_guard is None:
            return True
        return agreement(source_guard, target_guard, normalised.k)

    projected = RegisterAutomaton(
        m,
        Signature.empty(),
        normalised.states,
        normalised.initial,
        normalised.accepting,
        [
            # drop transitions whose full guards disagree on shared
            # registers: dead in the original, alive (and harmful) after
            # projection -- see _agreeing_projected_transitions in
            # repro.core.projection
            Transition(t.source, project_type_dataless(t.guard, m), t.target)
            for t in normalised.transitions
            if agreeing(t)
        ],
    )
    universal_prefix = Dfa.universal(frozenset(normalised.states))

    equality = []
    tuples: List[TupleInequalityConstraint] = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            _checkpoint("theorem24.register_pair")
            eq_dfa = equality_tracker_dfa(normalised, i, j)
            if not eq_dfa.is_empty():
                equality.append(GlobalConstraint(EQ, i, j, eq_dfa))
            neq_dfa = inequality_tracker_dfa(normalised, i, j)
            if not neq_dfa.is_empty():
                tuples.append(
                    TupleInequalityConstraint(
                        left=((0, i),),
                        right=((0, j),),
                        selector=PairSelector(prefix=universal_prefix, factor=neq_dfa),
                    )
                )
    tuples.extend(relational_tuple_constraints(normalised, m, universal_prefix))
    finiteness = []
    for i in range(1, m + 1):
        selector = adom_position_dfa(normalised, i)
        if not selector.is_empty():
            finiteness.append(FinitenessConstraint(register=i, selector=selector))
    return EnhancedAutomaton(
        projected,
        equality_constraints=equality,
        tuple_constraints=tuples,
        finiteness_constraints=finiteness,
    )
