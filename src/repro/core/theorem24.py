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
   literal would deny a fact the positive literal asserts).  Each factor
   is one anchored :func:`~repro.core.projection.corridor_dfa` tracker
   that follows every ``E`` corridor from the first anchor's state to the
   second's, not an intersection of per-corridor DFAs.  ``F`` components
   must surface in *visible* registers at the anchor positions themselves
   (offset 0 for x-terms, 1 for y-terms) --
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

Families 1 and 2 are Theorem 13's projected view itself
(:func:`repro.core.projection._projected_view`, embedded by
:meth:`EnhancedAutomaton.from_extended`), and every automaton of families
3 and 4 comes out of the same tracker builder,
:func:`repro.core.projection._explore`.
"""

from itertools import combinations
from typing import List, Optional, Set, Tuple

from repro.automata.dfa import Dfa
from repro.foundations.errors import SpecificationError
from repro.logic.terms import Const, X, Y, register_index
from repro.logic.types import SigmaType, advance_mask
from repro.core.enhanced import (
    EnhancedAutomaton,
    FinitenessConstraint,
    PairSelector,
    TupleInequalityConstraint,
)
from repro.core.projection import (
    _checkpoint,
    _explore,
    _projected_view,
    _symbol_masks,
    corridor_dfa,
)
from repro.core.pruning import prune_infeasible
from repro.core.register_automaton import RegisterAutomaton


def _normalize_db(automaton: RegisterAutomaton) -> RegisterAutomaton:
    """Equality-complete + state-driven normal form."""
    result = automaton
    if not result.is_equality_complete():
        result = result.equality_completed()
    if not result.is_state_driven():
        result = result.state_driven()
    return result


def _positive_masks(guard: SigmaType, k: int) -> Tuple[int, int]:
    """``(x_mask, y_mask)``: the registers a positive relational literal touches.

    Register ``r`` is in the x (y) mask when some positive relational
    literal of *guard* has an argument equal to ``x_r`` (``y_r``) under
    the guard's equalities; register ``r`` is bit ``r - 1``.
    """
    closure = guard.closure
    x_mask = y_mask = 0
    for literal in guard.relational_literals():
        if not literal.positive:
            continue
        for term in literal.atom.args:
            if isinstance(term, Const):
                continue
            for r in range(1, k + 1):
                if term == X(r) or closure.same(term, X(r)):
                    x_mask |= 1 << (r - 1)
                if term == Y(r) or closure.same(term, Y(r)):
                    y_mask |= 1 << (r - 1)
    return x_mask, y_mask


def adom_position_dfa(automaton: RegisterAutomaton, register: int) -> Dfa:
    """Prefix DFA selecting positions whose value is in the active domain.

    Position ``h`` is selected when the value of *register* at ``h`` has
    touched a positive relational literal at some position ``<= h``,
    possibly through an equality corridor.  (The backward half of the
    paper's ``adom_w``; see the module docstring.)  The tracker state is
    ``(S, y_image, touched_y)``: the registers whose value has touched
    one, as a mask, at the last symbol read, ``q``, and what the next step
    reads of ``q``'s guard -- its ``y_image`` row and the y registers its
    positive literals touch.
    """
    k = automaton.k
    symbols, masks = _symbol_masks(automaton)
    touched = [
        None if found is None else _positive_masks(automaton.guard_of_state(symbol), k)
        for symbol, found in zip(symbols, masks)
    ]
    bit = 1 << (register - 1)

    def start(q: int) -> Tuple:
        return (touched[q][0], masks[q][1], touched[q][1])

    def step(state: Tuple):
        members, y_image, touched_y = state
        carried = advance_mask(y_image, members) | touched_y
        return lambda q: (carried | touched[q][0], masks[q][1], touched[q][1])

    return _explore(symbols, masks, start, step, lambda state: state[0] & bit)


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


def _visible_anchor(term, m: int) -> Optional[Tuple[int, int]]:
    """(offset, register) when the term is a visible register at its anchor."""
    endpoint = register_index(term)
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
    occurrences = _literal_occurrences(automaton)
    negatives = [o for o in occurrences if not o[1]]
    positives = [o for o in occurrences if o[1]]
    constraints: List[TupleInequalityConstraint] = []
    for neg_state, _np, relation_n, args_n in negatives:
        for pos_state, _pp, relation_p, args_p in positives:
            # One poll per literal pair: the partition fan-out (2^arity
            # anchored corridor trackers) happens below this boundary.
            _checkpoint("theorem24.literal_pair")
            if relation_n != relation_p:
                continue
            components = range(len(args_n))
            for e_size in range(0, len(args_n)):
                for e_set in combinations(components, e_size):
                    f_set = [c for c in components if c not in e_set]
                    # Both orders of the anchors.
                    for first_args, second_args, first_state, second_state in (
                        (args_n, args_p, neg_state, pos_state),
                        (args_p, args_n, pos_state, neg_state),
                    ):
                        constraint = _one_tuple_constraint(
                            automaton,
                            first_args,
                            second_args,
                            first_state,
                            second_state,
                            e_set,
                            f_set,
                            m,
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
    automaton: RegisterAutomaton,
    first_args,
    second_args,
    first_state,
    second_state,
    e_set,
    f_set,
    m: int,
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
    endpoints = []
    for component in e_set:
        start = register_index(first_args[component])
        end = register_index(second_args[component])
        if start is None and end is None:
            # constant-to-constant: connected iff same constant symbol
            if first_args[component] == second_args[component]:
                continue
            return None
        if start is None or end is None:
            return None  # register/constant corridors are not tracked
        endpoints.append((start, end))
    # The occurrences live in the guards of specific control states, so
    # the factor starts at first_state and ends at second_state.
    factor = corridor_dfa(automaton, endpoints, first_state, second_state)
    if factor.is_empty():
        return None
    return TupleInequalityConstraint(
        left=tuple(left),
        right=tuple(right),
        selector=PairSelector(prefix=universal_prefix, factor=factor),
    )


def project_with_database(automaton: RegisterAutomaton, m: int) -> EnhancedAutomaton:
    """**Theorem 24**: hide the database and the registers beyond *m*.

    Returns an enhanced automaton ``B`` with ``m`` registers and an empty
    signature such that ``Reg(B)`` equals the union over databases ``D`` of
    ``Pi_m(Reg(D, A))`` -- exactly on the fragment described in the module
    docstring, and always containing it.
    """
    if m > automaton.k:
        raise SpecificationError("cannot keep %d of %d registers" % (m, automaton.k))
    normalised = _normalize_db(prune_infeasible(automaton))
    # Families 1 and 2: Theorem 13's view, inequalities as arity-1 tuples.
    view = EnhancedAutomaton.from_extended(_projected_view(normalised, m))
    relational = relational_tuple_constraints(
        normalised, m, Dfa.universal(normalised.states)
    )
    finiteness = []
    for i in range(1, m + 1):
        selector = adom_position_dfa(normalised, i)
        if not selector.is_empty():
            finiteness.append(FinitenessConstraint(register=i, selector=selector))
    return EnhancedAutomaton(
        view.automaton,
        equality_constraints=view.equality_constraints,
        tuple_constraints=view.tuple_constraints + tuple(relational),
        finiteness_constraints=finiteness,
    )
