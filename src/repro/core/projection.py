"""Projections of register automata without a database (Section 4, Theorem 13).

Register automata are *not* closed under projection (Example 4); extended
automata are, and they can describe every projection of a register
automaton.  The constructive heart is **Lemma 21**: for a complete,
state-driven register automaton ``A`` there are regular expressions
``e=_{ij}`` / ``e!=_{ij}`` over its states such that for every state trace
``w`` and positions ``a <= b``:

* ``(a,i) ~_w (b,j)``  iff the factor ``w_a .. w_b`` is in ``e=_{ij}``,
* ``(a,i) !=_w (b,j)`` iff the factor is in ``e!=_{ij}``,

where ``~_w`` is the equality relation induced by the guards and ``!=_w``
the induced disequality.  Both are recognised by small tracking automata:

* the **equality tracker** carries the set ``S`` of registers whose current
  value equals the value of register ``i`` at the factor's start (the
  paper's subset automaton);
* the **inequality tracker** runs the equality tracker to some middle
  position ``c``, consumes one local disequality literal of the (complete)
  type at ``c``, and then tracks the other side's equality corridor to the
  end.  Completeness of the types guarantees every induced disequality has
  such a local witness inside the factor (the corridors of the two classes
  overlap, and a complete type settles every pair it sees).

Register sets are bitmasks, and every tracker is built directly as a
deterministic automaton: the inequality tracker's nondeterministic switch
needs no subset construction, because corridor steps distribute over union
(see :func:`inequality_tracker_dfa`).

:func:`project_register_automaton` assembles Theorem 13 / Proposition 20:
restrict the guards to the kept registers and attach the Lemma 21
constraints for the kept register pairs.  The resulting extended automaton
is LR-bounded (Proposition 20); see :mod:`repro.core.lr`.  Both public
projections share one private path, and Theorem 24 reuses its projected
view (:func:`_projected_view`).

:func:`project_extended` extends projection to extended automata
(Theorem 13 in full).  Global equality constraints are first eliminated by
Proposition 6; local (dis)equality transport is Lemma 21 again.  For the
remaining *global* inequality constraints, a disequality between kept
registers ``(a,i) != (b,j)`` may be witnessed by a constraint match
``(n, n')`` connected to ``a`` and ``b`` through equality corridors.  The
implementation captures exactly the matches lying inside the factor
(``a <= n <= n' <= b``); matches whose corridors extend outside the factor
are not captured.  The result is therefore *complete but possibly
under-constrained*: ``Reg(result)`` always contains
``Pi_m(Reg(input))``, with equality whenever witnessing matches stay inside
their factors -- which holds for every constraint produced by this
library's own constructions and for the paper's worked examples.  The
paper's fully general argument goes through MSO transitive closure and
Lemma 14 and is not effective in any practical sense; ``DESIGN.md``
documents this substitution.
"""

from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.automata.dfa import Dfa
from repro.db.schema import Signature
from repro.foundations.errors import SpecificationError
from repro.foundations.resilience import current_deadline
from repro.logic.terms import Y
from repro.logic.types import advance_mask, agree, corridor_masks, project_type_dataless
from repro.core.extended import (
    EQ,
    NEQ,
    ExtendedAutomaton,
    GlobalConstraint,
    eliminate_equality_constraints,
    normalize_control,
)
from repro.core.caching import cached_method
from repro.core.pruning import prune_extended
from repro.core.register_automaton import RegisterAutomaton, State, Transition


# ---------------------------------------------------------------------- #
# the Lemma 21 trackers, over register bitmasks
# ---------------------------------------------------------------------- #
#
# A *corridor* is the set of registers holding one data value as a factor
# advances: register ``m`` is bit ``m - 1`` of an integer, and one step
# under a guard is the union of the per-register images
# (:func:`repro.logic.types.advance_mask` over the guard's
# :func:`~repro.logic.types.corridor_masks`).  Every tracker is built by
# :func:`_explore` directly as a DFA: states are small tuples of masks
# and flags holding what the next step reads of the last symbol -- rows of
# its guard's corridor masks, never the symbol's index, so symbols whose
# guards share those rows share tracker states.  Theorem 24's anchored
# corridors and active-domain selectors (:mod:`repro.core.theorem24`)
# come out of the same explorer.


@cached_method("projection.symbol_masks")
def _symbol_masks(automaton: RegisterAutomaton) -> Tuple[Tuple[State, ...], Tuple]:
    """The control states in ``repr`` order, and each one's corridor masks.

    The mask entry is ``None`` for a state without a guard (it fires
    nothing, so no infinite run visits it); every tracker goes dead there.
    Every tracker of one automaton reads the same tables (Theorem 24
    builds one per relational factor), so they are memoised per automaton
    instance and die with it.
    """
    k = automaton.k
    symbols = tuple(sorted(automaton.states, key=repr))
    masks = []
    for symbol in symbols:
        guard = automaton.guard_of_state(symbol)
        masks.append(None if guard is None else corridor_masks(guard, k))
    return symbols, tuple(masks)


def _explore(
    symbols: Sequence[State],
    masks: Sequence,
    start: Callable[[int], Tuple],
    step: Callable[[Tuple], Callable[[int], Tuple]],
    accepts: Callable[[Tuple], int],
) -> Dfa:
    """Build one tracker breadth-first, as integer rows, and minimise it.

    *start(q)* is the tracker state after the one-symbol factor ``q`` (a
    symbol index).  *step(state)* returns the successor function of
    *state*, mapping the next symbol's index to the next state; it is
    split this way because a corridor advances under the guard of the
    symbol already read, so only the hand-over at the new position depends
    on the next symbol.  Row 0 has read nothing; symbols without a guard
    lead to the dead row 1, present only when such a symbol exists, so
    every row is reachable.  Symbols are visited in ``repr`` order and
    rows numbered in discovery order, so the result does not depend on
    the hash seed.

    A state holds the mask rows its next step reads of the last symbol,
    not the symbol: two states that differ only in which symbol of one
    mask row was read last have the same successors and acceptance, so
    one row stands for them.  The walk meets that row where a walk over
    symbol-keyed states meets the first of them, so Moore refinement
    numbers every block of the minimal DFA the same way.
    """
    width = len(symbols)
    guarded = [q for q, found in enumerate(masks) if found is not None]
    dead = 1
    rows: List[List[int]] = [[dead] * width]
    accepting = [False]
    if len(guarded) < width:
        rows.append([dead] * width)
        accepting.append(False)
    offset = len(rows)
    ids: Dict[Tuple, int] = {}
    order: List[Tuple] = []

    def number(state: Tuple) -> int:
        found = ids.get(state)
        if found is None:
            found = ids[state] = offset + len(order)
            order.append(state)
        return found

    for q in guarded:
        rows[0][q] = number(start(q))
    position = 0
    while position < len(order):
        state = order[position]
        successor = step(state)
        row = [dead] * width
        for q in guarded:
            row[q] = number(successor(q))
        rows.append(row)
        accepting.append(bool(accepts(state)))
        position += 1
    return Dfa.minimal_from_rows(symbols, rows, 0, accepting)


def _check_register(automaton: RegisterAutomaton, register: int) -> None:
    if not isinstance(register, int) or not 1 <= register <= automaton.k:
        raise SpecificationError(
            "register %r outside 1..%d" % (register, automaton.k)
        )


def equality_tracker_dfa(automaton: RegisterAutomaton, i: int, j: int) -> Dfa:
    """The Lemma 21 automaton for ``e=_{ij}``.

    Accepts exactly the factors ``q_a .. q_b`` (over the normalised
    automaton's states) along which the value of register *i* at the start
    is carried into register *j* at the end.  *automaton* must be complete
    and state-driven.  The tracker state is ``(S, y_image)``: the corridor
    ``S`` of the start value at the last symbol read, ``q``, and the
    ``y_image`` row of ``q``'s guard, all that the next corridor step
    reads of ``q``.
    """
    _check_register(automaton, i)
    _check_register(automaton, j)
    symbols, masks = _symbol_masks(automaton)
    j_bit = 1 << (j - 1)

    def step(state: Tuple) -> Callable[[int], Tuple]:
        members, y_image = state
        advanced = advance_mask(y_image, members)
        return lambda q: (advanced, masks[q][1])

    return _explore(
        symbols,
        masks,
        lambda q: (masks[q][0][i - 1], masks[q][1]),
        step,
        lambda state: state[0] & j_bit,
    )


def corridor_dfa(
    automaton: RegisterAutomaton,
    endpoints: Sequence[Tuple[Tuple[str, int], Tuple[str, int]]],
    first: State,
    last: State,
) -> Dfa:
    """Generalised equality trackers with x/y endpoints, anchored at two states.

    Accepts the factors ``q_a .. q_b`` with ``q_a = first`` and ``q_b =
    last`` along which, for every ``(start, end)`` pair of *endpoints*, the
    value of the *start* term at the factor's first position is carried to
    the *end* term at its last position.  Endpoints are ``("x", r)``
    (register ``r`` at the anchor position itself) or ``("y", r)``
    (register ``r`` at the position *after* the anchor) -- the shapes
    relational-literal arguments take in guards, needed by the Theorem 24
    construction.  With no endpoints only the two anchors are checked.
    *automaton* must be (equality-)complete and state-driven; like every
    tracker, a factor through a state without a guard is rejected.

    The tracker state is ``(S_1 .. S_n, direct_1 .. direct_n, y_image,
    at_last)``: one corridor per pair, ``direct`` marking a length-1 factor
    whose two y endpoints the first guard itself connects, the ``y_image``
    table of the last guard read (all that a corridor step needs; holding
    the symbol instead multiplies the explored rows by the alphabet size),
    and whether the last symbol is *last*.  ``None`` is a factor that did
    not start at *first*.
    """
    for pair in endpoints:
        for kind, register in pair:
            if kind not in ("x", "y"):
                raise SpecificationError("corridor endpoint kind %r is not 'x' or 'y'" % (kind,))
            _check_register(automaton, register)
    for anchor in (first, last):
        if anchor not in automaton.states:
            raise SpecificationError("corridor anchor %r is not a state" % (anchor,))
    symbols, masks = _symbol_masks(automaton)
    first_index = symbols.index(first)
    last_index = symbols.index(last)
    count = len(endpoints)
    ends = [(kind == "y", 1 << (register - 1)) for _start, (kind, register) in endpoints]

    def opening(q: int) -> Tuple:
        if q != first_index:
            return None
        x_class, y_image = masks[q][0], masks[q][1]
        closure = automaton.guard_of_state(symbols[q]).closure
        members = tuple(
            x_class[r - 1]
            if kind == "x"
            else sum(1 << l for l, image in enumerate(y_image) if image >> (r - 1) & 1)
            for (kind, r), _end in endpoints
        )
        # A length-1 factor with both endpoints on the y side is connected
        # directly inside the first guard; the corridor sets cannot see it.
        direct = tuple(
            start[0] == end[0] == "y" and closure.same(Y(start[1]), Y(end[1]))
            for start, end in endpoints
        )
        return members + direct + (y_image, q == last_index)

    def step(state: Tuple) -> Callable[[int], Tuple]:
        if state is None:
            return lambda q: None
        y_image = state[-2]
        carried = tuple(advance_mask(y_image, members) for members in state[:count])
        carried += (False,) * count
        return lambda q: carried + (masks[q][1], q == last_index)

    def accepts(state: Tuple) -> bool:
        if state is None or not state[-1]:
            return False
        y_image = state[-2]
        for index, (y_end, end_bit) in enumerate(ends):
            if state[count + index]:
                continue
            members = state[index]
            if y_end:
                members = advance_mask(y_image, members)
            if not members & end_bit:
                return False
        return True

    return _explore(symbols, masks, opening, step, accepts)


def inequality_tracker_dfa(automaton: RegisterAutomaton, i: int, j: int) -> Dfa:
    """The Lemma 21 automaton for ``e!=_{ij}``.

    Accepts the factors ``q_a .. q_b`` along which the classes of
    ``(a, i)`` and ``(b, j)`` are forced unequal.  Characterisation (the
    lemma): there is a position ``c`` in the factor and registers ``l, m``
    with

    * ``(a,i) ~ (c,l)`` and the complete type at ``c`` contains
      ``x_l != x_m`` and ``(c,m) ~ (b,j)``, or
    * ``(a,i) ~ (c,l)`` and the type at ``c`` contains ``x_l != y_m`` and
      ``(c+1,m) ~ (b,j)``.

    As a nondeterministic automaton: phase one tracks the left corridor
    ``S`` of ``(a, i)``, a switch consumes one such literal and opens a
    right corridor, phase two tracks it and accepts when ``j`` is in it.
    **No subset construction is needed.**  Phase one is deterministic, so
    after any factor the subset holds one left corridor ``S`` and some
    right corridors ``T_1 .. T_n``, all at the last symbol ``q``.  A
    corridor step is the union of per-register images, so it distributes
    over union: advancing every ``T_i`` and taking the union equals
    advancing the union ``U``; and the subset accepts iff ``j`` lies in
    some ``T_i``, i.e. in ``U``.  The map from subsets to ``(S, U, q)``
    therefore commutes with the steps and preserves acceptance, and the
    DFA over ``(S, U, q)`` recognises the determinised language.  The
    switches enter ``U`` through the guard's
    :func:`~repro.logic.types.corridor_masks`: ``x_switch`` at the
    position itself, ``y_switch`` at the next one.  The next step reads
    only ``q``'s ``y_image`` and ``y_switch`` rows, so the tracker is
    built over ``(S, U, y_image, y_switch)``: the collapse of the subset
    is taken over ``q``'s mask rows, not ``q``.
    """
    _check_register(automaton, i)
    _check_register(automaton, j)
    symbols, masks = _symbol_masks(automaton)
    j_bit = 1 << (j - 1)

    def first(q: int) -> Tuple:
        x_class, y_image, x_switch, y_switch = masks[q]
        left = x_class[i - 1]
        return (left, advance_mask(x_switch, left), y_image, y_switch)

    def step(state: Tuple) -> Callable[[int], Tuple]:
        left, right, y_image, y_switch = state
        advanced = advance_mask(y_image, left)
        carried = advance_mask(y_image, right) | advance_mask(y_switch, left)
        return lambda q: (
            advanced,
            carried | advance_mask(masks[q][2], advanced),
            masks[q][1],
            masks[q][3],
        )

    return _explore(symbols, masks, first, step, lambda state: state[1] & j_bit)


def _checkpoint(site: str) -> None:
    """Poll the ambient deadline (the tracker assemblies are exponential)."""
    active = current_deadline()
    if active is not None:
        active.check(site)


def lemma21_constraints(
    automaton: RegisterAutomaton, registers: Iterable[int]
) -> List[GlobalConstraint]:
    """The Lemma 21 constraint set for the given (kept) registers.

    *automaton* must be complete and state-driven.  Constraints whose
    language is empty are dropped, and equality constraints that only
    relate a position to itself through the trivial ``i == j`` reflexivity
    are kept (they are harmless and occasionally meaningful).  The list
    is assembled in pair order, equality before inequality.  The ambient
    deadline is polled once per register pair, at
    ``projection.register_pair``.
    """
    registers = list(registers)
    constraints: List[GlobalConstraint] = []
    for i in registers:
        for j in registers:
            _checkpoint("projection.register_pair")
            eq_dfa = equality_tracker_dfa(automaton, i, j)
            neq_dfa = inequality_tracker_dfa(automaton, i, j)
            if not eq_dfa.is_empty():
                constraints.append(GlobalConstraint(EQ, i, j, eq_dfa))
            if not neq_dfa.is_empty():
                constraints.append(GlobalConstraint(NEQ, i, j, neq_dfa))
    return constraints


def project_register_automaton(
    automaton: RegisterAutomaton, m: int
) -> ExtendedAutomaton:
    """**Theorem 13 for register automata** (= Proposition 20's witness).

    Returns an extended automaton ``B`` with *m* registers such that
    ``Reg(B) = Pi_m(Reg(A))``.  The underlying automaton restricts every
    guard to registers ``1..m``; the global constraints are the Lemma 21
    trackers for pairs of kept registers, so they transport exactly the
    (dis)equalities the hidden registers used to enforce.  This is
    :func:`project_extended` on ``(A, {})``: with no global constraint
    there is nothing for Proposition 6 to eliminate and no bridge.
    """
    if automaton.signature.relations or automaton.signature.constants:
        raise SpecificationError(
            "Theorem 13 projection applies to automata without a database; "
            "use repro.core.enhanced.project_with_database for Section 6"
        )
    return _project(ExtendedAutomaton(automaton, []), m)


# ---------------------------------------------------------------------- #
# projection of extended automata (Theorem 13 in full)
# ---------------------------------------------------------------------- #


def project_extended(extended: ExtendedAutomaton, m: int) -> ExtendedAutomaton:
    """Project an extended automaton onto its first *m* registers.

    Pipeline (following the paper's reductions):

    1. **Proposition 6** eliminates global equality constraints into extra
       registers (which join the hidden set).
    2. The control is completed and made state-driven.
    3. Local (dis)equality information is transported by the Lemma 21
       trackers, exactly as for plain register automata.
    4. Remaining *global inequality* constraints induce additional
       disequalities between kept registers whenever an equality corridor
       links a kept register to a constraint endpoint; matches inside the
       factor are captured exactly (see the module docstring for the
       precise exactness guarantee).
    """
    if extended.automaton.signature.relations or extended.automaton.signature.constants:
        raise SpecificationError("projection of extended automata requires no database")
    return _project(extended, m)


def _project(extended: ExtendedAutomaton, m: int) -> ExtendedAutomaton:
    """The Theorem 13 assembly behind both public projections (neither
    calls the other, so each view is built, and traced, once)."""
    if m > extended.k:
        raise SpecificationError("cannot keep %d of %d registers" % (m, extended.k))
    without_eq, _original_k = eliminate_equality_constraints(prune_extended(extended))
    # The inequality constraints come back lifted onto the normalised states.
    normalised = normalize_control(without_eq)
    base = normalised.automaton
    view = _projected_view(base, m)
    bridges = _bridge_constraints(base, normalised.inequality_constraints(), m)
    return ExtendedAutomaton(view.automaton, view.constraints + tuple(bridges))


def _projected_view(normalised: RegisterAutomaton, m: int) -> ExtendedAutomaton:
    """The projected control of *normalised* with its Lemma 21 constraints.

    *normalised* must be (equality-)complete and state-driven.  The view
    keeps its states, has no database, and carries the trackers of the
    kept register pairs; Theorem 13 adds its bridges to it, and Theorem 24
    reads its first two constraint families from it.
    """
    projected = RegisterAutomaton(
        m,
        Signature.empty(),
        normalised.states,
        normalised.initial,
        normalised.accepting,
        _agreeing_projected_transitions(normalised, m),
    )
    return ExtendedAutomaton(projected, lemma21_constraints(normalised, range(1, m + 1)))


def _agreeing_projected_transitions(normalised: RegisterAutomaton, m: int):
    """Projected transitions, restricted to agreement-compatible pairs.

    In the state-driven normal form, a transition ``(p, d) -> (q, d')``
    whose guards disagree on the shared registers (condition (iii) of
    symbolic control traces) can never be traversed by a run -- but after
    restricting the guards to the kept registers the disagreement may
    involve only *hidden* registers and become invisible, opening control
    paths the original automaton does not have (and whose induced
    constraints can even break LR-boundedness).  Dropping them realises
    the paper's "intersect with the Buchi automaton of consistent traces"
    step at the local level: every remaining control path is a symbolic
    control trace of the original automaton, hence realisable and
    consistent (Theorem 9).

    In the state-driven normal form a transition's guard is its source's
    one guard, so each distinct guard is projected once, and each
    agreement check reads two cached boundary signatures.
    """
    k = normalised.k
    projected: Dict = {}
    transitions = []
    for transition in normalised.transitions:
        guard = transition.guard
        target_guard = normalised.guard_of_state(transition.target)
        if target_guard is not None and not agree(guard, target_guard, k):
            continue
        restricted = projected.get(guard)
        if restricted is None:
            restricted = projected[guard] = project_type_dataless(guard, m)
        transitions.append(Transition(transition.source, restricted, transition.target))
    return transitions


def _bridge_constraints(
    base: RegisterAutomaton,
    inequality_constraints: Sequence[GlobalConstraint],
    m: int,
) -> List[GlobalConstraint]:
    """Disequalities between kept registers induced by global constraints.

    For a global constraint ``e!=_{i0 j0}`` and kept registers ``i, j``,
    the factor ``q_a .. q_b`` must force ``(a,i) != (b,j)`` whenever there
    are positions ``a <= n <= n' <= b`` with ``(n,i0) ~ (a,i)``,
    ``(n',j0) ~ (b,j)`` and ``w_n .. w_{n'}`` matching ``e``; see
    :func:`_bridge_dfa`.
    """
    if not inequality_constraints:
        return []
    symbols, masks = _symbol_masks(base)
    results: List[GlobalConstraint] = []
    for constraint in inequality_constraints:
        dfa = constraint.compiled(base.states)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                compiled = _bridge_dfa(
                    symbols, masks, dfa, constraint.i, constraint.j, i, j
                )
                if not compiled.is_empty():
                    results.append(GlobalConstraint(NEQ, i, j, compiled))
    return results


def _bridge_dfa(
    symbols: Sequence[State],
    masks: Sequence,
    constraint_dfa: Dfa,
    i0: int,
    j0: int,
    i: int,
    j: int,
) -> Dfa:
    """The factor DFA for one (constraint ``e!=_{i0 j0}``, ``i``, ``j``).

    As a nondeterministic automaton it has three phases: ``left`` tracks
    the corridor of the factor-start register ``i``; where ``i0`` is in it
    the constraint DFA starts (``mid``, one thread per start position);
    where a thread accepts, ``right`` tracks the corridor of ``j0`` onwards
    and accepts when ``j`` is in it.  As in
    :func:`inequality_tracker_dfa`, the left phase is deterministic and
    corridor steps distribute over union, so the subset after a factor
    collapses exactly to ``(S, M, U, q)``: the left corridor, the set of
    live constraint-DFA states, the union of the right corridors and the
    last symbol.  The constraint DFA reads ``q`` at the switches, so the
    state keeps only ``q``'s ``y_image`` row, ``(S, M, U, y_image)``, and
    each thread set is stepped under every symbol once.
    """
    delta = constraint_dfa.delta
    dfa_accepting = constraint_dfa.accepting
    starts = [frozenset({delta(constraint_dfa.initial, symbol)}) for symbol in symbols]
    i0_bit = 1 << (i0 - 1)
    j_bit = 1 << (j - 1)
    stepped: Dict[FrozenSet, List[FrozenSet]] = {}

    def close(left: int, threads: FrozenSet, right: int, q: int) -> Tuple:
        """The switches at position ``q``: start a thread, complete a match."""
        if left & i0_bit:
            threads = threads | starts[q]
        if not dfa_accepting.isdisjoint(threads):
            right |= masks[q][0][j0 - 1]
        return (left, threads, right, masks[q][1])

    def step(state: Tuple) -> Callable[[int], Tuple]:
        left, threads, right, y_image = state
        advanced = advance_mask(y_image, left)
        carried = advance_mask(y_image, right)
        following = stepped.get(threads)
        if following is None:
            following = stepped[threads] = [
                frozenset(delta(thread, symbol) for thread in threads) for symbol in symbols
            ]
        return lambda q: close(advanced, following[q], carried, q)

    return _explore(
        symbols,
        masks,
        lambda q: close(masks[q][0][i - 1], frozenset(), 0, q),
        step,
        lambda state: state[2] & j_bit,
    )
