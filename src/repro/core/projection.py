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

:func:`project_register_automaton` assembles Theorem 13 / Proposition 20:
restrict the guards to the kept registers and attach the Lemma 21
constraints for the kept register pairs.  The resulting extended automaton
is LR-bounded (Proposition 20); see :mod:`repro.core.lr`.

:func:`project_extended` extends projection to extended automata
(Theorem 13 in full).  Global equality constraints are first eliminated by
Proposition 6; local (dis)equality transport is Lemma 21 again.  For the
remaining *global* inequality constraints, a disequality between kept
registers ``(a,i) != (b,j)`` may be witnessed by a constraint match
``(n, n')`` connected to ``a`` and ``b`` through equality corridors.  The
implementation captures exactly the matches lying inside the factor
(``a <= n <= n' <= b``); matches whose corridors extend outside the factor
are covered up to an optional ``lookahead`` horizon past the factor's end
(0 by default, i.e. disabled).  With the default, the result is therefore
*complete but possibly under-constrained*: ``Reg(result)`` always contains
``Pi_m(Reg(input))``, with equality whenever witnessing matches stay inside
their factors -- which holds for every constraint produced by this
library's own constructions and for the paper's worked examples.  The
paper's fully general argument goes through MSO transitive closure and
Lemma 14 and is not effective in any practical sense; ``DESIGN.md``
documents this substitution.
"""

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.automata.dfa import Dfa
from repro.automata.nfa import EPSILON, Nfa
from repro.foundations.errors import SpecificationError
from repro.logic.literals import eq as lit_eq
from repro.logic.literals import neq as lit_neq
from repro.logic.terms import X, Y
from repro.logic.types import SigmaType, project_type
from repro.core.extended import (
    EQ,
    NEQ,
    ExtendedAutomaton,
    GlobalConstraint,
    _normalisation_projection,
    eliminate_equality_constraints,
    lift_constraints_to_states,
)
from repro.core.parallel import parallel_map
from repro.core.pruning import prune_extended, prune_infeasible
from repro.core.register_automaton import RegisterAutomaton, State, Transition


def _normalize(automaton: RegisterAutomaton) -> RegisterAutomaton:
    """Complete and state-driven normal form (the Lemma 21 precondition)."""
    result = automaton
    if not result.is_complete():
        result = result.completed()
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


def _x_class(guard: SigmaType, register: int, k: int) -> FrozenSet[int]:
    """Registers whose x-value the guard forces equal to ``x_register``."""
    from repro.logic.types import x_equality_classes

    return x_equality_classes(guard, k)[register]


def _advance_set(guard: SigmaType, members: FrozenSet[int], k: int) -> FrozenSet[int]:
    """One corridor step: registers at the next position equal to the class."""
    from repro.logic.types import advance_registers

    return advance_registers(guard, members, k)


def equality_tracker_dfa(automaton: RegisterAutomaton, i: int, j: int) -> Dfa:
    """The Lemma 21 automaton for ``e=_{ij}``.

    Accepts exactly the factors ``q_a .. q_b`` (over the normalised
    automaton's states) along which the value of register *i* at the start
    is carried into register *j* at the end.  *automaton* must be complete
    and state-driven.
    """
    guards = _guard_map(automaton)
    k = automaton.k
    alphabet = frozenset(automaton.states)
    initial = "init"
    dead = "dead"
    transitions: Dict[Tuple, object] = {}
    states: Set = {initial, dead}
    accepting: Set = set()
    worklist: List = []

    for symbol in alphabet:
        transitions[(dead, symbol)] = dead
        guard = guards.get(symbol)
        if guard is None:
            transitions[(initial, symbol)] = dead
            continue
        start_set = _x_class(guard, i, k)
        target = (start_set, symbol)
        transitions[(initial, symbol)] = target
        if target not in states:
            states.add(target)
            worklist.append(target)

    while worklist:
        state = worklist.pop()
        members, previous = state
        if j in members:
            accepting.add(state)
        guard = guards[previous]
        for symbol in alphabet:
            next_guard = guards.get(symbol)
            if next_guard is None:
                transitions[(state, symbol)] = dead
                continue
            advanced = _advance_set(guard, members, k)
            target = (advanced, symbol)
            transitions[(state, symbol)] = target
            if target not in states:
                states.add(target)
                worklist.append(target)

    # accepting membership for states discovered before the loop ran
    for state in states:
        if isinstance(state, tuple) and j in state[0]:
            accepting.add(state)
    return Dfa(states, alphabet, transitions, initial, accepting).minimize()


def corridor_dfa(
    automaton: RegisterAutomaton,
    start: Tuple[str, int],
    end: Tuple[str, int],
) -> Dfa:
    """A generalised equality tracker with x/y endpoints.

    Accepts the factors ``q_a .. q_b`` along which the value of the *start*
    term at the factor's first position is carried to the *end* term at its
    last position.  Endpoints are ``("x", r)`` (register ``r`` at the
    anchor position itself) or ``("y", r)`` (register ``r`` at the position
    *after* the anchor) -- the shapes relational-literal arguments take in
    guards, needed by the Theorem 24 construction.
    *automaton* must be (equality-)complete and state-driven.
    """
    guards = _guard_map(automaton)
    k = automaton.k
    alphabet = frozenset(automaton.states)
    start_kind, start_register = start
    end_kind, end_register = end
    initial = "init"
    dead = "dead"
    transitions: Dict[Tuple, object] = {}
    states: Set = {initial, dead}
    accepting: Set = set()
    worklist: List = []

    from repro.logic.types import y_successor_images

    def start_set(guard: SigmaType) -> FrozenSet[int]:
        if start_kind == "x":
            return _x_class(guard, start_register, k)
        images = y_successor_images(guard, k)
        return frozenset(
            m for m in range(1, k + 1) if start_register in images[m]
        )

    def accepts_here(state) -> bool:
        members, previous, direct = state
        if direct:
            return True
        guard = guards[previous]
        if end_kind == "x":
            return end_register in members
        images = y_successor_images(guard, k)
        return any(end_register in images[l] for l in members)

    for symbol in alphabet:
        transitions[(dead, symbol)] = dead
        guard = guards.get(symbol)
        if guard is None:
            transitions[(initial, symbol)] = dead
            continue
        # A length-1 factor with both endpoints on the y side is connected
        # directly inside the first guard; the corridor sets cannot see it.
        direct = (
            start_kind == "y"
            and end_kind == "y"
            and (
                start_register == end_register
                or guard.closure.same(Y(start_register), Y(end_register))
            )
        )
        target = (start_set(guard), symbol, direct)
        transitions[(initial, symbol)] = target
        if target not in states:
            states.add(target)
            worklist.append(target)

    while worklist:
        state = worklist.pop()
        members, previous, _direct = state
        if accepts_here(state):
            accepting.add(state)
        guard = guards[previous]
        for symbol in alphabet:
            if symbol not in guards:
                transitions[(state, symbol)] = dead
                continue
            target = (_advance_set(guard, members, k), symbol, False)
            transitions[(state, symbol)] = target
            if target not in states:
                states.add(target)
                worklist.append(target)
    for state in states:
        if isinstance(state, tuple) and accepts_here(state):
            accepting.add(state)
    return Dfa(states, alphabet, transitions, initial, accepting).minimize()


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

    Built as an NFA (phase one tracks the left corridor, a nondeterministic
    switch consumes the disequality literal, phase two tracks the right
    corridor) and determinised.
    """
    guards = _guard_map(automaton)
    k = automaton.k
    alphabet = frozenset(automaton.states)

    transitions: Dict[object, Dict[object, Set[object]]] = {}

    def add(source, symbol, target) -> None:
        transitions.setdefault(source, {}).setdefault(symbol, set()).add(target)

    initial = "init"
    nfa_states: Set = {initial}
    worklist: List = []

    def note(state) -> None:
        if state not in nfa_states:
            nfa_states.add(state)
            worklist.append(state)

    for symbol in alphabet:
        guard = guards.get(symbol)
        if guard is None:
            continue
        start = ("one", _x_class(guard, i, k), symbol)
        add(initial, symbol, start)
        note(start)

    accepting: Set = set()
    while worklist:
        state = worklist.pop()
        phase, members, previous = state
        guard = guards[previous]
        closure = guard.closure
        if phase == "one":
            # switch case (ii): x_l != x_m at this position
            for l in members:
                for m in range(1, k + 1):
                    if closure.entails_neq(X(l), X(m)):
                        target = ("two", _x_class(guard, m, k), previous)
                        add(state, EPSILON, target)
                        note(target)
            for symbol in alphabet:
                if symbol not in guards:
                    continue
                # ordinary phase-one advance
                advanced = _advance_set(guard, members, k)
                target = ("one", advanced, symbol)
                add(state, symbol, target)
                note(target)
                # switch case (i): x_l != y_m; phase two starts at c+1
                for l in members:
                    for m in range(1, k + 1):
                        if closure.entails_neq(X(l), Y(m)):
                            landing = frozenset(
                                m2
                                for m2 in range(1, k + 1)
                                if closure.same(Y(m), Y(m2)) or m2 == m
                            )
                            switch_target = ("two", landing, symbol)
                            add(state, symbol, switch_target)
                            note(switch_target)
        else:
            if j in members:
                accepting.add(state)
            for symbol in alphabet:
                if symbol not in guards:
                    continue
                advanced = _advance_set(guard, members, k)
                target = ("two", advanced, symbol)
                add(state, symbol, target)
                note(target)

    nfa = Nfa(transitions, {initial}, accepting)
    return nfa.determinize(alphabet).minimize()


class _TrackerPair:
    """Picklable worker: both Lemma 21 tracker DFAs for one register pair.

    Wraps the normalised automaton (pickled once per chunk when a process
    pool is in use) and returns, for a pair ``(i, j)``, the equality and
    inequality tracker DFAs -- or ``None`` where the tracked language is
    empty and the constraint would be dropped anyway.
    """

    __slots__ = ("automaton",)

    def __init__(self, automaton: RegisterAutomaton):
        self.automaton = automaton

    def __call__(self, pair):
        i, j = pair
        eq_dfa = equality_tracker_dfa(self.automaton, i, j)
        neq_dfa = inequality_tracker_dfa(self.automaton, i, j)
        return (
            None if eq_dfa.is_empty() else eq_dfa,
            None if neq_dfa.is_empty() else neq_dfa,
        )


def lemma21_constraints(
    automaton: RegisterAutomaton, registers: Iterable[int]
) -> List[GlobalConstraint]:
    """The Lemma 21 constraint set for the given (kept) registers.

    *automaton* must be complete and state-driven.  Constraints whose
    language is empty are dropped, and equality constraints that only
    relate a position to itself through the trivial ``i == j`` reflexivity
    are kept (they are harmless and occasionally meaningful).

    Each register pair's two tracker DFAs are independent of every other
    pair's, so the pairs are mapped through
    :func:`repro.core.parallel.parallel_map` -- serial by default,
    process-parallel under ``REPRO_WORKERS`` -- with the constraint list
    assembled in pair order either way.
    """
    registers = list(registers)
    pairs = [(i, j) for i in registers for j in registers]
    results = parallel_map(_TrackerPair(automaton), pairs, chunk_size=2)
    constraints: List[GlobalConstraint] = []
    for (i, j), (eq_dfa, neq_dfa) in zip(pairs, results):
        if eq_dfa is not None:
            constraints.append(GlobalConstraint(EQ, i, j, eq_dfa))
        if neq_dfa is not None:
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
    (dis)equalities the hidden registers used to enforce.
    """
    if automaton.signature.relations or automaton.signature.constants:
        raise SpecificationError(
            "Theorem 13 projection applies to automata without a database; "
            "use repro.core.enhanced.project_with_database for Section 6"
        )
    if m > automaton.k:
        raise SpecificationError("cannot keep %d of %d registers" % (m, automaton.k))
    automaton = prune_infeasible(automaton)
    normalised = _normalize(automaton)
    k = normalised.k
    projected = RegisterAutomaton(
        m,
        normalised.signature,
        normalised.states,
        normalised.initial,
        normalised.accepting,
        _agreeing_projected_transitions(normalised, m),
    )
    constraints = lemma21_constraints(normalised, range(1, m + 1))
    return ExtendedAutomaton(projected, constraints)


# ---------------------------------------------------------------------- #
# projection of extended automata (Theorem 13 in full)
# ---------------------------------------------------------------------- #


def project_extended(
    extended: ExtendedAutomaton, m: int, lookahead: int = 0
) -> ExtendedAutomaton:
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
       factor are captured exactly, right-overhanging matches up to
       *lookahead* extra steps (0 = disabled; see the module docstring for
       the precise exactness guarantee).
    """
    if extended.automaton.signature.relations or extended.automaton.signature.constants:
        raise SpecificationError("projection of extended automata requires no database")
    if m > extended.k:
        raise SpecificationError("cannot keep %d of %d registers" % (m, extended.k))
    extended = prune_extended(extended)
    without_eq, _original_k = eliminate_equality_constraints(extended)
    base = _normalize(without_eq.automaton)
    # Re-target the inequality constraints at the normalised state space.
    inequality = lift_constraints_to_states(
        without_eq.inequality_constraints(),
        without_eq.automaton.states,
        base.states,
        _normalisation_projection(without_eq.automaton, base),
    )
    k = base.k
    projected_automaton = RegisterAutomaton(
        m,
        base.signature,
        base.states,
        base.initial,
        base.accepting,
        _agreeing_projected_transitions(base, m),
    )
    constraints = lemma21_constraints(base, range(1, m + 1))
    constraints.extend(
        _bridge_constraints(base, inequality, m, lookahead)
    )
    return ExtendedAutomaton(projected_automaton, constraints)


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
    """
    from repro.core.caching import agreement

    k = normalised.k
    transitions = []
    for transition in normalised.transitions:
        source_guard = normalised.guard_of_state(transition.source)
        target_guard = normalised.guard_of_state(transition.target)
        if target_guard is not None:
            if not agreement(source_guard, target_guard, k):
                continue
        transitions.append(
            Transition(transition.source, project_type(transition.guard, m, k), transition.target)
        )
    return transitions


def _bridge_constraints(
    base: RegisterAutomaton,
    inequality_constraints: Sequence[GlobalConstraint],
    m: int,
    lookahead: int,
) -> List[GlobalConstraint]:
    """Disequalities between kept registers induced by global constraints.

    For a global constraint ``e!=_{i0 j0}`` and kept registers ``i, j``,
    the factor ``q_a .. q_b`` must force ``(a,i) != (b,j)`` whenever there
    are positions ``n <= n'`` with ``(n,i0) ~ (a,i)``, ``(n',j0) ~ (b,j)``
    and ``w_n .. w_{n'}`` matching ``e``.  We build an NFA over factors
    for the in-factor cases (``a <= n``, ``n' <= b``) and for bounded
    right overhang (``n' <= b + lookahead``); the left cases (``n < a``)
    are covered by a deterministic left-profile refinement folded into the
    same NFA via its start states.
    """
    guards = _guard_map(base)
    k = base.k
    alphabet = frozenset(base.states)
    results: List[GlobalConstraint] = []
    for constraint in inequality_constraints:
        dfa = constraint.compiled(base.states)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                nfa = _bridge_nfa(base, guards, dfa, constraint.i, constraint.j, i, j, k, lookahead)
                compiled = nfa.determinize(alphabet).minimize()
                if not compiled.is_empty():
                    results.append(GlobalConstraint(NEQ, i, j, compiled))
    return results


def _bridge_nfa(
    base: RegisterAutomaton,
    guards: Dict[State, SigmaType],
    constraint_dfa: Dfa,
    i0: int,
    j0: int,
    i: int,
    j: int,
    k: int,
    lookahead: int,
) -> Nfa:
    """The factor NFA for one (constraint, i, j) combination.

    Phases: ``("left", S, prev)`` tracks the corridor of the factor-start
    register ``i``; when ``i0`` enters the corridor the constraint DFA is
    started (``("mid", s, prev)``); when the DFA accepts at a position
    whose corridor reaches ``j0``, phase ``("right", T, prev)`` tracks the
    corridor onwards and accepts when ``j`` is in it.  Right overhang
    (constraint match completing after the factor) is approximated by
    closing acceptance under up to *lookahead* further steps at the end,
    which we realise by also accepting ``mid``/``right`` states from which
    an accepting continuation of length <= lookahead exists along *some*
    guard-consistent extension.
    """
    alphabet = frozenset(base.states)
    transitions: Dict[object, Dict[object, Set[object]]] = {}

    def add(source, symbol, target) -> None:
        transitions.setdefault(source, {}).setdefault(symbol, set()).add(target)

    initial = "init"
    worklist: List = []
    seen: Set = {initial}

    def note(state) -> None:
        if state not in seen:
            seen.add(state)
            worklist.append(state)

    for symbol in alphabet:
        guard = guards.get(symbol)
        if guard is None:
            continue
        start = ("left", _x_class(guard, i, k), symbol)
        add(initial, symbol, start)
        note(start)

    accepting: Set = set()
    while worklist:
        state = worklist.pop()
        phase = state[0]
        if phase == "left":
            _phase, members, previous = state
            guard = guards[previous]
            # start the constraint DFA when i0 joins the corridor (n = here)
            if i0 in members:
                mid = ("mid", constraint_dfa.delta(constraint_dfa.initial, previous), previous)
                add(state, EPSILON, mid)
                note(mid)
            for symbol in alphabet:
                if symbol not in guards:
                    continue
                target = ("left", _advance_set(guard, members, k), symbol)
                add(state, symbol, target)
                note(target)
        elif phase == "mid":
            _phase, dfa_state, previous = state
            guard = guards[previous]
            # the DFA accepting here: n' = here, corridor of j0 starts
            if dfa_state in constraint_dfa.accepting:
                right = ("right", _x_class(guard, j0, k), previous)
                add(state, EPSILON, right)
                note(right)
            for symbol in alphabet:
                if symbol not in guards:
                    continue
                target = ("mid", constraint_dfa.delta(dfa_state, symbol), symbol)
                add(state, symbol, target)
                note(target)
        else:  # "right"
            _phase, members, previous = state
            guard = guards[previous]
            if j in members:
                accepting.add(state)
            for symbol in alphabet:
                if symbol not in guards:
                    continue
                target = ("right", _advance_set(guard, members, k), symbol)
                add(state, symbol, target)
                note(target)

    # Right overhang: also accept states that can reach acceptance within
    # `lookahead` symbol steps along transitions consistent with the
    # control graph (any continuation the automaton could take).
    if lookahead > 0:
        succ_states: Dict[State, List[State]] = {}
        for transition in base.transitions:
            succ_states.setdefault(transition.source, []).append(transition.target)
        can_accept: Set = set(accepting)
        frontier = set(accepting)
        for _ in range(lookahead):
            new_frontier: Set = set()
            for state in list(seen):
                if state in can_accept or state == "init":
                    continue
                previous = state[2]
                for symbol in succ_states.get(previous, ()):
                    for target in transitions.get(state, {}).get(symbol, ()):
                        if target in frontier or target in can_accept:
                            new_frontier.add(state)
                            break
            if not new_frontier:
                break
            can_accept |= new_frontier
            frontier = new_frontier
        accepting = can_accept

    return Nfa(transitions, {initial}, accepting)
