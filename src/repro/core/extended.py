"""Extended register automata (Section 3).

An extended register automaton is a pair ``(A, Sigma)``: a register
automaton plus a finite set of *global constraints*.  Each constraint is a
regular expression ``e`` over the states of ``A`` together with a kind and
two register indices: when the factor ``q_n .. q_m`` of a run's state trace
matches ``e``, an equality constraint forces ``d_n[i] = d_m[j]`` and an
inequality constraint forces ``d_n[i] != d_m[j]``.

This module provides:

* :class:`GlobalConstraint` / :class:`ExtendedAutomaton` -- the model,
* exact satisfaction checking of constraints on :class:`FiniteRun` prefixes
  and on :class:`LassoRun` witnesses (lassos are checked exhaustively via
  cycle detection on (DFA state, stored position) pairs -- data and control
  are periodic, so this finite walk covers every factor),
* :func:`eliminate_equality_constraints` -- **Proposition 6**: global
  equality constraints are compiled away into extra registers (one per
  state of each constraint DFA) and bookkeeping control state.
"""

from dataclasses import dataclass
from itertools import product as cartesian_product
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.automata.dfa import Dfa
from repro.automata.regex import Regex
from repro.foundations.errors import InconsistentTypeError, SpecificationError
from repro.logic.literals import eq as lit_eq
from repro.logic.terms import Var, X, Y, register_index
from repro.logic.types import SigmaType
from repro.core.caching import cached_method
from repro.core.register_automaton import RegisterAutomaton, State, Transition
from repro.core.runs import FiniteRun, LassoRun

EQ = "eq"
NEQ = "neq"


@dataclass(frozen=True)
class GlobalConstraint:
    """A global constraint ``e=_{ij}`` or ``e!=_{ij}``.

    Parameters
    ----------
    kind:
        ``"eq"`` or ``"neq"``.
    i / j:
        Register indices: ``i`` read at the factor's first position, ``j``
        at its last.
    expression:
        A regular expression over automaton states, or a pre-compiled
        :class:`Dfa` over the state alphabet.
    """

    kind: str
    i: int
    j: int
    expression: object

    def __post_init__(self) -> None:
        if self.kind not in (EQ, NEQ):
            raise SpecificationError("constraint kind must be 'eq' or 'neq'")
        if self.i < 1 or self.j < 1:
            raise SpecificationError("register indices start at 1")
        if not isinstance(self.expression, (Regex, Dfa)):
            raise SpecificationError(
                "constraint expression must be a Regex or a Dfa, got %r"
                % type(self.expression)
            )

    def compiled(self, states: FrozenSet[State]) -> Dfa:
        """The DFA over exactly the given state alphabet."""
        if isinstance(self.expression, Dfa):
            if self.expression.alphabet != frozenset(states):
                raise SpecificationError(
                    "constraint DFA alphabet %r does not match automaton states %r"
                    % (sorted(map(repr, self.expression.alphabet)), sorted(map(repr, states)))
                )
            return self.expression
        return self.expression.to_dfa(states)

    def is_equality(self) -> bool:
        return self.kind == EQ

    def __repr__(self) -> str:
        op = "=" if self.kind == EQ else "!="
        return "e%s[%d,%d](%r)" % (op, self.i, self.j, self.expression)


class ExtendedAutomaton:
    """A register automaton with global regular (in)equality constraints.

    Examples
    --------
    The paper's Example 5: one register, states ``p1`` (initial/accepting)
    and ``p2``, empty guards, and the equality constraint ``p1 p2* p1``
    forcing the register to carry the same value whenever the automaton is
    in ``p1``:

    >>> from repro.automata.regex import literal, star, concat
    >>> from repro.db import Signature
    >>> from repro.logic import SigmaType
    >>> empty = SigmaType()
    >>> B = RegisterAutomaton(1, Signature.empty(), {"p1", "p2"}, {"p1"},
    ...     {"p1"}, [("p1", empty, "p2"), ("p2", empty, "p2"),
    ...              ("p2", empty, "p1")])
    >>> e = concat(literal("p1"), star(literal("p2")), literal("p1"))
    >>> ext = ExtendedAutomaton(B, [GlobalConstraint("eq", 1, 1, e)])
    """

    def __init__(self, automaton: RegisterAutomaton, constraints: Iterable[GlobalConstraint]):
        self._automaton = automaton
        self._constraints = tuple(constraints)
        for constraint in self._constraints:
            if constraint.i > automaton.k or constraint.j > automaton.k:
                raise SpecificationError(
                    "constraint %r refers to registers beyond k=%d"
                    % (constraint, automaton.k)
                )

    @property
    def automaton(self) -> RegisterAutomaton:
        return self._automaton

    @property
    def constraints(self) -> Tuple[GlobalConstraint, ...]:
        return self._constraints

    @property
    def k(self) -> int:
        return self._automaton.k

    def equality_constraints(self) -> Tuple[GlobalConstraint, ...]:
        return tuple(c for c in self._constraints if c.kind == EQ)

    def inequality_constraints(self) -> Tuple[GlobalConstraint, ...]:
        return tuple(c for c in self._constraints if c.kind == NEQ)

    @cached_method("extended.constraint_dfa")
    def constraint_dfa(self, constraint: GlobalConstraint) -> Dfa:
        """The constraint's DFA over the automaton's state alphabet (cached
        per extended-automaton instance; see :mod:`repro.core.caching`)."""
        return constraint.compiled(self._automaton.states)

    # ------------------------------------------------------------------ #
    # constraint satisfaction on runs
    # ------------------------------------------------------------------ #

    def constraint_violation(self, run) -> Optional[str]:
        """Explain the first global-constraint violation on *run*.

        ``None`` when all constraints are satisfied.  For a
        :class:`FiniteRun`, every factor inside the prefix is checked; for a
        :class:`LassoRun` the check is *exhaustive over the infinite word*
        (see the module docstring).
        """
        for constraint in self._constraints:
            message = self._check_one(constraint, run)
            if message is not None:
                return message
        return None

    def satisfies_constraints(self, run) -> bool:
        """Whether *run* satisfies every global constraint."""
        return self.constraint_violation(run) is None

    def is_run(self, run, database) -> bool:
        """Whether *run* is a run of the underlying automaton that also
        satisfies the global constraints."""
        return run.is_valid(self._automaton, database) and self.satisfies_constraints(run)

    def _check_one(self, constraint: GlobalConstraint, run) -> Optional[str]:
        dfa = self.constraint_dfa(constraint)
        i, j = constraint.i, constraint.j
        want_equal = constraint.kind == EQ
        if isinstance(run, FiniteRun):
            states, data = run.states, run.data
            for start in range(len(states)):
                dfa_state = dfa.initial
                for end in range(start, len(states)):
                    dfa_state = dfa.delta(dfa_state, states[end])
                    if dfa_state in dfa.accepting:
                        if (data[start][i - 1] == data[end][j - 1]) != want_equal:
                            return self._violation_message(constraint, start, end, run)
            return None
        if isinstance(run, LassoRun):
            for start in range(len(run.states)):
                seen: Set[Tuple] = set()
                position = start
                dfa_state = dfa.initial
                while True:
                    dfa_state = dfa.delta(dfa_state, run.states[position])
                    if dfa_state in dfa.accepting:
                        left = run.data[start][i - 1]
                        right = run.data[position][j - 1]
                        if (left == right) != want_equal:
                            return self._violation_message(constraint, start, position, run)
                    key = (dfa_state, position)
                    position = run.successor(position)
                    if key in seen:
                        break
                    seen.add(key)
            return None
        raise SpecificationError("unknown run kind %r" % type(run))

    @staticmethod
    def _violation_message(constraint, start, end, run) -> str:
        return "constraint %r violated between positions %d and %d (states %r..%r)" % (
            constraint,
            start,
            end,
            run.states[start],
            run.states[end],
        )

    def __repr__(self) -> str:
        return "ExtendedAutomaton(%r, %d constraints)" % (
            self._automaton,
            len(self._constraints),
        )


# ---------------------------------------------------------------------- #
# Proposition 6: eliminating global equality constraints
# ---------------------------------------------------------------------- #


def _map_dfa_alphabet(dfa: Dfa, new_alphabet: Iterable, project) -> Dfa:
    """A DFA over *new_alphabet* simulating *dfa* through ``project``."""
    new_alphabet = frozenset(new_alphabet)
    transitions = {
        (state, symbol): dfa.delta(state, project(symbol))
        for state in dfa.states
        for symbol in new_alphabet
    }
    return Dfa(dfa.states, new_alphabet, transitions, dfa.initial, dfa.accepting)


def lift_constraints_to_states(
    constraints: Sequence[GlobalConstraint],
    old_states: FrozenSet[State],
    new_states: FrozenSet[State],
    project,
) -> List[GlobalConstraint]:
    """Rewrite constraints over old states as constraints over new states.

    Used whenever a construction refines the control state (Proposition 6,
    the product steps of Theorem 13): the constraint DFAs read the refined
    states through the projection ``project``.
    """
    lifted: List[GlobalConstraint] = []
    for constraint in constraints:
        dfa = constraint.compiled(old_states)
        lifted.append(
            GlobalConstraint(
                constraint.kind,
                constraint.i,
                constraint.j,
                _map_dfa_alphabet(dfa, new_states, project),
            )
        )
    return lifted


def restrict_extended(
    extended: ExtendedAutomaton, restricted: RegisterAutomaton
) -> ExtendedAutomaton:
    """*extended* re-targeted at *restricted*, a sub-automaton of its own.

    Returns *extended* itself when *restricted* is its automaton (so
    identity-keyed caches downstream stay warm).  Otherwise the constraint
    DFAs are remapped onto the surviving state alphabet with their state
    sets untouched: runs of *restricted* visit only surviving states, so
    every constraint accepts/rejects exactly the factors it did before,
    and downstream product constructions (Proposition 6, normalisation
    lifting) see identical DFA state names.
    """
    if restricted is extended.automaton:
        return extended
    constraints = [
        GlobalConstraint(
            constraint.kind,
            constraint.i,
            constraint.j,
            _map_dfa_alphabet(
                extended.constraint_dfa(constraint),
                restricted.states,
                lambda state: state,
            ),
        )
        for constraint in extended.constraints
    ]
    return ExtendedAutomaton(restricted, constraints)


def _normalisation_projection(original: RegisterAutomaton):
    """Map normalised states back to original states.

    Completion keeps states; the state-driven construction produces
    ``(state, guard)`` pairs (possibly nested if applied twice).  We peel
    pairs until we land in the original state set.
    """
    original_states = set(original.states)

    def back(state):
        while state not in original_states and isinstance(state, tuple) and len(state) == 2:
            state = state[0]
        if state not in original_states:
            raise SpecificationError(
                "cannot relate normalised state %r to an original state" % (state,)
            )
        return state

    return back


def register_scopes(
    automaton: RegisterAutomaton, kept: Optional[int]
) -> Optional[Dict[State, Tuple[int, ...]]]:
    """The registers in scope at each state, or ``None`` when all of them are.

    ``S(q)`` is registers ``1..kept``, plus every register that a guard
    into ``q`` mentions as ``y`` or a guard out of ``q`` mentions as ``x``.
    *kept* is the register count before Proposition 6 (its second value);
    the registers it adds hold a thread exactly where a guard reads or
    writes them, so elsewhere their value is free.  ``None`` (or
    ``kept >= k``) puts every register in scope.
    """
    if kept is None or kept >= automaton.k:
        return None
    always = range(1, kept + 1)
    scopes = {state: set(always) for state in automaton.states}
    for transition in automaton.transitions:
        for variable in transition.guard.variables:
            side, register = register_index(variable)
            if register > kept:
                scopes[transition.source if side == "x" else transition.target].add(register)
    return {state: tuple(sorted(registers)) for state, registers in scopes.items()}


def scoped_vocabulary(
    scopes: Dict[State, Tuple[int, ...]], transition: Transition
) -> Tuple[Var, ...]:
    """The variables a transition is completed over: ``x_S(source) y_S(target)``.

    The guard mentions no other variable, so each of its completions over
    this vocabulary entails it.
    """
    return tuple(X(r) for r in scopes[transition.source]) + tuple(
        Y(r) for r in scopes[transition.target]
    )


def _completed_in_scope(
    automaton: RegisterAutomaton, scopes: Dict[State, Tuple[int, ...]]
) -> RegisterAutomaton:
    """``completed()`` with each transition completed over its scoped vocabulary."""
    relations = automaton.signature.relations
    constants = automaton.signature.const_terms()
    transitions = [
        Transition(transition.source, completion, transition.target)
        for transition in automaton.transitions
        for completion in transition.guard.completions(
            relations, scoped_vocabulary(scopes, transition), constants
        )
    ]
    return RegisterAutomaton(
        automaton.k,
        automaton.signature,
        automaton.states,
        automaton.initial,
        automaton.accepting,
        transitions,
    )


def normalize_control(
    extended: ExtendedAutomaton, kept: Optional[int] = None
) -> ExtendedAutomaton:
    """Complete + state-driven control, with every constraint lifted.

    Returns *extended* itself when the control is already complete and
    state-driven.  Otherwise every guard is completed -- a complete guard
    too, so each complete type carries its one canonical literal set (see
    :meth:`~repro.logic.types.SigmaType.completions`), the form the coded
    kernel decodes -- and the states become ``(state, guard)`` pairs.
    This is the one normaliser of emptiness, verification, projection and
    LR analysis.  Equality constraints are lifted like the inequality
    ones: the emptiness pipeline calls this after Proposition 6 has
    removed them, while the LR window analyses honour them directly and
    so avoid the register blow-up of the elimination.

    *kept* scopes the completion (:func:`register_scopes`): emptiness and
    verification pass the register count before Proposition 6, and each
    transition is completed over :func:`scoped_vocabulary` only.  A run
    of the fully completed automaton stays a run when every out-of-scope
    value is replaced by a fresh one (no guard reads it, and constraints
    name registers ``1..kept`` only), so the scoped control has the same
    realisable traces.  Without *kept* -- projection, LR analysis,
    Theorem 24 -- every guard is completed over ``x1..xk, y1..yk``.
    """
    automaton = extended.automaton
    if automaton.is_complete() and automaton.is_state_driven():
        return extended
    scopes = register_scopes(automaton, kept)
    completed = automaton.completed() if scopes is None else _completed_in_scope(automaton, scopes)
    normalised = completed.state_driven()
    constraints = lift_constraints_to_states(
        extended.constraints,
        automaton.states,
        normalised.states,
        _normalisation_projection(automaton),
    )
    return ExtendedAutomaton(normalised, constraints)


def eliminate_equality_constraints(extended: ExtendedAutomaton) -> Tuple["ExtendedAutomaton", int]:
    """**Proposition 6**: compile global equality constraints into registers.

    Returns ``(B, k)`` where ``B`` is an extended automaton with *no*
    equality constraints and ``k`` is the original register count:
    ``Reg(D, extended) = Pi_k(Reg(D, B))`` for every database ``D``.

    Construction (following the paper's proof).  For each equality
    constraint ``e`` with deterministic automaton ``E``, ``B`` allocates one
    extra register per state of ``E``.  At every position ``B`` guesses, per
    constraint, whether the position is the source of a (future or
    immediate) match of ``e``:

    * a **yes** guess spawns a *tracking thread*: the value of register
      ``i`` at the spawn position is stored in the register associated with
      the thread's current DFA state and carried along as the DFA advances;
      whenever the thread's state is accepting, the guard forces register
      ``j`` to equal the stored value; two threads reaching the same DFA
      state force their stored values equal (one register per DFA state
      therefore suffices -- the paper's key observation);
    * a **no** guess spawns a *monitoring thread* without a register; if a
      monitoring thread ever reaches an accepting state the guess was wrong
      and that branch is aborted (no such transition exists in ``B``).

    Invariant.  In the control state reached at run position ``n``, each
    constraint carries ``(tracked, monitored)``: the DFA states of live
    threads *after reading* ``q_0 .. q_n``, and for every ``s`` in
    ``tracked`` the register of ``s`` holds the stored source value at
    position ``n``.  Spawning, propagation and enforcement at position
    ``n+1`` are all emitted as ``y``-literals on the transition from ``n``
    to ``n+1``; position 0 obligations are carried as pending ``x``-literals
    inside the (seed) initial control states and emitted on their outgoing
    transitions.

    Inequality constraints are lifted to the refined control states.
    """
    automaton = extended.automaton
    k = automaton.k
    equality = extended.equality_constraints()
    if not equality:
        return extended, k

    dfas = [extended.constraint_dfa(c) for c in equality]
    # Register layout: 1..k original; then one block per constraint with one
    # register per DFA state, in a fixed order.
    register_of: Dict[Tuple[int, object], int] = {}
    next_register = k + 1
    for index, dfa in enumerate(dfas):
        for state in sorted(dfa.states, key=repr):
            register_of[(index, state)] = next_register
            next_register += 1
    total_registers = next_register - 1

    def guess_combinations(position_state: State, configs_before):
        """Per-constraint spawn guesses at a position reading *position_state*.

        *configs_before* are the (tracked, monitored) sets already advanced
        over *position_state*; the spawned thread starts at
        ``delta(q0, position_state)``.  Yields ``(configs_after, spawned)``
        where ``spawned[index]`` is the spawn DFA state or ``None``.
        """
        per_constraint = []
        for index in range(len(equality)):
            dfa = dfas[index]
            tracked, monitored = configs_before[index]
            start = dfa.delta(dfa.initial, position_state)
            options = []
            # "no": monitor; abort immediately if the guess is already wrong.
            if start not in dfa.accepting:
                options.append(((tracked, monitored | {start}), None))
            # "yes": track.
            options.append(((tracked | {start}, monitored), start))
            per_constraint.append(options)
        for combo in cartesian_product(*per_constraint):
            yield tuple(c[0] for c in combo), tuple(c[1] for c in combo)

    def advance(configs, symbol) -> Optional[Tuple]:
        """Advance all threads over *symbol*; None aborts (monitor accepted)."""
        advanced = []
        for index in range(len(equality)):
            dfa = dfas[index]
            tracked, monitored = configs[index]
            new_monitored = frozenset(dfa.delta(s, symbol) for s in monitored)
            if new_monitored & dfa.accepting:
                return None
            advanced.append((frozenset(dfa.delta(s, symbol) for s in tracked), new_monitored))
        return tuple(advanced)

    def transfer_literals(configs, symbol) -> List:
        """Carry stored values along the advance (y-literals)."""
        literals: List = []
        for index in range(len(equality)):
            dfa = dfas[index]
            tracked, _monitored = configs[index]
            targets: Dict[object, List[object]] = {}
            for s in tracked:
                targets.setdefault(dfa.delta(s, symbol), []).append(s)
            for target, sources in sorted(targets.items(), key=lambda kv: repr(kv[0])):
                source_regs = sorted(register_of[(index, s)] for s in sources)
                for other in source_regs[1:]:
                    literals.append(lit_eq(X(source_regs[0]), X(other)))
                literals.append(lit_eq(Y(register_of[(index, target)]), X(source_regs[0])))
        return literals

    def position_literals(spawned, configs_after, var) -> List:
        """Spawn + enforcement obligations at one position.

        *var* is :func:`Y` for ordinary steps (obligations about the target
        position of a transition) and :func:`X` for position 0.
        """
        literals: List = []
        for index, constraint in enumerate(equality):
            dfa = dfas[index]
            spawn_state = spawned[index]
            if spawn_state is not None:
                literals.append(
                    lit_eq(var(register_of[(index, spawn_state)]), var(constraint.i))
                )
            tracked, _monitored = configs_after[index]
            for s in sorted(tracked & dfa.accepting, key=repr):
                literals.append(
                    lit_eq(var(constraint.j), var(register_of[(index, s)]))
                )
        return literals

    empty_configs = tuple((frozenset(), frozenset()) for _ in equality)

    # Seeds: position-0 guesses; pending x-literals are embedded in the state.
    initial_states: Set[Tuple] = set()
    worklist: List[Tuple] = []
    for q in sorted(automaton.initial, key=repr):
        for configs_after, spawned in guess_combinations(q, empty_configs):
            pending = tuple(position_literals(spawned, configs_after, X))
            seed = (q, configs_after, pending)
            initial_states.add(seed)
            worklist.append(seed)

    transitions: List[Transition] = []
    all_states: Set[Tuple] = set(initial_states)
    explored: Set[Tuple] = set()
    while worklist:
        b_state = worklist.pop()
        if b_state in explored:
            continue
        explored.add(b_state)
        automaton_state, configs, pending = b_state
        for transition in automaton.transitions_from(automaton_state):
            target_symbol = transition.target
            advanced = advance(configs, target_symbol)
            if advanced is None:
                continue
            carry = transfer_literals(configs, target_symbol)
            for final_configs, spawned in guess_combinations(target_symbol, advanced):
                literals = list(pending) + carry + position_literals(
                    spawned, final_configs, Y
                )
                try:
                    guard = transition.guard.with_literals(literals)
                except InconsistentTypeError:
                    continue  # contradictory obligations: this branch dies
                target = (target_symbol, final_configs, ())
                transitions.append(Transition(b_state, guard, target))
                if target not in all_states:
                    all_states.add(target)
                    worklist.append(target)

    accepting = {s for s in all_states if s[0] in automaton.accepting}
    new_automaton = RegisterAutomaton(
        total_registers,
        automaton.signature,
        all_states,
        initial_states,
        accepting,
        transitions,
    )
    lifted = lift_constraints_to_states(
        extended.inequality_constraints(),
        automaton.states,
        new_automaton.states,
        lambda b_state: b_state[0],
    )
    return ExtendedAutomaton(new_automaton, lifted), k
