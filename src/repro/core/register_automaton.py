"""Register automata (Section 2).

A register automaton is a tuple ``(k, sigma, Q, I, F, Delta)``: ``k``
registers, a relational signature, states with initial states ``I`` and
Buchi-final states ``F``, and transitions ``(p, delta, q)`` whose guard
``delta`` is a sigma-type over ``x1..xk`` (registers before) and ``y1..yk``
(registers after).

This module implements the model itself plus the two normal forms the paper
uses throughout:

* **completion** (Example 2) -- replace every guard by its complete
  extensions; exponential, preserves the register traces;
* **state-driven** conversion (Example 3) -- at most one guard per source
  state, quadratic, preserves the register traces.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

from repro.db.schema import Signature
from repro.foundations.diagnostics import Diagnostic, error
from repro.foundations.errors import SpecificationError
from repro.logic.terms import Const, Var, register_index, x_vars, y_vars
from repro.logic.types import SigmaType
from repro.core.caching import AutomatonIndex, cached_method

State = Hashable


@dataclass(frozen=True)
class Transition:
    """A transition ``(source, guard, target)``.

    The guard relates the registers before (``x``) and after (``y``) the
    transition and may query the database through relational literals.
    """

    source: State
    guard: SigmaType
    target: State

    def __repr__(self) -> str:
        return "(%r --[%s]--> %r)" % (self.source, self.guard.pretty(), self.target)


class RegisterAutomaton:
    """A database-driven register automaton.

    Parameters
    ----------
    k:
        Number of registers (may be zero).
    signature:
        The database schema queried by the guards
        (:meth:`Signature.empty` for the database-free setting of
        Sections 4-5).
    states / initial / accepting:
        Finite control with Buchi acceptance: a run must start in an
        initial state and visit an accepting state infinitely often.
    transitions:
        The transition set.

    Examples
    --------
    The paper's Example 1 (2 registers, no database):

    >>> from repro.logic import X, Y, eq, SigmaType
    >>> d1 = SigmaType([eq(X(1), X(2)), eq(X(2), Y(2))])
    >>> d2 = SigmaType([eq(X(2), Y(2))])
    >>> d3 = SigmaType([eq(X(2), Y(2)), eq(Y(1), Y(2))])
    >>> A = RegisterAutomaton(
    ...     k=2, signature=Signature.empty(),
    ...     states={"q1", "q2"}, initial={"q1"}, accepting={"q1"},
    ...     transitions=[("q1", d1, "q2"), ("q2", d2, "q2"), ("q2", d3, "q1")],
    ... )
    >>> A.k, len(A.transitions)
    (2, 3)
    """

    def __init__(
        self,
        k: int,
        signature: Signature,
        states: Iterable[State],
        initial: Iterable[State],
        accepting: Iterable[State],
        transitions: Iterable,
    ):
        if k < 0:
            raise SpecificationError("the number of registers must be >= 0")
        self._k = k
        self._signature = signature
        self._states = frozenset(states)
        self._initial = frozenset(initial)
        self._accepting = frozenset(accepting)
        normalized: List[Transition] = []
        for entry in transitions:
            transition = entry if isinstance(entry, Transition) else Transition(*entry)
            normalized.append(transition)
        self._transitions: Tuple[Transition, ...] = tuple(normalized)
        self._validate()

    def _validate(self) -> None:
        diagnostics = self.structural_diagnostics()
        if diagnostics:
            raise SpecificationError.from_diagnostics(diagnostics)

    def structural_diagnostics(self) -> List[Diagnostic]:
        """Structural well-formedness findings, as stable-coded diagnostics.

        This is the single codepath behind both construction-time
        validation (:class:`SpecificationError` raised with these
        diagnostics attached) and the ``structure`` pass of
        :mod:`repro.analysis`.  An automaton built through the public
        constructor is clean by construction; the analysis pass re-checks
        so that automata assembled by other means (deserialisation,
        subclass shortcuts) get the same scrutiny.
        """
        diagnostics: List[Diagnostic] = []
        for state in sorted(self._initial - self._states, key=repr):
            diagnostics.append(
                error("RA001", "initial state %r is not a state" % (state,))
            )
        for state in sorted(self._accepting - self._states, key=repr):
            diagnostics.append(
                error("RA002", "accepting state %r is not a state" % (state,))
            )
        constants = set(self._signature.const_terms())
        register_vars = set(x_vars(self._k)) | set(y_vars(self._k))
        for transition in self._transitions:
            # Rendering a transition (its guard included) is far more
            # expensive than checking it; build the location string only
            # when a diagnostic actually needs it.
            location: Optional[str] = None

            def where() -> str:
                nonlocal location
                if location is None:
                    location = repr(transition)
                return location

            if transition.source not in self._states or transition.target not in self._states:
                diagnostics.append(
                    error("RA003", "transition uses unknown states", where())
                )
            guard = transition.guard
            if not guard.variables <= register_vars:
                for variable in sorted(guard.variables):
                    decomposed = register_index(variable)
                    if decomposed is None or variable not in register_vars:
                        diagnostics.append(
                            error(
                                "RA004",
                                "guard variable %r is not a register variable "
                                "x1..x%d / y1..y%d" % (variable, self._k, self._k),
                                where(),
                            )
                        )
            for constant in sorted(guard.constants):
                if constant not in constants:
                    diagnostics.append(
                        error(
                            "RA005",
                            "guard constant %r is not declared in the signature"
                            % (constant,),
                            where(),
                        )
                    )
            for literal in guard.relational_literals():
                try:
                    self._signature.validate_atom(literal.atom)
                except SpecificationError as failure:
                    diagnostics.append(error("RA006", str(failure), where()))
        return diagnostics

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def k(self) -> int:
        return self._k

    @property
    def signature(self) -> Signature:
        return self._signature

    @property
    def states(self) -> FrozenSet[State]:
        return self._states

    @property
    def initial(self) -> FrozenSet[State]:
        return self._initial

    @property
    def accepting(self) -> FrozenSet[State]:
        return self._accepting

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        return self._transitions

    @cached_property
    def index(self) -> AutomatonIndex:
        """The precomputed transition tables (see :mod:`repro.core.caching`)."""
        return AutomatonIndex.of(self)

    def transitions_from(self, state: State) -> Tuple[Transition, ...]:
        """All transitions whose source is *state*."""
        return self.index.transitions_from(state)

    def transitions_between(self, source: State, target: State) -> Tuple[Transition, ...]:
        """All transitions from *source* to *target* (indexed, not scanned)."""
        return self.index.transitions_between(source, target)

    def transitions_with_guard(self, source: State, guard: SigmaType) -> Tuple[Transition, ...]:
        """All transitions from *source* firing exactly *guard*."""
        return self.index.transitions_with_guard(source, guard)

    def guards_from(self, state: State) -> Tuple[SigmaType, ...]:
        """The distinct guards fired from *state* (ordered deterministically)."""
        seen = dict.fromkeys(t.guard for t in self.transitions_from(state))
        return tuple(seen)

    def has_transition(self, source: State, guard: SigmaType, target: State) -> bool:
        return Transition(source, guard, target) in set(self._transitions)

    @cached_method("automaton.guard_vocabulary")
    def guard_vocabulary(self) -> Tuple[Tuple[Var, ...], Tuple[Const, ...]]:
        """The (variables, constants) over which guards are complete.

        Cached per automaton instance (``CacheStats`` name
        ``automaton.guard_vocabulary``): the completeness predicates and the
        completion loops below ask for it once per guard, and rebuilding
        ``2k`` interned variables plus the constant tuple each time showed
        up in normalisation profiles.  The memo holds interned terms but is
        keyed by the automaton instance and dies with it, so an intern-table
        clear cannot serve stale values to new automata (MC001).
        """
        variables = tuple(x_vars(self._k)) + tuple(y_vars(self._k))
        return variables, self._signature.const_terms()

    # ------------------------------------------------------------------ #
    # completion (Example 2)
    # ------------------------------------------------------------------ #

    def is_complete(self) -> bool:
        """Whether every guard is a complete sigma-type."""
        variables, constants = self.guard_vocabulary()
        return all(
            t.guard.is_complete(self._signature.relations, variables, constants)
            for t in self._transitions
        )

    def completed(self) -> "RegisterAutomaton":
        """The complete automaton: each transition split over guard completions.

        As the paper notes, this may blow up exponentially; register traces
        are preserved because completions partition the models of the guard.
        """
        variables, constants = self.guard_vocabulary()
        new_transitions: List[Transition] = []
        for transition in self._transitions:
            for completion in transition.guard.completions(
                self._signature.relations, variables, constants
            ):
                new_transitions.append(
                    Transition(transition.source, completion, transition.target)
                )
        return RegisterAutomaton(
            self._k,
            self._signature,
            self._states,
            self._initial,
            self._accepting,
            new_transitions,
        )

    def is_equality_complete(self) -> bool:
        """Whether every guard settles every variable (dis)equality.

        Weaker than :meth:`is_complete`: relational atoms may stay open.
        Sufficient for all corridor-tracking constructions (Lemma 21,
        Theorem 24), which only read the equality skeleton of guards.
        """
        variables, constants = self.guard_vocabulary()
        return all(
            t.guard.is_complete({}, variables, constants) for t in self._transitions
        )

    def equality_completed(self) -> "RegisterAutomaton":
        """Split transitions over completions of the *equality* skeleton.

        Settles every variable/variable and variable/constant pair while
        leaving relational atoms untouched -- exponential only in the number
        of registers, not in the relational vocabulary.  Register traces are
        preserved.
        """
        variables, constants = self.guard_vocabulary()
        new_transitions: List[Transition] = []
        for transition in self._transitions:
            for completion in transition.guard.completions({}, variables, constants):
                new_transitions.append(
                    Transition(transition.source, completion, transition.target)
                )
        return RegisterAutomaton(
            self._k,
            self._signature,
            self._states,
            self._initial,
            self._accepting,
            new_transitions,
        )

    # ------------------------------------------------------------------ #
    # state-driven conversion (Example 3)
    # ------------------------------------------------------------------ #

    def is_state_driven(self) -> bool:
        """Whether each state fires at most one guard."""
        return all(len(self.guards_from(state)) <= 1 for state in self._states)

    def state_driven(self) -> "RegisterAutomaton":
        """The state-driven variant: states become ``(state, guard)`` pairs.

        The new state ``(p, delta)`` means "in control state p, about to
        fire delta".  Quadratic in the worst case; register traces are
        preserved (Example 3).
        """
        # dict.fromkeys, not a set comprehension: the pairs feed the state
        # and initial/accepting sets below (frozensets, order-free) but are
        # also what callers iterate when inspecting the result, so keep the
        # deterministic first-occurrence order (ORD001).
        pairs = dict.fromkeys((t.source, t.guard) for t in self._transitions)
        new_transitions: List[Transition] = []
        for transition in self._transitions:
            source_pair = (transition.source, transition.guard)
            for follow in self.transitions_from(transition.target):
                new_transitions.append(
                    Transition(source_pair, transition.guard, (follow.source, follow.guard))
                )
        new_initial = [pair for pair in pairs if pair[0] in self._initial]
        new_accepting = [pair for pair in pairs if pair[0] in self._accepting]
        return RegisterAutomaton(
            self._k,
            self._signature,
            pairs,
            new_initial,
            new_accepting,
            new_transitions,
        )

    def guard_of_state(self, state: State) -> Optional[SigmaType]:
        """In a state-driven automaton, the unique guard fired from *state*.

        ``None`` when the state is terminal (fires nothing).  Raises when
        the automaton is not state-driven at *state*.
        """
        guards = self.guards_from(state)
        if len(guards) > 1:
            raise SpecificationError(
                "state %r fires %d distinct guards; automaton is not "
                "state-driven there" % (state, len(guards))
            )
        return guards[0] if guards else None

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def restricted(
        self,
        states: Iterable[State],
        transitions: Optional[Iterable] = None,
    ) -> "RegisterAutomaton":
        """The sub-automaton induced by *states* (and optionally *transitions*).

        Keeps the given states, intersects initial/accepting with them, and
        drops every transition with an endpoint outside.  When *transitions*
        is given it further restricts to that set (endpoints must still be
        kept states).  Used by :mod:`repro.core.pruning` to drop
        proved-dead control; the result is a plain automaton with the same
        ``k`` and signature.
        """
        kept_states = frozenset(states)
        if transitions is None:
            kept_transitions = self._transitions
        else:
            kept_set = {
                entry if isinstance(entry, Transition) else Transition(*entry)
                for entry in transitions
            }
            kept_transitions = tuple(t for t in self._transitions if t in kept_set)
        return RegisterAutomaton(
            self._k,
            self._signature,
            kept_states,
            self._initial & kept_states,
            self._accepting & kept_states,
            (
                t
                for t in kept_transitions
                if t.source in kept_states and t.target in kept_states
            ),
        )

    def rename_states(self, mapping: Dict[State, State]) -> "RegisterAutomaton":
        """Apply an injective state renaming."""
        image = [mapping.get(s, s) for s in self._states]
        if len(set(image)) != len(image):
            raise SpecificationError("state renaming is not injective")
        get = lambda s: mapping.get(s, s)
        return RegisterAutomaton(
            self._k,
            self._signature,
            (get(s) for s in self._states),
            (get(s) for s in self._initial),
            (get(s) for s in self._accepting),
            (Transition(get(t.source), t.guard, get(t.target)) for t in self._transitions),
        )

    def __repr__(self) -> str:
        return "RegisterAutomaton(k=%d, |Q|=%d, |Delta|=%d, sigma=%r)" % (
            self._k,
            len(self._states),
            len(self._transitions),
            self._signature,
        )
