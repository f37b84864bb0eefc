"""Enhanced automata: finiteness and tuple-inequality constraints (Section 6).

When the database is hidden, extended automata are not expressive enough to
describe projections (Example 23).  The paper adds two constraint kinds:

* **finiteness constraints** ``phi_fin``: an MSO-definable set of positions
  per register; the run must use only finitely many *values* at the selected
  positions.  Every MSO position property used by the paper (membership of
  ``(h, i)`` in the active-domain positions ``adom_w``) is determined by a
  regular property of the *prefix* ending at the position, so we represent
  selectors as prefix-acceptance DFAs over the state alphabet:
  position ``h`` is selected iff ``q_0 .. q_h`` is accepted.

* **tuple inequality constraints** ``phi_tup``: for selected pairs of anchor
  positions ``(a, b)``, the tuple of register values at offsets around ``a``
  must differ from the tuple at offsets around ``b``.  Anchor pairs are
  selected by a :class:`PairSelector`: ``(a, b)`` with ``a <= b`` is
  selected iff ``q_0 .. q_a`` matches the selector's *prefix* language and
  ``q_a .. q_b`` matches its *factor* language.  This captures the
  constraints of Theorem 24 (both are MSO-regular position properties) and
  generalises plain inequality constraints (arity-1 tuples, factor language
  = the constraint regex).

An :class:`EnhancedAutomaton` bundles a register automaton with global
equality constraints (inherited from extended automata), tuple-inequality
constraints and finiteness constraints -- exactly the vocabulary of
Theorem 24.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.automata.dfa import Dfa
from repro.automata.regex import Regex
from repro.foundations.errors import SpecificationError
from repro.core.caching import cached_method
from repro.core.extended import ExtendedAutomaton, GlobalConstraint
from repro.core.register_automaton import RegisterAutomaton
from repro.core.runs import FiniteRun, LassoRun


def _compile(expression, states: FrozenSet) -> Dfa:
    if isinstance(expression, Dfa):
        return expression
    if isinstance(expression, Regex):
        return expression.to_dfa(states)
    raise SpecificationError("expected a Regex or Dfa, got %r" % type(expression))


@dataclass(frozen=True)
class PairSelector:
    """A regular selector of ordered position pairs ``(a, b)``, ``a <= b``.

    ``(a, b)`` is selected iff the prefix ``q_0 .. q_a`` is in ``prefix``
    and the factor ``q_a .. q_b`` is in ``factor`` (both inclusive).
    """

    prefix: object
    factor: object

    def compiled(self, states: FrozenSet) -> Tuple[Dfa, Dfa]:
        return _compile(self.prefix, states), _compile(self.factor, states)


@dataclass(frozen=True)
class TupleInequalityConstraint:
    """``phi_tup``: tuples around selected anchor pairs must differ.

    Parameters
    ----------
    left / right:
        Sequences of ``(offset, register)`` pairs; the compared tuples are
        ``(d_{a+offset}[register], ...)`` and ``(d_{b+offset}[register],
        ...)``.  Both must have the same length (the paper's arity ``l``).
    selector:
        The :class:`PairSelector` choosing anchor pairs.
    """

    left: Tuple[Tuple[int, int], ...]
    right: Tuple[Tuple[int, int], ...]
    selector: PairSelector

    def __post_init__(self) -> None:
        if len(self.left) != len(self.right):
            raise SpecificationError("tuple inequality sides must have equal arity")
        for offset, register in tuple(self.left) + tuple(self.right):
            if offset < 0 or register < 1:
                raise SpecificationError(
                    "offsets must be >= 0 and registers >= 1, got (%d, %d)"
                    % (offset, register)
                )

    @property
    def arity(self) -> int:
        return len(self.left)

    def max_offset(self) -> int:
        return max(offset for offset, _register in tuple(self.left) + tuple(self.right))


@dataclass(frozen=True)
class FinitenessConstraint:
    """``phi_fin``: finitely many values of *register* at selected positions.

    Position ``h`` is selected iff the prefix ``q_0 .. q_h`` is accepted by
    *selector* (a prefix-acceptance DFA / regex over states).
    """

    register: int
    selector: object

    def __post_init__(self) -> None:
        if self.register < 1:
            raise SpecificationError("registers are numbered from 1")


class EnhancedAutomaton:
    """A register automaton with equality, tuple-inequality and finiteness
    constraints -- the model of Theorem 24.

    Plain inequality constraints of extended automata embed via
    :meth:`from_extended` (an inequality constraint is an arity-1 tuple
    inequality whose selector's prefix language is universal).
    """

    def __init__(
        self,
        automaton: RegisterAutomaton,
        equality_constraints: Iterable[GlobalConstraint] = (),
        tuple_constraints: Iterable[TupleInequalityConstraint] = (),
        finiteness_constraints: Iterable[FinitenessConstraint] = (),
    ):
        self._automaton = automaton
        self._equality = tuple(equality_constraints)
        for constraint in self._equality:
            if constraint.kind != "eq":
                raise SpecificationError(
                    "only equality GlobalConstraints belong here; express "
                    "inequalities as TupleInequalityConstraints"
                )
        self._tuples = tuple(tuple_constraints)
        self._finiteness = tuple(finiteness_constraints)
        for constraint in self._tuples:
            for _offset, register in constraint.left + constraint.right:
                if register > automaton.k:
                    raise SpecificationError(
                        "tuple constraint register %d beyond k=%d" % (register, automaton.k)
                    )
        for constraint in self._finiteness:
            if constraint.register > automaton.k:
                raise SpecificationError(
                    "finiteness constraint register %d beyond k=%d"
                    % (constraint.register, automaton.k)
                )

    @staticmethod
    def from_extended(extended: ExtendedAutomaton) -> "EnhancedAutomaton":
        """Embed an extended automaton: its inequality constraints become
        arity-1 tuple constraints (Theorem 24 embeds Theorem 13's view so)."""
        prefix = Dfa.universal(extended.automaton.states)
        tuples = [
            TupleInequalityConstraint(
                left=((0, constraint.i),),
                right=((0, constraint.j),),
                selector=PairSelector(prefix=prefix, factor=constraint.expression),
            )
            for constraint in extended.inequality_constraints()
        ]
        return EnhancedAutomaton(
            extended.automaton,
            equality_constraints=extended.equality_constraints(),
            tuple_constraints=tuples,
        )

    @property
    def automaton(self) -> RegisterAutomaton:
        return self._automaton

    @property
    def k(self) -> int:
        return self._automaton.k

    @property
    def equality_constraints(self) -> Tuple[GlobalConstraint, ...]:
        return self._equality

    @property
    def tuple_constraints(self) -> Tuple[TupleInequalityConstraint, ...]:
        return self._tuples

    @property
    def finiteness_constraints(self) -> Tuple[FinitenessConstraint, ...]:
        return self._finiteness

    # ------------------------------------------------------------------ #
    # satisfaction
    # ------------------------------------------------------------------ #

    @cached_method("enhanced.compiled_selector", key=lambda key, expression: key)
    def _compiled(self, key, expression) -> Dfa:
        return _compile(expression, self._automaton.states)

    def constraint_violation(self, run) -> Optional[str]:
        """The first violated constraint on *run*, or ``None``.

        Equality constraints are delegated to the extended-automaton
        checker.  Tuple-inequality and finiteness checks are exact on
        :class:`LassoRun` witnesses; on :class:`FiniteRun` prefixes, pairs
        whose offsets fall outside the prefix are (necessarily) skipped and
        finiteness is vacuous.
        """
        if self._equality:
            helper = ExtendedAutomaton(self._automaton, self._equality)
            message = helper.constraint_violation(run)
            if message is not None:
                return message
        for index, constraint in enumerate(self._tuples):
            message = self._check_tuple(index, constraint, run)
            if message is not None:
                return message
        # Finiteness: on a lasso the selected values form a finite set by
        # periodicity, so the constraint always holds; on a finite prefix it
        # is vacuous.  (It bites on non-periodic run schemes, which the
        # emptiness machinery handles symbolically.)
        return None

    def satisfies_constraints(self, run) -> bool:
        return self.constraint_violation(run) is None

    def is_run(self, run, database) -> bool:
        return run.is_valid(self._automaton, database) and self.satisfies_constraints(run)

    def selected_values(self, constraint: FinitenessConstraint, run: FiniteRun) -> List:
        """The values of the constraint's register at selected positions."""
        dfa = self._compiled(("fin", constraint), constraint.selector)
        values: List = []
        state = dfa.initial
        for position in range(len(run.states)):
            state = dfa.delta(state, run.states[position])
            if state in dfa.accepting:
                values.append(run.data[position][constraint.register - 1])
        return values

    def _check_tuple(self, index, constraint: TupleInequalityConstraint, run) -> Optional[str]:
        prefix_dfa, factor_dfa = constraint.selector.compiled(self._automaton.states)
        prefix_dfa = self._compiled(("tup-p", index), prefix_dfa)
        factor_dfa = self._compiled(("tup-f", index), factor_dfa)
        reach = constraint.max_offset()

        def tuple_at(anchor_positions, side) -> Optional[Tuple]:
            values = []
            for offset, register in side:
                position = anchor_positions(offset)
                if position is None:
                    return None
                values.append(run.data[position][register - 1])
            return tuple(values)

        if isinstance(run, FiniteRun):
            n = len(run.states)
            prefix_state = prefix_dfa.initial
            for a in range(n):
                prefix_state = prefix_dfa.delta(prefix_state, run.states[a])
                if prefix_state not in prefix_dfa.accepting:
                    continue
                factor_state = factor_dfa.initial
                for b in range(a, n):
                    factor_state = factor_dfa.delta(factor_state, run.states[b])
                    if factor_state not in factor_dfa.accepting:
                        continue
                    left = tuple_at(
                        lambda o, _a=a: _a + o if _a + o < n else None, constraint.left
                    )
                    right = tuple_at(
                        lambda o, _b=b: _b + o if _b + o < n else None, constraint.right
                    )
                    if left is None or right is None:
                        continue
                    if left == right:
                        return (
                            "tuple inequality %d violated at anchors (%d, %d): both sides %r"
                            % (index, a, b, left)
                        )
            return None

        if isinstance(run, LassoRun):
            # Enumerate distinct anchor behaviours by cycle detection.
            n = len(run.states)

            def advance(position: int) -> int:
                return run.successor(position)

            def offset_position(anchor: int, offset: int) -> Optional[int]:
                position = anchor
                for _ in range(offset):
                    position = advance(position)
                return position

            seen_a: Set[Tuple] = set()
            prefix_state = prefix_dfa.initial
            a = 0
            steps = 0
            while steps <= n * prefix_dfa.size() + 1:
                prefix_state = prefix_dfa.delta(prefix_state, run.states[a])
                key_a = (prefix_state, a)
                if key_a in seen_a:
                    break
                seen_a.add(key_a)
                if prefix_state in prefix_dfa.accepting:
                    message = self._lasso_factor_scan(
                        index, constraint, run, factor_dfa, a, offset_position
                    )
                    if message is not None:
                        return message
                a = advance(a)
                steps += 1
            return None
        raise SpecificationError("unknown run kind %r" % type(run))

    def _lasso_factor_scan(
        self, index, constraint, run: LassoRun, factor_dfa: Dfa, anchor: int, offset_position
    ) -> Optional[str]:
        seen: Set[Tuple] = set()
        factor_state = factor_dfa.initial
        b = anchor
        while True:
            factor_state = factor_dfa.delta(factor_state, run.states[b])
            if factor_state in factor_dfa.accepting:
                left = tuple(
                    run.data[offset_position(anchor, o)][r - 1] for o, r in constraint.left
                )
                right = tuple(
                    run.data[offset_position(b, o)][r - 1] for o, r in constraint.right
                )
                if left == right:
                    return (
                        "tuple inequality %d violated at anchors (%d, %d): both sides %r"
                        % (index, anchor, b, left)
                    )
            key = (factor_state, b)
            b = run.successor(b)
            if key in seen:
                return None
            seen.add(key)

    def __repr__(self) -> str:
        return "EnhancedAutomaton(%r, eq=%d, tup=%d, fin=%d)" % (
            self._automaton,
            len(self._equality),
            len(self._tuples),
            len(self._finiteness),
        )
