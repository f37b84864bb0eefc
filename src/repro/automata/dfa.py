"""Deterministic finite automata.

Total DFAs over an explicit alphabet, with the classical toolbox: product
constructions, complement, Moore minimisation, emptiness with witness, and
language equivalence.  The projection machinery of Sections 4-6 manipulates
the constraint regexes through these operations.
"""

from typing import Collection, Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.foundations.errors import SpecificationError

State = Hashable


class Dfa:
    """A complete DFA.

    Parameters
    ----------
    states / alphabet / transitions / initial / accepting:
        ``transitions[(state, symbol)]`` must be defined for every state and
        symbol (totality is validated).
    """

    def __init__(
        self,
        states: Iterable[State],
        alphabet: Iterable,
        transitions: Dict[Tuple[State, object], State],
        initial: State,
        accepting: Iterable[State],
    ):
        self._states = frozenset(states)
        self._alphabet = frozenset(alphabet)
        self._transitions = dict(transitions)
        self._initial = initial
        self._accepting = frozenset(accepting)
        if initial not in self._states:
            raise SpecificationError("initial state %r not in state set" % (initial,))
        if not self._accepting <= self._states:
            raise SpecificationError("accepting states not a subset of the state set")
        for state in self._states:
            for symbol in self._alphabet:
                if (state, symbol) not in self._transitions:
                    raise SpecificationError(
                        "DFA transition missing for state %r, symbol %r" % (state, symbol)
                    )
                if self._transitions[(state, symbol)] not in self._states:
                    raise SpecificationError(
                        "DFA transition target outside state set at %r/%r" % (state, symbol)
                    )

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def states(self) -> FrozenSet[State]:
        return self._states

    @property
    def alphabet(self) -> FrozenSet:
        return self._alphabet

    @property
    def initial(self) -> State:
        return self._initial

    @property
    def accepting(self) -> FrozenSet[State]:
        return self._accepting

    def delta(self, state: State, symbol) -> State:
        """One transition step."""
        try:
            return self._transitions[(state, symbol)]
        except KeyError:
            raise SpecificationError(
                "symbol %r outside the DFA alphabet %r" % (symbol, sorted(map(repr, self._alphabet)))
            )

    def run(self, word: Sequence, start: State = None) -> State:
        """The state reached after reading *word* (from *start* or initial)."""
        state = self._initial if start is None else start
        for symbol in word:
            state = self.delta(state, symbol)
        return state

    def accepts(self, word: Sequence) -> bool:
        """Whether the DFA accepts the finite *word*."""
        return self.run(word) in self._accepting

    def size(self) -> int:
        return len(self._states)

    def structural_key(self) -> Tuple:
        """A value-based fingerprint of this DFA (lazily computed, cached).

        Two DFAs with the same states, alphabet, transitions, initial and
        accepting sets share the key; distinct objects with the same
        structure therefore deduplicate.  Use this -- never the object id --
        when a DFA participates in a cache or dedup key: object ids are
        recycled after garbage collection, structural keys are not.
        """
        cached = getattr(self, "_structural_key", None)
        if cached is None:
            cached = (
                self._initial,
                self._accepting,
                self._alphabet,
                frozenset(self._transitions.items()),
            )
            self._structural_key = cached
        return cached

    # ------------------------------------------------------------------ #
    # language operations
    # ------------------------------------------------------------------ #

    def complement(self) -> "Dfa":
        """The DFA for the complement language."""
        return Dfa(
            self._states,
            self._alphabet,
            self._transitions,
            self._initial,
            self._states - self._accepting,
        )

    def _product(self, other: "Dfa", accept_rule) -> "Dfa":
        if self._alphabet != other._alphabet:
            raise SpecificationError("product requires identical alphabets")
        initial = (self._initial, other._initial)
        index: Dict[Tuple[State, State], Tuple[State, State]] = {initial: initial}
        worklist: List[Tuple[State, State]] = [initial]
        transitions: Dict[Tuple[Tuple[State, State], object], Tuple[State, State]] = {}
        while worklist:
            pair = worklist.pop()
            for symbol in self._alphabet:
                target = (self.delta(pair[0], symbol), other.delta(pair[1], symbol))
                if target not in index:
                    index[target] = target
                    worklist.append(target)
                transitions[(pair, symbol)] = target
        states = frozenset(index)
        accepting = frozenset(
            pair
            for pair in states
            if accept_rule(pair[0] in self._accepting, pair[1] in other._accepting)
        )
        return Dfa(states, self._alphabet, transitions, initial, accepting)

    def intersect(self, other: "Dfa") -> "Dfa":
        """Product DFA for the intersection."""
        return self._product(other, lambda a, b: a and b)

    def union(self, other: "Dfa") -> "Dfa":
        """Product DFA for the union."""
        return self._product(other, lambda a, b: a or b)

    def difference(self, other: "Dfa") -> "Dfa":
        """Product DFA for ``L(self) - L(other)``."""
        return self._product(other, lambda a, b: a and not b)

    # ------------------------------------------------------------------ #
    # decision procedures
    # ------------------------------------------------------------------ #

    def reachable_states(self) -> FrozenSet[State]:
        """States reachable from the initial state."""
        transitions = self._transitions
        seen = {self._initial}
        frontier = [self._initial]
        while frontier:
            state = frontier.pop()
            for symbol in self._alphabet:
                target = transitions[(state, symbol)]
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return frozenset(seen)

    def is_empty(self) -> bool:
        """Whether the language is empty."""
        return not (self.reachable_states() & self._accepting)

    def shortest_accepted(self) -> Optional[Tuple]:
        """A shortest accepted word, or ``None`` when the language is empty."""
        if self._initial in self._accepting:
            return ()
        parent: Dict[State, Tuple[State, object]] = {}
        seen = {self._initial}
        frontier = [self._initial]
        while frontier:
            next_frontier = []
            for state in frontier:
                for symbol in sorted(self._alphabet, key=repr):
                    target = self.delta(state, symbol)
                    if target in seen:
                        continue
                    seen.add(target)
                    parent[target] = (state, symbol)
                    if target in self._accepting:
                        word: List = []
                        node = target
                        while node in parent:
                            node, symbol_back = parent[node]
                            word.append(symbol_back)
                        return tuple(reversed(word))
                    next_frontier.append(target)
            frontier = next_frontier
        return None

    def equivalent(self, other: "Dfa") -> bool:
        """Language equivalence (via symmetric difference emptiness)."""
        return self.difference(other).is_empty() and other.difference(self).is_empty()

    # ------------------------------------------------------------------ #
    # minimisation
    # ------------------------------------------------------------------ #

    def minimize(self) -> "Dfa":
        """Moore's partition-refinement minimisation over reachable states.

        Returns a DFA with integer states; state 0 is initial, and the
        other blocks are numbered in ``repr`` order of their first
        reachable state.  The reachable states are indexed once, in
        ``repr`` order, and refined as integer rows by
        :meth:`minimal_from_rows`.
        """
        transitions = self._transitions
        reachable = sorted(self.reachable_states(), key=repr)
        symbols = sorted(self._alphabet, key=repr)
        index = {state: position for position, state in enumerate(reachable)}
        return Dfa.minimal_from_rows(
            self._alphabet,
            [[index[transitions[(state, symbol)]] for symbol in symbols] for state in reachable],
            index[self._initial],
            [state in self._accepting for state in reachable],
        )

    @staticmethod
    def minimal_from_rows(
        alphabet: Collection, rows: Sequence[Sequence[int]], initial: int, accepting: Sequence[bool]
    ) -> "Dfa":
        """The minimal DFA of an integer transition table.

        ``rows[s][a]`` is the row reached from row ``s`` on the ``a``-th
        symbol of *alphabet* in ``repr`` order, ``accepting[s]`` flags
        acceptance, and every row must be reachable from row *initial*.
        Moore refinement runs on block numbers until the number of blocks
        stops growing.  States are integers: the initial block is 0, the
        others are numbered by their first row.
        """
        symbols = sorted(alphabet, key=repr)
        block = [1 if flag else 0 for flag in accepting]
        count = len(set(block))
        while True:
            signatures: Dict[Tuple, int] = {}
            lookup = block.__getitem__
            block = [
                signatures.setdefault((own,) + tuple(map(lookup, row)), len(signatures))
                for own, row in zip(block, rows)
            ]
            # Each round refines the last, so an unchanged count is a fixpoint.
            if len(signatures) == count:
                break
            count = len(signatures)
        number: Dict[int, int] = {block[initial]: 0}
        for own in block:
            if own not in number:
                number[own] = len(number)
        transitions: Dict[Tuple[int, object], int] = {}
        emitted: Set[int] = set()
        for own, row in zip(block, rows):
            if own in emitted:
                continue
            emitted.add(own)
            source = number[own]
            for symbol, target in zip(symbols, row):
                transitions[(source, symbol)] = number[block[target]]
        return Dfa(
            states=frozenset(range(len(number))),
            alphabet=alphabet,
            transitions=transitions,
            initial=0,
            accepting=frozenset(
                number[own] for own, flag in zip(block, accepting) if flag
            ),
        )

    # ------------------------------------------------------------------ #
    # helpers for omega-reasoning on lassos
    # ------------------------------------------------------------------ #

    def period_transform(self, period: Sequence) -> Dict[State, State]:
        """The function ``q -> delta*(q, period)`` on all states.

        Used when analysing which factors of a lasso word match a constraint
        regex: reading one full period acts on DFA states as this function.
        """
        return {state: self.run(period, start=state) for state in self._states}

    @staticmethod
    def universal(alphabet: Iterable) -> "Dfa":
        """The one-state DFA accepting every word over *alphabet*."""
        alphabet = frozenset(alphabet)
        return Dfa(
            states={0},
            alphabet=alphabet,
            transitions={(0, symbol): 0 for symbol in alphabet},
            initial=0,
            accepting={0},
        )

    @staticmethod
    def empty_language(alphabet: Iterable) -> "Dfa":
        """The one-state DFA rejecting every word over *alphabet*."""
        alphabet = frozenset(alphabet)
        return Dfa(
            states={0},
            alphabet=alphabet,
            transitions={(0, symbol): 0 for symbol in alphabet},
            initial=0,
            accepting=frozenset(),
        )

    def __repr__(self) -> str:
        return "Dfa(%d states, %d symbols, %d accepting)" % (
            len(self._states),
            len(self._alphabet),
            len(self._accepting),
        )
