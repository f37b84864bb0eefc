"""Nondeterministic finite automata with epsilon transitions.

Built by the Thompson construction from regular expressions; determinised by
the subset construction.  States are opaque integers allocated internally;
symbols are arbitrary hashable objects.
"""

from typing import Dict, FrozenSet, Iterable, Sequence, Set, Tuple

#: Sentinel for epsilon transitions.
EPSILON = object()


class Nfa:
    """An NFA with epsilon moves.

    Parameters
    ----------
    transitions:
        ``transitions[state][symbol]`` is the set of successor states;
        the symbol may be :data:`EPSILON`.
    initial:
        Set of initial states.
    accepting:
        Set of accepting states.
    """

    def __init__(
        self,
        transitions: Dict[int, Dict[object, Set[int]]],
        initial: Iterable[int],
        accepting: Iterable[int],
    ):
        self._transitions = {
            state: {symbol: frozenset(targets) for symbol, targets in moves.items()}
            for state, moves in transitions.items()
        }
        self._initial = frozenset(initial)
        self._accepting = frozenset(accepting)

    @property
    def initial(self) -> FrozenSet[int]:
        return self._initial

    @property
    def accepting(self) -> FrozenSet[int]:
        return self._accepting

    def states(self) -> FrozenSet[int]:
        found = set(self._initial) | set(self._accepting) | set(self._transitions)
        for moves in self._transitions.values():
            for targets in moves.values():
                found.update(targets)
        return frozenset(found)

    def symbols(self) -> FrozenSet:
        found = set()
        for moves in self._transitions.values():
            for symbol in moves:
                if symbol is not EPSILON:
                    found.add(symbol)
        return frozenset(found)

    # ------------------------------------------------------------------ #
    # semantics
    # ------------------------------------------------------------------ #

    def epsilon_closure(self, states: Iterable[int]) -> FrozenSet[int]:
        """All states reachable via epsilon moves from *states*."""
        closure = set(states)
        frontier = list(closure)
        while frontier:
            state = frontier.pop()
            for target in self._transitions.get(state, {}).get(EPSILON, ()):
                if target not in closure:
                    closure.add(target)
                    frontier.append(target)
        return frozenset(closure)

    def step(self, states: Iterable[int], symbol) -> FrozenSet[int]:
        """One symbol move (with epsilon closure applied afterwards)."""
        moved: Set[int] = set()
        for state in states:
            moved.update(self._transitions.get(state, {}).get(symbol, ()))
        return self.epsilon_closure(moved)

    def accepts(self, word: Sequence) -> bool:
        """Whether the NFA accepts the finite *word*."""
        current = self.epsilon_closure(self._initial)
        for symbol in word:
            current = self.step(current, symbol)
            if not current:
                return False
        return bool(current & self._accepting)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_regex(expression) -> "Nfa":
        """Thompson construction: one initial, one accepting state."""
        from repro.automata.regex import Concat, EmptyLanguage, Epsilon, Star, Symbol, Union

        counter = [0]

        def fresh() -> int:
            counter[0] += 1
            return counter[0] - 1

        transitions: Dict[int, Dict[object, Set[int]]] = {}

        def add(source: int, symbol, target: int) -> None:
            transitions.setdefault(source, {}).setdefault(symbol, set()).add(target)

        def build(expr) -> Tuple[int, int]:
            if isinstance(expr, EmptyLanguage):
                return fresh(), fresh()
            if isinstance(expr, Epsilon):
                start, end = fresh(), fresh()
                add(start, EPSILON, end)
                return start, end
            if isinstance(expr, Symbol):
                start, end = fresh(), fresh()
                add(start, expr.symbol, end)
                return start, end
            if isinstance(expr, Concat):
                start, end = build(expr.parts[0])
                for part in expr.parts[1:]:
                    nxt_start, nxt_end = build(part)
                    add(end, EPSILON, nxt_start)
                    end = nxt_end
                return start, end
            if isinstance(expr, Union):
                start, end = fresh(), fresh()
                for branch in expr.branches:
                    b_start, b_end = build(branch)
                    add(start, EPSILON, b_start)
                    add(b_end, EPSILON, end)
                return start, end
            if isinstance(expr, Star):
                start, end = fresh(), fresh()
                inner_start, inner_end = build(expr.operand)
                add(start, EPSILON, inner_start)
                add(start, EPSILON, end)
                add(inner_end, EPSILON, inner_start)
                add(inner_end, EPSILON, end)
                return start, end
            raise TypeError("unknown regex node %r" % (expr,))

        start, end = build(expression)
        return Nfa(transitions, {start}, {end})

    def determinize(self, alphabet: Iterable = None) -> "Dfa":
        """Subset construction over *alphabet* (defaults to used symbols)."""
        from repro.automata.dfa import Dfa

        symbols = set(alphabet) if alphabet is not None else set(self.symbols())
        # Subsets are numbered in discovery order, and minimize() keeps that
        # numbering: a repr-sorted symbol order keeps it independent of the
        # hash seed.
        ordered = sorted(symbols, key=repr)
        start = self.epsilon_closure(self._initial)
        index: Dict[FrozenSet[int], int] = {start: 0}
        worklist = [start]
        transitions: Dict[Tuple[int, object], int] = {}
        accepting: Set[int] = set()
        if start & self._accepting:
            accepting.add(0)
        while worklist:
            subset = worklist.pop()
            source = index[subset]
            for symbol in ordered:
                target_subset = self.step(subset, symbol)
                if target_subset not in index:
                    index[target_subset] = len(index)
                    worklist.append(target_subset)
                    if target_subset & self._accepting:
                        accepting.add(index[target_subset])
                transitions[(source, symbol)] = index[target_subset]
        return Dfa(
            states=frozenset(index.values()),
            alphabet=frozenset(symbols),
            transitions=transitions,
            initial=0,
            accepting=frozenset(accepting),
        )
