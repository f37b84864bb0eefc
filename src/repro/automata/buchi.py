"""Nondeterministic Buchi automata over arbitrary alphabets.

The paper's trace languages (``SControl(A)``, ``Control(A)``, ``State(A)``)
are omega-languages; this module supplies the omega-automata toolbox used to
manipulate them: lasso membership, emptiness with lasso witness extraction,
intersection (the flagged product, or :class:`BuchiProduct`, whose
emptiness search builds only the pairs it visits), union, homomorphic
images, and degeneralisation of generalized Buchi acceptance (needed by the
LTL translation).
"""

from bisect import bisect_left
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.automata.words import Lasso
from repro.foundations.errors import SpecificationError
from repro.foundations.resilience import current_deadline

State = Hashable

#: Edge expansions (a walk and one symbol of its last state) between two
#: deadline polls inside one round of
#: :meth:`BuchiAutomaton.iter_accepted_lassos`, and pair expansions between
#: two polls of :meth:`BuchiProduct.find_accepted_lasso`.
EXTEND_POLL_EVERY = 256


class BuchiAutomaton:
    """A nondeterministic Buchi automaton.

    ``transitions[state][symbol]`` is the set of successors.  A run is
    accepting when it visits an accepting state infinitely often.
    """

    def __init__(
        self,
        transitions: Dict[State, Dict[object, Iterable[State]]],
        initial: Iterable[State],
        accepting: Iterable[State],
    ):
        self._transitions: Dict[State, Dict[object, FrozenSet[State]]] = {
            state: {symbol: frozenset(targets) for symbol, targets in moves.items()}
            for state, moves in transitions.items()
        }
        self._initial = frozenset(initial)
        self._accepting = frozenset(accepting)
        self._search_tables: Optional[_SearchTables] = None

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def initial(self) -> FrozenSet[State]:
        return self._initial

    @property
    def accepting(self) -> FrozenSet[State]:
        return self._accepting

    def states(self) -> FrozenSet[State]:
        found: Set[State] = set(self._initial) | set(self._accepting)
        for state, moves in self._transitions.items():
            found.add(state)
            for targets in moves.values():
                found.update(targets)
        return frozenset(found)

    def symbols(self) -> FrozenSet:
        found = set()
        for moves in self._transitions.values():
            found.update(moves.keys())
        return frozenset(found)

    def successors(self, state: State, symbol) -> FrozenSet[State]:
        return self._transitions.get(state, {}).get(symbol, frozenset())

    def size(self) -> int:
        return len(self.states())

    # ------------------------------------------------------------------ #
    # lasso membership
    # ------------------------------------------------------------------ #

    def accepts(self, word: Lasso) -> bool:
        """Whether the automaton accepts the ultimately periodic *word*.

        Standard algorithm: after consuming the prefix we ask for an infinite
        accepting continuation over ``period^omega``; that exists iff, in the
        graph of (state, period-offset) nodes, some node carrying an
        accepting state is reachable from the start set and lies on a cycle.
        """
        current: Set[State] = set(self._initial)
        for symbol in word.prefix:
            nxt: Set[State] = set()
            for state in current:
                nxt.update(self.successors(state, symbol))
            current = nxt
            if not current:
                return False
        period = word.period

        def node_successors(node: Tuple[State, int]) -> Iterable[Tuple[State, int]]:
            state, offset = node
            symbol = period[offset]
            nxt_offset = (offset + 1) % len(period)
            for target in self.successors(state, symbol):
                yield (target, nxt_offset)

        start_nodes = {(state, 0) for state in current}
        reachable: Set[Tuple[State, int]] = set(start_nodes)
        frontier = list(start_nodes)
        while frontier:
            node = frontier.pop()
            for target in node_successors(node):
                if target not in reachable:
                    reachable.add(target)
                    frontier.append(target)
        accepting_nodes = [n for n in reachable if n[0] in self._accepting]
        for anchor in accepting_nodes:
            # is anchor on a cycle? BFS from its successors back to it
            seen: Set[Tuple[State, int]] = set()
            stack = list(node_successors(anchor))
            while stack:
                node = stack.pop()
                if node == anchor:
                    return True
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(node_successors(node))
        return False

    # ------------------------------------------------------------------ #
    # emptiness with witness
    # ------------------------------------------------------------------ #

    def _tables(self) -> "_SearchTables":
        """The integer tables every search walks, built once, on first use."""
        if self._search_tables is None:
            self._search_tables = _SearchTables(self)
        return self._search_tables

    def find_accepted_lasso(self) -> Optional[Lasso]:
        """A lasso accepted by the automaton, or ``None`` if the language is empty.

        The witness anchor is the first accepting state, in breadth-first
        order from the initial states, that lies on a cycle.  The prefix
        is its breadth-first access path and the period the first cycle
        :meth:`_cycle_through` finds through it.
        """
        tables = self._tables()
        anchors = tables.anchors()
        if not anchors:
            return None
        # Seeds, symbols and targets are walked in repr order: the witness
        # lasso is then independent of the hash order of any set (ORD001),
        # which the code-based emptiness kernel relies on to replay this
        # search over renamed states.
        seeds = tables.seeds()
        parent: List[Optional[Tuple[int, object]]] = [None] * len(tables.states)
        for seed in seeds:
            parent[seed] = (-1, None)

        def discovery_order() -> Iterator[int]:
            yield from seeds
            queue = list(seeds)
            head = 0
            while head < len(queue):
                number = queue[head]
                head += 1
                for symbol, targets in tables.edges(number):
                    for target in targets:
                        if parent[target] is None:
                            parent[target] = (number, symbol)
                            queue.append(target)
                            yield target

        # Every anchor is reachable, so the search meets one.
        anchor = next(number for number in discovery_order() if number in anchors)
        word: List = []
        node, symbol = parent[anchor]
        while node >= 0:
            word.append(symbol)
            node, symbol = parent[node]
        return Lasso(tuple(reversed(word)), self._cycle_through(anchor))

    def _cycle_through(self, anchor: int) -> Optional[Tuple]:
        """A non-empty symbol word labelling a cycle anchor -> anchor.

        *anchor* is a state number of :meth:`_tables`.
        """
        tables = self._tables()
        local_parent: Dict[int, Tuple[int, object]] = {}
        queue = [anchor]
        head = 0
        while head < len(queue):
            state = queue[head]
            head += 1
            for symbol, targets in tables.edges(state):
                for target in targets:
                    if target == anchor:
                        word: List = [symbol]
                        node = state
                        while node != anchor:
                            node, back_symbol = local_parent[node]
                            word.append(back_symbol)
                        return tuple(reversed(word))
                    if target not in local_parent:
                        local_parent[target] = (state, symbol)
                        queue.append(target)
        return None

    def is_empty(self) -> bool:
        """Whether the accepted omega-language is empty."""
        return self.find_accepted_lasso() is None

    def iter_accepted_lassos(
        self, max_cycle_length: int, max_prefix_length: int, narrow=None, deadline=None
    ):
        """Enumerate accepted lassos with bounded prefix/period length.

        Used by search procedures that must inspect several witnesses (e.g.
        the realisability filter of the extended-automaton emptiness check).
        The enumeration is exhaustive over the bound: every accepted lasso
        with ``len(prefix) <= max_prefix_length`` and ``len(period) <=
        max_cycle_length`` appears (possibly in non-canonical shape).

        *narrow* is an optional prefix filter (e.g.
        :class:`repro.core.symkernel.CodedNarrowing`) exposing
        ``empty()`` and ``step(filter_state, symbol) -> filter_state | None``.
        Each path threads its filter state through every appended symbol; a
        ``None`` prunes the path and its entire extension subtree.  The
        filter only ever *skips* paths -- surviving lassos are yielded in
        exactly the order the unfiltered enumeration would yield them.

        *deadline* is an optional
        :class:`~repro.foundations.resilience.Deadline`; when omitted the
        thread's ambient deadline (if any) applies.  The enumeration
        checks it at round and anchor boundaries and, inside a round, at
        least every :data:`EXTEND_POLL_EVERY` edge expansions, so no
        single round runs unchecked; expiry raises
        :class:`~repro.foundations.resilience.DeadlineExceeded` for the
        public entry point to convert into an honest outcome.
        """
        # Enumerate walks (states may repeat) from the initial states up to
        # the prefix bound, one edge per round, then closed walks through
        # each accepting anchor up to the cycle bound.  A walk is kept only
        # while the backward distances say it can still yield in the rounds
        # left: in prefix rounds its last state must reach an accepting
        # state on a cycle, in cycle rounds it must get back to its anchor.
        # A dropped walk, and every extension of it, could never yield, so
        # the lassos come out exactly as the unpruned rounds yield them.
        tables = self._tables()

        def checkpoint(site: str) -> None:
            active = deadline if deadline is not None else current_deadline()
            if active is not None:
                active.check(site)

        def extend(paths, distance: Dict[int, int], rounds_left: int) -> List:
            extended = []
            expansions = 0
            for state, word, filter_state in paths:
                for symbol, targets in tables.edges(state):
                    expansions += 1
                    if expansions == EXTEND_POLL_EVERY:
                        checkpoint("buchi.extend")
                        expansions = 0
                    kept = [t for t in targets if distance.get(t, far) <= rounds_left]
                    if not kept:
                        continue
                    if narrow is None:
                        next_filter = None
                    else:
                        next_filter = narrow.step(filter_state, symbol)
                        if next_filter is None:
                            continue
                    next_word = word + (symbol,)
                    for target in kept:
                        extended.append((target, next_word, next_filter))
            return extended

        far = max(max_cycle_length, max_prefix_length) + 1
        anchors = tables.anchors()
        to_anchor = tables.distances_to(anchors, max_prefix_length)
        seed_filter = narrow.empty() if narrow is not None else None
        prefixes = [(seed, (), seed_filter) for seed in tables.seeds() if seed in to_anchor]
        all_prefixes = list(prefixes)
        for rounds_left in range(max_prefix_length - 1, -1, -1):
            checkpoint("buchi.prefix_round")
            prefixes = extend(prefixes, to_anchor, rounds_left)
            all_prefixes.extend(prefixes)
        back_to: Dict[int, Dict[int, int]] = {}
        for anchor, prefix, filter_state in all_prefixes:
            if anchor not in anchors:
                continue
            checkpoint("buchi.anchor")
            to_self = back_to.get(anchor)
            if to_self is None:
                to_self = back_to[anchor] = tables.distances_to((anchor,), max_cycle_length - 1)
            cycles = [(anchor, (), filter_state)]
            for rounds_left in range(max_cycle_length - 1, -1, -1):
                checkpoint("buchi.cycle_round")
                cycles = extend(cycles, to_self, rounds_left)
                for state, period, _cycle_filter in cycles:
                    if state == anchor:
                        yield Lasso(prefix, period)

    # ------------------------------------------------------------------ #
    # boolean operations
    # ------------------------------------------------------------------ #

    def intersect(
        self, other: "BuchiAutomaton", letter_of: Optional[Callable] = None
    ) -> "BuchiAutomaton":
        """The flagged product automaton for the intersection.

        States ``(q1, q2, phase)``; phase 1 waits for ``q1`` accepting,
        phase 2 waits for ``q2`` accepting; acceptance = phase-1 states with
        ``q1`` accepting (Baier-Katoen construction).  The product reads
        this automaton's symbols; a symbol ``a`` moves *other* on
        ``letter_of(a)``, or on ``a`` itself when *letter_of* is omitted.
        """
        initial = {(q1, q2, 1) for q1 in self._initial for q2 in other._initial}
        transitions: Dict[State, Dict[object, Set[State]]] = {}
        worklist = list(initial)
        seen: Set[State] = set(initial)
        while worklist:
            source = worklist.pop()
            q1, q2, phase = source
            moves1 = self._transitions.get(q1, {})
            moves2 = other._transitions.get(q2, {})
            if phase == 1:
                nxt_phase = 2 if q1 in self._accepting else 1
            else:
                nxt_phase = 1 if q2 in other._accepting else 2
            moves: Dict[object, Set[State]] = {}
            # Unsorted: the product maps states to sets of targets, and every
            # search re-sorts them (_SearchTables.edges), so hash order
            # cannot leak.
            for symbol, targets1 in moves1.items():
                targets2 = moves2.get(symbol if letter_of is None else letter_of(symbol))
                if not targets2:
                    continue
                targets = {(t1, t2, nxt_phase) for t1 in targets1 for t2 in targets2}
                if targets:
                    moves[symbol] = targets
                    fresh = targets - seen
                    seen |= fresh
                    worklist.extend(fresh)
            if moves:
                transitions[source] = moves
        accepting = {
            (q1, q2, phase)
            for (q1, q2, phase) in seen
            if phase == 1 and q1 in self._accepting
        }
        return BuchiAutomaton(transitions, initial, accepting)

    def union(self, other: "BuchiAutomaton") -> "BuchiAutomaton":
        """Disjoint union (tags states with 0/1)."""
        transitions: Dict[State, Dict[object, Set[State]]] = {}
        for tag, automaton in ((0, self), (1, other)):
            for state, moves in automaton._transitions.items():
                for symbol, targets in moves.items():
                    transitions.setdefault((tag, state), {}).setdefault(symbol, set()).update(
                        (tag, t) for t in targets
                    )
        initial = {(0, q) for q in self._initial} | {(1, q) for q in other._initial}
        accepting = {(0, q) for q in self._accepting} | {(1, q) for q in other._accepting}
        return BuchiAutomaton(transitions, initial, accepting)

    def map_symbols(self, fn: Callable) -> "BuchiAutomaton":
        """The homomorphic image: relabel each symbol by ``fn`` (may merge)."""
        transitions: Dict[State, Dict[object, Set[State]]] = {}
        for state, moves in self._transitions.items():
            for symbol, targets in moves.items():
                transitions.setdefault(state, {}).setdefault(fn(symbol), set()).update(targets)
        return BuchiAutomaton(transitions, self._initial, self._accepting)

    def relabel_states(self) -> "BuchiAutomaton":
        """Replace states by dense integers (cosmetic, keeps products small).

        States are numbered in :func:`_order_key` order, so the numbering
        does not depend on the hash order of set-valued states.
        """
        index: Dict[State, int] = {}

        def number(state: State) -> int:
            if state not in index:
                index[state] = len(index)
            return index[state]

        transitions: Dict[State, Dict[object, Set[State]]] = {}
        for state in sorted(self.states(), key=_order_key):
            number(state)
        for state, moves in self._transitions.items():
            for symbol, targets in moves.items():
                transitions.setdefault(number(state), {}).setdefault(symbol, set()).update(
                    number(t) for t in targets
                )
        return BuchiAutomaton(
            transitions,
            {number(q) for q in self._initial},
            {number(q) for q in self._accepting},
        )

    def __repr__(self) -> str:
        return "BuchiAutomaton(%d states, %d accepting)" % (
            len(self.states()),
            len(self._accepting),
        )


class _LetterMap(dict):
    """``letter_of`` read once per symbol: ``letters[symbol]``."""

    def __init__(self, letter_of: Callable):
        super().__init__()
        self._read = letter_of

    def __missing__(self, symbol):
        letter = self[symbol] = self._read(symbol)
        return letter


class BuchiProduct:
    """*left* read in step with *right*, which reads ``letter_of(symbol)``.

    The product of Theorem 12: *left* is a control automaton, *right* the
    negated property over letters, and a symbol ``a`` of *left* moves
    *right* on ``letter_of(a)``; the product reads *left*'s symbols.
    Each symbol's letter is read once.

    :meth:`find_accepted_lasso` searches the pairs ``(left state, right
    state)`` on the fly under generalised acceptance, so no pair is built
    before the search reaches it and there are no phase copies.
    :meth:`iter_accepted_lassos` enumerates the flagged product
    :meth:`BuchiAutomaton.intersect` builds, on first use: its order
    defines the bounded enumeration.
    """

    def __init__(self, left: BuchiAutomaton, right: BuchiAutomaton, letter_of: Callable):
        self.left = left
        self.right = right
        self._letters = _LetterMap(letter_of)
        self._flagged: Optional[BuchiAutomaton] = None
        self._visited = 0

    def size(self) -> int:
        """The states explored.

        The flagged product's state count once :meth:`iter_accepted_lassos`
        has built it, else the pairs the last :meth:`find_accepted_lasso`
        visited.
        """
        if self._flagged is not None:
            return self._flagged.size()
        return self._visited

    def iter_accepted_lassos(
        self, max_cycle_length: int, max_prefix_length: int, narrow=None, deadline=None
    ):
        """:meth:`BuchiAutomaton.iter_accepted_lassos` of the flagged product."""
        if self._flagged is None:
            self._flagged = self.left.intersect(self.right, self._letters.__getitem__)
        return self._flagged.iter_accepted_lassos(
            max_cycle_length, max_prefix_length, narrow=narrow, deadline=deadline
        )

    def find_accepted_lasso(self) -> Optional[Lasso]:
        """A lasso of *left*'s symbols both automata accept, or ``None``.

        One iterative Tarjan pass over the pairs reachable from the initial
        pairs, in the manner of Couvreur's on-the-fly emptiness check: it
        stops at the first strongly connected component that has an edge
        and contains both a pair accepting for *left* and a pair accepting
        for *right*.  The prefix is a breadth-first access path into that
        component and the period a cycle inside it through both kinds of
        pair.  Seeds, symbols and targets are walked in ``repr`` order, so
        neither the component nor the lasso depends on hash order or on
        the numbering of the search tables.

        The ambient deadline is polled every :data:`EXTEND_POLL_EVERY`
        pair expansions (checkpoint ``buchi.product``).
        """
        search = _PairSearch(self.left._tables(), self.right._tables(), self._letters)
        component = search.accepting_component()
        self._visited = len(search.number)
        if component is None:
            return None
        width = search.width
        left_accepting, right_accepting = search.left_accepting, search.right_accepting

        def left_goal(pair: int) -> bool:
            return left_accepting[pair // width]

        def right_goal(pair: int) -> bool:
            return right_accepting[pair % width]

        entry, prefix = search.walk(search.seeds, component.__contains__, None)
        left_stop, to_left = search.walk((entry,), left_goal, component)
        right_stop, to_right = search.walk((left_stop,), right_goal, component)
        _stop, back = search.walk(
            (right_stop,), entry.__eq__, component, nonempty=not (to_left or to_right)
        )
        return Lasso(prefix, to_left + to_right + back)


class _PairSearch:
    """The pairs of a :class:`BuchiProduct`, expanded on demand.

    Pair ``(left number, right number)`` of the two automata's
    :class:`_SearchTables` is the integer ``left * width + right``.  Its
    successors are listed in search order: *left*'s symbols and targets
    in ``repr`` order, then *right*'s targets in ``repr`` order.
    """

    __slots__ = (
        "width",
        "seeds",
        "number",
        "left_accepting",
        "right_accepting",
        "_left_edges",
        "_right_row",
        "_letters",
        "_expansions",
    )

    def __init__(self, left: "_SearchTables", right: "_SearchTables", letters: _LetterMap):
        width = self.width = len(right.states)
        self.seeds = [c * width + p for c in left.seeds() for p in right.seeds()]
        #: Each pair the Tarjan pass visited, with its visit number.
        self.number: Dict[int, int] = {}
        self.left_accepting = left.accepting_flags()
        self.right_accepting = right.accepting_flags()
        self._left_edges = left.edges
        self._right_row = right.by_symbol
        self._letters = letters
        self._expansions = 0

    def successors(self, pair: int) -> List[int]:
        """The successor pairs of *pair*, in search order."""
        self._expansions += 1
        if self._expansions == EXTEND_POLL_EVERY:
            self._expansions = 0
            active = current_deadline()
            if active is not None:
                active.check("buchi.product")
        width = self.width
        source, state = divmod(pair, width)
        row = self._right_row(state)
        letters = self._letters
        found: List[int] = []
        for symbol, targets in self._left_edges(source):
            following = row.get(letters[symbol])
            if following:
                found.extend([target * width + p for target in targets for p in following])
        return found

    def symbol_between(self, pair: int, target: int):
        """The first symbol, in search order, on which *pair* steps to *target*."""
        source, state = divmod(pair, self.width)
        left_target, right_target = divmod(target, self.width)
        row = self._right_row(state)
        for symbol, targets in self._left_edges(source):
            if left_target in targets and right_target in row.get(self._letters[symbol], ()):
                return symbol

    def accepting_component(self) -> Optional[FrozenSet[int]]:
        """The first component the Tarjan pass completes that witnesses acceptance.

        Iterative, so deep products cannot hit the recursion limit.  A
        component witnesses acceptance when it has an edge (more than one
        pair, or a self-loop) and meets both acceptance sets.  The pass
        stops there; :attr:`number` holds the pairs it visited.
        """
        successors = self.successors
        width = self.width
        left_accepting, right_accepting = self.left_accepting, self.right_accepting
        number = self.number
        keys: List[int] = []  # visit number -> pair
        low: List[int] = []
        on_stack: List[bool] = []
        stack: List[int] = []  # visit numbers, increasing
        for seed in self.seeds:
            if seed in number:
                continue
            visit = number[seed] = len(keys)
            keys.append(seed)
            low.append(visit)
            on_stack.append(True)
            stack.append(visit)
            work = [(visit, iter(successors(seed)))]
            while work:
                visit, pending = work[-1]
                for target in pending:
                    found = number.get(target)
                    if found is None:
                        found = number[target] = len(keys)
                        keys.append(target)
                        low.append(found)
                        on_stack.append(True)
                        stack.append(found)
                        work.append((found, iter(successors(target))))
                        break
                    if on_stack[found] and found < low[visit]:
                        low[visit] = found
                else:
                    work.pop()
                    lowest = low[visit]
                    if work and lowest < low[work[-1][0]]:
                        low[work[-1][0]] = lowest
                    if lowest != visit:
                        continue
                    if stack[-1] == visit:
                        # A component of one pair: it needs a self-loop.
                        stack.pop()
                        on_stack[visit] = False
                        pair = keys[visit]
                        if (
                            left_accepting[pair // width]
                            and right_accepting[pair % width]
                            and pair in successors(pair)
                        ):
                            return frozenset((pair,))
                        continue
                    # The component rooted here is the stack from *visit* up.
                    cut = bisect_left(stack, visit)
                    members = [keys[member] for member in stack[cut:]]
                    for member in stack[cut:]:
                        on_stack[member] = False
                    del stack[cut:]
                    if any(left_accepting[pair // width] for pair in members) and any(
                        right_accepting[pair % width] for pair in members
                    ):
                        return frozenset(members)
        return None

    def walk(self, sources, goal, within, nonempty: bool = False) -> Tuple[int, Tuple]:
        """A breadth-first path from *sources* to the first pair meeting *goal*.

        Returns ``(pair, word)``.  *within* confines the walk to a set of
        pairs (``None``: no bound).  A source meeting *goal* ends the walk
        at once unless *nonempty* asks for at least one edge.  The caller
        guarantees a goal is reachable.
        """
        if not nonempty:
            for source in sources:
                if goal(source):
                    return source, ()
        parent: Dict[int, Optional[int]] = dict.fromkeys(sources)
        queue = list(sources)
        head = 0
        while True:
            pair = queue[head]
            head += 1
            for target in self.successors(pair):
                if within is not None and target not in within:
                    continue
                if goal(target):
                    word = [self.symbol_between(pair, target)]
                    step = parent[pair]
                    while step is not None:
                        word.append(self.symbol_between(step, pair))
                        pair, step = step, parent[step]
                    return target, tuple(reversed(word))
                if target not in parent:
                    parent[target] = pair
                    queue.append(target)


def _order_key(state: State) -> Tuple:
    """A sort key like ``repr``, but blind to the iteration order of sets.

    ``repr`` lists a frozenset's members in hash order, which follows
    ``PYTHONHASHSEED``; here they are sorted.  A tableau state
    ``(atom, level)`` orders by its sorted member reprs, then its level.
    """
    if isinstance(state, tuple):
        return (0, tuple(map(_order_key, state)))
    if isinstance(state, frozenset):
        return (1, tuple(sorted(map(_order_key, state))))
    return (2, repr(state))


class _SearchTables:
    """The part of a Buchi automaton reachable from its initial states, as integer tables.

    The lasso searches walk state numbers instead of states: a number
    hashes for free, while a product state is a tuple that rehashes its
    parts at every lookup.  This follows the precomputed transition
    tables of the VATA library.  States are numbered as a breadth-first
    pass meets them, in hash order, but no search result depends on the
    numbers: the searches visit seeds, symbols and targets in ``repr``
    order (:meth:`seeds`, :meth:`edges`), exactly as on the states.
    """

    __slots__ = (
        "states",
        "_number",
        "_moves",
        "_successors",
        "_seed_count",
        "_accepting",
        "_edges",
        "_anchors",
        "_predecessors",
        "_by_symbol",
        "_accepting_flags",
    )

    def __init__(self, automaton: BuchiAutomaton):
        number: Dict[State, int] = {}
        states: List[State] = []
        for state in automaton._initial:
            number[state] = len(states)
            states.append(state)
        moves: List[Dict[object, FrozenSet[State]]] = []
        successors: List[List[int]] = []
        transitions = automaton._transitions
        head = 0
        while head < len(states):
            row = transitions.get(states[head], {})
            head += 1
            following = []
            for targets in row.values():
                for target in targets:
                    # One lookup per edge: a new state gets the next number.
                    fresh = len(states)
                    found = number.setdefault(target, fresh)
                    if found == fresh:
                        states.append(target)
                    following.append(found)
            moves.append(row)
            successors.append(following)
        #: The reachable states; a state's number is its index.
        self.states = states
        self._number = number
        self._moves = moves
        self._successors = successors
        self._seed_count = len(automaton._initial)
        self._accepting = automaton._accepting
        self._edges: List[Optional[Tuple]] = [None] * len(states)
        self._anchors: Optional[FrozenSet[int]] = None
        self._predecessors: Optional[List[List[int]]] = None
        self._by_symbol: List[Optional[Dict[object, Tuple[int, ...]]]] = [None] * len(states)
        self._accepting_flags: Optional[List[bool]] = None

    def seeds(self) -> List[int]:
        """The initial states, sorted by ``repr``."""
        states = self.states
        return sorted(range(self._seed_count), key=lambda n: repr(states[n]))

    def edges(self, state: int) -> Tuple[Tuple[object, Tuple[int, ...]], ...]:
        """The ``(symbol, targets)`` of *state*, symbols and targets sorted by ``repr``.

        Every search walks edges in this order, so witnesses and the lasso
        enumeration do not depend on the hash order of any set (ORD001).
        Built once per state.
        """
        edges = self._edges[state]
        if edges is None:
            number = self._number
            edges = self._edges[state] = tuple(
                (symbol, tuple(number[target] for target in sorted(targets, key=repr)))
                for symbol, targets in sorted(
                    self._moves[state].items(), key=lambda kv: repr(kv[0])
                )
            )
        return edges

    def by_symbol(self, state: int) -> Dict[object, Tuple[int, ...]]:
        """The targets of *state* under each symbol, as :meth:`edges` lists them."""
        row = self._by_symbol[state]
        if row is None:
            row = self._by_symbol[state] = dict(self.edges(state))
        return row

    def accepting_flags(self) -> List[bool]:
        """Whether each state number is accepting."""
        if self._accepting_flags is None:
            accepting = self._accepting
            self._accepting_flags = [state in accepting for state in self.states]
        return self._accepting_flags

    def anchors(self) -> FrozenSet[int]:
        """The accepting states that lie on a cycle.

        One iterative Tarjan pass, so deep automata cannot hit the
        recursion limit.  A state lies on a cycle when its strongly
        connected component has another state or it has a self-loop; the
        components do not depend on the order edges are walked in.
        """
        if self._anchors is not None:
            return self._anchors
        successors = self._successors
        count = len(successors)
        index = [-1] * count
        low = [0] * count
        on_stack = [False] * count
        stack: List[int] = []
        on_cycle: List[int] = []
        visited = 0
        for root in range(count):
            if index[root] >= 0:
                continue
            index[root] = low[root] = visited
            visited += 1
            stack.append(root)
            on_stack[root] = True
            work = [(root, iter(successors[root]))]
            while work:
                state, pending = work[-1]
                for target in pending:
                    if index[target] < 0:
                        index[target] = low[target] = visited
                        visited += 1
                        stack.append(target)
                        on_stack[target] = True
                        work.append((target, iter(successors[target])))
                        break
                    if on_stack[target] and index[target] < low[state]:
                        low[state] = index[target]
                else:
                    work.pop()
                    if work and low[state] < low[work[-1][0]]:
                        low[work[-1][0]] = low[state]
                    if low[state] != index[state]:
                        continue
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == state:
                            break
                    if len(component) > 1 or state in successors[state]:
                        on_cycle.extend(component)
        accepting = self._accepting
        states = self.states
        self._anchors = frozenset(n for n in on_cycle if states[n] in accepting)
        return self._anchors

    def distances_to(self, goals: Iterable[int], bound: int) -> Dict[int, int]:
        """The length of a shortest walk from each state into *goals*.

        A backward breadth-first search that stops at depth *bound*: a
        state missing from the result needs more than *bound* edges.
        """
        if self._predecessors is None:
            predecessors: List[List[int]] = [[] for _ in self._successors]
            for source, following in enumerate(self._successors):
                for target in following:
                    predecessors[target].append(source)
            self._predecessors = predecessors
        predecessors = self._predecessors
        distance = dict.fromkeys(goals, 0)
        frontier = list(distance)
        for depth in range(1, bound + 1):
            reached = []
            for state in frontier:
                for source in predecessors[state]:
                    if source not in distance:
                        distance[source] = depth
                        reached.append(source)
            if not reached:
                break
            frontier = reached
        return distance


class GeneralizedBuchiAutomaton:
    """A Buchi automaton with several acceptance sets (all must recur).

    Produced by the LTL tableau translation; convert to a plain Buchi
    automaton with :meth:`degeneralize` (the counter construction).
    """

    def __init__(
        self,
        transitions: Dict[State, Dict[object, Iterable[State]]],
        initial: Iterable[State],
        acceptance_sets: List[Iterable[State]],
    ):
        self._transitions = {
            state: {symbol: frozenset(targets) for symbol, targets in moves.items()}
            for state, moves in transitions.items()
        }
        self._initial = frozenset(initial)
        self._acceptance_sets = [frozenset(fs) for fs in acceptance_sets]

    def degeneralize(self) -> BuchiAutomaton:
        """The counter construction: track which acceptance set is awaited."""
        sets = self._acceptance_sets
        if not sets:
            # Every infinite run is accepting: one trivial acceptance set of
            # all states makes each visit count.
            all_states: Set[State] = set(self._initial)
            for state, moves in self._transitions.items():
                all_states.add(state)
                for targets in moves.values():
                    all_states.update(targets)
            return BuchiAutomaton(self._transitions, self._initial, all_states)
        count = len(sets)
        transitions: Dict[State, Dict[object, Set[State]]] = {}
        for state, moves in self._transitions.items():
            for level in range(count):
                nxt_level = (level + 1) % count if state in sets[level] else level
                for symbol, targets in moves.items():
                    transitions.setdefault((state, level), {}).setdefault(
                        symbol, set()
                    ).update((t, nxt_level) for t in targets)
        initial = {(q, 0) for q in self._initial}
        accepting = {(q, 0) for q in sets[0]}
        return BuchiAutomaton(transitions, initial, accepting)
