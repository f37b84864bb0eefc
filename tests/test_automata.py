"""Unit tests for the automata substrate: lassos, regexes, NFA/DFA, Buchi."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.automata import BuchiAutomaton, BuchiProduct, Dfa, Lasso, Nfa, parse_regex
from repro.automata.graphs import cyclic_components, walk
from repro.automata.regex import (
    Epsilon,
    any_of,
    concat,
    literal,
    optional,
    plus,
    star,
    union,
    word,
)
from repro.foundations.errors import SpecificationError

from tests.helpers import (
    LiftedProduct,
    lift_onto,
    literal_accepts,
    literal_anchors,
    literal_find_accepted_lasso,
    literal_iter_accepted_lassos,
    literal_minimize,
)


class TestLasso:
    def test_canonical_form(self):
        assert Lasso(("a",), ("b", "a", "b", "a")) == Lasso(("a", "b"), ("a", "b"))

    def test_primitive_period(self):
        assert Lasso((), ("a", "b", "a", "b")).period == ("a", "b")

    def test_indexing(self):
        w = Lasso(("p",), ("q", "r"))
        assert [w[i] for i in range(6)] == ["p", "q", "r", "q", "r", "q"]

    def test_factor(self):
        w = Lasso((), ("a", "b"))
        assert w.factor(1, 3) == ("b", "a", "b")

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            Lasso(("a",), ())

    def test_map(self):
        w = Lasso(("a",), ("b",))
        assert w.map(str.upper) == Lasso(("A",), ("B",))

    def test_shift(self):
        w = Lasso(("a", "b"), ("c",))
        assert w.shift(1) == Lasso(("b",), ("c",))
        assert w.shift(5) == Lasso((), ("c",))

    def test_shift_rotates_period(self):
        w = Lasso((), ("a", "b"))
        assert w.shift(1)[0] == "b"

    def test_letters(self):
        w = Lasso(("a",), ("b",))
        assert w.letters() == frozenset({"a", "b"})
        assert w.recurring_letters() == frozenset({"b"})

    def test_unroll_preserves_word(self):
        w = Lasso(("a",), ("b", "c"))
        assert w.unroll(3) == w

    def test_hash_consistency(self):
        assert hash(Lasso(("a",), ("b", "a"))) == hash(Lasso((), ("a", "b")))


class TestRegex:
    def test_parse_and_match(self):
        expression = parse_regex("p(q|r)*p")
        assert expression.matches("pqrqp")
        assert expression.matches("pp")
        assert not expression.matches("pq")

    def test_combinators(self):
        expression = concat(literal("a"), star(literal("b")))
        assert expression.matches("abbb")
        assert not expression.matches("ba")

    def test_plus_and_optional(self):
        assert plus(literal("a")).matches("aa")
        assert not plus(literal("a")).matches("")
        assert optional(literal("a")).matches("")

    def test_word_and_any_of(self):
        assert word("abc").matches("abc")
        assert any_of("xyz").matches("y")

    def test_union_flattening(self):
        expression = union(literal("a"), union(literal("b"), literal("c")))
        assert expression.matches("c")

    def test_epsilon(self):
        assert Epsilon().matches("")
        assert not Epsilon().matches("a")

    def test_parse_errors(self):
        with pytest.raises(SpecificationError):
            parse_regex("(ab")
        with pytest.raises(SpecificationError):
            parse_regex("*a")

    def test_symbols(self):
        assert parse_regex("ab|c").symbols() == frozenset("abc")


class TestNfaDfa:
    def test_determinize_equivalent(self):
        expression = parse_regex("(a|b)*abb")
        dfa = expression.to_dfa()
        for w, expected in [("abb", True), ("aabb", True), ("ab", False), ("", False)]:
            assert dfa.accepts(w) == expected

    def test_minimize_is_minimal_for_simple_language(self):
        dfa = parse_regex("a*").to_dfa(alphabet="ab")
        assert dfa.minimize().size() == 2  # accept-all-a's + dead

    def test_complement(self):
        dfa = parse_regex("ab").to_dfa(alphabet="ab")
        comp = dfa.complement()
        assert not comp.accepts("ab")
        assert comp.accepts("a")

    def test_products(self):
        a_star = parse_regex("a*").to_dfa(alphabet="ab")
        contains_b = parse_regex("(a|b)*b(a|b)*").to_dfa(alphabet="ab")
        assert a_star.intersect(contains_b).is_empty()
        assert not a_star.union(contains_b).is_empty()

    def test_difference_and_equivalence(self):
        one = parse_regex("a(a)*").to_dfa(alphabet="a")
        two = parse_regex("aa*").to_dfa(alphabet="a")
        assert one.equivalent(two)

    def test_shortest_accepted(self):
        dfa = parse_regex("aab|b").to_dfa(alphabet="ab")
        assert dfa.shortest_accepted() == ("b",)

    def test_shortest_accepted_empty_language(self):
        assert Dfa.empty_language("ab").shortest_accepted() is None

    def test_universal(self):
        dfa = Dfa.universal("ab")
        assert dfa.accepts("abba")
        assert dfa.accepts("")

    def test_period_transform(self):
        dfa = parse_regex("(ab)*").to_dfa(alphabet="ab")
        transform = dfa.period_transform(("a", "b"))
        assert transform[dfa.initial] == dfa.initial

    def test_symbol_outside_alphabet_raises(self):
        dfa = parse_regex("a").to_dfa()
        with pytest.raises(SpecificationError):
            dfa.accepts("z")

    def test_state_numbering_independent_of_hash_seed(self):
        # Subset numbering used to follow set iteration order, which leaked
        # into every state name built from DFA states.
        script = (
            "from repro.automata.regex import concat, literal, star\n"
            "dfa = concat(literal('p'), star(literal('q')), literal('p'))"
            ".to_dfa({'p', 'q', 'r'})\n"
            "print(dfa.initial, sorted(dfa.accepting), sorted("
            "(s, a, dfa.delta(s, a)) for s in dfa.states for a in dfa.alphabet))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        tables = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("1", "2")
        ]
        assert tables[0] == tables[1]


@st.composite
def random_dfas(draw):
    """Total DFAs with 1-8 states and 1-3 symbols.

    Integer labels up to 30 make ``repr`` order differ from numeric order,
    and an arbitrary initial state leaves some states unreachable.
    """
    labels = draw(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=8, unique=True)
    )
    symbols = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    targets = st.sampled_from(labels)
    transitions = {(state, symbol): draw(targets) for state in labels for symbol in symbols}
    return Dfa(labels, symbols, transitions, draw(targets), draw(st.sets(targets)))


@settings(max_examples=200, deadline=None)
@given(random_dfas())
def test_minimize_matches_literal_minimisation(dfa):
    """Row-based Moore refinement is byte-identical to the ``delta`` one."""
    coded = dfa.minimize()
    literal = literal_minimize(dfa)
    assert coded.structural_key() == literal.structural_key()
    assert pickle.dumps(coded) == pickle.dumps(literal)


class TestBuchi:
    @pytest.fixture
    def infinitely_many_p(self):
        transitions = {0: {"p": {1}, "q": {0}}, 1: {"p": {1}, "q": {0}}}
        return BuchiAutomaton(transitions, {0}, {1})

    def test_lasso_membership(self, infinitely_many_p):
        assert infinitely_many_p.accepts(Lasso((), ("p", "q")))
        assert infinitely_many_p.accepts(Lasso(("q", "q"), ("p",)))
        assert not infinitely_many_p.accepts(Lasso(("p",), ("q",)))

    def test_emptiness_witness(self, infinitely_many_p):
        witness = infinitely_many_p.find_accepted_lasso()
        assert witness is not None
        assert infinitely_many_p.accepts(witness)

    def test_empty_automaton(self):
        automaton = BuchiAutomaton({0: {"a": {0}}}, {0}, set())
        assert automaton.is_empty()

    def test_intersection(self, infinitely_many_p):
        # infinitely many q
        other = BuchiAutomaton(
            {0: {"q": {1}, "p": {0}}, 1: {"q": {1}, "p": {0}}}, {0}, {1}
        )
        product = infinitely_many_p.intersect(other)
        witness = product.find_accepted_lasso()
        assert witness is not None
        assert infinitely_many_p.accepts(witness)
        assert other.accepts(witness)

    def test_intersection_empty(self, infinitely_many_p):
        only_q = BuchiAutomaton({0: {"q": {0}}}, {0}, {0})
        assert infinitely_many_p.intersect(only_q).is_empty()

    def test_union(self, infinitely_many_p):
        only_q = BuchiAutomaton({0: {"q": {0}}}, {0}, {0})
        combined = infinitely_many_p.union(only_q)
        assert combined.accepts(Lasso((), ("q",)))
        assert combined.accepts(Lasso((), ("p",)))

    def test_map_symbols(self, infinitely_many_p):
        mapped = infinitely_many_p.map_symbols(lambda s: "x")
        assert mapped.accepts(Lasso((), ("x",)))

    def test_long_cycle_search_is_iterative(self):
        """The cycle detection walks 5,001 states deep without recursing."""
        length = 5000
        transitions = {state: {"a": {state + 1}} for state in range(length)}
        transitions[length] = {"b": {0}}
        ring = BuchiAutomaton(transitions, {0}, {length})
        witness = ring.find_accepted_lasso()
        assert witness == Lasso(("a",) * length, ("b",) + ("a",) * length)
        assert witness == literal_find_accepted_lasso(ring)

    def test_long_product_search_is_iterative(self):
        """The pair search walks a 5,001-pair cycle without recursing."""
        length = 5000
        transitions = {state: {"a": {state + 1}} for state in range(length)}
        transitions[length] = {"b": {0}}
        ring = BuchiAutomaton(transitions, {0}, {length})
        every_letter = BuchiAutomaton({0: {"x": {0}}}, {0}, {0})
        product = BuchiProduct(ring, every_letter, lambda symbol: "x")
        witness = product.find_accepted_lasso()
        assert witness == Lasso((), ("a",) * length + ("b",))
        assert witness == literal_find_accepted_lasso(ring)
        assert product.size() == length + 1

    def test_iter_accepted_lassos_sound(self, infinitely_many_p):
        found = list(infinitely_many_p.iter_accepted_lassos(3, 2))
        assert found
        for lasso in found:
            assert infinitely_many_p.accepts(lasso)

    def test_relabel_states_preserves_language(self, infinitely_many_p):
        relabeled = infinitely_many_p.relabel_states()
        assert relabeled.accepts(Lasso((), ("p", "q")))
        assert not relabeled.accepts(Lasso((), ("q",)))


class TestGraphs:
    #: 0 -> 1 <-> 2 -> 3, a self-loop at 3, and 3 -> 4, a sink.
    GRAPH = {0: [1], 1: [2], 2: [1, 3], 3: [3, 4], 4: []}

    def test_components_with_a_cycle_in_completion_order(self):
        expanded = []

        def successors(node):
            expanded.append(node)
            return self.GRAPH[node]

        components = cyclic_components([0], successors)
        assert next(components) == [3]
        assert expanded == [0, 1, 2, 3, 4]
        assert list(components) == [[1, 2]]
        assert expanded == [0, 1, 2, 3, 4]

    def test_walk_is_breadth_first_and_labels_only_its_path(self):
        labelled = []

        def label(source, target):
            labelled.append((source, target))
            return "%d%d" % (source, target)

        successors = self.GRAPH.__getitem__
        assert walk([0], (3).__eq__, successors, label) == ([0, 1, 2, 3], ["01", "12", "23"])
        assert labelled == [(0, 1), (1, 2), (2, 3)]
        assert walk([4, 2], (2).__eq__, successors, label) == ([2], [])
        assert walk([2], (2).__eq__, successors, label, nonempty=True) == ([2, 1, 2], ["21", "12"])
        assert walk([3], (3).__eq__, successors, label, nonempty=True) == ([3, 3], ["33"])
        assert walk([0], (3).__eq__, successors, label, within={0, 1}) is None
        assert walk([4], (0).__eq__, successors, label) is None


class _BanSymbol:
    """Narrowing stub: prune a walk once it has read *banned* more than *allowed* times.

    The filter state is the count so far, so it threads from the prefix
    into the cycle like the real constraint filters' thread sets.
    """

    def __init__(self, banned, allowed):
        self.banned = banned
        self.allowed = allowed

    def empty(self):
        return 0

    def step(self, seen, symbol):
        if symbol == self.banned:
            seen += 1
        return None if seen > self.allowed else seen


@st.composite
def random_buchi(draw, alphabet="abc", max_states=7):
    """Buchi automata with 1-*max_states* states and 1-3 symbols of *alphabet*.

    Integer labels up to 30 make ``repr`` order differ from numeric order.
    Each state and symbol has at most two targets, which keeps the
    unpruned enumeration small at cycle bound 5; the initial and
    accepting sets may be empty.
    """
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=30), min_size=1, max_size=max_states, unique=True
        )
    )
    symbols = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=3, unique=True))
    states = st.sampled_from(labels)
    transitions = {}
    for state in labels:
        for symbol in symbols:
            targets = draw(st.sets(states, max_size=2))
            if targets:
                transitions.setdefault(state, {})[symbol] = targets
    return BuchiAutomaton(transitions, draw(st.sets(states)), draw(st.sets(states)))


@settings(max_examples=200, deadline=None)
@given(
    random_buchi(),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2),
    st.sampled_from("abc"),
    st.integers(min_value=0, max_value=2),
)
def test_lasso_search_matches_unpruned_search(
    automaton, max_cycle, max_prefix, banned, allowed
):
    """Cycle detection and distance pruning change no witness and no lasso.

    The unpruned searches in ``tests.helpers`` are the oracle: the same
    witness, and the same lassos in the same order, unfiltered and
    through a narrowing filter.
    """
    assert automaton.find_accepted_lasso() == literal_find_accepted_lasso(automaton)
    for narrow in (None, _BanSymbol(banned, allowed)):
        assert list(
            automaton.iter_accepted_lassos(max_cycle, max_prefix, narrow=narrow)
        ) == list(literal_iter_accepted_lassos(automaton, max_cycle, max_prefix, narrow))


@settings(max_examples=200, deadline=None)
@given(
    random_buchi(),
    st.lists(st.sampled_from("abc"), max_size=2),
    st.lists(st.sampled_from("abc"), min_size=1, max_size=3),
)
def test_membership_and_anchors_match_per_state_cycle_searches(automaton, prefix, period):
    """One Tarjan pass answers what one cycle search per accepting node answered.

    ``tests.helpers.literal_anchors`` and ``literal_accepts`` are the
    oracle, on a drawn lasso and on the automaton's own witness.
    """
    tables = automaton._tables()
    assert {tables.states[n] for n in tables.anchors()} == literal_anchors(automaton)
    words = [Lasso(tuple(prefix), tuple(period))]
    witness = automaton.find_accepted_lasso()
    if witness is not None:
        words.append(witness)
    for word in words:
        assert automaton.accepts(word) == literal_accepts(automaton, word)


def _built(edges, initial, accepting):
    transitions = {}
    for source, symbol, target in edges:
        transitions.setdefault(source, {}).setdefault(symbol, set()).add(target)
    return BuchiAutomaton(transitions, initial, accepting)


@st.composite
def insertion_orders(draw):
    """One automaton's edges in two insertion orders, with its initial and accepting sets."""
    states = st.sampled_from(["s%d" % index for index in range(6)])
    symbols = st.sampled_from([("p", 0), ("p", 1), ("q", 0)])
    edges = draw(st.lists(st.tuples(states, symbols, states), min_size=1, max_size=14, unique=True))
    return (
        edges,
        draw(st.permutations(edges)),
        draw(st.sets(states, min_size=1)),
        draw(st.sets(states)),
    )


@settings(max_examples=100, deadline=None)
@given(insertion_orders(), insertion_orders())
def test_intersect_does_not_leak_insertion_order(left, right):
    """``intersect`` walks unsorted sets (its ORD001 opt-out); nothing downstream sees it.

    The products of the same automata, built from transition dicts
    inserted in two different orders, are equal, and so are their
    witnesses and their lasso enumerations.
    """
    products = [
        _built(left[order], left[2], left[3]).intersect(_built(right[order], right[2], right[3]))
        for order in (0, 1)
    ]
    first, second = products
    assert first._transitions == second._transitions
    assert first.initial == second.initial
    assert first.accepting == second.accepting
    assert first.find_accepted_lasso() == second.find_accepted_lasso()
    assert list(first.iter_accepted_lassos(3, 2)) == list(second.iter_accepted_lassos(3, 2))


@st.composite
def product_operands(draw):
    """Two Buchi automata with 1-6 states and a map from the first's symbols onto the second's.

    The left automaton reads 1-3 of ``abc``, the right one 1-3 of ``xyz``;
    the map sends every left symbol to one of ``xyz``, which the right
    automaton may not read at all.
    """
    left = draw(random_buchi(max_states=6))
    right = draw(random_buchi(alphabet="xyz", max_states=6))
    letters = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3, unique=True))
    return left, right, {symbol: draw(st.sampled_from(letters)) for symbol in "abc"}


#: A three-pair cycle whose only accepting pair is its first: the search
#: must carry the back edge's low link up to it.
_RING_OF_THREE = (
    BuchiAutomaton({0: {"a": {1}}, 1: {"a": {2}}, 2: {"a": {0}}}, {0}, {0}),
    BuchiAutomaton({0: {"x": {0}}}, {0}, {0}),
    {"a": "x", "b": "x", "c": "x"},
)


@settings(max_examples=300, deadline=None)
@given(product_operands())
@example(_RING_OF_THREE)
def test_product_search_agrees_with_lifted_flagged_product(operands):
    """The pair search finds a lasso exactly when the flagged product does.

    The oracle is the lifted flagged product of ``tests.helpers``; a lasso
    the search returns is accepted by both operands, and ``intersect``
    through the letter map builds the flagged product of the lifted one.
    """
    left, right, letters = operands
    letter_of = letters.__getitem__
    lasso = BuchiProduct(left, right, letter_of).find_accepted_lasso()
    oracle = LiftedProduct(left, right, letter_of).find_accepted_lasso()
    assert (lasso is None) == (oracle is None)
    if lasso is not None:
        assert left.accepts(lasso)
        assert right.accepts(lasso.map(letter_of))
    direct = left.intersect(right, letter_of)
    lifted = left.intersect(lift_onto(left, right, letter_of))
    assert direct._transitions == lifted._transitions
    assert direct.initial == lifted.initial
    assert direct.accepting == lifted.accepting
