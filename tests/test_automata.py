"""Unit tests for the automata substrate: lassos, regexes, NFA/DFA, Buchi."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.automata import BuchiAutomaton, Dfa, Lasso, Nfa, parse_regex
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

    def test_iter_accepted_lassos_sound(self, infinitely_many_p):
        found = list(infinitely_many_p.iter_accepted_lassos(3, 2))
        assert found
        for lasso in found:
            assert infinitely_many_p.accepts(lasso)

    def test_relabel_states_preserves_language(self, infinitely_many_p):
        relabeled = infinitely_many_p.relabel_states()
        assert relabeled.accepts(Lasso((), ("p", "q")))
        assert not relabeled.accepts(Lasso((), ("q",)))
