"""Tests for the caching/indexing layer (repro.core.caching).

The headline regression here is id-recycling safety: no cache may serve an
entry recorded for a garbage-collected object to a new object that happens
to be allocated at the same address.  The original symptom was the flaky
``test_inequality_constraint_streamed`` failure, caused by a module-level
dead-state cache keyed by the DFA's id.
"""

import gc
from pathlib import Path

import pytest

from repro import (
    Database,
    ExtendedAutomaton,
    GlobalConstraint,
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    Y,
    eq,
    rel,
)
from repro.automata.dfa import Dfa
from repro.automata.regex import concat, literal, plus
from repro.core.caching import (
    AutomatonIndex,
    cached_method,
    dead_states,
)
from repro.core.streaming import StreamingChecker, StreamingViolation
from repro.db.evaluation import evaluate_type, transition_valuation
from repro.foundations.errors import EvaluationError, SpecificationError
from repro.foundations.memo import ValueCache, clear_value_caches
from repro.foundations.stats import CacheStats, all_cache_stats, cache_stats

EMPTY = SigmaType()

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def _chain_dfa(accepting):
    """A two-state DFA s -> t -> t over one symbol, with given accepting set."""
    return Dfa(
        states={"s", "t"},
        alphabet={"a"},
        transitions={("s", "a"): "t", ("t", "a"): "t"},
        initial="s",
        accepting=accepting,
    )


class TestCacheStats:
    def test_counters_and_hit_rate(self):
        stats = CacheStats("unit.counters")
        assert stats.hit_rate == 0.0
        stats.hit()
        stats.hit()
        stats.miss()
        stats.eviction()
        stats.note_entries(3)
        stats.note_entries(2)
        assert stats.lookups == 3
        assert stats.hits == 2 and stats.misses == 1 and stats.evictions == 1
        assert stats.peak_entries == 3
        assert stats.hit_rate == pytest.approx(2 / 3)
        stats.reset()
        assert stats.lookups == 0 and stats.peak_entries == 0

    def test_registry_shares_by_name(self):
        first = cache_stats("unit.shared")
        second = cache_stats("unit.shared")
        assert first is second
        first.hit()
        assert "unit.shared" in all_cache_stats()
        assert all_cache_stats()["unit.shared"]["hits"] >= 1


class TestValueCache:
    def test_computes_once_per_key(self):
        cache = ValueCache("unit.value")
        calls = []
        for _ in range(3):
            value = cache.lookup("k", lambda: calls.append(1) or "v")
            assert value == "v"
        assert len(calls) == 1
        assert "k" in cache and len(cache) == 1

    def test_fifo_eviction_at_maxsize(self):
        cache = ValueCache("unit.bounded", maxsize=2)
        cache.lookup(1, lambda: "one")
        cache.lookup(2, lambda: "two")
        cache.lookup(3, lambda: "three")
        assert len(cache) == 2
        assert 1 not in cache and 3 in cache
        assert cache.stats.evictions >= 1

    def test_registry_forgets_collected_caches(self):
        # Short-lived caches (one per call) used to leave a dead weakref
        # each in the registry until the next clear_value_caches().
        gc.collect()
        before = len(ValueCache._instances)
        for index in range(1000):
            ValueCache("unit.short_lived").lookup(index, lambda: index)
        gc.collect()
        assert len(ValueCache._instances) <= before
        live = ValueCache("unit.live")
        live.lookup("k", lambda: "v")
        clear_value_caches()
        assert len(live) == 0 and "k" not in live


class TestCachedMethod:
    def test_instances_never_share_entries(self):
        class Box:
            def __init__(self, payload):
                self.payload = payload

            @cached_method("unit.box")
            def doubled(self, factor):
                return self.payload * factor

        a, b = Box(1), Box(100)
        assert a.doubled(2) == 2
        # A second instance with identical arguments must compute its own
        # value, not inherit the first instance's.
        assert b.doubled(2) == 200
        assert a.doubled(2) == 2  # and the hit path returns the stored value

    def test_entries_die_with_the_instance(self):
        class Box:
            @cached_method("unit.box_lifetime")
            def answer(self):
                return 42

        before = cache_stats("unit.box_lifetime").misses
        for _ in range(20):
            box = Box()
            assert box.answer() == 42
            del box
            gc.collect()
        # every fresh instance misses: nothing leaked across lifetimes
        assert cache_stats("unit.box_lifetime").misses == before + 20


class TestAutomatonIndex:
    def test_matches_naive_filtering(self, example1_automaton):
        index = AutomatonIndex.of(example1_automaton)
        transitions = example1_automaton.transitions
        for state in example1_automaton.states:
            expected = tuple(t for t in transitions if t.source == state)
            assert index.transitions_from(state) == expected
            assert index.guards_from(state) == tuple(dict.fromkeys(t.guard for t in expected))
            for target in example1_automaton.states:
                expected_pair = tuple(
                    t for t in transitions if t.source == state and t.target == target
                )
                assert index.transitions_between(state, target) == expected_pair
        for transition in transitions:
            assert transition in index.transitions_with_guard(
                transition.source, transition.guard
            )

    def test_state_driven_questions_are_lookups(self, example1_automaton):
        """q2 fires two guards; the state-driven form one per state."""
        assert not AutomatonIndex.of(example1_automaton).is_state_driven()
        with pytest.raises(SpecificationError):
            example1_automaton.guard_of_state("q2")
        normalised = example1_automaton.completed().state_driven()
        assert AutomatonIndex.of(normalised).is_state_driven()
        for transition in normalised.transitions:
            assert normalised.guard_of_state(transition.source) == transition.guard

    def test_unknown_keys_return_empty(self, example1_automaton):
        index = AutomatonIndex.of(example1_automaton)
        assert index.transitions_from("nowhere") == ()
        assert index.guards_from("nowhere") == ()
        assert index.transitions_between("q1", "nowhere") == ()
        assert index.transitions_with_guard("nowhere", EMPTY) == ()

    def test_one_index_per_automaton_object(self, example1_automaton):
        assert AutomatonIndex.of(example1_automaton) is AutomatonIndex.of(
            example1_automaton
        )

    def test_automaton_methods_delegate(self, example1_automaton):
        for state in example1_automaton.states:
            assert example1_automaton.transitions_from(state) == AutomatonIndex.of(
                example1_automaton
            ).transitions_from(state)


class TestDeadStates:
    def test_backward_reachability(self):
        trap = _chain_dfa(accepting={"s"})
        assert dead_states(trap) == frozenset({"t"})
        live = _chain_dfa(accepting={"t"})
        assert dead_states(live) == frozenset()

    def test_id_reuse_cannot_poison_the_cache(self):
        """The headline regression: alternate structurally different DFAs
        through create/discard cycles so the allocator recycles addresses;
        the dead-state classification must stay correct every time."""
        for _ in range(100):
            trap = _chain_dfa(accepting={"s"})
            assert "t" in dead_states(trap)
            del trap
            gc.collect()
            live = _chain_dfa(accepting={"t"})
            assert dead_states(live) == frozenset()
            del live
            gc.collect()


class TestStreamingRegression:
    def test_inequality_constraint_fires_across_checker_churn(self, empty_database):
        """Rebuild spec + checker from scratch each round (churning DFA
        objects) and require the duplicate-value violation to fire every
        round -- the original flake missed it when a recycled id hit a
        stale dead-state entry."""
        for _ in range(25):
            base = RegisterAutomaton(
                1, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", EMPTY, "q")]
            )
            spec = ExtendedAutomaton(
                base,
                [GlobalConstraint("neq", 1, 1, concat(literal("q"), plus(literal("q"))))],
            )
            checker = StreamingChecker(spec, empty_database)
            for index in range(4):
                assert checker.feed("q", ("v%d" % index,)) is None
            with pytest.raises(StreamingViolation):
                checker.feed("q", ("v1",))
            del spec, checker
            gc.collect()


class TestEvaluateTypeMemo:
    def test_equality_guard_memoized_by_pattern(self, empty_database):
        guard = SigmaType([eq(X(1), Y(1))])
        same = transition_valuation(("a",), ("a",))
        other_same = transition_valuation(("z",), ("z",))  # same pattern, new values
        different = transition_valuation(("a",), ("b",))
        assert evaluate_type(guard, empty_database, same) is True
        assert evaluate_type(guard, empty_database, other_same) is True
        assert evaluate_type(guard, empty_database, different) is False

    def test_database_sensitive_guards_are_not_memoized(self):
        signature = Signature(relations={"P": 1})
        guard = SigmaType([rel("P", X(1))])
        holds = Database(signature, relations={"P": [("a",)]})
        empty = Database(signature, relations={"P": []})
        valuation = transition_valuation(("a",), ("a",))
        assert evaluate_type(guard, holds, valuation) is True
        # same guard, same valuation, different database: must re-evaluate
        assert evaluate_type(guard, empty, valuation) is False

    def test_missing_valuation_still_raises(self, empty_database):
        guard = SigmaType([eq(X(1), Y(1))])
        with pytest.raises(EvaluationError):
            evaluate_type(guard, empty_database, {})


class TestStructuralKey:
    def test_equal_structure_equal_key(self):
        assert _chain_dfa({"s"}).structural_key() == _chain_dfa({"s"}).structural_key()
        assert _chain_dfa({"s"}).structural_key() != _chain_dfa({"t"}).structural_key()


class TestNoIdKeyedCaches:
    def test_src_contains_no_id_calls(self):
        """The CI lint, executed as a test: object ids must never be used
        (in cache keys or anywhere else) in the library source.  Runs the
        AST linter (``repro.analysis.lint``) rather than a grep, so
        comments, strings and identifiers ending in ``id`` don't trip it."""
        from repro.analysis.lint import lint_paths

        offenders = [
            finding.format()
            for finding in lint_paths([str(SRC_ROOT)])
            if finding.code == "ID001"
        ]
        assert not offenders, "id()-keyed code found:\n" + "\n".join(offenders)
