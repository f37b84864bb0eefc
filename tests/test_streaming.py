"""Tests for the streaming run checker."""

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    neq,
)
import repro.db.evaluation as evaluation
from repro.automata.regex import concat, literal, plus, star
from repro.core.streaming import StreamingChecker, StreamingViolation, _canonical_threads
from repro.generators.automata import random_constraint_regex, random_equality_type
from tests.helpers import literal_streaming_checker

EMPTY = SigmaType()


@pytest.fixture
def example5(example5_extended):
    return example5_extended


@pytest.fixture
def db(empty_database):
    return empty_database


class TestValidity:
    def test_accepts_valid_stream(self, example1_automaton, db):
        checker = StreamingChecker(ExtendedAutomaton(example1_automaton, []), db)
        assert checker.feed("q1", ("v", "v")) is None
        assert checker.feed("q2", ("w", "v")) is None
        assert checker.feed("q2", ("u", "v")) is None
        assert checker.feed("q1", ("v", "v")) is None

    def test_rejects_bad_initial_state(self, example1_automaton, db):
        checker = StreamingChecker(ExtendedAutomaton(example1_automaton, []), db)
        with pytest.raises(StreamingViolation):
            checker.feed("q2", ("v", "v"))

    def test_rejects_guard_violation(self, example1_automaton, db):
        checker = StreamingChecker(ExtendedAutomaton(example1_automaton, []), db)
        checker.feed("q1", ("v", "v"))
        # delta1 and delta2/3 all require x2 = y2: changing register 2 fails
        with pytest.raises(StreamingViolation):
            checker.feed("q2", ("w", "CHANGED"))

    def test_rejects_wrong_arity(self, example1_automaton, db):
        checker = StreamingChecker(ExtendedAutomaton(example1_automaton, []), db)
        with pytest.raises(StreamingViolation):
            checker.feed("q1", ("v",))

    def test_at_most_one_valuation_per_event(self, example7_extended, db, monkeypatch):
        built = []
        real = evaluation.transition_valuation

        def counting(before, after, extra=None):
            built.append(position)
            return real(before, after, extra)

        monkeypatch.setattr(evaluation, "transition_valuation", counting)
        # two guards between the same states share one valuation
        base = RegisterAutomaton(
            1,
            Signature.empty(),
            {"p"},
            {"p"},
            {"p"},
            [("p", SigmaType([eq(X(1), Y(1))]), "p"), ("p", SigmaType([neq(X(1), Y(1))]), "p")],
        )
        checker = StreamingChecker(ExtendedAutomaton(base, []), db)
        for position, value in enumerate("abbc"):
            assert checker.feed("p", (value,)) is None
        assert built == [1, 2, 3]
        # a literal-free guard (Example 7) needs none
        del built[:]
        checker = StreamingChecker(example7_extended, db)
        for position in range(5):
            assert checker.feed("q", ("v%d" % position,)) is None
        assert built == []

    def test_non_strict_mode_reports(self, example1_automaton, db):
        checker = StreamingChecker(
            ExtendedAutomaton(example1_automaton, []), db, strict=False
        )
        message = checker.feed("q2", ("v", "v"))
        assert message is not None
        assert checker.failed == message


class TestConstraints:
    def test_equality_constraint_streamed(self, example5, db):
        checker = StreamingChecker(example5, db)
        checker.feed("p1", ("d",))
        checker.feed("p2", ("a",))
        checker.feed("p2", ("b",))
        assert checker.feed("p1", ("d",)) is None  # same value back at p1

    def test_equality_violation_detected_at_completion(self, example5, db):
        checker = StreamingChecker(example5, db)
        checker.feed("p1", ("d",))
        checker.feed("p2", ("a",))
        with pytest.raises(StreamingViolation):
            checker.feed("p1", ("OTHER",))

    def test_inequality_constraint_streamed(self, example7_extended, db):
        checker = StreamingChecker(example7_extended, db)
        for index in range(6):
            assert checker.feed("q", ("v%d" % index,)) is None
        with pytest.raises(StreamingViolation):
            checker.feed("q", ("v2",))  # repeats an earlier value

    def test_agrees_with_batch_checker(self, example7_extended, db):
        """Streaming and batch verdicts coincide on finite runs."""
        from repro import FiniteRun

        good = FiniteRun(
            tuple(("v%d" % i,) for i in range(5)), ("q",) * 5, (EMPTY,) * 4
        )
        bad = FiniteRun(
            (("a",), ("b",), ("a",)), ("q",) * 3, (EMPTY,) * 2
        )
        for run, expected in ((good, True), (bad, False)):
            checker = StreamingChecker(example7_extended, db, strict=False)
            message = checker.feed_run(run)
            assert (message is None) == expected
            assert example7_extended.satisfies_constraints(run) == expected


class TestMemoryDiscipline:
    def test_bounded_threads_on_lr_bounded_spec(self, db):
        """Adjacent-disequality spec: live threads stay bounded (Thm 19)."""
        base = RegisterAutomaton(
            1,
            Signature.empty(),
            {"p", "q"},
            {"p"},
            {"p"},
            [("p", EMPTY, "q"), ("q", EMPTY, "p")],
        )
        spec = ExtendedAutomaton(
            base, [GlobalConstraint("neq", 1, 1, concat(literal("p"), literal("q")))]
        )
        checker = StreamingChecker(spec, db)
        for index in range(200):
            state = "p" if index % 2 == 0 else "q"
            checker.feed(state, ("v%d" % index,))
        assert checker.peak_threads <= 4

    def test_unbounded_threads_on_all_distinct(self, example7_extended, db):
        """All-distinct: stored values grow with the stream (the paper's
        point: no register automaton, hence no bounded memory, suffices)."""
        checker = StreamingChecker(example7_extended, db)
        for index in range(50):
            checker.feed("q", ("v%d" % index,))
        assert checker.peak_threads >= 49


class TestFailedStateAndSnapshots:
    """The failed-state contract `MonitorMultiplexer` snapshots rely on."""

    def test_non_strict_failure_is_sticky_and_verbatim(
        self, example7_extended, db
    ):
        checker = StreamingChecker(example7_extended, db, strict=False)
        checker.feed("q", ("a",))
        checker.feed("q", ("b",))
        message = checker.feed("q", ("a",))
        assert message is not None
        position = checker.position
        for _ in range(3):
            assert checker.feed("q", ("fresh",)) == message
        assert checker.failed == message
        assert checker.position == position  # failed feeds consume nothing

    def test_snapshot_after_violation_restores_failed(
        self, example7_extended, db
    ):
        # Regression: the snapshot carries strictness, so a non-strict
        # session restored into a default (strict) checker keeps
        # *returning* the original message instead of raising.
        checker = StreamingChecker(example7_extended, db, strict=False)
        checker.feed("q", ("a",))
        checker.feed("q", ("b",))
        message = checker.feed("q", ("a",))
        snapshot = checker.snapshot()
        restored = StreamingChecker(example7_extended, db).restore(snapshot)
        assert restored.feed("q", ("c",)) == message
        assert restored.failed == message

    def test_strict_failure_keeps_raising_after_restore(
        self, example7_extended, db
    ):
        checker = StreamingChecker(example7_extended, db)
        checker.feed("q", ("a",))
        checker.feed("q", ("b",))
        with pytest.raises(StreamingViolation) as first:
            checker.feed("q", ("a",))
        restored = StreamingChecker(example7_extended, db, strict=False).restore(
            checker.snapshot()
        )
        with pytest.raises(StreamingViolation) as again:
            restored.feed("q", ("c",))
        assert str(again.value) == str(first.value)

    def test_mid_run_snapshot_resumes_byte_identically(
        self, example7_extended, db
    ):
        events = [("q", ("a",)), ("q", ("b",)), ("q", ("c",)), ("q", ("b",))]
        reference = StreamingChecker(example7_extended, db, strict=False)
        expected = [reference.feed(s, r) for s, r in events]
        resumed = StreamingChecker(example7_extended, db, strict=False)
        resumed.feed(*events[0])
        resumed.feed(*events[1])
        resumed = StreamingChecker(example7_extended, db, strict=False).restore(
            resumed.snapshot()
        )
        outputs = expected[:2] + [resumed.feed(s, r) for s, r in events[2:]]
        assert outputs == expected
        assert resumed.peak_threads == reference.peak_threads


@st.composite
def compiled_step_cases(draw):
    """A random spec, a strictness, a run over it and a restore cut.

    k <= 2 and 1-3 states; every ordered state pair draws 0-3 guards,
    each literal-free or a random equality type, so a pair's first guard
    has literals or not and more guards may follow it.  0-2 ``eq``/``neq``
    constraints over ``random_constraint_regex``.  The run may start
    outside the initial states, name an unknown state, break a guard,
    have a wrong arity or violate a constraint.
    """
    k = draw(st.integers(1, 2))
    states = ["s%d" % index for index in range(draw(st.integers(1, 3)))]
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    transitions = [
        (source, SigmaType() if literal_free else random_equality_type(rng, k), target)
        for source in states
        for target in states
        for literal_free in draw(st.lists(st.booleans(), max_size=3))
    ]
    initial = draw(st.sets(st.sampled_from(states), min_size=1))
    base = RegisterAutomaton(k, Signature.empty(), states, initial, {states[0]}, transitions)
    constraints = [
        GlobalConstraint(
            draw(st.sampled_from(["eq", "neq"])),
            draw(st.integers(1, k)),
            draw(st.integers(1, k)),
            random_constraint_regex(rng, states),
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    value = st.sampled_from(["a", "b", "c"])
    arity = st.sampled_from([k] * 8 + [k - 1, k + 1])
    registers = arity.flatmap(lambda n: st.lists(value, min_size=n, max_size=n)).map(tuple)
    state = st.sampled_from(states * 4 + ["elsewhere"])
    events = draw(st.lists(st.tuples(state, registers), min_size=1, max_size=12))
    cut = draw(st.integers(0, len(events)))
    return ExtendedAutomaton(base, constraints), draw(st.booleans()), events, cut


def step(checker, state, registers):
    """``feed``'s answer: ``("returned", verdict)`` or ``("raised", message)``."""
    try:
        return ("returned", checker.feed(state, registers))
    except StreamingViolation as violation:
        return ("raised", str(violation))


def observed(checker):
    return (
        checker.position,
        checker.failed,
        checker.peak_threads,
        checker.live_threads(),
        _canonical_threads(tuple(checker._threads)),
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=compiled_step_cases())
def test_compiled_feed_agrees_with_the_uncompiled_oracle(case):
    # The tables feed compiles per specification answer every event as
    # the per-event dfa.delta / transitions_between / some_guard_holds
    # walk does, verdicts and messages included, also across a pickled
    # snapshot restored into a fresh checker.
    spec, strict, events, cut = case
    db = Database(Signature.empty())
    oracle = literal_streaming_checker(spec, db, strict=strict)
    checker = StreamingChecker(spec, db, strict=strict)
    for position, (state, registers) in enumerate(events):
        if position == cut:
            blob = pickle.dumps(checker.snapshot())
            checker = StreamingChecker(spec, db).restore(pickle.loads(blob))
        assert step(checker, state, registers) == step(oracle, state, registers)
        assert observed(checker) == observed(oracle)
