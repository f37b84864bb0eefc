"""Tests for the crash-surviving monitor multiplexer (`repro.core.monitor`).

The load-bearing contract: for every fault scenario the harness can
inject (driver volatile-state loss, failed snapshots, failed restores,
poison events), the per-session final
``(state, position, failed, peak_threads)`` fingerprints are
byte-identical to the fault-free serial run -- zero lost and zero
double-applied events.  Several tests deliberately tolerate an *ambient*
``REPRO_FAULTS`` plan (the CI fault-smoke leg runs this file under an
injected driver crash); tests that assert exact counters pin the plan
themselves.
"""

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
)
from repro.automata.regex import concat, literal, plus
from repro.core.monitor import (
    SNAPSHOT_VERSION,
    MonitorMultiplexer,
    SessionSnapshot,
)
from repro.core.runs import FiniteRun
from repro.core.streaming import StreamingChecker, StreamingViolation
from repro.foundations.errors import SpecificationError
from repro.foundations.faults import FaultInjected, reset_faults
from repro.foundations.resilience import (
    CancellationToken,
    OutcomeStatus,
    drain_events,
    recent_events,
)

EMPTY = SigmaType()


def distinct_extended() -> ExtendedAutomaton:
    """One register, one state, all values pairwise distinct (Example 7)."""
    base = RegisterAutomaton(
        1, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", EMPTY, "q")]
    )
    all_distinct = concat(literal("q"), plus(literal("q")))
    return ExtendedAutomaton(base, [GlobalConstraint("neq", 1, 1, all_distinct)])


@pytest.fixture
def extended():
    return distinct_extended()


@pytest.fixture
def db(empty_database):
    return empty_database


#: The corner of the multiplexer's two durability settings: a durable
#: snapshot after every event and a journal truncated constantly.
CORNER = {"snapshot_every": 1, "journal_cap": 8}


@pytest.fixture
def make_mux(request, extended, db):
    """Build a multiplexer at the requesting class's ``settings``.

    The multiplexer suites below run at the defaults; each runs again,
    unchanged, as a subclass at :data:`CORNER` (end of file), where every
    fingerprint, verdict and counter must come out the same.
    """
    settings = getattr(request.cls, "settings", {})
    return lambda: MonitorMultiplexer(extended, db, **settings)


@pytest.fixture
def no_faults(monkeypatch):
    """Pin an empty fault plan (for tests asserting exact counters)."""
    monkeypatch.setenv("REPRO_FAULTS", "")
    reset_faults()
    yield
    reset_faults()


def random_batches(seed=7, sessions=24, batches=8, batch_size=60, values=5):
    """A deterministic stream of (session, state, registers) batches."""
    rng = random.Random(seed)
    ids = ["s%03d" % index for index in range(sessions)]
    out = []
    for _ in range(batches):
        out.append(
            [
                (rng.choice(ids), "q", ("v%d" % rng.randrange(values),))
                for _ in range(batch_size)
            ]
        )
    return out


def oracle_fingerprints(extended, db, batches):
    """Per-session fingerprints from independent, uninterrupted checkers."""
    per_session = {}
    for batch in batches:
        for session, state, registers in batch:
            per_session.setdefault(session, []).append((state, registers))
    fingerprints = {}
    for session, events in per_session.items():
        checker = StreamingChecker(extended, db, strict=False)
        for state, registers in events:
            checker.feed(state, registers)
        state = checker._previous[0] if checker._previous else None
        fingerprints[session] = (
            state,
            checker.position,
            checker.failed,
            checker.peak_threads,
        )
    return fingerprints


def drive(mux, batches):
    for batch in batches:
        mux.ingest(batch)
    return mux


# ---------------------------------------------------------------------- #
# SessionSnapshot: round trips, guards, canonical form
# ---------------------------------------------------------------------- #


class TestSessionSnapshot:
    def test_round_trip_at_every_cut(self, extended, db):
        events = [("q", ("a",)), ("q", ("b",)), ("q", ("c",)), ("q", ("b",))]
        reference = StreamingChecker(extended, db, strict=False)
        expected = [reference.feed(s, r) for s, r in events]
        for cut in range(len(events) + 1):
            checker = StreamingChecker(extended, db, strict=False)
            outputs = [checker.feed(s, r) for s, r in events[:cut]]
            blob = pickle.dumps(checker.snapshot())
            resumed = StreamingChecker(extended, db, strict=False).restore(
                pickle.loads(blob)
            )
            outputs += [resumed.feed(s, r) for s, r in events[cut:]]
            assert outputs == expected
            assert resumed.position == reference.position
            assert resumed.peak_threads == reference.peak_threads
            assert resumed.failed == reference.failed

    def test_pickle_is_byte_stable(self, extended, db):
        def state_after(events):
            checker = StreamingChecker(extended, db, strict=False)
            for s, r in events:
                checker.feed(s, r)
            return pickle.dumps(checker.snapshot())

        events = [("q", ("a",)), ("q", ("b",)), ("q", ("a",))]
        assert state_after(events) == state_after(events)

    def test_version_tag_guard(self, extended, db):
        snap = StreamingChecker(extended, db).snapshot()
        assert snap.version == SNAPSHOT_VERSION
        import dataclasses

        stale = dataclasses.replace(snap, version=SNAPSHOT_VERSION + 1)
        with pytest.raises(SpecificationError):
            StreamingChecker(extended, db).restore(stale)

    def test_arity_and_constraint_guards(self, extended, db):
        snap = StreamingChecker(extended, db).snapshot()
        two_registers = ExtendedAutomaton(
            RegisterAutomaton(
                2, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", EMPTY, "q")]
            ),
            [],
        )
        with pytest.raises(SpecificationError):
            StreamingChecker(two_registers, db).restore(snap)
        no_constraints = ExtendedAutomaton(extended.automaton, [])
        with pytest.raises(SpecificationError):
            StreamingChecker(no_constraints, db).restore(snap)

    def test_restored_failed_checker_stays_failed(self, extended, db):
        # Regression: a snapshot taken after a non-strict violation must
        # resume failed -- returning the *original* message -- even when
        # restored into a checker constructed with the strict default.
        checker = StreamingChecker(extended, db, strict=False)
        checker.feed("q", ("a",))
        checker.feed("q", ("b",))
        message = checker.feed("q", ("a",))
        assert message is not None
        blob = pickle.dumps(checker.snapshot())
        restored = StreamingChecker(extended, db).restore(pickle.loads(blob))
        for _ in range(3):
            assert restored.feed("q", ("z",)) == message
        assert restored.failed == message
        assert restored.position == checker.position

    def test_restore_into_a_used_checker_matches_a_fresh_one(self, extended, db):
        # The multiplexer restores every session into one reused checker:
        # whatever that checker ran before must leave no trace.
        runs = [[], ["a"], ["a", "b", "c"], ["a", "b", "a"]]

        def driven(values, strict):
            checker = StreamingChecker(extended, db, strict=strict)
            for value in values:
                try:
                    checker.feed("q", (value,))
                except StreamingViolation:
                    pass
            return checker

        modes = [(values, strict) for values in runs for strict in (True, False)]
        for values, strict in modes:
            snapshot = driven(values, strict).snapshot()
            fresh = StreamingChecker(extended, db, strict=snapshot.strict)
            fresh.restore(snapshot)
            for used_values, used_strict in modes:
                reused = driven(used_values, used_strict).restore(snapshot)
                assert vars(reused) == vars(fresh)


class TestSnapshotRoundTripProperty:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        values=st.lists(
            st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=12
        ),
        data=st.data(),
    )
    def test_resume_matches_uninterrupted_feed_run(self, values, data):
        # For a random run and a random snapshot point: snapshot ->
        # pickle -> restore -> resume gives verdicts, violation messages
        # and peak_threads identical to one uninterrupted feed_run.
        extended = distinct_extended()
        db = Database(Signature.empty())
        cut = data.draw(st.integers(min_value=0, max_value=len(values)))
        run = FiniteRun(
            data=tuple((value,) for value in values),
            states=tuple("q" for _ in values),
            guards=tuple(EMPTY for _ in values[1:]),
        )
        reference = StreamingChecker(extended, db, strict=False)
        expected = reference.feed_run(run)

        checker = StreamingChecker(extended, db, strict=False)
        resumed_message = None
        for value in values[:cut]:
            resumed_message = checker.feed("q", (value,))
            if resumed_message is not None:
                break
        if resumed_message is None:
            checker = StreamingChecker(extended, db, strict=False).restore(
                pickle.loads(pickle.dumps(checker.snapshot()))
            )
            for value in values[cut:]:
                resumed_message = checker.feed("q", (value,))
                if resumed_message is not None:
                    break
        assert resumed_message == expected
        assert checker.failed == reference.failed
        assert checker.peak_threads == reference.peak_threads
        assert checker.position == reference.position


# ---------------------------------------------------------------------- #
# MonitorMultiplexer: basics
# ---------------------------------------------------------------------- #


class TestMultiplexerBasics:
    def test_matches_independent_checkers(self, extended, db, make_mux):
        batches = random_batches()
        mux = drive(make_mux(), batches)
        assert mux.fingerprints() == oracle_fingerprints(extended, db, batches)

    def test_violations_reported_per_session(self, make_mux):
        mux = make_mux()
        report = mux.ingest(
            [("a", "q", ("v1",)), ("a", "q", ("v1",)), ("b", "q", ("v1",))]
        )
        assert "a" in report.violations
        assert "inequality" in report.violations["a"]
        assert "b" not in report.violations
        # the failed session keeps answering with the original message
        again = mux.ingest([("a", "q", ("v9",))])
        assert again.violations["a"] == report.violations["a"]

    def test_duplicate_open_raises(self, make_mux):
        mux = make_mux()
        mux.open_session("a")
        with pytest.raises(SpecificationError):
            mux.open_session("a")

    def test_close_and_cancel_taxonomy(self, make_mux):
        mux = make_mux()
        mux.ingest([("a", "q", ("v1",)), ("b", "q", ("v1",))])
        closed = mux.close_session("a")
        assert closed.status is OutcomeStatus.COMPLETE
        assert closed.stats["position"] == 0
        cancelled = mux.cancel_session("b", "operator stop")
        assert cancelled.status is OutcomeStatus.CANCELLED
        assert cancelled.stats["reason"] == "operator stop"
        # terminal sessions ack but never apply further events
        report = mux.ingest([("a", "q", ("v2",)), ("b", "q", ("v2",))])
        assert report.skipped == 2 and report.applied == 0
        assert mux.session_fingerprint("a")[1] == 0
        assert mux.live_sessions() == 0

    def test_journal_stays_bounded(self, extended, db, no_faults):
        mux = MonitorMultiplexer(extended, db, journal_cap=8, snapshot_every=1000)
        batches = random_batches(sessions=6, batches=10, batch_size=12)
        for batch in batches:
            mux.ingest(batch)
            assert mux.stats()["journal_len"] <= 8 + len(batch)
        assert mux.fingerprints() == oracle_fingerprints(extended, db, batches)


# ---------------------------------------------------------------------- #
# crash recovery: zero lost, zero double-applied
# ---------------------------------------------------------------------- #


class TestCrashRecovery:
    def test_driver_crash_mid_ingest_recovers_identically(
        self, make_mux, monkeypatch
    ):
        batches = random_batches()
        monkeypatch.setenv("REPRO_FAULTS", "")
        reset_faults()
        baseline = drive(make_mux(), batches)
        total = sum(len(batch) for batch in batches)
        assert baseline.stats()["events_applied"] == total
        drain_events()
        monkeypatch.setenv("REPRO_FAULTS", "monitor.ingest:crash:3")
        reset_faults()
        crashed = drive(make_mux(), batches)
        reset_faults()
        assert crashed.fingerprints() == baseline.fingerprints()
        # no lost and no double-applied events
        assert crashed.stats()["events_applied"] == total
        assert crashed.stats()["recoveries"] == 1
        assert len(recent_events("RS007")) == 1
        drain_events()

    def test_explicit_recover_is_idempotent(self, make_mux, no_faults):
        batches = random_batches(batches=3)
        mux = drive(make_mux(), batches)
        before = mux.fingerprints()
        assert mux.recover() == mux.stats()["sessions"]
        assert mux.recover() == mux.stats()["sessions"]
        assert mux.fingerprints() == before

    def test_snapshot_faults_leave_recovery_exact(
        self, extended, db, make_mux, monkeypatch
    ):
        batches = random_batches()
        monkeypatch.setenv("REPRO_FAULTS", "")
        reset_faults()
        baseline = drive(make_mux(), batches).fingerprints()
        drain_events()
        # Every early durable-snapshot write fails; the journal keeps the
        # tail, so a later crash still recovers byte-identically.
        monkeypatch.setenv(
            "REPRO_FAULTS", "monitor.snapshot:raise:1-4,monitor.ingest:crash:5"
        )
        reset_faults()
        crashed = drive(
            MonitorMultiplexer(extended, db, snapshot_every=4), batches
        ).fingerprints()
        reset_faults()
        assert crashed == baseline
        assert len(recent_events("RS009")) == 4
        drain_events()

    def test_restore_crash_restarts_recovery(self, make_mux, monkeypatch):
        batches = random_batches()
        monkeypatch.setenv("REPRO_FAULTS", "")
        reset_faults()
        baseline = drive(make_mux(), batches).fingerprints()
        monkeypatch.setenv(
            "REPRO_FAULTS", "monitor.restore:crash:1,monitor.ingest:crash:1"
        )
        reset_faults()
        crashed = drive(make_mux(), batches).fingerprints()
        reset_faults()
        assert crashed == baseline

    def test_atomic_batch_reject(self, make_mux, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "")
        reset_faults()
        mux = make_mux()
        mux.ingest([("a", "q", ("v1",))])
        before = (mux.fingerprints(), mux.stats()["journal_len"])
        monkeypatch.setenv("REPRO_FAULTS", "monitor.ingest:raise:1")
        reset_faults()
        with pytest.raises(FaultInjected):
            mux.ingest([("a", "q", ("v2",)), ("b", "q", ("v1",))])
        monkeypatch.setenv("REPRO_FAULTS", "")
        reset_faults()
        # nothing journaled, nothing applied, no session opened
        assert (mux.fingerprints(), mux.stats()["journal_len"]) == before
        assert mux.stats()["sessions"] == 1


# ---------------------------------------------------------------------- #
# per-session quarantine
# ---------------------------------------------------------------------- #


class _Unhashable:
    """A poison register value: feeding it raises inside the thread sets."""

    __hash__ = None


class TestQuarantine:
    def test_poison_event_fails_only_its_session(self, make_mux, no_faults):
        mux = make_mux()
        mux.ingest([("a", "q", ("v1",)), ("b", "q", ("v1",))])
        drain_events()
        report = mux.ingest([("a", "q", (_Unhashable(),)), ("b", "q", ("v2",))])
        assert report.quarantined == ("a",)
        assert mux.quarantined_sessions() == ("a",)
        outcome = mux.session_outcome("a")
        assert outcome.status is OutcomeStatus.DEGRADED
        assert outcome.stats["reason"] == "poison-event"
        # the poisoned session froze at its last good position...
        assert mux.session_fingerprint("a")[1] == 0
        # ...and its neighbour proceeded untouched
        assert mux.session_fingerprint("b")[1] == 1
        assert [event.code for event in drain_events() if event.code == "RS008"]

    def test_neighbours_of_a_poison_run_on_the_rolled_back_checker(
        self, extended, db, make_mux, no_faults
    ):
        # Ingest reuses one checker: the sessions after the poisoned one
        # run on the checker its rollback just restored.
        mux = make_mux()
        sessions = ["s%d" % index for index in range(5)]
        first = [(s, "q", ("v%d" % index,)) for index, s in enumerate(sessions)]
        # s2 is poisoned mid-task; s3, next, repeats its first value
        middle = {"s2": (_Unhashable(),), "s3": ("v3",)}
        second = []
        for index, s in enumerate(sessions):
            second.append((s, "q", ("w%d" % index,)))
            second.append((s, "q", middle.get(s, ("y%d" % index,))))
            second.append((s, "q", ("x%d" % index,)))
        mux.ingest(first)
        report = mux.ingest(second)
        assert report.quarantined == ("s2",)
        assert set(report.violations) == {"s3"}
        fed = [[e for e in batch if e[0] != "s2"] for batch in (first, second)]
        fed.append([("s2", "q", ("v2",)), ("s2", "q", ("w2",))])
        expected = oracle_fingerprints(extended, db, fed)
        assert {s: mux.session_fingerprint(s) for s in sessions} == expected

    def test_quarantine_is_durable_across_crashes(
        self, make_mux, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "")
        reset_faults()
        mux = make_mux()
        mux.ingest([("a", "q", ("v1",)), ("b", "q", ("v1",))])
        mux.ingest([("a", "q", (_Unhashable(),)), ("b", "q", ("v2",))])
        frozen = mux.session_fingerprint("a")
        monkeypatch.setenv("REPRO_FAULTS", "monitor.ingest:crash:1")
        reset_faults()
        report = mux.ingest([("a", "q", ("v3",)), ("b", "q", ("v3",))])
        reset_faults()
        assert report.skipped + report.applied >= 1
        assert mux.session_outcome("a").status is OutcomeStatus.DEGRADED
        assert mux.session_fingerprint("a") == frozen
        assert mux.session_fingerprint("b")[1] == 2

    def test_restore_failure_quarantines_one_session(
        self, make_mux, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "")
        reset_faults()
        mux = make_mux()
        mux.ingest([("a", "q", ("v1",)), ("b", "q", ("v1",)), ("c", "q", ("v1",))])
        monkeypatch.setenv(
            "REPRO_FAULTS", "monitor.restore:raise:1,monitor.ingest:crash:1"
        )
        reset_faults()
        mux.ingest([("a", "q", ("v2",)), ("b", "q", ("v2",)), ("c", "q", ("v2",))])
        reset_faults()
        assert len(mux.quarantined_sessions()) == 1
        (victim,) = mux.quarantined_sessions()
        assert mux.session_outcome(victim).stats["reason"] == "restore-failed"
        for session in "abc":
            if session != victim:
                assert mux.session_fingerprint(session)[1] == 1


# ---------------------------------------------------------------------- #
# deadlines and cancellation
# ---------------------------------------------------------------------- #


class TestDeadlinesAndCancellation:
    def test_expired_deadline_times_out_without_losing_events(
        self, make_mux, no_faults
    ):
        mux = make_mux()
        report = mux.ingest(
            [("a", "q", ("v1",)), ("b", "q", ("v1",))], deadline=0
        )
        assert report.outcome.status is OutcomeStatus.TIMEOUT
        # the batch is journaled; the next ingest drains it first
        mux.ingest([("a", "q", ("v2",))])
        assert mux.session_fingerprint("a")[1] == 1
        assert mux.session_fingerprint("b")[1] == 0

    def test_recover_drains_timed_out_batch(self, make_mux, no_faults):
        mux = make_mux()
        report = mux.ingest([("a", "q", ("v1",))], deadline=0)
        assert report.outcome.status is OutcomeStatus.TIMEOUT
        assert report.applied == 0
        mux.recover()
        assert mux.session_fingerprint("a")[1] == 0

    @pytest.mark.parametrize("terminate", ["close_session", "cancel_session"])
    def test_terminating_drains_events_a_timed_out_ingest_left(
        self, make_mux, no_faults, terminate
    ):
        mux = make_mux()
        mux.ingest([("a", "q", ("v1",))])
        mux.ingest([("a", "q", ("v2",)), ("a", "q", ("v1",))], deadline=0)
        outcome = getattr(mux, terminate)("a")
        assert outcome.stats["position"] == 2
        assert "inequality" in outcome.stats["failed"]
        assert mux.stats()["events_applied"] == 3

    def test_drained_events_are_counted_once(self, make_mux, no_faults):
        mux = make_mux()
        mux.ingest([("a", "q", ("v1",)), ("b", "q", ("v1",))], deadline=0)
        report = mux.ingest([("a", "q", ("v2",))])
        assert mux.fingerprints() == {"a": ("q", 1, None, 2), "b": ("q", 0, None, 1)}
        assert report.applied == 3
        assert mux.stats()["events_applied"] == 3

    def test_crash_recovery_counts_the_events_it_drains(
        self, extended, db, monkeypatch
    ):
        # Cap pressure snapshots "a" while the timed-out batch is pending;
        # the crash there recovers in-line and drains that batch.
        monkeypatch.setenv("REPRO_FAULTS", "monitor.snapshot:crash:1")
        reset_faults()
        try:
            mux = MonitorMultiplexer(extended, db, snapshot_every=1000, journal_cap=1)
            mux.ingest([("a", "q", ("v1",))])
            report = mux.ingest(
                [("a", "q", ("v2",)), ("a", "q", ("v1",)), ("b", "q", ("v1",))],
                deadline=0,
            )
        finally:
            reset_faults()
        assert mux.stats()["recoveries"] == 1
        assert report.applied == 3
        assert mux.stats()["events_applied"] == 4
        assert mux.session_fingerprint("a")[:2] == ("q", 2)

    def test_cancellation_outcome(self, make_mux, no_faults):
        token = CancellationToken()
        token.cancel("operator stop")
        mux = make_mux()
        report = mux.ingest([("a", "q", ("v1",))], cancel=token)
        assert report.outcome.status is OutcomeStatus.CANCELLED
        mux.recover()
        assert mux.session_fingerprint("a")[1] == 0


# ---------------------------------------------------------------------- #
# interrupted ingests against the same program without deadlines
# ---------------------------------------------------------------------- #

#: Few values, so sessions violate the all-distinct spec; one poison.
PROGRAM_VALUES = ["v1", "v2", "v3", "v4", _Unhashable()]


@st.composite
def monitor_programs(draw):
    """2-6 sessions and a mix of ingests, closes, cancels and recovers."""
    sessions = ["s%d" % index for index in range(draw(st.integers(2, 6)))]
    event = st.tuples(
        st.sampled_from(sessions),
        st.just("q"),
        st.tuples(st.sampled_from(PROGRAM_VALUES)),
    )
    terminate = st.sampled_from(["close_session", "cancel_session"])
    step = st.one_of(
        st.tuples(st.just("ingest"), st.lists(event, max_size=8), st.booleans()),
        st.tuples(terminate, st.sampled_from(sessions)),
        st.tuples(st.just("recover")),
    )
    return draw(st.lists(step, min_size=1, max_size=12))


def assert_counters(mux):
    """The O(1) stats() counters agree with the sessions themselves."""
    stats = mux.stats()
    live = [s for s in mux.session_ids() if mux.session_outcome(s) is None]
    assert stats["live"] == mux.live_sessions() == len(live)
    assert stats["quarantined"] == len(mux.quarantined_sessions())


def run_program(extended, db, program, deadlines):
    """Run *program* (deadlines kept or dropped); return what must agree."""
    mux = MonitorMultiplexer(extended, db, snapshot_every=2, journal_cap=4)
    for step in program:
        if step[0] == "ingest":
            mux.ingest(step[1], deadline=0 if deadlines and step[2] else None)
        elif step[0] == "recover":
            mux.recover()
        else:
            try:
                getattr(mux, step[0])(step[1])
            except SpecificationError:
                pass  # never opened: both runs agree on that
        assert_counters(mux)
    mux.recover()
    assert_counters(mux)
    outcomes = {}
    for session in mux.session_ids():
        outcome = mux.session_outcome(session)
        if outcome is not None:
            outcomes[session] = (outcome.status, outcome.stats)
    return mux.fingerprints(), outcomes, mux.stats()["events_applied"]


class TestInterruptedIngestProperty:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(program=monitor_programs(), at=st.integers(1, 4))
    def test_timeouts_lose_and_double_count_nothing(
        self, extended, db, monkeypatch, program, at
    ):
        # Timed-out ingests leave their events pending; whoever drains them
        # (the next ingest, a close or cancel, recover) applies and counts
        # each once, so the run ends exactly where the same program without
        # deadlines does -- also under driver crashes and skipped snapshots.
        monkeypatch.setenv("REPRO_FAULTS", "")
        reset_faults()
        expected = run_program(extended, db, program, deadlines=False)
        assert run_program(extended, db, program, deadlines=True) == expected
        for plan in ("monitor.ingest:crash:%d" % at, "monitor.snapshot:raise:%d" % at):
            monkeypatch.setenv("REPRO_FAULTS", plan)
            reset_faults()
            try:
                assert run_program(extended, db, program, deadlines=True) == expected
            finally:
                reset_faults()


# ---------------------------------------------------------------------- #
# the same suites at the corner of the durability settings
# ---------------------------------------------------------------------- #


class TestMultiplexerBasicsAtCorner(TestMultiplexerBasics):
    settings = CORNER
    test_journal_stays_bounded = None  # sets both arguments itself


class TestCrashRecoveryAtCorner(TestCrashRecovery):
    settings = CORNER


class TestQuarantineAtCorner(TestQuarantine):
    settings = CORNER


class TestDeadlinesAndCancellationAtCorner(TestDeadlinesAndCancellation):
    settings = CORNER
    test_crash_recovery_counts_the_events_it_drains = None  # sets both itself
