"""Tests for the crash-surviving monitor multiplexer (`repro.core.monitor`).

The load-bearing contract: for every fault scenario the harness can
inject (driver volatile-state loss, failed snapshots, failed restores,
poison events), the per-session final
``(state, position, failed, peak_threads)`` fingerprints are
byte-identical to the fault-free serial run -- zero lost and zero
double-applied events.  Several tests deliberately tolerate an *ambient*
``REPRO_FAULTS`` plan (the CI fault-smoke legs run this file under an
injected driver crash and under a crashed checkpoint); tests that assert
exact counters pin the plan themselves.
"""

import copy
import dataclasses
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

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
from repro.automata.regex import concat, literal, plus, union
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
    Deadline,
    DeadlineExceeded,
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


def pair_extended() -> ExtendedAutomaton:
    """``e=[1,2](pp|ppp)`` over one state ``p``, k = 2.

    Register 1 at a factor's start must equal register 2 two and three
    positions later, so two accepting DFA states hold stored values at
    once and an equality violation can name a value from either.
    """
    base = RegisterAutomaton(
        2, Signature.empty(), {"p"}, {"p"}, {"p"}, [("p", EMPTY, "p")]
    )
    p = literal("p")
    pairs = union(concat(p, p), concat(p, p, p))
    return ExtendedAutomaton(base, [GlobalConstraint("eq", 1, 2, pairs)])


def eq_neq_extended() -> ExtendedAutomaton:
    """Register 1 never changes, register 2 never repeats (k = 2)."""
    base = RegisterAutomaton(
        2, Signature.empty(), {"p"}, {"p"}, {"p"}, [("p", EMPTY, "p")]
    )
    p = literal("p")
    return ExtendedAutomaton(
        base,
        [
            GlobalConstraint("eq", 1, 1, concat(p, p)),
            GlobalConstraint("neq", 2, 2, concat(p, plus(p))),
        ],
    )


@pytest.fixture
def extended():
    return distinct_extended()


@pytest.fixture
def db(empty_database):
    return empty_database


@pytest.fixture
def make_mux(extended, db):
    """A factory of fresh multiplexers over the all-distinct spec."""
    return lambda: MonitorMultiplexer(extended, db)


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


class TestMessageIndependentOfTableOrder:
    """A violation message names the same value however the run was cut.

    A thread table restored from a pickle is in ``repr`` order, an
    uninterrupted one in the order ``feed`` built it; the least-``repr``
    bad value over *all* accepting states does not depend on either.
    """

    EVENTS = [("a", "a"), ("b", "a"), ("a", "c")]
    MESSAGE = (
        "position 2: equality constraint e=[1,2](pp|ppp) expects \"'a'\", saw 'c'"
    )

    def test_every_path_reports_the_same_failure(self, db):
        spec = pair_extended()
        uninterrupted = StreamingChecker(spec, db, strict=False)
        for registers in self.EVENTS:
            uninterrupted.feed("p", registers)
        pickled = StreamingChecker(spec, db, strict=False)
        for registers in self.EVENTS:
            blob = pickle.dumps(pickled.snapshot())
            pickled = StreamingChecker(spec, db, strict=False).restore(
                pickle.loads(blob)
            )
            pickled.feed("p", registers)
        one_ingest = MonitorMultiplexer(spec, db)
        one_ingest.ingest([("s", "p", registers) for registers in self.EVENTS])
        three_ingests = MonitorMultiplexer(spec, db)
        for registers in self.EVENTS:
            three_ingests.ingest([("s", "p", registers)])
        assert uninterrupted.failed == self.MESSAGE
        assert pickled.failed == self.MESSAGE
        assert one_ingest.session_fingerprint("s")[2] == self.MESSAGE
        assert three_ingests.session_fingerprint("s")[2] == self.MESSAGE


#: Spec factories with their one state and register arity, for the
#: properties below.
PROPERTY_SPECS = {
    "example7": (distinct_extended, "q", 1),
    "pp|ppp": (pair_extended, "p", 2),
    "eq/neq": (eq_neq_extended, "p", 2),
}


@st.composite
def spec_runs(draw, specs=tuple(PROPERTY_SPECS)):
    """A spec, its state and 1-10 register tuples over three values."""
    build, state, k = PROPERTY_SPECS[draw(st.sampled_from(specs))]
    registers = st.tuples(*[st.sampled_from(["a", "b", "c"])] * k)
    return build(), state, draw(st.lists(registers, min_size=1, max_size=10))


def fed(spec, db, state, runs):
    """A non-strict checker over *spec* fed every register tuple of *runs*."""
    checker = StreamingChecker(spec, db, strict=False)
    for registers in runs:
        checker.feed(state, registers)
    return checker


class TestSnapshotProperties:
    @pytest.mark.parametrize("name", ["example7", "pp|ppp"])
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        data=st.data(),
        sessions=st.lists(st.sampled_from(["s0", "s1"]), min_size=10, max_size=10),
        cuts=st.sets(st.integers(1, 9), min_size=1, max_size=6),
    )
    def test_batching_leaves_fingerprints_alone(self, name, data, sessions, cuts):
        # Any cut of the stream into ingests ends where independent,
        # uninterrupted checkers do (under an ambient fault plan too).
        spec, state, registers = data.draw(spec_runs(specs=(name,)))
        db = Database(Signature.empty())
        events = [(s, state, r) for s, r in zip(sessions, registers)]
        bounds = [0] + sorted(cut for cut in cuts if cut < len(events)) + [len(events)]
        batches = [events[start:end] for start, end in zip(bounds, bounds[1:])]
        mux = drive(MonitorMultiplexer(spec, db), batches)
        assert mux.fingerprints() == oracle_fingerprints(spec, db, batches)

    @settings(max_examples=80, deadline=None)
    @given(run=spec_runs(), data=st.data())
    def test_captured_snapshot_never_changes(self, run, data):
        # The snapshot shares the checker's tables: whatever the checker
        # does next -- feed on, fail, restore another snapshot -- the
        # capture stays equal to itself and pickles to the same bytes.
        spec, state, registers = run
        db = Database(Signature.empty())
        cut = data.draw(st.integers(0, len(registers)))
        checker = fed(spec, db, state, registers[:cut])
        snapshot = checker.snapshot()
        blob = pickle.dumps(snapshot, protocol=4)
        for values in registers[cut:]:
            checker.feed(state, values)
        # u, u, w fails every spec here, whatever came before
        for value in ("u", "u", "w"):
            checker.feed(state, (value,) * len(registers[0]))
        assert checker.failed is not None
        checker.restore(fed(spec, db, state, registers[::-1]).snapshot())
        for values in registers:
            checker.feed(state, values)
        assert snapshot == pickle.loads(blob)
        assert pickle.dumps(snapshot, protocol=4) == blob

    @settings(max_examples=80, deadline=None)
    @given(run=spec_runs(), data=st.data())
    def test_resumed_checker_snapshots_equal_uninterrupted(self, run, data):
        # A checker resumed from a pickle holds its tables in repr order,
        # an uninterrupted one in feed order; their snapshots are equal
        # and hash alike at every later cut.  (Their pickles may differ:
        # pickle writes a value once only where it is one object, and
        # unpickling makes new objects of the values it stored.)
        spec, state, registers = run
        db = Database(Signature.empty())
        cut = data.draw(st.integers(0, len(registers)))
        reference = StreamingChecker(spec, db, strict=False)
        expected = []
        for values in registers:
            reference.feed(state, values)
            expected.append(reference.snapshot())
        blob = pickle.dumps(fed(spec, db, state, registers[:cut]).snapshot())
        resumed = StreamingChecker(spec, db, strict=False).restore(pickle.loads(blob))
        for position in range(cut, len(registers)):
            resumed.feed(state, registers[position])
            snapshot = resumed.snapshot()
            assert snapshot == expected[position]
            assert hash(snapshot) == hash(expected[position])


GOLDEN_PICKLES = json.loads(
    (Path(__file__).resolve().parent / "goldens" / "session_snapshots.json").read_text()
)

#: The runs behind the golden pickles: spec, state, the run pickled and a
#: tail fed after it.
GOLDEN_RUNS = {
    "example7_healthy": (
        distinct_extended,
        "q",
        [("a",), ("b",), ("c",), ("d",)],
        [("e",), ("b",), ("f",)],
    ),
    "eq_neq_failed": (
        eq_neq_extended,
        "p",
        [("k", "a"), ("k", "b"), ("k", "a")],
        [("k", "c")],
    ),
}


class TestPickleLayout:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_golden_bytes_are_emitted_loaded_and_resumed(self, name, db):
        build, state, run, tail = GOLDEN_RUNS[name]
        golden = bytes.fromhex(GOLDEN_PICKLES[name])
        spec = build()
        checker = fed(spec, db, state, run)
        assert pickle.dumps(checker.snapshot(), protocol=4) == golden
        loaded = pickle.loads(golden)
        assert loaded == checker.snapshot()
        resumed = StreamingChecker(spec, db, strict=False).restore(loaded)
        assert [resumed.feed(state, r) for r in tail] == [
            checker.feed(state, r) for r in tail
        ]
        assert resumed.snapshot() == checker.snapshot()

    def test_pickles_do_not_depend_on_the_hash_seed(self):
        # Frozenset iteration order follows the string hash, which
        # PYTHONHASHSEED changes; only the canonical pickled form keeps
        # the bytes equal.
        script = (
            "import pickle\n"
            "from repro import Database, ExtendedAutomaton, GlobalConstraint\n"
            "from repro import RegisterAutomaton, SigmaType, Signature\n"
            "from repro.automata.regex import concat, literal, plus\n"
            "from repro.core.streaming import StreamingChecker\n"
            "base = RegisterAutomaton(1, Signature.empty(), {'q'}, {'q'}, {'q'},\n"
            "                         [('q', SigmaType(), 'q')])\n"
            "q = literal('q')\n"
            "spec = ExtendedAutomaton(base, [GlobalConstraint('neq', 1, 1, concat(q, plus(q)))])\n"
            "db = Database(Signature.empty())\n"
            "checker = StreamingChecker(spec, db, strict=False)\n"
            "for index in range(30):\n"
            "    checker.feed('q', ('value-%d' % index,))\n"
            "print(pickle.dumps(checker.snapshot(), protocol=4).hex())\n"
            "resumed = StreamingChecker(spec, db, strict=False).restore(checker.snapshot())\n"
            "resumed.feed('q', ('value-7',))\n"
            "print(pickle.dumps(resumed.snapshot(), protocol=4).hex())\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        dumps = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        assert dumps[0] == dumps[1]
        assert len(dumps[0].split()) == 2


class TestSlottedSnapshot:
    """A snapshot is one slotted object; copies and pickles stay equal."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_snapshot_has_slots_and_no_instance_dict(self, name, db):
        build, state, run, _tail = GOLDEN_RUNS[name]
        snapshot = fed(build(), db, state, run).snapshot()
        assert not hasattr(snapshot, "__dict__")
        assert SessionSnapshot.__slots__ == tuple(
            field.name for field in dataclasses.fields(SessionSnapshot)
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            snapshot.position = 0

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_capture_and_restore_share_the_thread_tables(self, name, db):
        build, state, run, _tail = GOLDEN_RUNS[name]
        spec = build()
        checker = fed(spec, db, state, run)
        snapshot = checker.snapshot()
        assert len(snapshot.threads) == len(checker._threads)
        assert all(a is b for a, b in zip(snapshot.threads, checker._threads))
        restored = StreamingChecker(spec, db).restore(snapshot)
        assert all(a is b for a, b in zip(restored._threads, snapshot.threads))

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_copies_and_round_trips_are_equal(self, name, db):
        build, state, run, _tail = GOLDEN_RUNS[name]
        snapshot = fed(build(), db, state, run).snapshot()
        for twin in (
            copy.copy(snapshot),
            copy.deepcopy(snapshot),
            dataclasses.replace(snapshot),
            pickle.loads(pickle.dumps(snapshot)),
        ):
            assert twin is not snapshot
            assert twin == snapshot
            assert hash(twin) == hash(snapshot)
            assert repr(twin) == repr(snapshot)


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

    def test_journal_stays_bounded(self, extended, db, make_mux, no_faults):
        # Every fault-free ingest ends in a checkpoint that covers the
        # whole journal.
        mux = make_mux()
        batches = random_batches(sessions=6, batches=10, batch_size=12)
        for batch in batches:
            report = mux.ingest(batch)
            assert report.outcome.stats["journal_len"] == 0
            assert mux.stats()["journal_len"] == 0
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

    def test_snapshot_faults_leave_recovery_exact(self, make_mux, monkeypatch):
        batches = random_batches()
        monkeypatch.setenv("REPRO_FAULTS", "")
        reset_faults()
        baseline = drive(make_mux(), batches).fingerprints()
        drain_events()
        # The first four checkpoints fail; the journal keeps every batch
        # since the sessions opened, so a crash in the fifth ingest still
        # recovers byte-identically.
        monkeypatch.setenv(
            "REPRO_FAULTS", "monitor.snapshot:raise:1-4,monitor.ingest:crash:5"
        )
        reset_faults()
        crashed = drive(make_mux(), batches)
        reset_faults()
        assert crashed.fingerprints() == baseline
        assert len(recent_events("RS009")) == 4
        # the recovery replays four counted batches with the fifth, new
        # one, and counts only the fifth
        total = sum(len(batch) for batch in batches)
        assert crashed.stats()["events_applied"] == total
        drain_events()

    def test_skipped_checkpoint_leaves_its_tail_to_the_next(
        self, extended, db, make_mux, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "monitor.snapshot:raise:1")
        reset_faults()
        drain_events()
        try:
            mux = make_mux()
            mux.ingest([("a", "q", ("v1",)), ("b", "q", ("v1",))])
            assert mux.stats()["journal_len"] == 2
            assert mux.stats()["snapshots_taken"] == 0
            assert len(recent_events("RS009")) == 1
            # "b" is not in this batch, yet the checkpoint stores it too
            mux.ingest([("a", "q", ("v2",))])
        finally:
            reset_faults()
        assert mux.stats()["journal_len"] == 0
        assert mux.stats()["snapshots_taken"] == 2
        batches = [[("a", "q", ("v1",)), ("b", "q", ("v1",))], [("a", "q", ("v2",))]]
        assert mux.fingerprints() == oracle_fingerprints(extended, db, batches)
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

    def test_skipped_counts_terminal_events_on_every_path(self, make_mux, monkeypatch):
        # One event of the second batch is for a closed session; a crash
        # in that ingest recovers through the same step, so it is skipped
        # there too.
        for plan in ("", "monitor.ingest:crash:2"):
            monkeypatch.setenv("REPRO_FAULTS", plan)
            reset_faults()
            try:
                mux = make_mux()
                mux.ingest([("a", "q", ("v1",)), ("b", "q", ("v1",))])
                mux.close_session("a")
                report = mux.ingest([("a", "q", ("v2",)), ("b", "q", ("v2",))])
            finally:
                reset_faults()
            assert (report.skipped, report.applied) == (1, 1), plan
        drain_events()


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

    def test_restore_failure_uncounts_the_events_it_loses(
        self, make_mux, monkeypatch
    ):
        # Both sessions apply their second event, then the checkpoint
        # crashes and "a" fails to restore: it freezes at its first
        # durable snapshot, and its second event no longer counts.
        monkeypatch.setenv(
            "REPRO_FAULTS", "monitor.snapshot:crash:2,monitor.restore:raise:1"
        )
        reset_faults()
        try:
            mux = make_mux()
            mux.ingest([("a", "q", ("v1",)), ("b", "q", ("v1",))])
            report = mux.ingest([("a", "q", ("v2",)), ("b", "q", ("v2",))])
        finally:
            reset_faults()
        assert report.quarantined == ("a",)
        assert mux.session_fingerprint("a")[1] == 0
        assert mux.session_fingerprint("b")[1] == 1
        assert report.applied == 1
        assert mux.stats()["events_applied"] == 3


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

    def test_a_drain_is_no_recovery(self, make_mux, no_faults, monkeypatch):
        # Draining what a timed-out ingest left restores only the
        # sessions that have events to apply, not all 50 live ones.
        mux = make_mux()
        mux.ingest([("s%02d" % index, "q", ("v1",)) for index in range(50)])
        mux.ingest([("s00", "q", ("v2",))], deadline=0)
        drain_events()
        restored = []
        restore = StreamingChecker.restore

        def counting_restore(checker, snapshot):
            restored.append(snapshot.position)
            return restore(checker, snapshot)

        monkeypatch.setattr(StreamingChecker, "restore", counting_restore)
        report = mux.ingest([("s01", "q", ("v2",))])
        assert restored == [0, 0]
        assert report.applied == 2
        assert mux.stats()["recoveries"] == 0
        assert not recent_events("RS007")

    def test_crash_recovery_counts_the_events_it_drains(self, make_mux, monkeypatch):
        # The second ingest times out before applying anything; its
        # checkpoint crashes, and the in-line recovery drains the batch.
        monkeypatch.setenv("REPRO_FAULTS", "monitor.snapshot:crash:2")
        reset_faults()
        try:
            mux = make_mux()
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


def run_program(extended, db, program, interrupt=None):
    """Run *program*; return what must agree across runs of it.

    The ingests a program flags go through *interrupt* (``interrupt(mux,
    events)`` ingests them with a deadline or a token) when it is given.
    """
    mux = MonitorMultiplexer(extended, db)
    for step in program:
        if step[0] == "ingest":
            if interrupt is not None and step[2]:
                interrupt(mux, step[1])
            else:
                mux.ingest(step[1])
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


def expired_ingest(mux, events):
    mux.ingest(events, deadline=0)


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
        # deadlines does -- also under driver crashes, skipped or crashed
        # checkpoints and crashed restores.
        monkeypatch.setenv("REPRO_FAULTS", "")
        reset_faults()
        expected = run_program(extended, db, program)
        assert run_program(extended, db, program, expired_ingest) == expected
        for plan in (
            "monitor.ingest:crash:%d" % at,
            "monitor.snapshot:raise:%d" % at,
            "monitor.snapshot:crash:%d" % at,
            "monitor.restore:crash:%d" % at,
        ):
            monkeypatch.setenv("REPRO_FAULTS", plan)
            reset_faults()
            try:
                assert run_program(extended, db, program, expired_ingest) == expected
            finally:
                reset_faults()



class PollDeadline(Deadline):
    """A deadline that expires at its *n*-th poll, whatever the clock says."""

    def __init__(self, n):
        super().__init__(3600)
        self.polls_left = n
        self.fired = False

    def expired(self):
        return self.polls_left <= 0

    def check(self, site=""):
        self.polls_left -= 1
        if self.polls_left <= 0:
            self.fired = True
            raise DeadlineExceeded("deadline expired at its poll at %s" % site)


class EventToken(CancellationToken):
    """A token that is cancelled at its *n*-th poll, one poll per event."""

    def __init__(self, n):
        super().__init__()
        self.polls_left = n

    def check(self, site=""):
        self.polls_left -= 1
        if self.polls_left == 0:
            self.cancel("stopped at an event")
        super().check(site)


def ingest_stopped_at(n, how):
    """An *interrupt* for :func:`run_program`: stop the ingest at poll *n*.

    Each flagged ingest gets a fresh deadline or token, and its batch
    outcome must be ``TIMEOUT`` or ``CANCELLED`` exactly when that fired.
    """

    def interrupt(mux, events):
        if how == "deadline":
            stopper = PollDeadline(n)
            report = mux.ingest(events, deadline=stopper)
            fired, status = stopper.fired, OutcomeStatus.TIMEOUT
        else:
            stopper = EventToken(n)
            report = mux.ingest(events, cancel=stopper)
            fired, status = stopper.cancelled, OutcomeStatus.CANCELLED
        assert report.outcome.status is (status if fired else OutcomeStatus.COMPLETE)

    return interrupt


class TestMidTaskInterruption:
    """A deadline or token that fires between two events of one task."""

    @pytest.mark.parametrize("how", ["deadline", "token"])
    def test_the_applied_prefix_stays_and_the_rest_drains(self, make_mux, no_faults, how):
        mux = make_mux()
        mux.ingest([("a", "q", ("v1",))])
        batch = [("a", "q", ("v2",)), ("a", "q", ("v3",)), ("a", "q", ("v1",))]
        if how == "deadline":
            report = mux.ingest(batch, deadline=PollDeadline(2))
            assert report.outcome.status is OutcomeStatus.TIMEOUT
        else:
            report = mux.ingest(batch, cancel=EventToken(2))
            assert report.outcome.status is OutcomeStatus.CANCELLED
        # the first event of the task applied, the other two wait
        assert report.applied == 1
        assert mux.session_fingerprint("a")[:3] == ("q", 1, None)
        assert mux.stats()["journal_len"] == 2
        report = mux.ingest([])
        assert report.applied == 2
        assert "inequality" in report.violations["a"]
        assert mux.session_fingerprint("a")[1] == 3
        assert mux.stats()["events_applied"] == 4

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        program=monitor_programs(),
        n=st.integers(1, 6),
        how=st.sampled_from(["deadline", "token"]),
    )
    def test_stops_at_any_event_lose_and_double_count_nothing(
        self, extended, db, monkeypatch, program, n, how
    ):
        # Stopped at the n-th event of a batch -- between two sessions or
        # between two events of one -- every flagged ingest reports the
        # right outcome, and the program ends where it does unstopped.
        monkeypatch.setenv("REPRO_FAULTS", "")
        reset_faults()
        expected = run_program(extended, db, program)
        assert run_program(extended, db, program, ingest_stopped_at(n, how)) == expected
