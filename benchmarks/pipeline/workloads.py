"""The four workloads: timed closed loops over the layer entry points.

A workload is built from ``(seed, sizes)``; :meth:`Workload.warm_up`
makes one untimed call, :meth:`Workload.run` makes the timed calls one
after another (each starts when the previous returns), building each
input just before its call, and :meth:`Workload.check` runs the
correctness oracles after the timed loop.  Entry points are looked up
through their modules at call time, so a tracer installed after set-up
sees every call.
"""

import random
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

from repro.core import emptiness, lr, monitor, projection, theorem24, verification
from repro.core.extended import ExtendedAutomaton
from repro.core.register_automaton import RegisterAutomaton
from repro.db.database import Database
from repro.db.schema import Signature
from repro.logic.formulas import atom_eq
from repro.logic.literals import eq, neq
from repro.logic.terms import X, Y
from repro.logic.types import SigmaType
from repro.ltl import Eventually, Prop
from repro.ltl.ltlfo import LtlFoSentence
from repro.workflows import views
from repro.workflows.review import manuscript_review_workflow

import instances
from reference import SpeedProbe

#: Per-call deadline of the ``emptiness-random`` decisions, in ms.
EMPTINESS_DEADLINE_MS = 100
#: Per-call deadline of the three ``role-views`` view decisions, in ms.
#: None of them finishes today (guard completion search runs on); a
#: short limit keeps the workload's time on the projections it measures.
VIEW_DEADLINE_MS = 100
#: A call is late when it returns after this multiple of its deadline.
#: A late call's time counts only up to this multiple: how far past it a
#: call runs is set by where the library's deadline polls happen to land,
#: which jumps with the host's speed, and ``on_time_share`` counts it.
LATE_FACTOR = 1.2
#: The costly oracles are spread over the passes: pass ``p`` checks the
#: random instances whose index is ``p`` modulo this stride (witness replay
#: on ``emptiness-random``, brute force on ``role-views``), so the three
#: passes of a run check them all.
ORACLE_STRIDE = 3


class Recorder:
    """Times closed-loop calls and collects what the metrics need.

    Times are kept as measured; :meth:`scaled` puts them in reference-host
    seconds (``reference.py``) with the probes taken between the calls.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = 0
        self.speed = SpeedProbe()
        #: seconds of every timed call, in call order
        self.calls_s: List[float] = []
        #: the latest probe before each timed call
        self.call_marks: List[int] = []
        #: the part of each call spent waiting for its deadline, not working
        self.clock_s: List[float] = []
        #: the most each call's time counts (``LATE_FACTOR`` times its deadline)
        self.caps_s: List[float] = []
        #: ``(call index, least latency)`` of the calls the percentiles range over
        self.latencies: List[Tuple[int, float]] = []
        #: calls that raised or returned no exact answer
        self.undecided = 0
        #: calls that returned after ``LATE_FACTOR`` times their deadline
        self.late = 0
        self.raised: List[str] = []
        self.mismatches: List[str] = []

    def call(self, function, *args, **kwargs):
        """``(result, seconds)``; a raised call yields ``None`` and is recorded."""
        self.call_marks.append(self.speed.mark())
        if self.tracer is not None:
            self.tracer.op = self.ops
        start = perf_counter()
        try:
            result = function(*args, **kwargs)
        except Exception:  # a benchmark boundary: record and keep measuring
            result = None
            self.raised.append(traceback.format_exc(limit=3))
            self.undecided += 1
        seconds = perf_counter() - start
        self.ops += 1
        self.calls_s.append(seconds)
        self.clock_s.append(0.0)
        self.caps_s.append(float("inf"))
        return result, seconds

    def latency(self, floor_s: float = 0.0) -> None:
        """Count the latest call in the latency percentiles, as at least *floor_s*."""
        self.latencies.append((len(self.calls_s) - 1, floor_s))

    def scaled(self) -> Dict[str, List[float]]:
        """Call times and latencies in reference-host seconds.

        Only the working part of a call is scaled: the time an undecided
        call waited for its deadline is clock time on any host.  A late
        call counts as ``LATE_FACTOR`` times its deadline.
        """
        calls = [
            min(cap, clock + (seconds - clock) * self.speed.factor(mark))
            for seconds, clock, cap, mark in zip(
                self.calls_s, self.clock_s, self.caps_s, self.call_marks
            )
        ]
        return {
            "calls_s": calls,
            "latencies_s": [max(calls[index], floor) for index, floor in self.latencies],
        }

    def decision(self, result, seconds: float, deadline_ms: float) -> bool:
        """Account one deadline-bounded decision; return whether it is exact."""
        decided = result is not None and result.verdict in ("empty", "nonempty")
        if result is not None and not decided:
            self.undecided += 1
            if seconds * 1000.0 >= deadline_ms:  # timed out: work only past the deadline
                self.clock_s[-1] = deadline_ms / 1000.0
        self.caps_s[-1] = LATE_FACTOR * deadline_ms / 1000.0
        self.late += seconds * 1000.0 > LATE_FACTOR * deadline_ms
        return decided

    def mismatch(self, message: str) -> None:
        self.mismatches.append(message)


class Workload:
    """What a pass drives: one warm-up call, the timed calls, the oracles."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, recorder: Recorder) -> None:
        raise NotImplementedError

    def check(self, recorder: Recorder) -> None:
        raise NotImplementedError


def _tiny_automaton(k: int) -> RegisterAutomaton:
    """A one-state automaton (not in any corpus) for warm-up calls."""
    guard = SigmaType([neq(X(1), Y(1))] + [eq(X(i), Y(i)) for i in range(2, k + 1)])
    return RegisterAutomaton(k, Signature.empty(), {"w"}, {"w"}, {"w"}, [("w", guard, "w")])


def _replays(witness) -> bool:
    """Whether an 8-step finite witness is a valid, constraint-abiding run."""
    database, run = witness.finite_witness(8)
    normalised = witness.normalised
    return run.is_valid(normalised.automaton, database) and normalised.satisfies_constraints(run)


# ---------------------------------------------------------------------- #
# emptiness-random
# ---------------------------------------------------------------------- #


class EmptinessRandom(Workload):
    """Paper instances with known verdicts, then a presented random corpus.

    Every result is kept until the oracles run, in every pass alike:
    retention decides which interned values stay alive, and so how warm
    the caches are, so it must not differ between passes.
    """


    def __init__(self, seed: int, instances_count: int, pass_index: int = 0):
        self.paper = instances.paper_emptiness_instances()
        self.corpus = instances.emptiness_corpus(seed, instances_count)
        self.pass_index = pass_index
        self.paper_results: List[object] = []
        self.results: List[object] = []

    def warm_up(self) -> None:
        emptiness.check_emptiness(
            ExtendedAutomaton(_tiny_automaton(1), []), deadline=EMPTINESS_DEADLINE_MS
        )

    def _decide(self, recorder: Recorder, automaton):
        result, seconds = recorder.call(
            emptiness.check_emptiness, automaton, deadline=EMPTINESS_DEADLINE_MS
        )
        exact = recorder.decision(result, seconds, EMPTINESS_DEADLINE_MS)
        # An undecided call counts as at least its deadline.
        recorder.latency(0.0 if exact else EMPTINESS_DEADLINE_MS / 1000.0)
        return result

    def run(self, recorder: Recorder) -> None:
        for _name, automaton, _expected in self.paper:
            self.paper_results.append(self._decide(recorder, automaton))
        for automaton in self.corpus:
            self.results.append(self._decide(recorder, automaton))

    def check(self, recorder: Recorder) -> None:
        for (name, _automaton, expected), result in zip(self.paper, self.paper_results):
            if result is None:
                continue
            if expected == "empty" and not result.empty:
                recorder.mismatch("%s: expected empty, got %s" % (name, result.verdict))
            if expected == "nonempty" and result.verdict == "empty":
                recorder.mismatch("%s: expected nonempty, got empty" % name)
            if result.verdict == "nonempty" and not _replays(result.witness):
                recorder.mismatch("%s: nonempty witness does not replay" % name)
        for index in range(self.pass_index % ORACLE_STRIDE, len(self.results), ORACLE_STRIDE):
            result = self.results[index]
            if result is not None and result.verdict == "nonempty" and not _replays(result.witness):
                recorder.mismatch("random instance %d: nonempty witness does not replay" % index)


# ---------------------------------------------------------------------- #
# role-views
# ---------------------------------------------------------------------- #


class RoleViews(Workload):
    """Paper views, random projections, then LR and emptiness on three views."""


    #: random RA views checked exactly against brute-force enumeration
    EXACT_CHECKS = 5

    def __init__(self, seed: int, ra_count: int, extended_count: int, pass_index: int = 0):
        self.free = manuscript_review_workflow(with_database=False)
        self.spec = manuscript_review_workflow(with_database=True)
        self.example1 = instances.example1()
        self.example23 = (instances.example23(), instances.example23(ternary=True))
        self.ra_corpus = instances.projection_ra_corpus(seed, ra_count)
        self.pass_index = pass_index
        self.extended_corpus = instances.projection_extended_corpus(seed, extended_count)
        self.ra_views: List[tuple] = []  # (automaton, view) for the exactness oracle
        self.views: List[object] = []  # every view is kept, as in emptiness-random
        self.lr_answers: Dict[str, object] = {}
        self.decisions: Dict[str, object] = {}
        self.originals: Dict[str, RegisterAutomaton] = {}

    def warm_up(self) -> None:
        projection.project_register_automaton(_tiny_automaton(2), 1)

    def _project(self, recorder: Recorder, function, *args):
        result, _seconds = recorder.call(function, *args)
        recorder.latency()
        self.views.append(result)
        return result

    def run(self, recorder: Recorder) -> None:
        author = self._project(recorder, views.role_view, self.free, "author", ["reviewer"])
        reviewer = self._project(recorder, views.role_view, self.free, "reviewer", ["author"])
        self._project(recorder, views.database_hidden_view, self.spec, "outsider", ["reviewer"])
        example1_view = self._project(
            recorder, projection.project_register_automaton, self.example1, 1
        )
        for automaton in self.example23:
            self._project(recorder, theorem24.project_with_database, automaton, 1)
        for automaton in self.ra_corpus:
            view = self._project(recorder, projection.project_register_automaton, automaton, 1)
            if len(self.ra_views) < self.EXACT_CHECKS:
                self.ra_views.append((automaton, view))
        for automaton in self.extended_corpus:
            self._project(recorder, projection.project_extended, automaton, 1)

        workflow = self.free.compile()
        targets = [
            ("author", getattr(author, "automaton", None), workflow),
            ("reviewer", getattr(reviewer, "automaton", None), workflow),
            ("example1", example1_view, self.example1),
        ]
        for name, view, _original in targets:
            if view is not None:
                self.lr_answers[name], _seconds = recorder.call(lr.is_lr_bounded, view)
        for name, view, original in targets:
            if view is None:
                continue
            result, seconds = recorder.call(
                emptiness.check_emptiness, view, deadline=VIEW_DEADLINE_MS
            )
            if recorder.decision(result, seconds, VIEW_DEADLINE_MS):
                self.decisions[name] = result
                self.originals[name] = original

    def check(self, recorder: Recorder) -> None:
        for name, answer in self.lr_answers.items():
            if answer is not True:
                recorder.mismatch("%s view: is_lr_bounded returned %r (Prop 20)" % (name, answer))
        prefix_sets = _projection_prefix_sets()
        for index in range(self.pass_index % ORACLE_STRIDE, len(self.ra_views), ORACLE_STRIDE):
            automaton, view = self.ra_views[index]
            if view is None:
                continue
            original, image = prefix_sets(automaton, view, 1, length=3)
            if original != image:
                recorder.mismatch("random RA view %d is not exact at length 3" % index)
        for name, result in self.decisions.items():
            truth = emptiness.check_emptiness(
                ExtendedAutomaton(self.originals[name], []), deadline=10 * VIEW_DEADLINE_MS
            )
            if truth.verdict != "unknown" and result.verdict != truth.verdict:
                recorder.mismatch(
                    "%s view decided %s, the original is %s" % (name, result.verdict, truth.verdict)
                )


def _projection_prefix_sets():
    """The brute-force projection oracle of the test suite."""
    root = str(Path(__file__).resolve().parents[2])
    if root not in sys.path:
        sys.path.insert(0, root)
    from tests.helpers import projection_prefix_sets

    return projection_prefix_sets


# ---------------------------------------------------------------------- #
# ltl-verify
# ---------------------------------------------------------------------- #


class LtlVerify(Workload):
    """``verify`` on presented random automata paired with LTL-FO templates."""


    def __init__(self, seed: int, calls: int):
        self.corpus = instances.ltl_corpus(seed, calls)
        self.results: List[tuple] = []

    def warm_up(self) -> None:
        sentence = LtlFoSentence(
            skeleton=Eventually(Prop("p")), propositions={"p": atom_eq(X(1), X(2))}
        )
        verification.verify(ExtendedAutomaton(_tiny_automaton(2), []), sentence)

    def run(self, recorder: Recorder) -> None:
        for template, automaton, sentence in self.corpus:
            result, _seconds = recorder.call(verification.verify, automaton, sentence)
            recorder.latency()
            self.results.append((template, automaton, sentence, result))

    def check(self, recorder: Recorder) -> None:
        for template, automaton, sentence, result in self.results:
            if result is None or result.holds:
                continue
            realised = result.counterexample.lasso_run() if result.counterexample else None
            if realised is None:
                recorder.mismatch("%s: counterexample has no lasso realisation" % template)
                continue
            database, run = realised
            if verification.run_satisfies(sentence, run.project(automaton.k), database):
                recorder.mismatch("%s: counterexample satisfies the property" % template)


# ---------------------------------------------------------------------- #
# monitor-churn
# ---------------------------------------------------------------------- #


class MonitorChurn(Workload):
    """Round-robin sessions on the Example 7 spec, with churn and recovery.

    ``live`` session slots are fed in ``batch``-event ingests.  A session
    closes after ``lifetime`` events and a fresh id takes its slot; the
    first generation's lifetimes are staggered so closes spread over the
    run.  About 1% of sessions are planted violators that repeat their
    position-3 value at position 20.  ``recover()`` runs every
    ``recover_every`` batches.
    """


    def __init__(
        self,
        seed: int,
        batches: int,
        live: int = 2000,
        batch: int = 250,
        lifetime: int = 48,
        recover_every: int = 200,
    ):
        self.seed = seed
        self.batches = batches
        self.live = live
        self.batch = batch
        self.lifetime = lifetime
        self.recover_every = recover_every
        self.spec = instances.example7()
        self.database = Database(Signature.empty())
        #: planted sessions whose position-20 event has been sent
        self.expected_violators = set()
        self.events_sent = 0
        self.applied = 0
        self.violators = set()
        self.fingerprint_drift: List[int] = []

    def _schedule(self):
        """Yield ``(events, sessions to close after the batch)`` per batch."""
        rng = random.Random("monitor-churn:%d" % self.seed)
        planted = set()
        slots = []  # [session, events sent, lifetime]
        for slot in range(self.live):
            slots.append([slot, 0, self.lifetime - slot % (self.lifetime // 2)])
            if rng.random() < 0.01:
                planted.add(slot)
        next_id = self.live
        cursor = 0
        for _ in range(self.batches):
            events, closing = [], []
            for _ in range(self.batch):
                record = slots[cursor]
                session, position, life = record
                repeat = position == 20 and session in planted
                if repeat:
                    self.expected_violators.add(session)
                events.append((session, "q", (session * 64 + (3 if repeat else position),)))
                record[1] += 1
                if record[1] == life:
                    closing.append(session)
                    record[:] = [next_id, 0, self.lifetime]
                    if rng.random() < 0.01:
                        planted.add(next_id)
                    next_id += 1
                cursor = (cursor + 1) % self.live
            self.events_sent += len(events)
            yield events, closing

    def warm_up(self) -> None:
        warm = monitor.MonitorMultiplexer(self.spec, self.database)
        warm.ingest([("warm", "q", (value,)) for value in range(4)])

    def run(self, recorder: Recorder) -> None:
        mux = monitor.MonitorMultiplexer(self.spec, self.database)
        for number, (events, closing) in enumerate(self._schedule(), start=1):
            report, _seconds = recorder.call(mux.ingest, events)
            recorder.latency()
            if report is not None:
                self.applied += report.applied
                self.violators.update(report.violations)
            for session in closing:
                _outcome, _seconds = recorder.call(mux.close_session, session)
            if number % self.recover_every == 0:
                before = mux.fingerprints()
                recorder.call(mux.recover)
                if mux.fingerprints() != before:
                    self.fingerprint_drift.append(number)
        # Ops are events, not calls; close and recover time still counts.
        recorder.ops = self.events_sent

    def check(self, recorder: Recorder) -> None:
        if self.violators != self.expected_violators:
            recorder.mismatch(
                "violating sessions differ from the planted set: %d reported, %d planted"
                % (len(self.violators), len(self.expected_violators))
            )
        if self.applied != self.events_sent:
            recorder.mismatch("applied %d of %d events" % (self.applied, self.events_sent))
        for number in self.fingerprint_drift:
            recorder.mismatch("fingerprints changed across recover() after batch %d" % number)


def build(name: str, seed: int, sizes: Dict[str, int], pass_index: int = 0) -> Workload:
    """The workload *name* at the given sizes (see ``run.PASS_SIZES``)."""
    if name == "emptiness-random":
        return EmptinessRandom(seed, sizes["instances"], pass_index)
    if name == "role-views":
        return RoleViews(seed, sizes["ra"], sizes["extended"], pass_index)
    if name == "ltl-verify":
        return LtlVerify(seed, sizes["calls"])
    if name == "monitor-churn":
        return MonitorChurn(seed, sizes["batches"])
    raise ValueError("unknown workload %r" % name)

