"""Crash-surviving multiplexing of streaming monitor sessions.

The paper's Section 5 observation -- projection-view global constraints
"can be enforced entirely by local transitions, in a streaming fashion"
-- is executed by :class:`~repro.core.streaming.StreamingChecker`, one
run in one process.  This module scales that checker to the ROADMAP's
mass-monitoring shape: a :class:`MonitorMultiplexer` drives thousands of
concurrent sessions over one shared specification, and survives driver
crashes without losing (or double-applying) a single event.

Three ideas carry the design:

* **Compact snapshots.**  :class:`~repro.core.streaming.SessionSnapshot`
  captures exactly the run state :meth:`StreamingChecker.feed` depends
  on -- position, last (state, registers) pair, failed status,
  strictness and the live constraint threads -- in a picklable,
  version-tagged form.  It shares the checker's immutable thread
  tables, so a capture or a restore costs O(constraints); the canonical
  (``repr``-sorted) form is made only when a snapshot is pickled or
  compared.  A snapshot is one slotted object, and the checker it is
  restored into has its specification compiled into tables once, so a
  session task costs a restore, a few table lookups per event and a
  capture.  Theorem 19's register discipline bounds the live-thread
  count, which is what makes per-session snapshots small enough to
  store at scale.

* **Write-ahead journal + one checkpoint per ingest.**  Every ingested
  batch is journaled *before* any state changes, and every ingest ends
  in one checkpoint: the current snapshot of every live session the
  journal names is stored, and the journal entries the store then
  covers are dropped.  Recovery resets each live session to its last
  durable snapshot and replays its journal tail -- deterministic, so
  the rebuilt fingerprints are byte-identical to an uninterrupted run:
  zero lost, zero double-applied events.

* **One application path.**  Ingest, the drain of what an interrupted
  ingest left, close and cancel, and recovery all advance sessions
  through :meth:`MonitorMultiplexer._advance`: it applies every
  journaled event a live session has not applied yet, in journal order,
  by restoring the session's snapshot into the multiplexer's one reused
  checker and feeding it (:func:`_apply_session`), and counts each event
  once, the first time it is applied.  Snapshots, never live checkers,
  are the volatile state.  A pass reads the ambient deadline once and
  polls it, with the ingest's cancellation token, before every event,
  so either can stop a session's task between two of its events: what
  was applied stays applied, and the rest stays journaled.

Per-session quarantine keeps one poison event from taking down its
neighbours: the offending session is rolled back to its last good
position, terminally marked with an honest ``DEGRADED``
:class:`~repro.foundations.resilience.Outcome` (``CANCELLED`` for
explicit cancellation, ``COMPLETE`` for a clean close), and recorded in
the RS event log; every other session in the batch proceeds untouched.

Fault sites (``docs/ROBUSTNESS.md``): ``monitor.ingest`` (per ingest
call, driver side; ``crash`` simulates loss of all volatile session
state after the batch is journaled, ``raise`` rejects the batch
atomically before journaling), ``monitor.snapshot`` (per checkpoint;
``raise`` skips the checkpoint and the journal keeps its tail for the
next one, ``crash`` as above), ``monitor.restore`` (per live session
during recovery; ``raise`` quarantines just that session, ``crash``
restarts the -- idempotent -- recovery pass).
"""

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.extended import ExtendedAutomaton

# The snapshot format lives next to the checker fields it reads and
# writes; its names stay importable here, where pickles of snapshots made
# before the move look them up.
from repro.core.streaming import SNAPSHOT_VERSION, SessionSnapshot, StreamingChecker
from repro.db.database import Database
from repro.foundations.errors import SpecificationError
from repro.foundations.faults import FaultInjected, fault
from repro.foundations.resilience import (
    CancellationToken,
    Deadline,
    DeadlineExceeded,
    OperationCancelled,
    Outcome,
    OutcomeStatus,
    current_deadline,
    deadline_scope,
    record_event,
)

__all__ = [
    "SNAPSHOT_VERSION",
    "SessionSnapshot",
    "IngestReport",
    "MonitorMultiplexer",
]

# ---------------------------------------------------------------------- #
# journal entries and the application path
# ---------------------------------------------------------------------- #


class JournalEntry(NamedTuple):
    """One acked event: a global sequence number plus the event itself."""

    seq: int
    session: object
    state: object
    registers: Tuple[Any, ...]


class _SessionResult(NamedTuple):
    """What applying a session's events produced (pure function of the inputs).

    ``applied`` counts the events applied, a prefix of the task's;
    ``poison`` is ``(seq, error)`` when an event raised, in which case
    ``snapshot`` is the session rolled back to its last good position;
    ``interrupted`` is ``"timeout"`` or ``"cancelled"`` when the deadline
    or the token stopped the task mid-way, with the unapplied suffix
    left in the journal, and ``None`` otherwise.
    """

    snapshot: SessionSnapshot
    applied: int
    poison: Optional[Tuple[int, str]]
    interrupted: Optional[str]


def _apply_session(
    checker: StreamingChecker,
    snapshot: SessionSnapshot,
    events: Sequence[JournalEntry],
    active: Optional[Deadline],
    cancel: Optional[CancellationToken],
) -> _SessionResult:
    """Apply *events* to the session *snapshot*; pure and deterministic.

    Every event reaches a session through here, whether an ingest, a
    drain or a recovery applies it, which is what makes their answers
    byte-identical by construction.  The caller supplies and reuses
    *checker*: restoring *snapshot* overwrites all its run state, and
    neither the restore nor the closing capture copies a thread table.
    *cancel* and the deadline *active* (the caller reads the ambient one
    once per pass) are polled before each event.  A poison event (any
    unexpected exception from ``feed``) rolls the session back to the
    state just before it, so quarantine freezes a meaningful position.
    """
    checker.restore(snapshot)
    feed = checker.feed
    applied = 0
    poison: Optional[Tuple[int, str]] = None
    interrupted: Optional[str] = None
    try:
        for entry in events:
            if cancel is not None:
                cancel.check("monitor.ingest")
            if active is not None:
                active.check("monitor.ingest")
            feed(entry.state, entry.registers)
            applied += 1
    except DeadlineExceeded:
        interrupted = "timeout"
    except OperationCancelled:
        interrupted = "cancelled"
    except Exception as exc:  # a poison event: quarantine material
        poison = (events[applied].seq, "%s: %s" % (type(exc).__name__, exc))
        # Roll back to the last good position: restore the input
        # snapshot and replay the already-validated prefix.
        checker.restore(snapshot)
        for good in events[:applied]:  # deadline-ok: bounded replay of an already-validated prefix
            feed(good.state, good.registers)
    return _SessionResult(checker.snapshot(), applied, poison, interrupted)


# ---------------------------------------------------------------------- #
# the multiplexer
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class IngestReport:
    """What one :meth:`MonitorMultiplexer.ingest` call did.

    ``outcome`` is the batch-level verdict (``COMPLETE``, ``TIMEOUT`` or
    ``CANCELLED`` -- per-session failures never degrade the batch);
    ``applied`` is what this call added to ``stats()["events_applied"]``:
    the events it applied for the first time, including events an
    earlier interrupted ingest left pending and this call drained, less
    any that a failed restore in this call lost; ``violations`` maps
    each session this call applied events to that is in a failed state
    to its (original) violation message; ``quarantined`` lists sessions
    newly quarantined by this call; ``skipped`` counts the batch's
    events addressed to sessions that were already terminal when it was
    journaled, which are acked but not applied.
    """

    outcome: Outcome
    applied: int
    violations: Dict[object, str]
    quarantined: Tuple[object, ...]
    skipped: int


class MonitorMultiplexer:
    """Drive many concurrent streaming sessions, crash-safely.

    Events arrive in batches tagged by session id
    (``ingest([(session, state, registers), ...])``); each batch is
    journaled, then applied session by session through :meth:`_advance`,
    the one path by which an event reaches a session.

    Durability model: the **durable** half (write-ahead journal,
    per-session snapshot store, terminal-outcome ledger) survives a
    crash; the **volatile** half (each live session's current snapshot
    and last applied seq) is reset to it by :meth:`recover`, which then
    replays the journal tails; the ``monitor.ingest:crash`` fault kind
    exercises this end to end.  A terminal session keeps only its final
    durable snapshot.  Every :meth:`ingest` ends in one checkpoint that
    refreshes the store from the volatile half and truncates the
    journal, so after a fault-free ingest the journal is empty.  An
    :meth:`ingest`, a drain or a close costs O(batch + journal), never
    O(sessions seen); only a recovery visits every live session.
    """

    def __init__(self, extended: ExtendedAutomaton, database: Database):
        self._extended = extended
        self._database = database
        self._checker = StreamingChecker(extended, database, strict=False)
        self._initial = self._checker.snapshot()
        # durable state: survives a (simulated) crash
        self._store: Dict[object, Tuple[SessionSnapshot, int]] = {}
        self._journal: List[JournalEntry] = []
        self._ledger: Dict[object, Outcome] = {}
        self._seq = 0
        # volatile state, lost on crash: live session -> (current
        # snapshot, last applied seq), reset to the store by recovery
        self._sessions: Dict[object, Tuple[SessionSnapshot, int]] = {}
        # counters, and each live session's last counted seq: diagnostic
        # (not part of the identity contract), they outlive a crash
        self._counted: Dict[object, int] = {}
        self._events_applied = 0
        self._quarantined = 0
        self._recoveries = 0
        self._snapshots_taken = 0

    # -- session lifecycle ---------------------------------------------- #

    def open_session(self, session: object) -> None:
        """Register a fresh session (it also opens implicitly on first event)."""
        if session in self._store or session in self._ledger:
            raise SpecificationError("session %r is already open" % (session,))
        self._store[session] = self._sessions[session] = (self._initial, self._seq)

    def close_session(self, session: object) -> Outcome:
        """Finish a session cleanly; its state freezes and its outcome is honest."""
        return self._terminate(session, "complete")

    def cancel_session(self, session: object, reason: str = "") -> Outcome:
        """Stop a session on external request (``CANCELLED`` taxonomy)."""
        return self._terminate(session, "cancelled", reason=reason)

    def _terminate(self, session: object, how: str, reason: str = "") -> Outcome:
        self._advance(None, {}, [])  # the acked events belong to the frozen run
        existing = self._ledger.get(session)
        if existing is not None:
            return existing
        current = self._sessions.pop(session, None)
        if current is None:
            raise SpecificationError("session %r is not open" % (session,))
        snapshot = current[0]
        stats = {
            "session": repr(session),
            "position": snapshot.position,
            "peak_threads": snapshot.peak_threads,
            "failed": snapshot.failed,
        }
        if how == "cancelled":
            if reason:
                stats["reason"] = reason
            outcome: Outcome = Outcome.cancelled(**stats)
        else:
            outcome = Outcome.complete(**stats)
        self._ledger[session] = outcome
        self._store[session] = current
        self._counted.pop(session, None)
        return outcome

    def _quarantine(
        self,
        session: object,
        snapshot: SessionSnapshot,
        seq: int,
        reason: str,
        error: str,
        quarantined: List[object],
    ) -> None:
        """Terminally fail one session at *snapshot* (everyone else is unaffected).

        The store covers the session's journal up to *seq*.  Events it
        counted past *seq* are lost with it, so they are uncounted.
        """
        counted = self._counted.pop(session, seq)
        if counted > seq:
            self._events_applied -= sum(
                1
                for entry in self._journal
                if entry.session == session and seq < entry.seq <= counted
            )
        self._ledger[session] = Outcome.degraded(
            session=repr(session),
            reason=reason,
            seq=seq,
            error=error,
            position=snapshot.position,
            peak_threads=snapshot.peak_threads,
        )
        self._store[session] = (snapshot, seq)
        self._sessions.pop(session, None)
        self._quarantined += 1
        quarantined.append(session)
        record_event(
            "RS008",
            "monitor session %r quarantined at seq %d (%s): %s"
            % (session, seq, reason, error),
            location="monitor.restore" if reason == "restore-failed" else "monitor.ingest",
            data={"session": repr(session), "seq": seq, "error": error},
        )

    # -- introspection -------------------------------------------------- #

    def session_ids(self) -> Tuple[object, ...]:
        """Every known session id, repr-sorted (deterministic)."""
        return tuple(sorted(self._store, key=repr))

    def live_sessions(self) -> int:
        """Sessions still accepting events (not terminal)."""
        return len(self._store) - len(self._ledger)

    def quarantined_sessions(self) -> Tuple[object, ...]:
        """Sessions terminally failed by a poison event or a failed restore."""
        return tuple(
            session
            for session in self.session_ids()
            if self._ledger.get(session) is not None
            and self._ledger[session].status is OutcomeStatus.DEGRADED
        )

    def session_outcome(self, session: object) -> Optional[Outcome]:
        """The terminal outcome, or ``None`` while the session is live."""
        return self._ledger.get(session)

    def session_fingerprint(
        self, session: object
    ) -> Tuple[object, int, Optional[str], int]:
        """``(state, position, failed, peak_threads)`` for one session."""
        current = self._sessions.get(session) or self._store.get(session)
        if current is None:
            raise SpecificationError("session %r is not known" % (session,))
        return current[0].fingerprint()

    def fingerprints(self) -> Dict[object, Tuple[object, int, Optional[str], int]]:
        """All session fingerprints -- the crash-recovery identity witness."""
        return {
            session: self.session_fingerprint(session)
            for session in self.session_ids()
        }

    def stats(self) -> Dict[str, int]:
        return {
            "sessions": len(self._store),
            "live": self.live_sessions(),
            "quarantined": self._quarantined,
            "events_applied": self._events_applied,
            "journal_len": len(self._journal),
            "snapshots_taken": self._snapshots_taken,
            "recoveries": self._recoveries,
        }

    # -- ingest --------------------------------------------------------- #

    def ingest(
        self,
        events: Iterable[Tuple[object, object, Tuple[Any, ...]]],
        deadline=None,
        cancel: Optional[CancellationToken] = None,
    ) -> IngestReport:
        """Apply one batch of ``(session, state, registers)`` events.

        The batch is journaled before anything else changes (write-ahead),
        so a crash at any later point replays it exactly once.  Unknown
        session ids open implicitly.  Events an earlier interrupted
        ingest left unapplied are drained first, outside the deadline;
        then the batch is applied under *deadline* and *cancel*, and
        what they stop stays journaled for whatever comes next.  A
        ``raise`` fault at ``monitor.ingest`` rejects the whole batch
        atomically *before* journaling; a ``crash`` fault fires after
        journaling and is recovered from in-line.  The call ends in one
        checkpoint (:meth:`_checkpoint`), which leaves the journal empty
        unless a fault or an interruption kept part of it.
        """
        batch = [
            (session, state, tuple(registers)) for session, state, registers in events
        ]
        resolved = Deadline.resolve(deadline)
        kind = fault("monitor.ingest")
        if kind == "raise":
            raise FaultInjected(
                "injected failure at monitor.ingest: batch of %d rejected "
                "atomically (nothing journaled, nothing applied)" % len(batch)
            )
        applied_before = self._events_applied
        violations: Dict[object, str] = {}
        quarantined: List[object] = []
        self._advance(None, violations, quarantined)  # the drain, deadline-free
        for session, _state, _registers in batch:
            if session not in self._store:
                self.open_session(session)
        entries: List[JournalEntry] = []
        skipped = 0
        for session, state, registers in batch:
            self._seq += 1
            entries.append(JournalEntry(self._seq, session, state, registers))
            if session in self._ledger:
                skipped += 1  # terminal session: acked, never applied
        self._journal.extend(entries)
        if kind == "crash":
            # All volatile session state is gone; the journal and the
            # durable snapshots are not.
            self._recover(violations, quarantined)
        with deadline_scope(resolved):
            status = self._advance(cancel, violations, quarantined)
        self._checkpoint(violations, quarantined)
        stats = self.stats()
        stats["batch"] = len(entries)
        if status == "timeout":
            outcome = Outcome.timeout(**stats)
        elif status == "cancelled":
            outcome = Outcome.cancelled(**stats)
        else:
            outcome = Outcome.complete(**stats)
        return IngestReport(
            outcome=outcome,
            applied=self._events_applied - applied_before,
            violations=violations,
            quarantined=tuple(quarantined),
            skipped=skipped,
        )

    def _advance(
        self,
        cancel: Optional[CancellationToken],
        violations: Dict[object, str],
        quarantined: List[object],
    ) -> str:
        """Apply every journaled event a live session has not applied yet.

        Sessions go in journal order, each through :func:`_apply_session`
        from its current snapshot.  An event counts in
        ``events_applied`` once, the first time it is applied (past the
        session's last counted seq), and a session reports its violation
        only when this pass counted one of its events.  Returns
        ``"complete"``, or ``"timeout"`` / ``"cancelled"`` when the
        ambient deadline or *cancel* stopped the pass; what it did not
        apply stays in the journal for the next one.
        """
        sessions = self._sessions
        counted_seqs = self._counted
        tails: Dict[object, List[JournalEntry]] = {}
        for entry in self._journal:
            current = sessions.get(entry.session)
            if current is not None and entry.seq > current[1]:
                tails.setdefault(entry.session, []).append(entry)
        checker = self._checker
        active = current_deadline()  # nothing in the pass changes it
        for session, events in tails.items():
            snapshot, last = sessions[session]
            result = _apply_session(checker, snapshot, events, active, cancel)
            applied = result.applied
            if applied:
                last = events[applied - 1].seq
            snapshot = result.snapshot
            sessions[session] = (snapshot, last)
            counted = counted_seqs.get(session, 0)
            if last > counted:
                # seqs ascend: the first `recounted` applied events were
                # counted by an earlier pass (a recovery replays them)
                recounted = 0
                while events[recounted].seq <= counted:
                    recounted += 1
                self._events_applied += applied - recounted
                counted_seqs[session] = last
                if snapshot.failed is not None:
                    violations[session] = snapshot.failed
            if result.poison is not None:
                seq, error = result.poison
                self._quarantine(
                    session, snapshot, seq, "poison-event", error, quarantined
                )
            if result.interrupted is not None:
                return result.interrupted
        return "complete"

    # -- durability: the checkpoint and recovery ------------------------ #

    def _checkpoint(
        self, violations: Dict[object, str], quarantined: List[object]
    ) -> None:
        """Store every live session the journal names, then truncate.

        The one durability rule, run at the end of every ingest: each
        live session the journal names gets its current snapshot stored,
        in journal order, and every entry the store then covers is
        dropped -- a terminal session's, and a live session's up to its
        last applied event.  Only events an interrupted ingest left
        pending stay.  The ``monitor.snapshot`` site fires once per
        checkpoint: ``raise`` skips it honestly (the journal keeps its
        tail for the next one), ``crash`` recovers in line.
        """
        kind = fault("monitor.snapshot")
        if kind == "raise":
            record_event(
                "RS009",
                "monitor checkpoint skipped (injected failure); the journal "
                "retains its %d entries" % len(self._journal),
                location="monitor.snapshot",
                data={"journal_len": len(self._journal)},
            )
            return
        if kind == "crash":
            self._recover(violations, quarantined)
            return
        for session in dict.fromkeys(entry.session for entry in self._journal):
            current = self._sessions.get(session)
            if current is not None:
                self._store[session] = current
                self._snapshots_taken += 1
        self._journal = [
            entry
            for entry in self._journal
            if entry.session not in self._ledger
            and entry.seq > self._store[entry.session][1]
        ]

    def recover(self) -> int:
        """Rebuild the volatile half from the durable one; deterministic.

        Resets every live session to its last durable snapshot (the
        ``monitor.restore`` site fires once per live session), then
        replays the journal tails: only sessions with journaled events
        past their snapshot go through the checker, and events a
        timed-out or cancelled ingest left unapplied are applied and
        counted like any others.  Counts a recovery and records
        ``RS007``.  Returns ``stats()["sessions"]``.
        """
        self._recover({}, [])
        return len(self._store)

    def _recover(
        self, violations: Dict[object, str], quarantined: List[object]
    ) -> None:
        """Reset the volatile half to the durable store, then :meth:`_advance`.

        One pass visits the live sessions in ``repr`` order and fires
        ``monitor.restore`` for each: ``crash`` restarts the idempotent
        pass (at most three times), ``raise`` quarantines the session at
        its last durable snapshot, uncounting the events it loses.
        """
        restarts = 0
        while True:
            self._sessions = {}
            live = (session for session in self._store if session not in self._ledger)
            for session in sorted(live, key=repr):
                kind = fault("monitor.restore")
                if kind == "crash" and restarts < 3:
                    restarts += 1
                    break
                snapshot, seq = self._store[session]
                if kind == "raise":
                    error = "injected failure at monitor.restore"
                    self._quarantine(
                        session, snapshot, seq, "restore-failed", error, quarantined
                    )
                else:
                    self._sessions[session] = (snapshot, seq)
            else:
                break
        restored, journal_len = len(self._sessions), len(self._journal)
        self._advance(None, violations, quarantined)
        self._recoveries += 1
        record_event(
            "RS007",
            "monitor recovered %d sessions from durable snapshots + a "
            "journal of %d entries" % (restored, journal_len),
            location="monitor.recover",
            data={"sessions": restored, "journal_len": journal_len},
        )
