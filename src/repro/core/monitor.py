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
  strictness and the live constraint threads -- in a canonical (sorted),
  picklable, version-tagged form.  Theorem 19's register discipline
  bounds the live-thread count, which is what makes per-session
  snapshots small enough to store at scale.

* **Write-ahead journal + one checkpoint per ingest.**  Every ingested
  batch is journaled *before* any state changes, and every ingest ends
  in one checkpoint: the current snapshot of every live session the
  journal names is stored, and the journal entries the store then
  covers are dropped.  Recovery restores each session from its last
  durable snapshot and replays the journal suffix -- deterministic, so
  the rebuilt fingerprints are byte-identical to an uninterrupted run:
  zero lost, zero double-applied events.

* **One application path.**  Ingest and replay both restore a
  session's snapshot into the multiplexer's one reused checker and feed
  it (:func:`_apply_session`); snapshots, never live checkers, are the
  volatile state.

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
next one, ``crash`` as above), ``monitor.restore`` (per session during
recovery; ``raise`` quarantines just that session, ``crash`` restarts
the -- idempotent -- recovery pass).
"""

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.extended import ExtendedAutomaton

# The snapshot format lives next to the checker fields it reads and
# writes; its names stay importable here, where pickles of snapshots made
# before the move look them up.
from repro.core.streaming import (
    SNAPSHOT_VERSION,
    SessionSnapshot,
    StreamingChecker,
    _canonical_threads,
)
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

    ``results`` holds ``(seq, verdict)`` for every applied event;
    ``poison`` is ``(seq, error)`` when an event raised, in which case
    ``snapshot`` is the session rolled back to its last good position;
    ``interrupted`` marks a deadline/cancellation stop mid-task, with
    the unapplied suffix left for journal replay.
    """

    session: object
    snapshot: SessionSnapshot
    results: Tuple[Tuple[int, Optional[str]], ...]
    poison: Optional[Tuple[int, str]]
    interrupted: bool


def _apply_session(
    checker: StreamingChecker,
    snapshot: SessionSnapshot,
    events: Sequence[JournalEntry],
) -> _SessionResult:
    """Apply *events* to the session *snapshot*; pure and deterministic.

    This is the single application path -- ingest and journal replay both
    come through here, which is what makes their answers byte-identical
    by construction.  The caller supplies and reuses *checker*:
    restoring *snapshot* overwrites all its run state.
    A poison event (any unexpected exception from ``feed``) rolls the
    session back to the state just before it, so quarantine freezes a
    meaningful position.
    """
    checker.restore(snapshot)
    applied: List[Tuple[int, Optional[str]]] = []
    poison: Optional[Tuple[int, str]] = None
    interrupted = False
    session = events[0].session if events else None
    for offset, entry in enumerate(events):
        active = current_deadline()
        if active is not None and active.expired():
            interrupted = True
            break
        try:
            verdict = checker.feed(entry.state, entry.registers)
        except (DeadlineExceeded, OperationCancelled):
            interrupted = True
            break
        except Exception as exc:  # a poison event: quarantine material
            poison = (entry.seq, "%s: %s" % (type(exc).__name__, exc))
            # Roll back to the last good position: restore the input
            # snapshot and replay the already-validated prefix.
            checker.restore(snapshot)
            for good in events[:offset]:  # deadline-ok: bounded replay of an already-validated prefix
                checker.feed(good.state, good.registers)
            break
        applied.append((entry.seq, verdict))
    return _SessionResult(
        session=session,
        snapshot=checker.snapshot(),
        results=tuple(applied),
        poison=poison,
        interrupted=interrupted,
    )


# ---------------------------------------------------------------------- #
# the multiplexer
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class IngestReport:
    """What one :meth:`MonitorMultiplexer.ingest` call did.

    ``outcome`` is the batch-level verdict (``COMPLETE``, ``TIMEOUT`` or
    ``CANCELLED`` -- per-session failures never degrade the batch);
    ``applied`` counts the events this call applied, including events an
    earlier interrupted ingest left pending and this call drained;
    ``violations`` maps each touched session that is in a failed state to
    its (original) violation message; ``quarantined`` lists sessions
    newly quarantined by this call; ``skipped`` counts events addressed
    to already-terminal sessions, which are acked but not applied.
    """

    outcome: Outcome
    applied: int
    violations: Dict[object, str]
    quarantined: Tuple[object, ...]
    skipped: int


class _Session:
    """Volatile record of a live session: current snapshot and last applied seq."""

    __slots__ = ("snapshot", "applied_seq")

    def __init__(self, snapshot: SessionSnapshot, applied_seq: int):
        self.snapshot = snapshot
        self.applied_seq = applied_seq


class MonitorMultiplexer:
    """Drive many concurrent streaming sessions, crash-safely.

    Events arrive in batches tagged by session id
    (``ingest([(session, state, registers), ...])``); each batch is
    applied session by session, and ingest and replay restore each
    session into one reused checker through :func:`_apply_session`.

    Durability model: the **durable** half (write-ahead journal,
    per-session snapshot store, terminal-outcome ledger) survives a
    crash; the **volatile** half (the snapshots of *live* sessions) is
    rebuilt from it by :meth:`recover`, which the ``monitor.ingest:crash``
    fault kind exercises end to end; a terminal session keeps only its
    final durable snapshot.  Every :meth:`ingest` ends in one checkpoint
    that refreshes the store from the volatile half and truncates the
    journal, so after a fault-free ingest the journal is empty.  One
    :meth:`ingest` costs O(batch + journal), never O(sessions seen).
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
        # volatile state: lost on crash, rebuilt by recover()
        self._sessions: Dict[object, _Session] = {}
        # session -> first journaled seq an interrupted ingest left unapplied
        self._pending: Dict[object, int] = {}
        # counters (diagnostic, not part of the identity contract)
        self._events_applied = 0
        self._quarantined = 0
        self._recoveries = 0
        self._snapshots_taken = 0

    # -- session lifecycle ---------------------------------------------- #

    def open_session(self, session: object) -> None:
        """Register a fresh session (it also opens implicitly on first event)."""
        if session in self._store or session in self._ledger:
            raise SpecificationError("session %r is already open" % (session,))
        self._store[session] = (self._initial, self._seq)
        self._sessions[session] = _Session(self._initial, self._seq)

    def close_session(self, session: object) -> Outcome:
        """Finish a session cleanly; its state freezes and its outcome is honest."""
        return self._terminate(session, "complete")

    def cancel_session(self, session: object, reason: str = "") -> Outcome:
        """Stop a session on external request (``CANCELLED`` taxonomy)."""
        return self._terminate(session, "cancelled", reason=reason)

    def _terminate(self, session: object, how: str, reason: str = "") -> Outcome:
        if self._pending:  # the acked events belong to the frozen run
            self._replay({}, [])
        existing = self._ledger.get(session)
        if existing is not None:
            return existing
        record = self._sessions.pop(session, None)
        if record is None:
            raise SpecificationError("session %r is not open" % (session,))
        snapshot = record.snapshot
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
        self._store[session] = (snapshot, record.applied_seq)
        return outcome

    def _quarantine(
        self, session: object, snapshot: SessionSnapshot, seq: int, error: str
    ) -> Outcome:
        """Terminally fail one session (everyone else is unaffected)."""
        outcome = Outcome.degraded(
            session=repr(session),
            reason="poison-event",
            seq=seq,
            error=error,
            position=snapshot.position,
            peak_threads=snapshot.peak_threads,
        )
        self._ledger[session] = outcome
        self._quarantined += 1
        self._store[session] = (snapshot, seq)
        self._sessions.pop(session, None)
        record_event(
            "RS008",
            "monitor session %r quarantined at seq %d: %s" % (session, seq, error),
            location="monitor.ingest",
            data={"session": repr(session), "seq": seq, "error": error},
        )
        return outcome

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
        record = self._sessions.get(session)
        if record is not None:
            return record.snapshot.fingerprint()
        stored = self._store.get(session)
        if stored is None:
            raise SpecificationError("session %r is not known" % (session,))
        return stored[0].fingerprint()

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
        session ids open implicitly.  A ``raise`` fault at
        ``monitor.ingest`` rejects the whole batch atomically *before*
        journaling; a ``crash`` fault fires after journaling and is
        recovered from in-line.  The call ends in one checkpoint
        (:meth:`_checkpoint`), which leaves the journal empty unless a
        fault or an interruption kept part of it.
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
        violations: Dict[object, str] = {}
        newly_quarantined: List[object] = []
        # A previous ingest stopped early (deadline or cancellation) with
        # journaled events unapplied; drain them first so every session
        # sees its events in journal order, exactly once.
        drained = self._replay(violations, newly_quarantined) if self._pending else 0
        for session, _state, _registers in batch:
            if session not in self._store and session not in self._ledger:
                self.open_session(session)
        entries: List[JournalEntry] = []
        for session, state, registers in batch:
            self._seq += 1
            entries.append(JournalEntry(self._seq, session, state, registers))
        self._journal.extend(entries)

        skipped = 0
        status = "complete"
        if kind == "crash":
            # All volatile session state is gone; the journal and the
            # durable snapshots are not.  Recover in-line and account the
            # just-journaled batch through the replay results.
            self._mark_pending(entries)
            applied = self._crash_recover(violations, newly_quarantined)
        else:
            with deadline_scope(resolved):
                applied, skipped, status = self._apply_entries(
                    entries, cancel, violations, newly_quarantined
                )
        if status in ("timeout", "cancelled"):
            self._mark_pending(entries)
        applied += drained + self._checkpoint(violations, newly_quarantined)
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
            applied=applied,
            violations=violations,
            quarantined=tuple(newly_quarantined),
            skipped=skipped,
        )

    def _apply_entries(
        self,
        entries: List[JournalEntry],
        cancel: Optional[CancellationToken],
        violations: Dict[object, str],
        newly_quarantined: List[object],
    ) -> Tuple[int, int, str]:
        """Apply journaled *entries* to the live sessions; the normal path."""
        per_session: Dict[object, List[JournalEntry]] = {}
        skipped = 0
        for entry in entries:
            if entry.session in self._ledger:
                skipped += 1  # terminal session: acked, never applied
                continue
            per_session.setdefault(entry.session, []).append(entry)
        results: List[_SessionResult] = []
        status = "complete"
        for session, events in per_session.items():
            try:
                if cancel is not None:
                    cancel.check("monitor.ingest")
                active = current_deadline()
                if active is not None:
                    active.check("monitor.ingest")
            except DeadlineExceeded:
                status = "timeout"
                break
            except OperationCancelled:
                status = "cancelled"
                break
            snapshot = self._sessions[session].snapshot
            result = _apply_session(self._checker, snapshot, events)
            results.append(result)
            if result.interrupted:
                status = "timeout"
                break
        applied = self._merge_results(results, violations, newly_quarantined)
        return applied, skipped, status

    def _merge_results(
        self,
        results: List[_SessionResult],
        violations: Dict[object, str],
        newly_quarantined: List[object],
    ) -> int:
        """Advance volatile session state from application *results*."""
        applied = 0
        for result in results:
            session = result.session
            if session is None:
                continue
            record = self._sessions[session]
            record.snapshot = result.snapshot
            if result.results:
                record.applied_seq = result.results[-1][0]
                applied += len(result.results)
                self._events_applied += len(result.results)
            if result.snapshot.failed is not None:
                violations[session] = result.snapshot.failed
            if result.poison is not None:
                seq, error = result.poison
                self._quarantine(session, result.snapshot, seq, error)
                newly_quarantined.append(session)
        return applied

    # -- durability: the checkpoint and recovery ------------------------ #

    def _checkpoint(
        self, violations: Dict[object, str], newly_quarantined: List[object]
    ) -> int:
        """Store every live session the journal names, then truncate.

        The one durability rule, run at the end of every ingest: each
        live session the journal names gets its current snapshot stored,
        in journal order, and every entry the store then covers is
        dropped -- a terminal session's, and a live session's up to its
        last applied event.  Only events an interrupted ingest left
        pending stay.  The ``monitor.snapshot`` site fires once per
        checkpoint: ``raise`` skips it honestly (the journal keeps its
        tail for the next one), ``crash`` recovers in line.  Returns the
        events that recovery drained (else 0).
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
            return 0
        if kind == "crash":
            return self._crash_recover(violations, newly_quarantined)
        for session in dict.fromkeys(entry.session for entry in self._journal):
            record = self._sessions.get(session)
            if record is not None:
                self._store[session] = (record.snapshot, record.applied_seq)
                self._snapshots_taken += 1
        self._journal = [
            entry
            for entry in self._journal
            if entry.session not in self._ledger
            and entry.seq > self._store[entry.session][1]
        ]
        return 0

    def _mark_pending(self, entries: List[JournalEntry]) -> None:
        """Record which of *entries* no live session has applied yet."""
        for entry in entries:
            record = self._sessions.get(entry.session)
            if record is not None and entry.seq > record.applied_seq:
                self._pending.setdefault(entry.session, entry.seq)

    def _crash_recover(
        self, violations: Dict[object, str], newly_quarantined: List[object]
    ) -> int:
        """Drop all volatile state, then rebuild it from the durable half."""
        self._sessions = {}
        return self._replay(violations, newly_quarantined)

    def recover(self) -> int:
        """Rebuild volatile session state from snapshots + journal replay.

        Safe at any time, never a no-op: even with nothing pending it
        rebuilds every live session from its durable snapshot plus the
        journal suffix, counts a recovery and records ``RS007``.  It also
        drains (and counts) journaled events a timed-out or cancelled
        ingest left unapplied.  Returns ``stats()["sessions"]``.
        """
        self._replay({}, [])
        return len(self._store)

    def _replay(
        self, violations: Dict[object, str], newly_quarantined: List[object]
    ) -> int:
        """Restore every live session from durable state; deterministic replay.

        Returns and counts the drained events, the ones ``_pending`` marks
        as never applied; the rest were counted when first applied.
        """
        tails: Dict[object, List[JournalEntry]] = {}
        for entry in self._journal:
            tails.setdefault(entry.session, []).append(entry)
        restarts = 0
        while True:
            rebuilt: Dict[object, _Session] = {}
            results: List[_SessionResult] = []
            replayed = 0
            restarted = False
            live = (session for session in self._store if session not in self._ledger)
            for session in sorted(live, key=repr):
                snapshot, stored_seq = self._store[session]
                kind = fault("monitor.restore")
                if kind == "crash" and restarts < 3:
                    restarted = True
                    restarts += 1
                    break
                if kind == "raise":
                    self._ledger[session] = Outcome.degraded(
                        session=repr(session),
                        reason="restore-failed",
                        seq=stored_seq,
                        error="injected failure at monitor.restore",
                        position=snapshot.position,
                        peak_threads=snapshot.peak_threads,
                    )
                    self._quarantined += 1
                    newly_quarantined.append(session)
                    record_event(
                        "RS008",
                        "monitor session %r quarantined: restore failed"
                        % (session,),
                        location="monitor.restore",
                        data={"session": repr(session), "seq": stored_seq},
                    )
                    continue
                tail = tuple(e for e in tails.get(session, ()) if e.seq > stored_seq)
                result = _apply_session(self._checker, snapshot, tail)
                replayed += len(result.results)
                last = result.results[-1][0] if result.results else stored_seq
                rebuilt[session] = _Session(result.snapshot, last)
                results.append(result)
            if restarted:
                continue
            self._sessions = rebuilt
            applied = 0
            for result in results:
                session = result.session
                if session is None:
                    continue
                since = self._pending.get(session)
                fresh = sum(1 for seq, _ in result.results if since and seq >= since)
                applied += fresh
                if result.snapshot.failed is not None and fresh:
                    violations[session] = result.snapshot.failed
                if result.poison is not None:
                    seq, error = result.poison
                    self._quarantine(session, result.snapshot, seq, error)
                    newly_quarantined.append(session)
            self._pending = {}
            self._events_applied += applied
            self._recoveries += 1
            record_event(
                "RS007",
                "monitor recovered %d sessions from durable snapshots + "
                "journal replay (%d events replayed)"
                % (len(rebuilt), replayed),
                location="monitor.recover",
                data={"sessions": len(rebuilt), "replayed": replayed},
            )
            return applied
