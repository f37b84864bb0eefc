"""Deadlines, budgets, cancellation and graceful-degradation outcomes.

The paper's decision procedures are doubly exponential in the worst case
(type completion, the Theorem 24 synchronization, the Buchi lasso
search), so a production deployment cannot let any single call hang
forever.  This module is the execution-resilience vocabulary shared by
every long-running procedure in the library:

* :class:`Deadline` -- a monotonic-clock budget on wall time.  Built from
  seconds, milliseconds, or the ``REPRO_DEADLINE_MS`` environment knob
  (read at call time, like every other knob); ``check()`` raises
  :class:`DeadlineExceeded`, the cooperative-interruption signal that
  procedures catch at their public entry point and convert into an
  honest :class:`Outcome`.
* :class:`Budget` -- a named, optionally-limited counter with
  nested-scope composition: a child scope charges its parent too, so one
  snapshot reports the whole hierarchy.  The dataflow solver's
  edge-evaluation cap and the ``MAX_REGISTERS`` domain cap both live on
  this abstraction, which makes all degradation reports uniform.
* :class:`CancellationToken` -- an external kill switch (e.g. a CLI
  signal handler) polled at the same checkpoints as deadlines.
* :class:`Outcome` -- the verdict wrapper: ``COMPLETE`` with a value,
  ``TIMEOUT`` / ``CANCELLED`` without one, or ``DEGRADED`` when a
  procedure finished on a weaker path (budget-declined analysis,
  quarantined monitor session).  Every non-complete outcome carries
  deterministic progress stats ("candidates checked", budget snapshots)
  so "ran out of budget" is a first-class answer, never a silent lie.

Recovery paths (expired deadlines, declined analyses, monitor recovery
and quarantine) additionally record structured
:class:`~repro.foundations.diagnostics.Diagnostic` events (``RS00x``
codes, see docs/ROBUSTNESS.md) in a bounded in-process log, so tests and
operators can observe *that* degradation happened without parsing log
text.

Ambient deadline: procedures that cannot thread a parameter through
every layer (guard completion runs deep inside normalisation) consult
:func:`current_deadline`, a thread-local stack managed by
:func:`deadline_scope`.  ``check_emptiness`` installs its deadline there
so the exponential inner loops stay interruptible at generator
boundaries.
"""

import enum
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.foundations import knobs
from repro.foundations.diagnostics import Diagnostic, Severity
from repro.foundations.errors import ReproError

T = TypeVar("T")

__all__ = [
    "DeadlineExceeded",
    "OperationCancelled",
    "Deadline",
    "Budget",
    "CancellationToken",
    "OutcomeStatus",
    "Outcome",
    "current_deadline",
    "deadline_scope",
    "record_event",
    "recent_events",
    "drain_events",
]


class DeadlineExceeded(ReproError):
    """A cooperative interruption: the monotonic deadline expired.

    Raised by :meth:`Deadline.check` at procedure checkpoints and caught
    at public entry points, which convert it into a ``TIMEOUT``
    :class:`Outcome` instead of letting it escape to the caller.
    Catching it elsewhere (to clean up and re-raise) is fine; swallowing
    it is not -- the entry point needs it to report honestly.
    """


class OperationCancelled(ReproError):
    """A cooperative interruption: an external :class:`CancellationToken` fired."""


# ---------------------------------------------------------------------- #
# deadlines (monotonic clock only -- see lint rule TIME001)
# ---------------------------------------------------------------------- #


class Deadline:
    """A point on the monotonic clock after which work must stop.

    Always built from a *duration*; the wall clock (``time.time``) is
    never involved, so NTP steps and DST cannot expire or extend a
    deadline (lint rule ``TIME001`` enforces this repo-wide).  A
    deadline is shareable and immutable: pass one object through a whole
    call tree and every checkpoint sees the same expiry instant.
    """

    __slots__ = ("_expires_at", "_budget_ms")

    def __init__(self, seconds: float):
        self._budget_ms = max(float(seconds), 0.0) * 1000.0
        self._expires_at = time.monotonic() + max(float(seconds), 0.0)

    @classmethod
    def after_ms(cls, milliseconds: float) -> "Deadline":
        return cls(float(milliseconds) / 1000.0)

    @classmethod
    def from_env(cls) -> Optional["Deadline"]:
        """The deadline ``REPRO_DEADLINE_MS`` requests, or ``None``.

        Read at call time (never at import), so tests can flip the knob
        per call.  Unset, empty, negative or junk values all mean "no
        deadline".
        """
        milliseconds = knobs.value("REPRO_DEADLINE_MS")
        if milliseconds is None:
            return None
        return cls.after_ms(milliseconds)

    @classmethod
    def resolve(cls, value) -> Optional["Deadline"]:
        """Normalise a user-facing ``deadline=`` argument.

        ``None`` falls back to ``REPRO_DEADLINE_MS``; a number is taken
        as milliseconds; a :class:`Deadline` passes through.  A negative
        number means "no deadline", matching :meth:`from_env` -- it is
        never clamped into an instantly-expired deadline.
        """
        if value is None:
            return cls.from_env()
        if isinstance(value, Deadline):
            return value
        milliseconds = float(value)
        if milliseconds < 0:
            return None
        return cls.after_ms(milliseconds)

    @property
    def budget_ms(self) -> float:
        """The duration this deadline was created with, in milliseconds."""
        return self._budget_ms

    def remaining(self) -> float:
        """Seconds until expiry (clamped at zero)."""
        return max(self._expires_at - time.monotonic(), 0.0)

    def remaining_ms(self) -> float:
        return self.remaining() * 1000.0

    def expired(self) -> bool:
        return time.monotonic() >= self._expires_at

    def check(self, site: str = "") -> None:
        """Raise :class:`DeadlineExceeded` when the deadline has passed."""
        if time.monotonic() >= self._expires_at:
            where = " at %s" % site if site else ""
            raise DeadlineExceeded(
                "deadline of %.0f ms expired%s" % (self._budget_ms, where)
            )

    def __repr__(self) -> str:
        return "Deadline(%.0fms budget, %.0fms remaining)" % (
            self._budget_ms,
            self.remaining_ms(),
        )


# The ambient deadline is a per-thread stack: check_emptiness (and any
# other entry point) pushes its resolved deadline around the work so the
# exponential layers below it -- guard completion, Theorem 24 constraint
# assembly -- can poll without a parameter threading through every call.
_AMBIENT = threading.local()


def _ambient_stack() -> List[Deadline]:
    stack = getattr(_AMBIENT, "stack", None)
    if stack is None:
        stack = _AMBIENT.stack = []
    return stack


def current_deadline() -> Optional[Deadline]:
    """The innermost ambient deadline of this thread, or ``None``."""
    stack = getattr(_AMBIENT, "stack", None)
    if not stack:
        return None
    return stack[-1]


@contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Install *deadline* as the ambient deadline for the dynamic extent.

    A ``None`` deadline is a no-op scope (the enclosing deadline, if any,
    stays visible) -- callers can wrap unconditionally.
    """
    if deadline is None:
        yield None
        return
    stack = _ambient_stack()
    stack.append(deadline)
    try:
        yield deadline
    finally:
        stack.pop()


# ---------------------------------------------------------------------- #
# budgets with nested-scope composition
# ---------------------------------------------------------------------- #


class Budget:
    """A named counter with an optional limit and nested scopes.

    ``charge(n)`` spends *n* units against this budget **and every
    ancestor**; it returns ``False`` once any level is exhausted
    (``spent > limit``), after which the caller degrades -- budgets never
    raise.  ``scope(name, limit)`` opens a child whose spending rolls up,
    so one :meth:`snapshot` of the root reports the entire hierarchy in a
    JSON-ready form suitable for ``Diagnostic.data`` and
    :class:`Outcome` stats.
    """

    __slots__ = ("name", "limit", "_spent", "_parent", "_children")

    def __init__(
        self,
        name: str,
        limit: Optional[int] = None,
        parent: Optional["Budget"] = None,
    ):
        self.name = name
        self.limit = limit
        self._spent = 0
        self._parent = parent
        self._children: List["Budget"] = []

    @property
    def spent(self) -> int:
        return self._spent

    def remaining(self) -> Optional[int]:
        """Units left before exhaustion, or ``None`` for unlimited."""
        if self.limit is None:
            return None
        return max(self.limit - self._spent, 0)

    @property
    def exhausted(self) -> bool:
        """Whether this budget (or any ancestor) is over its limit."""
        node: Optional[Budget] = self
        while node is not None:
            if node.limit is not None and node._spent > node.limit:
                return True
            node = node._parent
        return False

    def charge(self, amount: int = 1) -> bool:
        """Spend *amount* here and in every ancestor; ``False`` if exhausted."""
        node: Optional[Budget] = self
        while node is not None:
            node._spent += amount
            node = node._parent
        return not self.exhausted

    def scope(self, name: str, limit: Optional[int] = None) -> "Budget":
        """A child budget whose charges propagate into this one."""
        child = Budget(name, limit, parent=self)
        self._children.append(child)
        return child

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready view of this budget and its descendants."""
        view: Dict[str, Any] = {
            "name": self.name,
            "limit": self.limit,
            "spent": self._spent,
            "exhausted": self.exhausted,
        }
        if self._children:
            view["children"] = [child.snapshot() for child in self._children]
        return view

    def __repr__(self) -> str:
        cap = "inf" if self.limit is None else str(self.limit)
        return "Budget(%s: %d/%s)" % (self.name, self._spent, cap)


# ---------------------------------------------------------------------- #
# cancellation
# ---------------------------------------------------------------------- #


class CancellationToken:
    """A thread-safe external kill switch, polled cooperatively.

    Created by whoever owns the work (a CLI signal handler, a serving
    layer's request scope) and passed into long-running procedures, which
    poll :meth:`check` at the same checkpoints as deadlines.  Cancelling
    is idempotent and one-way.
    """

    __slots__ = ("_event", "reason")

    def __init__(self):
        self._event = threading.Event()
        self.reason = ""

    def cancel(self, reason: str = "") -> None:
        if reason and not self.reason:
            self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def check(self, site: str = "") -> None:
        """Raise :class:`OperationCancelled` when the token has fired."""
        if self._event.is_set():
            where = " at %s" % site if site else ""
            detail = ": %s" % self.reason if self.reason else ""
            raise OperationCancelled("operation cancelled%s%s" % (where, detail))

    def __repr__(self) -> str:
        return "CancellationToken(%s)" % ("cancelled" if self.cancelled else "live")


# ---------------------------------------------------------------------- #
# outcomes
# ---------------------------------------------------------------------- #


class OutcomeStatus(enum.Enum):
    """How a resilient procedure finished.

    * ``COMPLETE`` -- the full computation ran; the value is exact.
    * ``TIMEOUT`` -- a deadline expired; the value (if any) is partial
      and the verdict it supports is ``UNKNOWN``.
    * ``DEGRADED`` -- the procedure finished, but on a weaker path: a
      budget-declined analysis, a quarantined monitor session.  Values are still
      sound (degradation paths are chosen to be bit-identical or
      conservative), the stats say what was skipped.
    * ``CANCELLED`` -- an external token stopped the work.
    """

    COMPLETE = "complete"
    TIMEOUT = "timeout"
    DEGRADED = "degraded"
    CANCELLED = "cancelled"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Outcome(Generic[T]):
    """A verdict wrapper: status, optional value, deterministic progress stats.

    ``stats`` must be JSON-serialisable and *deterministic given where
    the procedure stopped* -- counts of work done, budget snapshots,
    names of skipped phases -- never raw clock readings, so byte-identical
    comparisons across repeated and interned runs stay meaningful.
    """

    status: OutcomeStatus
    value: Optional[T] = None
    stats: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def complete(cls, value: T = None, **stats) -> "Outcome[T]":
        return cls(OutcomeStatus.COMPLETE, value, dict(stats))

    @classmethod
    def timeout(cls, value: Optional[T] = None, **stats) -> "Outcome[T]":
        return cls(OutcomeStatus.TIMEOUT, value, dict(stats))

    @classmethod
    def degraded(cls, value: Optional[T] = None, **stats) -> "Outcome[T]":
        return cls(OutcomeStatus.DEGRADED, value, dict(stats))

    @classmethod
    def cancelled(cls, value: Optional[T] = None, **stats) -> "Outcome[T]":
        return cls(OutcomeStatus.CANCELLED, value, dict(stats))

    @property
    def ok(self) -> bool:
        """Whether the computation ran to completion."""
        return self.status is OutcomeStatus.COMPLETE

    def as_dict(self) -> Dict[str, Any]:
        return {"status": str(self.status), "stats": dict(self.stats)}

    def __repr__(self) -> str:
        return "Outcome(%s%s)" % (
            self.status,
            ", %r" % (self.stats,) if self.stats else "",
        )


# ---------------------------------------------------------------------- #
# structured resilience events
# ---------------------------------------------------------------------- #

#: Bounded in-process log of recovery/degradation diagnostics.  Bounded so
#: a long-lived server that degrades on every call cannot leak memory;
#: tests drain it, operators sample it.
_EVENT_LOG_CAPACITY = 256
_EVENTS: "deque[Diagnostic]" = deque(maxlen=_EVENT_LOG_CAPACITY)
_EVENTS_LOCK = threading.Lock()


def record_event(
    code: str,
    message: str,
    severity: Severity = Severity.WARNING,
    location: str = "",
    data: Optional[dict] = None,
) -> Diagnostic:
    """Record one structured resilience event (an ``RS00x`` code).

    Returns the recorded :class:`Diagnostic` so call sites can also
    attach it to an :class:`Outcome` or a report.
    """
    diagnostic = Diagnostic(
        code, severity, message, location, source="resilience", data=data
    )
    with _EVENTS_LOCK:
        _EVENTS.append(diagnostic)
    return diagnostic


def recent_events(code: Optional[str] = None) -> Tuple[Diagnostic, ...]:
    """The retained events, oldest first, optionally filtered by code."""
    with _EVENTS_LOCK:
        events = tuple(_EVENTS)
    if code is None:
        return events
    return tuple(d for d in events if d.code == code)


def drain_events() -> Tuple[Diagnostic, ...]:
    """Return all retained events and clear the log (test isolation)."""
    with _EVENTS_LOCK:
        events = tuple(_EVENTS)
        _EVENTS.clear()
    return events
