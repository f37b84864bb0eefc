"""Deterministic fault injection (``REPRO_FAULTS``).

Every recovery path in the resilient execution layer -- deadline
timeout, monitor crash recovery, session quarantine, CLI interrupt --
must be *exercised* by tests and CI, not trusted on faith.  This module
is the switchboard: named injection sites inside the library consult
the active :class:`FaultPlan` and, when the plan says so, fail in a
controlled, reproducible way.

Syntax
------
``REPRO_FAULTS`` is a comma-separated list of ``site:kind:nth`` entries::

    REPRO_FAULTS=monitor.ingest:crash:1
    REPRO_FAULTS=monitor.snapshot:raise:2-4,emptiness.lasso:deadline:3

* ``site`` names the injection point (see docs/ROBUSTNESS.md for the
  table).  Current sites: ``emptiness.lasso`` (the candidate-lasso loop
  of ``check_emptiness``) and the monitor-multiplexer sites
  ``monitor.ingest`` (per ingest call: ``crash`` zaps volatile session
  state after the batch is journaled, ``raise`` rejects the batch
  atomically), ``monitor.snapshot`` (once per checkpoint, the durable
  write that ends every ingest: ``raise`` skips that checkpoint and the
  journal keeps its tail for the next one, ``crash`` as above) and
  ``monitor.restore`` (per live session during a recovery, never a
  drain: ``raise`` quarantines that one session, ``crash`` restarts the
  idempotent recovery pass).
* ``kind`` is what happens: ``raise`` (raises :class:`FaultInjected`),
  ``crash`` (a monitor site drops its volatile session state),
  ``deadline`` (raises
  :class:`~repro.foundations.resilience.DeadlineExceeded`, forcing the
  timeout path without a real clock), ``interrupt`` (raises
  ``KeyboardInterrupt``, exercising the CLI partial-report path).  Each
  site documents which of these kinds it honours; a plan naming any
  other kind is rejected.
* ``nth`` selects occurrences of the site *in the current process*:
  ``3`` fires on exactly the third hit, ``2-4`` on hits two through
  four, ``*`` on every hit.  Occurrences count from 1, and a range
  must not run backwards.

The plan is re-read whenever the environment value changes (call-time
semantics, like every other ``REPRO_*`` knob), and hit counters reset
with it.  Tests should call :func:`reset_faults` around fault scenarios
for isolation.
"""

import threading
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.foundations import knobs
from repro.foundations.errors import ReproError

__all__ = [
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
    "parse_fault_plan",
    "fault",
    "reset_faults",
    "fault_hits",
]


#: The kinds some site honours; a plan naming any other kind would inject
#: nothing, so :func:`parse_fault_plan` rejects it.
_KINDS = ("raise", "crash", "deadline", "interrupt")


class FaultInjected(ReproError):
    """The error raised by ``kind=raise`` injections.

    A distinct type so tests can assert the failure came from the
    harness, and so recovery code can choose to treat it exactly like
    the real failure it stands in for (e.g. a rejected batch) without
    ever catching genuine programming errors by accident.
    """


class FaultSpec(NamedTuple):
    """One parsed ``site:kind:nth`` entry; ``last=None`` means unbounded."""

    site: str
    kind: str
    first: int
    last: Optional[int]

    def matches(self, hit: int) -> bool:
        if hit < self.first:
            return False
        return self.last is None or hit <= self.last


def _parse_selector(raw: str) -> Tuple[int, Optional[int]]:
    raw = raw.strip()
    if raw in ("*", ""):
        return (1, None)
    if "-" in raw:
        low, high = raw.split("-", 1)
        first, last = int(low), int(high)
    else:
        first = last = int(raw)
    if first < 1 or last < first:
        raise ValueError("REPRO_FAULTS selector %r can never fire" % raw)
    return (first, last)


def parse_fault_plan(text: str) -> "FaultPlan":
    """Parse a ``REPRO_FAULTS`` value; malformed entries raise ``ValueError``.

    Failing loudly is deliberate: a typo'd fault plan that silently
    injected nothing would make a CI fault-smoke job vacuously green.
    """
    specs: List[FaultSpec] = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                "REPRO_FAULTS entry %r is not site:kind[:nth]" % entry
            )
        site, kind = parts[0].strip(), parts[1].strip()
        if not site or not kind:
            raise ValueError("REPRO_FAULTS entry %r has an empty field" % entry)
        if kind not in _KINDS:
            raise ValueError(
                "REPRO_FAULTS entry %r: kind %r is not one of %s"
                % (entry, kind, ", ".join(_KINDS))
            )
        first, last = _parse_selector(parts[2] if len(parts) == 3 else "*")
        specs.append(FaultSpec(site, kind, first, last))
    return FaultPlan(tuple(specs))


class FaultPlan:
    """A parsed fault plan with per-site hit counters (thread-safe)."""

    __slots__ = ("specs", "_hits", "_lock")

    def __init__(self, specs: Tuple[FaultSpec, ...]):
        self.specs = specs
        self._hits: Dict[str, int] = {}
        self._lock = threading.Lock()

    def fire(self, site: str) -> Optional[str]:
        """Count one hit of *site*; the kind to inject, or ``None``.

        Every call increments the site's counter, whether or not a spec
        matches -- occurrence numbering is a property of the run, not of
        the plan.
        """
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
        for spec in self.specs:
            if spec.site == site and spec.matches(hit):
                return spec.kind
        return None

    def hits(self, site: str) -> int:
        with self._lock:
            return self._hits.get(site, 0)

    def __repr__(self) -> str:
        return "FaultPlan(%s)" % ", ".join(
            "%s:%s:%s-%s" % (s.site, s.kind, s.first, s.last if s.last is not None else "*")
            for s in self.specs
        ) if self.specs else "FaultPlan(empty)"


# Cached (raw env value, plan).  The plan -- and with it the per-site hit
# counters -- is rebuilt whenever REPRO_FAULTS changes, so flipping the
# knob between tests restarts occurrence numbering.
_ACTIVE: List = [None, None]  # [raw, plan]
_ACTIVE_LOCK = threading.Lock()


def _active_plan() -> Optional[FaultPlan]:
    raw = knobs.value("REPRO_FAULTS")
    if not raw:
        with _ACTIVE_LOCK:
            _ACTIVE[0] = _ACTIVE[1] = None
        return None
    with _ACTIVE_LOCK:
        if _ACTIVE[0] != raw:
            _ACTIVE[0] = raw
            _ACTIVE[1] = parse_fault_plan(raw)
        return _ACTIVE[1]


def fault(site: str) -> Optional[str]:
    """Poll an injection *site*: the kind to inject now, or ``None``.

    The fast path (no ``REPRO_FAULTS``) is one environment read and no
    locking beyond the cache reset -- cheap enough for per-candidate call
    sites.
    """
    plan = _active_plan()
    if plan is None:
        return None
    return plan.fire(site)


def fault_hits(site: str) -> int:
    """How many times *site* has been polled under the active plan."""
    plan = _active_plan()
    return 0 if plan is None else plan.hits(site)


def reset_faults() -> None:
    """Forget the cached plan and its counters (test isolation)."""
    with _ACTIVE_LOCK:
        _ACTIVE[0] = _ACTIVE[1] = None
