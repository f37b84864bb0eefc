"""The central registry of ``REPRO_*`` behaviour knobs.

Every environment knob the library honours is *declared* here as a
:class:`Knob` -- name, human-readable default, parser, one-line meaning,
and which CI ablation leg certifies it -- and *read* here, at call time,
through :func:`value`.  Centralising both halves buys three guarantees
the scattered ``os.environ.get("REPRO_*")`` reads could not:

* **one parser per knob**: junk-tolerance rules ("unset, empty, negative
  or garbage mean the default") live in exactly one place, so the serial
  path, the worker processes, and the benchmarks cannot drift;
* **auditable ablation coverage**: lint rule ``KNB002`` cross-checks
  this registry against ``.github/workflows/ci.yml`` -- every registered
  knob must name an ablation leg, or carry an explicit
  ``ablation="none"`` justification;
* **generated documentation**: the knob table in ``docs/ROBUSTNESS.md``
  is emitted from this registry (``python -m repro.analysis.lint
  --emit-docs``), and lint rule ``KNB003`` fails CI when the table
  drifts.

Reads stay **call-time** (lint rule ``ENV001``): declaring a knob never
touches the environment; only :func:`value` / :func:`raw_value` do, on
each call, so tests and A/B benchmark runs flip knobs per call with
``monkeypatch.setenv`` and no module reloads.  Direct
``os.environ``/``os.getenv`` access to a ``REPRO_*`` name anywhere else
under ``repro`` is a lint finding (``KNB001``).

Worker pinning
--------------
The one sanctioned *write* is :func:`pin_for_worker`: process-pool
initializers pin a knob inside a fresh worker (e.g. ``REPRO_WORKERS=1``
so work items that themselves consult the knob never spawn nested
pools).  Routing the write through here keeps the worker-purity race
detector (lint rule ``PAR002``) honest: any other worker-side
environment write is exactly the hidden nondeterminism it exists to
catch.
"""

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "Knob",
    "register_knob",
    "get_knob",
    "is_registered",
    "all_knobs",
    "value",
    "raw_value",
    "pin_for_worker",
]

#: The spellings that turn a flag knob off.  Shared by every flag parser
#: so ``REPRO_SYMKERNEL=off`` and ``REPRO_INTERN=No`` keep behaving
#: identically across knobs.
OFF_VALUES = ("0", "false", "off", "no")


@dataclass(frozen=True)
class Knob:
    """One declared environment knob.

    ``parse`` receives the raw environment value (``None`` when unset)
    and must return the effective value, absorbing junk: parsers never
    raise on malformed input, they fall back to the default -- a typo'd
    knob must degrade to stock behaviour, not crash the library.

    ``ablation`` is the certification pointer checked by lint rule
    ``KNB002``: ``"ci"`` asserts the knob name appears in an ablation
    leg of ``.github/workflows/ci.yml``; ``"none"`` opts out and then
    ``ablation_reason`` must say why that is sound.
    """

    name: str
    default: str
    parse: Callable[[Optional[str]], Any] = field(repr=False)
    doc: str = ""
    ablation: str = "ci"
    ablation_reason: str = ""

    def read(self) -> Any:
        """The effective value right now (one call-time environment read)."""
        return self.parse(os.environ.get(self.name))


# ---------------------------------------------------------------------- #
# parser helpers
# ---------------------------------------------------------------------- #


def flag_default_on(raw: Optional[str]) -> bool:
    """On unless the value spells "off" (the ``REPRO_INTERN`` family)."""
    return ((raw or "").strip().lower()) not in OFF_VALUES


def flag_default_off(raw: Optional[str]) -> bool:
    """Off when unset, empty or spelled "off"; on for any other value."""
    text = (raw or "").strip().lower()
    return bool(text) and text not in OFF_VALUES


def parse_worker_count(raw: Optional[str]) -> int:
    """``REPRO_WORKERS``: serial (1) for unset/junk/<=1, capped at 64.

    An explicit request above the machine's CPU count is honoured (the
    cap is a sanity bound, not an autodetect): tests rely on
    ``REPRO_WORKERS=2`` actually crossing the process boundary even on a
    single-CPU host, where oversubscription is the caller's informed
    choice.
    """
    text = (raw or "").strip()
    if not text:
        return 1
    try:
        requested = int(text)
    except ValueError:
        return 1
    if requested <= 1:
        return 1
    return min(requested, 64)


def parse_pool_retries(raw: Optional[str]) -> int:
    """``REPRO_MAX_POOL_RETRIES``: default 1, ``0`` allowed, capped at 16."""
    text = (raw or "").strip()
    if not text:
        return 1
    try:
        requested = int(text)
    except ValueError:
        return 1
    if requested < 0:
        return 1
    return min(requested, 16)


def parse_backoff_seconds(raw: Optional[str]) -> float:
    """``REPRO_POOL_BACKOFF_MS``: milliseconds in, *seconds* out.

    Defaults to 50 ms; junk and negatives mean the default; ``0``
    disables the sleep (CI fault-smoke runs).
    """
    text = (raw or "").strip()
    if not text:
        return 0.05
    try:
        milliseconds = float(text)
    except ValueError:
        return 0.05
    if milliseconds < 0:
        return 0.05
    return milliseconds / 1000.0


def parse_optional_ms(raw: Optional[str]) -> Optional[float]:
    """``REPRO_DEADLINE_MS``: a millisecond count, or ``None`` for "no deadline".

    Unset, empty, negative or junk all mean ``None`` -- never an
    instantly-expired deadline.
    """
    text = (raw or "").strip()
    if not text:
        return None
    try:
        milliseconds = float(text)
    except ValueError:
        return None
    if milliseconds < 0:
        return None
    return milliseconds


def parse_stripped(raw: Optional[str]) -> str:
    """A plain string knob (``REPRO_FAULTS``): stripped, ``""`` when unset."""
    return (raw or "").strip()


def parse_shard_count(raw: Optional[str]) -> int:
    """``REPRO_MONITOR_SHARDS``: ``0`` (auto) for unset/junk/negative, capped at 256."""
    text = (raw or "").strip()
    if not text:
        return 0
    try:
        requested = int(text)
    except ValueError:
        return 0
    if requested < 0:
        return 0
    return min(requested, 256)


def _parse_bounded_int(raw: Optional[str], default: int, cap: int) -> int:
    text = (raw or "").strip()
    if not text:
        return default
    try:
        requested = int(text)
    except ValueError:
        return default
    if requested < 1:
        return default
    return min(requested, cap)


def parse_snapshot_every(raw: Optional[str]) -> int:
    """``REPRO_MONITOR_SNAPSHOT_EVERY``: default 32, at least 1, capped at 1e6."""
    return _parse_bounded_int(raw, 32, 1_000_000)


def parse_journal_cap(raw: Optional[str]) -> int:
    """``REPRO_MONITOR_JOURNAL_CAP``: default 1024, at least 1, capped at 1e7."""
    return _parse_bounded_int(raw, 1024, 10_000_000)


# ---------------------------------------------------------------------- #
# the registry
# ---------------------------------------------------------------------- #

_REGISTRY: Dict[str, Knob] = {}  # mode-ok: Knob declarations hold no interned values


def register_knob(knob: Knob) -> Knob:
    """Declare *knob*; re-declaring the same name returns the original.

    A conflicting redeclaration (same name, different default or doc) is
    a programming error and raises: two modules silently disagreeing
    about a knob's meaning is the failure mode the registry exists to
    prevent.
    """
    existing = _REGISTRY.get(knob.name)
    if existing is not None:
        if (existing.default, existing.doc) != (knob.default, knob.doc):
            raise ValueError(
                "knob %r is already registered with a different declaration"
                % knob.name
            )
        return existing
    _REGISTRY[knob.name] = knob
    return knob


def get_knob(name: str) -> Knob:
    """The declared :class:`Knob`, or ``KeyError`` for unknown names."""
    return _REGISTRY[name]


def is_registered(name: str) -> bool:
    return name in _REGISTRY


def all_knobs() -> Tuple[Knob, ...]:
    """Every declared knob, sorted by name (deterministic docs/lint order)."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def value(name: str) -> Any:
    """The effective value of a registered knob (call-time environment read)."""
    return _REGISTRY[name].read()


def raw_value(name: str) -> Optional[str]:
    """The raw environment value of *name*, unparsed (``None`` when unset).

    The blessed low-level accessor for the few callers that need the raw
    text -- :mod:`repro.foundations.faults` keys its plan cache on it,
    and :meth:`Deadline.from_env` accepts non-registry names.  Still a
    call-time read.
    """
    return os.environ.get(name)


def pin_for_worker(name: str, pinned: str) -> None:
    """Pin knob *name* to *pinned* inside a worker process.

    The one sanctioned environment write: process-pool initializers call
    this so knobs consulted by work items resolve deterministically
    inside the worker (e.g. ``REPRO_WORKERS=1`` prevents nested pools).
    Only ever call it from a worker initializer -- pinning the parent
    process would leak across requests.
    """
    os.environ[name] = pinned  # worker-ok: the sanctioned worker-pin write (see docstring)


# ---------------------------------------------------------------------- #
# the declarations
# ---------------------------------------------------------------------- #
#
# Declaring is side-effect free (no environment read happens here --
# ENV001 call-time discipline); the table below is the single source of
# truth for docs/ROBUSTNESS.md ("Environment knobs", generated) and the
# KNB002 ablation-coverage check.

register_knob(
    Knob(
        name="REPRO_DEADLINE_MS",
        default="unset (no deadline)",
        parse=parse_optional_ms,
        doc=(
            "Wall-time budget, in milliseconds, applied by `check_emptiness` "
            "when no explicit `deadline=` argument is given.  Unset, empty, "
            "negative or junk all mean \"no deadline\"."
        ),
    )
)

register_knob(
    Knob(
        name="REPRO_WORKERS",
        default="`1` (serial)",
        parse=parse_worker_count,
        doc=(
            "Process-pool width for the candidate-lasso checks "
            "(`docs/PERFORMANCE.md`).  `0`/`1`/unset/junk mean serial; "
            "capped at 64."
        ),
    )
)

register_knob(
    Knob(
        name="REPRO_MAX_POOL_RETRIES",
        default="`1`",
        parse=parse_pool_retries,
        doc=(
            "Executor respawns allowed after a broken pool before degrading "
            "to the serial path.  `0` goes straight to serial on the first "
            "break; capped at 16."
        ),
        ablation="none",
        ablation_reason=(
            "the retry machinery itself is exercised by the fault-smoke "
            "crash legs (parallel.call_chunk:exit); the knob only tunes how "
            "many respawns precede the serial fallback, which is "
            "bit-identical by construction"
        ),
    )
)

register_knob(
    Knob(
        name="REPRO_POOL_BACKOFF_MS",
        default="`50`",
        parse=parse_backoff_seconds,
        doc=(
            "Base delay before an executor respawn, doubling per retry.  "
            "`0` disables the sleep (CI fault-smoke runs)."
        ),
    )
)

register_knob(
    Knob(
        name="REPRO_FAULTS",
        default="unset",
        parse=parse_stripped,
        doc=(
            "Deterministic fault-injection plan, `site:kind:nth` entries -- "
            "see `docs/ROBUSTNESS.md`, \"Fault injection\"."
        ),
    )
)

register_knob(
    Knob(
        name="REPRO_INTERN",
        default="`1` (on)",
        parse=flag_default_on,
        doc=(
            "Hash-consing of the logic kernel "
            "(`repro.foundations.interning`).  `0` restores the "
            "pre-interning structural-equality baseline; verdicts are "
            "identical by value."
        ),
    )
)

register_knob(
    Knob(
        name="REPRO_SYMKERNEL",
        default="`1` (on)",
        parse=flag_default_on,
        doc=(
            "Code-based normalisation kernel in `check_emptiness` "
            "(`docs/PERFORMANCE.md`, \"Symbolic normalisation kernel\").  "
            "`0` takes the legacy literal path -- the ablation baseline; "
            "answers are byte-identical either way."
        ),
    )
)

register_knob(
    Knob(
        name="REPRO_MONITOR_SHARDS",
        default="`0` (auto: one shard per worker)",
        parse=parse_shard_count,
        doc=(
            "Shard count for `MonitorMultiplexer` session fan-out "
            "(`repro.core.monitor`).  `0`/unset/junk mean auto "
            "(`REPRO_WORKERS`); capped at 256.  Sharded and serial ingest "
            "are byte-identical."
        ),
    )
)

register_knob(
    Knob(
        name="REPRO_MONITOR_SNAPSHOT_EVERY",
        default="`32`",
        parse=parse_snapshot_every,
        doc=(
            "Events a monitor session absorbs between durable snapshots "
            "(`docs/ROBUSTNESS.md`, \"Session snapshots\").  Smaller means "
            "shorter journal replays after a crash; results are identical "
            "for any value."
        ),
    )
)

register_knob(
    Knob(
        name="REPRO_MONITOR_JOURNAL_CAP",
        default="`1024`",
        parse=parse_journal_cap,
        doc=(
            "Write-ahead journal length that triggers snapshot-all + "
            "truncation in `MonitorMultiplexer` (best effort under "
            "injected snapshot faults).  Results are identical for any "
            "value."
        ),
    )
)

# Harness knobs: read by the benchmark/test harness (outside the `repro`
# tree, so KNB001 does not route their reads through here), declared so
# the KNB002 registry/CI cross-check and the generated docs cover every
# REPRO_* name the repository honours.

_HARNESS_REASON = (
    "harness control, not a library behaviour knob: it selects what the "
    "CI jobs run, so there is no serial/ablation A/B contract to certify"
)

register_knob(
    Knob(
        name="REPRO_BENCH_QUICK",
        default="unset (full benchmarks)",
        parse=flag_default_off,
        doc=(
            "Benchmark quick mode (the CI smoke job): shrinks workload "
            "sizes so `benchmarks/` finish in seconds."
        ),
        ablation="none",
        ablation_reason=_HARNESS_REASON,
    )
)

register_knob(
    Knob(
        name="REPRO_BENCH_JSON",
        default="`BENCH_4.json`",
        parse=parse_stripped,
        doc=(
            "Where the benchmark session writes its machine-readable "
            "report (`benchmarks/_tables.py`)."
        ),
        ablation="none",
        ablation_reason=_HARNESS_REASON,
    )
)

register_knob(
    Knob(
        name="REPRO_TEST_SHUFFLE",
        default="unset (declaration order)",
        parse=parse_stripped,
        doc=(
            "Seed for shuffling test order (`tests/conftest.py`) -- the "
            "CI leg that proves the suite is order-independent."
        ),
        ablation="none",
        ablation_reason=_HARNESS_REASON,
    )
)
