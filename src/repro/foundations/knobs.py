"""The central registry of ``REPRO_*`` behaviour knobs.

Every environment knob the library honours is *declared* here as a
:class:`Knob` -- name, human-readable default, parser, one-line meaning,
and which CI ablation leg certifies it -- and *read* here, at call time,
through :func:`value`.  Centralising both halves buys three guarantees
the scattered ``os.environ.get("REPRO_*")`` reads could not:

* **one parser per knob**: junk-tolerance rules ("unset, empty, negative
  or garbage mean the default") live in exactly one place, so the
  library, the tests and the benchmarks cannot drift;
* **auditable ablation coverage**: lint rule ``KNB002`` cross-checks
  this registry against ``.github/workflows/ci.yml`` -- every registered
  knob must name an ablation leg, or carry an explicit
  ``ablation="none"`` justification;
* **generated documentation**: the knob table in ``docs/ROBUSTNESS.md``
  is emitted from this registry (``python -m repro.analysis.lint
  --emit-docs``), and lint rule ``KNB003`` fails CI when the table
  drifts.

Reads stay **call-time** (lint rule ``ENV001``): declaring a knob never
touches the environment; only :func:`value` does, on each call, so
tests flip knobs per call with ``monkeypatch.setenv`` and no module
reloads.  Direct ``os.environ``/``os.getenv`` access to a ``REPRO_*``
name anywhere else under ``repro`` is a lint finding (``KNB001``).
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
]

#: The spellings that turn a flag knob off, so ``REPRO_BENCH_QUICK=off``
#: and ``REPRO_BENCH_QUICK=No`` mean the same as leaving it unset.
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


def flag_default_off(raw: Optional[str]) -> bool:
    """Off when unset, empty or spelled "off"; on for any other value."""
    text = (raw or "").strip().lower()
    return bool(text) and text not in OFF_VALUES


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
        name="REPRO_FAULTS",
        default="unset",
        parse=parse_stripped,
        doc=(
            "Deterministic fault-injection plan, `site:kind:nth` entries -- "
            "see `docs/ROBUSTNESS.md`, \"Fault injection\"."
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
