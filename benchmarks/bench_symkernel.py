"""E19 (PR 8) -- code-based normalisation kernel vs the Bell(2k) literal wall.

The emptiness pipeline's normalisation step (``completed()`` +
``state_driven()``) materialises one :class:`~repro.logic.types.SigmaType`
per guard completion -- Bell(2k) of them per incomplete guard -- before the
Buchi product is even built.  The symbolic kernel
(``repro.core.symkernel``) enumerates the same completions as partition
*codes* and runs the product over integer ids, decoding literals only for
the winning witness.  The literal leg is forced with the test helper
``tests.helpers.without_symkernel()``.

Rows recorded in the session table (and hence ``BENCH_8.json``):

* **end-to-end emptiness A/B over a register grid**: a sparse two-state
  chain automaton at k = 4 and 5 whose guards settle one x-chain and leave
  the remaining pairs open -- tens to hundreds of completions per guard,
  the completion-heavy regime the kernel targets while the legacy path
  still finishes in seconds.  Both modes run from cold caches; the verdict,
  the witness trace (by ``==`` and by ``repr``) and ``candidates_checked``
  are asserted byte-identical, and the speedup at k >= 4 must clear the
  5x acceptance bar (measured runs land orders of magnitude above it).
* **constrained emptiness at k = 4**: the same chain under an all-distinct
  inequality constraint, so the coded corridor trackers (narrowing +
  per-candidate consistency) are in the measured path, not just the
  product construction.

The ``SigmaType objects`` column is the materialisation counter: the
intern-table miss delta (``cache_stats("intern.SigmaType")``) across each
leg counts distinct guard/completion objects actually constructed.  The
in-bench assertion requires the kernel leg to construct at least 5x fewer
than the legacy leg -- the point of the representation, asserted, not
implied.

Between A/B modes every shared cache is cleared, so neither mode serves
entries computed by the other.  Quick mode (``REPRO_BENCH_QUICK=1``)
drops the k = 5 row and shrinks the repeat count; all knobs are read at
call time (ENV001).
"""

import gc
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from repro import (
    ExtendedAutomaton,
    GlobalConstraint,
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    Y,
    check_emptiness,
    eq,
    neq,
)
from repro.automata.regex import any_of, concat, plus
from repro.foundations.memo import clear_value_caches
from repro.foundations.stats import cache_stats
from repro.foundations.interning import clear_intern_tables
from repro.logic.terms import x_vars, y_vars
from repro.logic.types import enumerate_completion_codes
from repro.foundations import knobs

from _tables import register_table

sys.path.insert(0, str(Path(__file__).parent.parent))
from tests.helpers import without_symkernel  # noqa: E402

SPEEDUP_BAR = 5.0
MATERIALISATION_BAR = 5.0

ROWS_GRID = []
ROWS_CONSTRAINED = []


def _repeats():
    return 2 if knobs.value("REPRO_BENCH_QUICK") else 3


def _grid():
    """(k, settled chain length) pairs; both modes finish in seconds."""
    return ((4, 1),) if knobs.value("REPRO_BENCH_QUICK") else ((4, 1), (5, 2))


def _median_seconds(fn, repeats=None):
    if repeats is None:
        repeats = _repeats()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _fresh_caches():
    clear_value_caches()
    clear_intern_tables()
    gc.collect()


# ---------------------------------------------------------------------- #
# workload
# ---------------------------------------------------------------------- #

EMPTY_SIG = Signature.empty()


def _chain_automaton(k, settled):
    """A two-state chain whose guards leave most register pairs open.

    Both guards settle an equality chain over the first ``settled + 1``
    registers (and their successors) plus one cross pair; everything else
    is open, so each guard completes to tens or hundreds of partition
    codes -- completion-heavy, yet sparse enough that the legacy product
    still finishes.
    """
    lits = [eq(X(i), X(i + 1)) for i in range(1, settled + 1)]
    lits += [eq(Y(i), Y(i + 1)) for i in range(1, settled + 1)]
    forward = SigmaType(lits + [eq(X(1), Y(k))])
    backward = SigmaType(lits + [neq(X(1), Y(1))])
    return RegisterAutomaton(
        k,
        EMPTY_SIG,
        {"a", "b"},
        {"a"},
        {"a"},
        [("a", forward, "b"), ("b", backward, "a")],
    )


def _completions_per_guard(automaton):
    vocab = tuple(x_vars(automaton.k)) + tuple(y_vars(automaton.k))
    return [
        len(enumerate_completion_codes(transition.guard, vocab))
        for transition in automaton.transitions
    ]


def _all_distinct_constraint():
    anyc = any_of(["a", "b"])
    return GlobalConstraint("neq", 1, 1, concat(anyc, plus(anyc)))


# ---------------------------------------------------------------------- #
# measurement
# ---------------------------------------------------------------------- #


def _run_leg(extended, enabled, **bounds):
    """One cold-cache leg: (result, median seconds, SigmaTypes built)."""
    with nullcontext() if enabled else without_symkernel():
        _fresh_caches()
        stats = cache_stats("intern.SigmaType")
        before = stats.misses
        result = check_emptiness(extended, **bounds)
        materialised = stats.misses - before
        seconds = _median_seconds(lambda: check_emptiness(extended, **bounds))
    _fresh_caches()
    return result, seconds, materialised


def _fingerprint(result):
    witness = result.witness
    return (
        result.empty,
        result.exact,
        result.candidates_checked,
        None if witness is None else witness.trace,
        None if witness is None else repr(witness.trace),
    )


def _ab(extended, **bounds):
    kernel = _run_leg(extended, True, **bounds)
    legacy = _run_leg(extended, False, **bounds)
    # Byte-identity is part of the experiment, not just the test suite.
    assert _fingerprint(kernel[0]) == _fingerprint(legacy[0])
    assert legacy[2] >= MATERIALISATION_BAR * max(kernel[2], 1)
    return kernel, legacy


# ---------------------------------------------------------------------- #
# experiments
# ---------------------------------------------------------------------- #


def test_emptiness_ab_over_register_grid():
    for k, settled in _grid():
        automaton = _chain_automaton(k, settled)
        extended = ExtendedAutomaton(automaton, [])
        per_guard = _completions_per_guard(automaton)
        (kernel_result, kernel_time, kernel_objects), (
            _,
            legacy_time,
            legacy_objects,
        ) = _ab(extended)
        assert not kernel_result.empty
        speedup = legacy_time / kernel_time
        # The acceptance bar: >= 5x end-to-end at k >= 4.
        assert speedup >= SPEEDUP_BAR
        ROWS_GRID.append(
            (
                "k=%d" % k,
                "/".join(str(n) for n in per_guard),
                "%.4f" % kernel_time,
                "%.4f" % legacy_time,
                "%.1fx" % speedup,
                "%d/%d" % (kernel_objects, legacy_objects),
            )
        )


def test_constrained_emptiness_ab():
    k, settled = 4, 1
    automaton = _chain_automaton(k, settled)
    extended = ExtendedAutomaton(automaton, [_all_distinct_constraint()])
    bounds = dict(max_prefix=1, max_cycle=2, max_candidates=50)
    (kernel_result, kernel_time, kernel_objects), (
        legacy_result,
        legacy_time,
        legacy_objects,
    ) = _ab(extended, **bounds)
    assert not kernel_result.empty
    speedup = legacy_time / kernel_time
    assert speedup >= SPEEDUP_BAR
    ROWS_CONSTRAINED.append(
        (
            "all-distinct chain (k=%d)" % k,
            "%.4f" % kernel_time,
            "%.4f" % legacy_time,
            "%.1fx" % speedup,
            "%d/%d"
            % (
                kernel_result.candidates_checked,
                legacy_result.candidates_checked,
            ),
            "%d/%d" % (kernel_objects, legacy_objects),
        )
    )


register_table(
    "E19 (PR 8): symbolic kernel vs literal normalisation (unconstrained)",
    [
        "registers",
        "completions/guard",
        "kernel [s]",
        "legacy [s]",
        "speedup",
        "SigmaType objects k/l",
    ],
    ROWS_GRID,
)

register_table(
    "E19 (PR 8): symbolic kernel under inequality constraints",
    [
        "experiment",
        "kernel [s]",
        "legacy [s]",
        "speedup",
        "candidates k/l",
        "SigmaType objects k/l",
    ],
    ROWS_CONSTRAINED,
)
