"""E14 -- parallel lasso search.

The same emptiness decision on a grid of enumeration bounds, serially and
with the candidate checks dispatched to the process pool
(``REPRO_WORKERS=2``).  Verdicts and ``candidates_checked`` must be
byte-identical to serial; the session table records both medians and the
ratio.

Every shared cache is cleared (value caches, intern tables) before each
leg, so the parallel leg serves nothing the serial leg computed.  Quick
mode (``REPRO_BENCH_QUICK=1``, the CI smoke job) shrinks the enumeration
bounds.
"""

import gc
import os
import statistics
import time

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
    rel,
)
from repro.automata.regex import concat, literal, plus, star
from repro.foundations.memo import clear_value_caches
from repro.core.parallel import shutdown_executor
from repro.foundations.interning import clear_intern_tables
from repro.foundations import knobs

from _tables import register_table


def _grid_cycles():
    return (5,) if knobs.value("REPRO_BENCH_QUICK") else (6, 7)


def _repeats():
    return 3 if knobs.value("REPRO_BENCH_QUICK") else 5


ROWS = []


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
# workloads
# ---------------------------------------------------------------------- #


def _example23_extended():
    """The Example 2/3 loop automaton under an inequality constraint."""
    d1 = SigmaType([eq(X(1), X(2)), eq(X(2), Y(2))])
    d2 = SigmaType([eq(X(2), Y(2))])
    d3 = SigmaType([eq(X(2), Y(2)), eq(Y(1), Y(2))])
    automaton = RegisterAutomaton(
        2,
        Signature.empty(),
        {"q1", "q2"},
        {"q1"},
        {"q1"},
        [("q1", d1, "q2"), ("q2", d2, "q2"), ("q2", d3, "q1")],
    )
    factor = concat(literal("q1"), plus(literal("q2")), literal("q1"))
    return ExtendedAutomaton(automaton, [GlobalConstraint("neq", 1, 1, factor)])


def _p_only_extended():
    """Example 8 restricted to p-blocks: empty, so every candidate is checked."""
    signature = Signature(relations={"P": 1})
    guard = SigmaType([rel("P", X(1))])
    base = RegisterAutomaton(
        1, signature, {"p"}, {"p"}, {"p"}, [("p", guard, "p")]
    )
    p_block = concat(literal("p"), star(literal("p")), literal("p"))
    return ExtendedAutomaton(base, [GlobalConstraint("neq", 1, 1, p_block)])


def test_parallel_lasso_grid():
    instances = [_example23_extended(), _p_only_extended()]
    bounds = [(2, cycle) for cycle in _grid_cycles()]

    def grid():
        outcomes = []
        for extended in instances:
            for prefix_bound, cycle_bound in bounds:
                result = check_emptiness(
                    extended,
                    max_prefix=prefix_bound,
                    max_cycle=cycle_bound,
                    max_candidates=20000,
                )
                outcomes.append((result.empty, result.candidates_checked))
        return outcomes

    previous = os.environ.pop("REPRO_WORKERS", None)
    try:
        _fresh_caches()
        serial_outcomes = grid()
        serial = _median_seconds(grid)

        os.environ["REPRO_WORKERS"] = "2"
        _fresh_caches()
        parallel_outcomes = grid()  # also warms the pool
        parallel = _median_seconds(grid)
    finally:
        if previous is None:
            os.environ.pop("REPRO_WORKERS", None)
        else:
            os.environ["REPRO_WORKERS"] = previous
        shutdown_executor()

    assert parallel_outcomes == serial_outcomes  # determinism, not just verdicts
    ROWS.append(
        (
            "lasso grid (2 workers vs serial)",
            "%.4f" % parallel,
            "%.4f" % serial,
            "%.2fx" % (serial / parallel),
        )
    )


register_table(
    "E14: parallel lasso search",
    ["experiment", "parallel [s]", "serial [s]", "speedup"],
    ROWS,
)
