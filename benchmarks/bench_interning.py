"""E14 (PR 3) -- hash-consing ablation and parallel lasso search.

Three experiments, all recorded as A/B medians in the session table (and
hence in ``BENCH_3.json``):

* **streaming validity, interning on/off**: each streamed event carries
  its guard in wire form (a bag of literals); the checker reconstructs the
  guard per position and validates the prefix.  With interning on, the
  reconstruction is an intern-table hit and every per-value cache (guard
  closure, evaluation memo) is shared; off, each position pays closure
  construction and literal re-evaluation.
* **emptiness, interning on/off**: a batch of emptiness decisions for
  Example 2/3 automata arriving in wire form -- each decision rebuilds
  the guards from literal bags, assembles the automaton, and runs
  ``check_emptiness`` (plain and inequality-constrained).  Interning
  makes the rebuilt guards identical to earlier ones, so normalisation
  (the completion enumeration, closures, satisfiability) is served from
  per-value caches; off, every decision pays it again.
* **lasso grid, serial vs REPRO_WORKERS=2**: the same emptiness decision
  on a grid of enumeration bounds, with the candidate checks dispatched
  to the process pool.  Verdicts and ``candidates_checked`` must be
  byte-identical to serial; the table records both medians and the ratio.

Between A/B modes every shared cache is cleared (value caches, intern
tables), so neither mode serves entries computed by the other.  Quick
mode (``REPRO_BENCH_QUICK=1``, the CI smoke job) shrinks prefix lengths
and enumeration bounds.
"""

import gc
import os
import statistics
import time

from repro import (
    Database,
    ExtendedAutomaton,
    GlobalConstraint,
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    Y,
    check_emptiness,
    eq,
    find_lasso_run,
    manuscript_review_workflow,
    rel,
)
from repro.automata.regex import concat, literal, plus, star
from repro.foundations.memo import clear_value_caches
from repro.core.parallel import shutdown_executor
from repro.foundations.interning import clear_intern_tables, set_interning
from repro.foundations import knobs

from _tables import register_table

def _prefix_length():
    return 200 if knobs.value("REPRO_BENCH_QUICK") else 1000


def _emptiness_batch():
    return 4 if knobs.value("REPRO_BENCH_QUICK") else 12


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


def _ablate(fn):
    """Median seconds for *fn* with interning on and off (cold caches)."""
    _fresh_caches()
    fn()  # warm within-mode caches the way a steady-state session would
    on = _median_seconds(fn)
    set_interning(False)
    try:
        _fresh_caches()
        fn()
        off = _median_seconds(fn)
    finally:
        set_interning(True)
    _fresh_caches()
    return on, off


def _row(label, on, off):
    ROWS.append((label, "%.4f" % on, "%.4f" % off, "%.2fx" % (off / on)))


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #


def _example23_wire():
    """The Example 2/3 guards as literal bags (the wire format)."""
    d1 = SigmaType([eq(X(1), X(2)), eq(X(2), Y(2))])
    d2 = SigmaType([eq(X(2), Y(2))])
    d3 = SigmaType([eq(X(2), Y(2)), eq(Y(1), Y(2))])
    return [tuple(d.literals) for d in (d1, d2, d3)]


def _example23_extended(constrained, wire=None):
    """The Example 2/3 loop automaton, optionally inequality-constrained."""
    if wire is None:
        wire = _example23_wire()
    d1, d2, d3 = (SigmaType(literals) for literals in wire)
    automaton = RegisterAutomaton(
        2,
        Signature.empty(),
        {"q1", "q2"},
        {"q1"},
        {"q1"},
        [("q1", d1, "q2"), ("q2", d2, "q2"), ("q2", d3, "q1")],
    )
    constraints = []
    if constrained:
        factor = concat(literal("q1"), plus(literal("q2")), literal("q1"))
        constraints = [GlobalConstraint("neq", 1, 1, factor)]
    return ExtendedAutomaton(automaton, constraints)


def _p_only_extended():
    """Example 8 restricted to p-blocks: empty, so every candidate is checked."""
    signature = Signature(relations={"P": 1})
    guard = SigmaType([rel("P", X(1))])
    base = RegisterAutomaton(
        1, signature, {"p"}, {"p"}, {"p"}, [("p", guard, "p")]
    )
    p_block = concat(literal("p"), star(literal("p")), literal("p"))
    return ExtendedAutomaton(base, [GlobalConstraint("neq", 1, 1, p_block)])


def test_streaming_validity_ablation():
    spec = manuscript_review_workflow(with_database=False)
    automaton = spec.compile()
    database = Database(Signature.empty())
    lasso = find_lasso_run(automaton, database)
    length = _prefix_length()
    prefix = lasso.unfold(length)
    wire = [tuple(guard.literals) for guard in prefix.guards]

    from repro.core.runs import FiniteRun

    def stream():
        guards = tuple(SigmaType(literals) for literals in wire)
        run = FiniteRun(prefix.data, prefix.states, guards)
        assert run.is_valid(automaton, database)

    on, off = _ablate(stream)
    _row("streaming validity (n=%d)" % length, on, off)


def test_emptiness_ablation():
    wire = _example23_wire()
    batch = _emptiness_batch()

    def decide():
        for _ in range(batch):
            assert not check_emptiness(_example23_extended(False, wire)).empty
            assert check_emptiness(
                _example23_extended(True, wire), max_prefix=2, max_cycle=4
            ).empty

    on, off = _ablate(decide)
    _row("emptiness (wire-format batch, n=%d)" % batch, on, off)


def test_parallel_lasso_grid():
    instances = [_example23_extended(True), _p_only_extended()]
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
    "E14 (PR 3): interning ablation and parallel lasso search",
    ["experiment", "interned/parallel [s]", "baseline [s]", "speedup"],
    ROWS,
)
