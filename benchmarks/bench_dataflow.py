"""E15 (PR 4) -- dataflow fixpoint cost and feasibility-proved pruning.

Three experiments, recorded as rows in the session table (and hence in
``BENCH_4.json``):

* **dataflow fixpoint**: the cost of :func:`analyze_reachable_types`
  itself, on a register-rich chain-with-back-edges automaton -- the price
  every pruning consumer pays up front.
* **emptiness + narrowing (Example 2/3, violated constraint)**: the
  inequality constraint is violated inside every candidate word, so the
  :class:`~repro.core.pruning.ConstraintNarrowing` filter prunes whole
  enumeration subtrees.  A/B against the unpruned search
  (``tests.helpers.without_pruning``); the verdict (empty) and every
  reported bound must match the baseline exactly while
  ``candidates_checked`` shrinks.
* **emptiness + junk pruning (funnel)**: a funnel automaton whose split
  transition is *pairwise* guard-consistent with its neighbours but
  infeasible under the dataflow invariant (registers provably equal at
  the split source); behind it sits a junk cycle of accepting states.
  Completion makes every guard a complete type, so the symbolic control
  graph itself rejects the junk candidates either way -- but the
  baseline still pays to complete, state-drive and enumerate over the
  junk subgraph, which pruning removes before normalisation starts.
  The verdict (non-empty), the winning witness trace and the candidate
  count must all be identical.

Between A/B modes every shared cache is cleared, so neither mode serves
entries computed by the other.  Quick mode (``REPRO_BENCH_QUICK=1``)
shrinks the junk cycle, the chain length and the repeat count; all knobs
are read at call time (ENV001).
"""

import gc
import statistics
import sys
import time
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
from repro.analysis.dataflow import analyze_reachable_types
from repro.logic import types as types_module
from repro.automata.regex import concat, literal, plus
from repro.foundations import knobs
from repro.foundations.memo import clear_value_caches
from repro.foundations.interning import clear_intern_tables

from _tables import register_table

sys.path.insert(0, str(Path(__file__).parent.parent))
from tests.helpers import without_pruning  # noqa: E402


def _repeats():
    return 3 if knobs.value("REPRO_BENCH_QUICK") else 5


def _junk_size():
    return 4 if knobs.value("REPRO_BENCH_QUICK") else 8


def _chain_length():
    return 20 if knobs.value("REPRO_BENCH_QUICK") else 60


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


def _fingerprint(result):
    witness = result.witness
    return (
        result.empty,
        result.exact,
        result.max_prefix,
        result.max_cycle,
        None if witness is None else witness.trace,
    )


def _prune_ablation(label, make_extended, max_prefix, max_cycle):
    """Median emptiness seconds with and without pruning, plus the
    in-bench soundness assertions (identical verdict/witness, fewer
    candidates)."""

    def decide():
        return check_emptiness(
            make_extended(), max_prefix=max_prefix, max_cycle=max_cycle
        )

    _fresh_caches()
    pruned_result = decide()  # also warms within-mode caches
    pruned_time = _median_seconds(decide)

    with without_pruning():
        _fresh_caches()
        baseline_result = decide()
        baseline_time = _median_seconds(decide)
    _fresh_caches()

    # Soundness is part of the experiment, not just the test suite.
    assert _fingerprint(pruned_result) == _fingerprint(baseline_result)
    assert pruned_result.candidates_checked <= baseline_result.candidates_checked

    ROWS.append(
        (
            label,
            "%.4f" % pruned_time,
            "%.4f" % baseline_time,
            "%.2fx" % (baseline_time / pruned_time),
            "%d/%d"
            % (pruned_result.candidates_checked, baseline_result.candidates_checked),
        )
    )
    return pruned_result, baseline_result


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #

EMPTY_SIG = Signature.empty()

FORCE = SigmaType([eq(X(1), X(2)), eq(X(1), Y(1)), eq(X(2), Y(2))])
KEEP = SigmaType([eq(X(1), Y(1)), eq(X(2), Y(2))])
SPLIT = SigmaType([neq(X(1), X(2)), eq(X(1), Y(1)), eq(X(2), Y(2))])


def _example23_extended():
    d1 = SigmaType([eq(X(1), X(2)), eq(X(2), Y(2))])
    d2 = SigmaType([eq(X(2), Y(2))])
    d3 = SigmaType([eq(X(2), Y(2)), eq(Y(1), Y(2))])
    automaton = RegisterAutomaton(
        2,
        EMPTY_SIG,
        {"q1", "q2"},
        {"q1"},
        {"q1"},
        [("q1", d1, "q2"), ("q2", d2, "q2"), ("q2", d3, "q1")],
    )
    factor = concat(literal("q1"), plus(literal("q2")), literal("q1"))
    return ExtendedAutomaton(automaton, [GlobalConstraint("neq", 1, 1, factor)])


MAIN_LOOP = 6


def _funnel_with_junk():
    """Registers provably equal at m2; the split edge guards a junk cycle.

    Pairwise conjunction of the *declared* guards cannot refute the
    split (KEEP alone does not force ``x1 = x2``); only the dataflow
    fixpoint proves the subgraph dead on the original automaton.  The
    emptiness pipeline's completion step would also exclude it -- at the
    price of completing and enumerating over every junk state, which is
    exactly the cost the pruner deletes up front.
    """
    n = _junk_size()
    junk = ["j%d" % index for index in range(n)]
    main = ["m%d" % index for index in range(1, MAIN_LOOP + 1)]
    states = {"q0", *main, *junk}
    transitions = [("q0", FORCE, main[0])]
    for index in range(MAIN_LOOP):
        transitions.append((main[index], KEEP, main[(index + 1) % MAIN_LOOP]))
    transitions.append((main[1], SPLIT, junk[0]))
    for index, state in enumerate(junk):
        transitions.append((state, KEEP, junk[(index + 1) % n]))
        transitions.append((state, KEEP, junk[(index + 2) % n]))
    automaton = RegisterAutomaton(
        2, EMPTY_SIG, states, {"q0"}, {main[-1], junk[0]}, transitions
    )
    # A never-matching factor: the constraint machinery (and hence the
    # candidate enumeration) is exercised, but no candidate is rejected
    # for constraint reasons -- the junk rejections are pure waste that
    # pruning removes.
    factor = concat(literal("q0"), literal("q0"))
    return ExtendedAutomaton(automaton, [GlobalConstraint("neq", 1, 1, factor)])


def _chain_automaton():
    """A k=3 chain with back edges: the fixpoint has real work to do."""
    n = _chain_length()
    states = ["c%d" % index for index in range(n)]
    merge = SigmaType([eq(X(1), X(2)), eq(X(1), Y(1)), eq(X(2), Y(2)), eq(X(3), Y(3))])
    shuffle = SigmaType([eq(X(1), Y(2)), eq(X(2), Y(3)), eq(X(3), Y(1))])
    free = SigmaType([eq(X(1), Y(1))])
    guards = (merge, shuffle, free)
    transitions = []
    for index in range(n - 1):
        transitions.append((states[index], guards[index % 3], states[index + 1]))
        if index % 5 == 0 and index:
            transitions.append((states[index], free, states[index // 2]))
    transitions.append((states[-1], shuffle, states[0]))
    return RegisterAutomaton(
        3, EMPTY_SIG, states, {states[0]}, {states[-1]}, transitions
    )


# ---------------------------------------------------------------------- #
# experiments
# ---------------------------------------------------------------------- #


def test_fixpoint_cost():
    automaton = _chain_automaton()

    def solve():
        types = analyze_reachable_types(automaton)
        assert types is not None
        # Rebuild-free repeat would be unrealistically cheap: drop the
        # transfer-function memos so every round pays the transfer.
        types_module._ABSTRACT_SUCCESSORS.clear()
        types_module._SUCCESSOR_ATOMS.clear()
        return types

    _fresh_caches()
    solve()
    seconds = _median_seconds(solve)
    ROWS.append(
        ("dataflow fixpoint (n=%d, k=3)" % _chain_length(),
         "%.4f" % seconds, "-", "-", "-")
    )


def test_narrowing_collapses_violated_search():
    # Bounds chosen so candidate checking dominates: the baseline must
    # reject ~2k candidates one by one while the narrowing filter prunes
    # the shared prefixes once.
    max_prefix = 2 if knobs.value("REPRO_BENCH_QUICK") else 3
    pruned, baseline = _prune_ablation(
        "emptiness + narrowing (Example 2/3)",
        _example23_extended,
        max_prefix=max_prefix,
        max_cycle=6,
    )
    assert pruned.empty
    assert pruned.candidates_checked < baseline.candidates_checked


def test_junk_subgraph_pruned_before_search():
    pruned, baseline = _prune_ablation(
        "emptiness + junk pruning (funnel, %d junk states)" % _junk_size(),
        _funnel_with_junk,
        max_prefix=MAIN_LOOP,
        max_cycle=MAIN_LOOP,
    )
    assert not pruned.empty
    assert pruned.witness.trace == baseline.witness.trace
    # Complete guards make junk candidates locally refutable, so the
    # candidate count matches; the win is the smaller normalisation and
    # enumeration graph (see the table's timing columns).
    assert pruned.candidates_checked == baseline.candidates_checked


register_table(
    "E15 (PR 4): dataflow analysis and feasibility-proved pruning",
    ["experiment", "pruned [s]", "unpruned [s]", "speedup", "candidates p/b"],
    ROWS,
)
