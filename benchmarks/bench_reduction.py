"""E18 (PR 7) -- the sound reduction layer: trim and dead-register projection.

Two A/B experiments, recorded as rows in the session table (and hence in
``BENCH_7.json``):

* **trim ablation in constrained emptiness**: the full pipeline on an
  automaton whose accepting lasso lives in a two-state core while most of
  the graph is a reachable junk region (cyclic chains that never reach an
  accepting cycle).  By default the trim drops the junk before
  normalisation; without it (``tests.helpers.without_trim``) every
  downstream stage walks it.
  Byte-identity is part of the experiment, not just the test suite: the
  verdict, the winning witness, *and* ``candidates_checked`` are asserted
  equal between the modes -- trim is candidate-preserving, strictly
  stronger than the pruner's witness-level guarantee.
* **dead-register projection**: ``project_dead_registers`` on a
  k-register automaton where registers ``2..k`` are written (copies of
  register 1's fresh value) but live at no state.  The projection drops
  them all, and emptiness on the 1-register image is compared against the
  original for verdict equality and wall-clock.  Register 1 keeps its
  index, so the global ``neq`` constraint transfers verbatim.

Between A/B modes every shared cache is cleared, so neither mode serves
entries computed by the other.  Quick mode (``REPRO_BENCH_QUICK=1``)
shrinks the junk region and the repeat count; all knobs are read at call
time (ENV001).
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
from repro.automata.regex import concat, literal, plus
from repro.foundations.memo import clear_value_caches
from repro.core.reduction import project_dead_registers, trim_extended
from repro.foundations import knobs
from repro.foundations.interning import clear_intern_tables

from _tables import register_table

sys.path.insert(0, str(Path(__file__).parent.parent))
from tests.helpers import without_trim  # noqa: E402


def _repeats():
    return 3 if knobs.value("REPRO_BENCH_QUICK") else 5


ROWS_TRIM = []
ROWS_PROJECTION = []


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
    """Everything the byte-identity claim covers, witness and work included."""
    witness = result.witness
    trace = None if witness is None else witness.trace
    return (result.empty, result.exact, trace, result.candidates_checked)


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #

EMPTY_SIG = Signature.empty()

KEEP1 = SigmaType([eq(X(1), Y(1))])
FRESH1 = SigmaType([neq(X(1), Y(1))])


def _junky_extended(chains, depth, k=2):
    """A two-state accepting core plus ``chains`` cyclic junk chains.

    Every state fires a single guard (``FRESH1`` out of the core states,
    ``KEEP1`` inside the junk), so trimming the junk changes neither
    ``is_complete`` nor ``is_state_driven`` -- the guard rails stay
    quiet and the trim actually fires.  The junk chains cycle back on
    themselves: reachable, full of candidate-cycle structure, and
    provably free of accepting lassos.  The language is nonempty (every
    step out of the core picks a fresh value), so the byte-identity
    assertion covers a real witness.

    The guards are incomplete and mention only register 1, but the
    automaton carries ``k`` registers: normalisation completes *every*
    transition over the full 2k-variable vocabulary (Bell-many
    completions each), so the untrimmed pipeline pays that per junk
    transition -- the cost the trim removes.
    """
    states = {"s", "acc"}
    transitions = [("s", FRESH1, "acc"), ("acc", FRESH1, "acc")]
    for chain in range(chains):
        names = ["c%d_%d" % (chain, index) for index in range(depth)]
        states.update(names)
        transitions.append(("s", FRESH1, names[0]))
        for source, target in zip(names, names[1:]):
            transitions.append((source, KEEP1, target))
        transitions.append((names[-1], KEEP1, names[0]))
    automaton = RegisterAutomaton(
        k, EMPTY_SIG, states, {"s"}, {"acc"}, transitions
    )
    factor = concat(literal("s"), plus(literal("acc")))
    return ExtendedAutomaton(automaton, [GlobalConstraint("neq", 1, 1, factor)])


def _write_only_extended(k):
    """k registers; only register 1 is ever live.

    Registers ``2..k`` receive copies of register 1's fresh value on the
    entry edge -- written, never read, never copied into a live register
    -- so :func:`project_dead_registers` drops them all.  Register 1
    keeps index 1 in the image, so the same global constraint applies to
    both sides of the A/B.
    """
    entry = SigmaType(
        [neq(X(1), Y(1))] + [eq(Y(i), Y(1)) for i in range(2, k + 1)]
    )
    automaton = RegisterAutomaton(
        k,
        EMPTY_SIG,
        {"p", "q"},
        {"p"},
        {"q"},
        [("p", entry, "q"), ("q", FRESH1, "q")],
    )
    return automaton


def _constrained(automaton):
    factor = concat(literal("p"), plus(literal("q")))
    return ExtendedAutomaton(automaton, [GlobalConstraint("neq", 1, 1, factor)])


# ---------------------------------------------------------------------- #
# experiments
# ---------------------------------------------------------------------- #


def test_trim_ablation_in_constrained_emptiness():
    chains, depth = (5, 6) if knobs.value("REPRO_BENCH_QUICK") else (12, 10)
    extended = _junky_extended(chains, depth)
    total_states = len(extended.automaton.states)

    def decide():
        return check_emptiness(extended, max_prefix=2, max_cycle=4)

    _fresh_caches()
    trimmed = trim_extended(extended)
    reduced_result = decide()  # also warms within-mode caches
    reduced_time = _median_seconds(decide)
    with without_trim():
        _fresh_caches()
        baseline_result = decide()
        baseline_time = _median_seconds(decide)
    _fresh_caches()

    # The acceptance bar: trim must actually fire on this workload, and
    # the two modes must agree byte for byte -- including the amount of
    # candidate work, which pruning alone does not promise.
    kept_states = len(trimmed.automaton.states)
    assert kept_states == 2
    assert not reduced_result.empty
    assert _fingerprint(reduced_result) == _fingerprint(baseline_result)

    ROWS_TRIM.append(
        (
            "junky core (%d chains x %d)" % (chains, depth),
            "%d/%d" % (kept_states, total_states),
            "%.4f" % reduced_time,
            "%.4f" % baseline_time,
            "%.2fx" % (baseline_time / reduced_time),
            "%d=%d"
            % (
                reduced_result.candidates_checked,
                baseline_result.candidates_checked,
            ),
        )
    )


def test_dead_register_projection():
    # k = 4 already sends the original past a minute (the eq-saturated
    # entry guard is the expensive completion shape); k = 3 is the
    # largest point where the A/B stays honest on both sides.
    k = 2 if knobs.value("REPRO_BENCH_QUICK") else 3
    original = _write_only_extended(k)
    projected, dropped = project_dead_registers(original)
    assert dropped == tuple(range(2, k + 1))
    assert projected.k == 1

    def decide(automaton):
        return check_emptiness(_constrained(automaton), max_prefix=2, max_cycle=3)

    _fresh_caches()
    projected_result = decide(projected)
    projected_time = _median_seconds(lambda: decide(projected))
    _fresh_caches()
    original_result = decide(original)
    original_time = _median_seconds(lambda: decide(original))
    _fresh_caches()

    # Projection promises the verdict, not the byte-exact witness: the
    # register count (and with it the completion shape) changed.
    assert original_result.empty == projected_result.empty
    assert original_result.exact == projected_result.exact
    assert not original_result.empty

    ROWS_PROJECTION.append(
        (
            "write-only copies (k=%d)" % k,
            "%d/%d" % (projected.k, k),
            "%.4f" % projected_time,
            "%.4f" % original_time,
            "%.2fx" % (original_time / projected_time),
            "nonempty=nonempty",
        )
    )


register_table(
    "E18 (PR 7): trim ablation in constrained emptiness",
    [
        "workload",
        "states t/u",
        "reduce [s]",
        "ablated [s]",
        "speedup",
        "candidates r=a",
    ],
    ROWS_TRIM,
)

register_table(
    "E18 (PR 7): dead-register projection",
    [
        "workload",
        "registers p/o",
        "projected [s]",
        "original [s]",
        "speedup",
        "verdict p/o",
    ],
    ROWS_PROJECTION,
)
