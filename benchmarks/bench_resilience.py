"""E16 -- cost of the resilient execution layer.

The deadline checkpoints run on every consumed lasso candidate, every
completion search node and every Theorem 24 literal pair, so the first
question is whether an armed-but-generous deadline slows the hot paths
measurably.  Target: < 3% median overhead on the Example 2/3 emptiness
sweep (the hard assertion is deliberately looser -- CI machines are
noisy -- but the table reports the honest number).

Timings use ``time.perf_counter`` (never ``time.time`` -- lint rule
TIME001); medians over several repeats to shrug off scheduler noise.
"""

import statistics
import time

from repro import Deadline, ExtendedAutomaton, GlobalConstraint, check_emptiness

from _tables import register_table

ROWS = []

REPEATS = 7
BOUNDS = dict(max_prefix=2, max_cycle=5)


def _example23():
    from repro import RegisterAutomaton, SigmaType, Signature, X, Y, eq
    from repro.automata.regex import concat, literal, plus

    d1 = SigmaType([eq(X(1), X(2)), eq(X(2), Y(2))])
    d2 = SigmaType([eq(X(2), Y(2))])
    d3 = SigmaType([eq(X(2), Y(2)), eq(Y(1), Y(2))])
    base = RegisterAutomaton(
        2,
        Signature.empty(),
        {"q1", "q2"},
        {"q1"},
        {"q1"},
        [("q1", d1, "q2"), ("q2", d2, "q2"), ("q2", d3, "q1")],
    )
    factor = concat(literal("q1"), plus(literal("q2")), literal("q1"))
    return ExtendedAutomaton(base, [GlobalConstraint("neq", 1, 1, factor)])


def _median_seconds(fn, repeats=REPEATS):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _fingerprint(result):
    witness = result.witness
    return (
        result.empty,
        result.exact,
        result.candidates_checked,
        None if witness is None else witness.trace,
    )


def test_deadline_overhead(benchmark):
    """Armed-but-generous deadline vs no deadline on the emptiness sweep."""
    extended = _example23()
    generous = Deadline(3600)

    def bare():
        return check_emptiness(extended, **BOUNDS)

    def timed():
        return check_emptiness(extended, deadline=generous, **BOUNDS)

    # identical answers first -- the ablation is meaningless otherwise
    assert _fingerprint(bare()) == _fingerprint(timed())

    bare_median = _median_seconds(bare)
    timed_median = benchmark.pedantic(
        lambda: _median_seconds(timed), rounds=1, iterations=1
    )
    overhead = (timed_median - bare_median) / bare_median * 100.0
    ROWS.append(
        (
            "deadline checkpoints",
            "%.1f ms" % (bare_median * 1e3),
            "%.1f ms" % (timed_median * 1e3),
            "%+.1f%%" % overhead,
        )
    )
    # Lenient hard bound (the target is 3%; CI boxes jitter far above
    # what the checkpoints themselves could ever cost).
    assert overhead < 50.0


register_table(
    "E16: resilience overhead (medians of %d)" % REPEATS,
    ["scenario", "baseline", "resilient", "delta"],
    ROWS,
)
