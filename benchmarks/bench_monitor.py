"""E20 -- monitor multiplexer throughput and crash-recovery cost.

Two questions.  First, what does the crash-surviving machinery (write-
ahead journal, periodic durable snapshots) cost per event: the table
reports sessions advanced per second and the p99 single-``ingest``
latency at two population sizes (1k and 10k live sessions; quick mode
shrinks both).  Second, what a recovery costs relative to the clean run
-- and, non-negotiably, that recovery is *invisible* in the verdicts:
the per-session ``(state, position, failed, peak_threads)`` fingerprints
under an injected driver crash (``monitor.ingest:crash``) and under a
real worker crash (``parallel.call_chunk:exit``) are asserted equal to
the fault-free serial run, in-bench, before any timing is trusted.

Timings use ``time.perf_counter`` (never ``time.time`` -- lint rule
TIME001); medians over several repeats to shrug off scheduler noise.
"""

import statistics
import time

from repro import (
    Database,
    ExtendedAutomaton,
    GlobalConstraint,
    MonitorMultiplexer,
    RegisterAutomaton,
    SigmaType,
    Signature,
)
from repro.automata.regex import concat, literal, plus
from repro.core.parallel import shutdown_executor
from repro.foundations.faults import reset_faults
from repro.foundations.resilience import drain_events
from repro.foundations import knobs

from _tables import register_table

THROUGHPUT_ROWS = []
RECOVERY_ROWS = []


def _scales():
    """Live-session population sizes for the throughput sweep."""
    return [100, 1000] if knobs.value("REPRO_BENCH_QUICK") else [1000, 10000]


def _batch_count():
    """Ingest batches per sweep (one event per session per batch)."""
    return 6 if knobs.value("REPRO_BENCH_QUICK") else 12


def _spec() -> ExtendedAutomaton:
    """One register, one state, all values pairwise distinct (Example 7)."""
    base = RegisterAutomaton(
        1, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", SigmaType(), "q")]
    )
    all_distinct = concat(literal("q"), plus(literal("q")))
    return ExtendedAutomaton(base, [GlobalConstraint("neq", 1, 1, all_distinct)])


def _batch(n_sessions, batch_index):
    """One event per session; values distinct per position, so no violations."""
    value = "v%d" % batch_index
    return [("s%d" % i, "q", (value,)) for i in range(n_sessions)]


def _median_seconds(fn, repeats=3):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _p99(latencies):
    ranked = sorted(latencies)
    return ranked[min(len(ranked) - 1, int(0.99 * len(ranked)))]


def _drive(mux, n_sessions, batches):
    """Feed the whole sweep; return per-ingest latencies (seconds)."""
    latencies = []
    for index in range(batches):
        events = _batch(n_sessions, index)
        start = time.perf_counter()
        report = mux.ingest(events)
        latencies.append(time.perf_counter() - start)
        assert report.applied == n_sessions
        assert not report.violations
    return latencies


def test_throughput(benchmark, monkeypatch):
    """Sessions/sec and p99 ingest latency across the population sweep."""
    monkeypatch.setenv("REPRO_FAULTS", "")
    reset_faults()
    extended = _spec()
    database = Database(Signature.empty())

    batches = _batch_count()

    def sweep():
        for n_sessions in _scales():
            mux = MonitorMultiplexer(
                extended,
                database,
                shards=1,
                snapshot_every=8,
                journal_cap=4 * n_sessions,
            )
            latencies = _drive(mux, n_sessions, batches)
            total = sum(latencies)
            events = n_sessions * batches
            stats = mux.stats()
            assert stats["events_applied"] == events
            assert stats["quarantined"] == 0
            # journal stays bounded by the cap (plus one in-flight batch)
            assert stats["journal_len"] <= 4 * n_sessions + n_sessions
            THROUGHPUT_ROWS.append(
                (
                    "%d sessions" % n_sessions,
                    "%d" % events,
                    "%.0f" % (events / total),
                    "%.1f ms" % (_p99(latencies) * 1e3),
                )
            )

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert len(THROUGHPUT_ROWS) == len(_scales())


def test_crash_recovery_identity(benchmark, monkeypatch):
    """Recovery is invisible in the fingerprints, and affordable in time."""
    n_sessions = 64 if knobs.value("REPRO_BENCH_QUICK") else 256
    batches = 6
    extended = _spec()
    database = Database(Signature.empty())

    def run(shards):
        mux = MonitorMultiplexer(
            extended, database, shards=shards, snapshot_every=4
        )
        _drive(mux, n_sessions, batches)
        return mux

    monkeypatch.setenv("REPRO_FAULTS", "")
    reset_faults()
    baseline = run(shards=1)
    expected = baseline.fingerprints()
    clean_median = _median_seconds(lambda: run(shards=1))

    # Leg A: driver volatile-state loss mid-ingest, recovered from the
    # journal + durable snapshots.  Identity first, then the timing.
    monkeypatch.setenv("REPRO_FAULTS", "monitor.ingest:crash:2")

    def crashed():
        reset_faults()
        drain_events()
        return run(shards=1)

    recovered = crashed()
    assert recovered.fingerprints() == expected
    assert recovered.stats()["recoveries"] == 1
    crashed_median = benchmark.pedantic(
        lambda: _median_seconds(crashed), rounds=1, iterations=1
    )
    RECOVERY_ROWS.append(
        (
            "driver crash (monitor.ingest:crash), %d sessions" % n_sessions,
            "%.1f ms" % (clean_median * 1e3),
            "%.1f ms" % (crashed_median * 1e3),
            "fingerprints identical",
        )
    )

    # Leg B: a real worker process dies mid-batch; the resilient pool
    # resubmits the chunk and the verdicts still match the serial run.
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setenv("REPRO_POOL_BACKOFF_MS", "0")
    monkeypatch.setenv("REPRO_FAULTS", "parallel.call_chunk:exit:1")
    try:

        def pool_crashed():
            shutdown_executor()
            reset_faults()
            drain_events()
            return run(shards=4)

        sharded = pool_crashed()
        assert sharded.fingerprints() == expected
        pool_median = _median_seconds(pool_crashed)
    finally:
        monkeypatch.setenv("REPRO_FAULTS", "")
        reset_faults()
        shutdown_executor()
    RECOVERY_ROWS.append(
        (
            "worker crash (parallel.call_chunk:exit), %d sessions" % n_sessions,
            "%.1f ms" % (clean_median * 1e3),
            "%.1f ms" % (pool_median * 1e3),
            "fingerprints identical",
        )
    )
    # Recovery must stay the same order of magnitude, never hang.
    assert crashed_median < clean_median * 200 + 5.0
    assert pool_median < clean_median * 500 + 10.0


register_table(
    "E20: monitor multiplexer throughput (one event/session/batch)",
    ["live sessions", "events", "sessions/sec", "p99 ingest"],
    THROUGHPUT_ROWS,
)

register_table(
    "E20: monitor crash recovery (medians of 3)",
    ["scenario", "clean", "faulted", "identity"],
    RECOVERY_ROWS,
)
