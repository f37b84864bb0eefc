"""Table printing and JSON serialisation shared by the benchmark suite.

Each benchmark prints the data series of its experiment (DESIGN.md E1-E12)
so the run log doubles as the reproduction record in EXPERIMENTS.md.  The
same registry is serialised to a machine-readable JSON report (named by
``REPRO_BENCH_JSON``, default ``BENCH_4.json``) at session end, together
with the pytest-benchmark timing statistics and the cache/intern-table
counters, so CI can archive one artifact per run instead of scraping the
log.
"""

import json
import os
from typing import Iterable, Sequence


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print()
    print("== %s ==" % title)
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


#: Tables registered by benchmark modules, printed at session end by the
#: benchmarks conftest (so --benchmark-only runs still show them).
REGISTRY = []


def register_table(title: str, headers: Sequence[str], rows: list) -> None:
    """Register a (mutable) row list to be printed when the session ends."""
    REGISTRY.append((title, headers, rows))


# ---------------------------------------------------------------------- #
# machine-readable session report (BENCH_*.json)
# ---------------------------------------------------------------------- #


def registry_payload() -> list:
    """Every registered table that collected rows, as plain JSON data."""
    return [
        {
            "title": title,
            "headers": [str(header) for header in headers],
            "rows": [[str(cell) for cell in row] for row in rows],
        }
        for title, headers, rows in REGISTRY
        if rows
    ]


def timing_payload(config) -> list:
    """Per-benchmark timing statistics from pytest-benchmark.

    One entry per measured benchmark with the median front and centre
    (the suite's headline statistic) plus mean/stddev/min/max/rounds.
    Empty when pytest-benchmark is absent or disabled -- the report is
    still valid, just timing-free.
    """
    session = getattr(config, "_benchmarksession", None)
    if session is None:
        return []
    entries = []
    for bench in getattr(session, "benchmarks", ()):
        stats = getattr(bench, "stats", None)
        if stats is None:
            continue
        entries.append(
            {
                "name": getattr(bench, "name", None),
                "fullname": getattr(bench, "fullname", None),
                "group": getattr(bench, "group", None),
                "median": stats.median,
                "mean": stats.mean,
                "stddev": stats.stddev,
                "min": stats.min,
                "max": stats.max,
                "rounds": stats.rounds,
            }
        )
    return entries


def session_payload(config, report: str = "BENCH_4") -> dict:
    """The full session report: tables, timings, cache and intern stats."""
    from repro.foundations.stats import all_cache_stats
    from repro.foundations.interning import (
        intern_table_sizes,
        interning_enabled,
    )
    from repro.core.parallel import worker_count

    return {
        "report": report,
        "interning_enabled": interning_enabled(),
        "workers": worker_count(),
        "cpu_count": os.cpu_count(),
        "tables": registry_payload(),
        "benchmarks": timing_payload(config),
        "cache_stats": all_cache_stats(),
        "intern_tables": intern_table_sizes(),
    }


def write_session_json(path: str, config) -> None:
    """Serialise :func:`session_payload` to *path* (UTF-8, indented).

    The report name inside the payload is the file's stem, so redirecting
    ``REPRO_BENCH_JSON`` also renames the report it contains.
    """
    stem = os.path.splitext(os.path.basename(path))[0] or "BENCH"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            session_payload(config, report=stem), handle, indent=2, sort_keys=True
        )
        handle.write("\n")
