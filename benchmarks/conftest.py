"""Shared builders for the benchmark suite.

Run with ``PYTHONPATH=src`` (the repo convention -- see README.md); the
``_tables`` helper resolves through pytest's rootdir insertion of this
directory, so no ``sys.path`` surgery happens here.
"""

import random

import pytest

from repro import (
    ExtendedAutomaton,
    GlobalConstraint,
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    Y,
    eq,
    neq,
    rel,
)
from repro.automata.regex import concat, literal, plus, star


@pytest.fixture
def example1_automaton():
    d1 = SigmaType([eq(X(1), X(2)), eq(X(2), Y(2))])
    d2 = SigmaType([eq(X(2), Y(2))])
    d3 = SigmaType([eq(X(2), Y(2)), eq(Y(1), Y(2))])
    return RegisterAutomaton(
        2,
        Signature.empty(),
        {"q1", "q2"},
        {"q1"},
        {"q1"},
        [("q1", d1, "q2"), ("q2", d2, "q2"), ("q2", d3, "q1")],
    )


@pytest.fixture
def example7_extended():
    empty = SigmaType()
    base = RegisterAutomaton(
        1, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", empty, "q")]
    )
    all_distinct = concat(literal("q"), plus(literal("q")))
    return ExtendedAutomaton(base, [GlobalConstraint("neq", 1, 1, all_distinct)])


@pytest.fixture
def example8_extended():
    signature = Signature(relations={"P": 1})
    guard = SigmaType([rel("P", X(1))])
    base = RegisterAutomaton(
        1,
        signature,
        {"p", "q"},
        {"p"},
        {"p", "q"},
        [("p", guard, "p"), ("p", guard, "q"), ("q", guard, "q"), ("q", guard, "p")],
    )
    p_block = concat(literal("p"), star(literal("p")), literal("p"))
    return ExtendedAutomaton(base, [GlobalConstraint("neq", 1, 1, p_block)])


@pytest.fixture
def example16_bounded():
    """Example 16's A: local disequality only -- LR-bounded."""
    guard = SigmaType([neq(X(1), Y(1))])
    base = RegisterAutomaton(
        1, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", guard, "q")]
    )
    return ExtendedAutomaton(base, [])


@pytest.fixture
def example16_unbounded():
    """Example 16's A': trace-equivalent to A but not LR-bounded."""
    guard = SigmaType([neq(X(1), Y(1))])
    base = RegisterAutomaton(
        1,
        Signature.empty(),
        {"p", "q"},
        {"p", "q"},
        {"p", "q"},
        [("p", guard, "p"), ("q", guard, "q")],
    )
    p_pairs = concat(literal("p"), plus(literal("p")))
    return ExtendedAutomaton(base, [GlobalConstraint("neq", 1, 1, p_pairs)])


@pytest.fixture
def rng():
    return random.Random(20260707)


def pytest_sessionfinish(session, exitstatus):
    """Print the experiment tables and the cache-effectiveness table."""
    from _tables import REGISTRY, print_table

    for title, headers, rows in REGISTRY:
        if rows:
            print_table(title, headers, rows)
    _print_cache_effectiveness()


def _print_cache_effectiveness():
    """The E11 observability companion: one row per cache that saw traffic."""
    from repro.foundations.stats import all_cache_stats
    from _tables import print_table

    rows = []
    for name, snap in all_cache_stats().items():
        lookups = snap["hits"] + snap["misses"]
        if not lookups:
            continue
        rows.append(
            (
                name,
                snap["hits"],
                snap["misses"],
                "%.1f%%" % (100.0 * snap["hit_rate"]),
                snap["evictions"],
                snap["peak_entries"],
            )
        )
    if rows:
        print_table(
            "Cache effectiveness",
            ("cache", "hits", "misses", "hit rate", "evictions", "peak entries"),
            rows,
        )
