"""E7 -- projection of register automata (Theorem 13 / Lemma 21).

Sweeps the register count of random automata, projects onto one register
and reports the sizes of the Lemma 21 tracker DFAs plus the seconds one
``project_register_automaton`` call takes; also validates the projection
against brute-force prefix enumeration on the smaller instances.  Quick
mode (``REPRO_BENCH_QUICK=1``) sweeps k <= 3.

Expected shape: tracker sizes grow with ``2^k`` (the register bitmasks of
the corridors) times the control size; exactness holds on every validated
instance.
"""

import random
from time import perf_counter

import pytest

from repro import project_register_automaton
from repro.foundations import knobs
from repro.generators import random_register_automaton

from _tables import register_table

ROWS = []


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_projection_sizes(benchmark, k):
    if k > 3 and knobs.value("REPRO_BENCH_QUICK"):
        pytest.skip("quick mode sweeps k <= 3")
    rng = random.Random(300 + k)
    automaton = random_register_automaton(rng, k=k, n_states=2, n_transitions=3)

    def project():
        started = perf_counter()
        view = project_register_automaton(automaton, 1)
        return view, perf_counter() - started

    projected, seconds = benchmark.pedantic(project, rounds=1, iterations=1)
    dfa_sizes = [
        projected.constraint_dfa(c).size() for c in projected.constraints
    ]
    ROWS.append(
        (
            k,
            len(projected.automaton.states),
            len(projected.constraints),
            max(dfa_sizes) if dfa_sizes else 0,
            "%.2f" % seconds,
        )
    )


def test_projection_exactness(benchmark):
    """Round-trip validation against brute force (pooled enumeration)."""
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent.parent))
    from tests.helpers import projection_prefix_sets

    rng = random.Random(7)
    automaton = random_register_automaton(rng, k=2, n_states=2, n_transitions=3)
    projected = project_register_automaton(automaton, 1)

    def check():
        original, image = projection_prefix_sets(automaton, projected, 1, length=3)
        return original == image, len(original)

    exact, count = benchmark.pedantic(check, rounds=1, iterations=1)
    assert exact
    ROWS.append(("exactness", count, "traces", "exact", ""))


register_table(
    "E7: projection construction (Lemma 21)",
    ["k", "view states", "constraints", "largest tracker DFA", "seconds"],
    ROWS,
)
