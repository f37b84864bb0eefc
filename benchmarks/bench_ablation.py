"""E13 (ablations) -- cost of the design choices DESIGN.md calls out.

* **A1 -- minimised tracker DFAs** (Lemma 21): times building the
  minimised equality tracker and reports its size next to the bound
  ``2^k * |states| + 2`` on the corridor states explored before
  minimisation.
* **A2 -- search pool size** (runs): `find_lasso_run` completeness needs
  only 2k+1 fresh values; larger pools are pure overhead.  Sweeps the pool.
* **A3 -- unfolding depth in realisation** (Theorem 9): the iterative
  deepening almost always succeeds at m <= 2; reports the distribution of
  successful depths over random instances.
"""

import random

import pytest

from repro import Database, Signature, equality_tracker_dfa, find_lasso_run
from repro.core.symbolic import _try_realize, scontrol_buchi
from repro.generators import random_register_automaton

from _tables import register_table

ROWS = []


@pytest.mark.parametrize("k", [1, 2])
def test_a1_minimisation(benchmark, k):
    rng = random.Random(77 + k)
    automaton = random_register_automaton(rng, k=k, n_states=2, n_transitions=3)
    normalised = automaton.completed().state_driven()
    upper_bound = (2 ** k) * len(normalised.states) + 2
    minimised = benchmark(equality_tracker_dfa, normalised, 1, 1)
    ROWS.append(
        ("A1 k=%d" % k, "minimised tracker: %d states" % minimised.size(),
         "explored-state bound: %d" % upper_bound)
    )
    assert minimised.size() <= upper_bound


@pytest.mark.parametrize("extra", [3, 7, 15])
def test_a2_pool_size(benchmark, extra, example1_automaton):
    database = Database(Signature.empty())
    pool = tuple("v%d" % index for index in range(extra))

    def search():
        return find_lasso_run(example1_automaton, database, pool=pool)

    run = benchmark(search)
    assert run is not None
    ROWS.append(("A2 pool=%d" % extra, "run found", "len %d" % len(run)))


def test_a3_unfolding_depth(benchmark):
    rng = random.Random(555)
    instances = [
        random_register_automaton(rng, k=2, n_states=2, n_transitions=3)
        for _ in range(6)
    ]

    def depths():
        histogram = {}
        for automaton in instances:
            buchi = scontrol_buchi(automaton)
            lasso = buchi.find_accepted_lasso()
            if lasso is None:
                continue
            for m in (1, 2, 3, 4):
                if _try_realize(automaton, lasso, m) is not None:
                    histogram[m] = histogram.get(m, 0) + 1
                    break
        return histogram

    histogram = benchmark.pedantic(depths, rounds=1, iterations=1)
    ROWS.append(("A3 depth histogram", str(dict(sorted(histogram.items()))), "-"))
    assert sum(histogram.values()) >= 1
    assert max(histogram) <= 2  # iterative deepening saturates early


register_table(
    "E13 (ablations): design-choice costs",
    ["ablation", "measured", "reference"],
    ROWS,
)
