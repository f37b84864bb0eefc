"""E8 -- LR-boundedness profiles (Definition 15 / Theorem 18, Examples 16-17).

Computes the cut-graph vertex-cover profiles of the paper's example
automata and reports the boundedness verdicts plus decision time.

Expected shape: Example 16's A bounded (cover 1), its trace-equivalent A'
unbounded (covers grow with the window), Example 17 unbounded; projections
of register automata bounded with cover <= k (Proposition 20).
"""

import pytest

from repro import is_lr_bounded, lr_bound_estimate, project_register_automaton
from repro.core.extended import normalize_control
from repro.core.lr import lr_cover_profile
from repro.core.symbolic import scontrol_buchi

from _tables import register_table

ROWS = []


def _max_cover(extended, loops):
    normalised = normalize_control(extended)
    buchi = scontrol_buchi(normalised.automaton)
    lasso = buchi.find_accepted_lasso()
    profile = lr_cover_profile(normalised, lasso, loops=loops)
    return max(profile or [0])


def test_example16_bounded(benchmark, example7_extended):
    from repro import ExtendedAutomaton, RegisterAutomaton, SigmaType, Signature, X, Y, neq

    guard = SigmaType([neq(X(1), Y(1))])
    base = RegisterAutomaton(
        1, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", guard, "q")]
    )
    extended = ExtendedAutomaton(base, [])
    verdict = benchmark(is_lr_bounded, extended)
    assert verdict
    ROWS.append(("Example 16 A (local)", "bounded", _max_cover(extended, 3), _max_cover(extended, 5)))


def test_example17_unbounded(benchmark, example7_extended):
    verdict = benchmark(is_lr_bounded, example7_extended)
    assert not verdict
    ROWS.append(
        (
            "Example 17 (all distinct)",
            "unbounded",
            _max_cover(example7_extended, 3),
            _max_cover(example7_extended, 5),
        )
    )


def test_projection_bound(benchmark, example1_automaton):
    projected = project_register_automaton(example1_automaton, 1)
    estimate = benchmark(lambda: lr_bound_estimate(projected, max_cycle=3))
    assert estimate <= example1_automaton.k
    ROWS.append(("Example 1 projection", "bounded (Prop 20)", estimate, estimate))


register_table(
    "E8: LR cut-graph covers (window 3 vs 5 loops)",
    ["instance", "verdict", "max cover @3", "max cover @5"],
    ROWS,
)
