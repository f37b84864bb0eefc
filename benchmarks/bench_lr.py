"""E8 -- LR-boundedness profiles (Definition 15 / Theorem 18, Examples 16-17).

Computes the cut-graph vertex-cover profiles of the paper's example
automata at the window sizes ``is_lr_bounded`` compares (4, 7, 10, 13 and
16 loop iterations of the first accepted lasso) and reports the
boundedness verdicts plus decision time.

Expected shape: Example 16's A bounded (max cover 1 at every window), its
trace-equivalent A' and Example 17 unbounded (max cover strictly growing
with the window); projections of register automata bounded with cover
<= k (Proposition 20).  Every profile must equal the one built one cut
graph at a time (``tests.helpers.per_cut_profile``) before a row is kept.
"""

import sys
from pathlib import Path

from repro import is_lr_bounded, lr_bound_estimate, project_register_automaton
from repro.core.extended import normalize_control
from repro.core.lr import lr_cover_profile
from repro.core.symbolic import scontrol_buchi

from _tables import register_table

sys.path.insert(0, str(Path(__file__).parent.parent))
from tests.helpers import per_cut_profile  # noqa: E402

#: The windows ``is_lr_bounded`` grows through by default (loop iterations).
WINDOWS = (4, 7, 10, 13, 16)

ROWS = []


def _max_covers(extended):
    normalised = normalize_control(extended)
    lasso = scontrol_buchi(normalised.automaton).find_accepted_lasso()
    covers = []
    for loops in WINDOWS:
        profile = lr_cover_profile(normalised, lasso, loops=loops)
        assert profile == per_cut_profile(normalised, lasso, loops)
        covers.append(max(profile or [0]))
    return covers


def _bounded_row(name, extended):
    covers = _max_covers(extended)
    assert len(set(covers)) == 1, covers
    ROWS.append((name, "bounded", ", ".join(map(str, covers))))


def _unbounded_row(name, extended):
    covers = _max_covers(extended)
    assert all(a < b for a, b in zip(covers, covers[1:])), covers
    ROWS.append((name, "unbounded", ", ".join(map(str, covers))))


def test_example16_bounded(benchmark, example16_bounded):
    assert benchmark(is_lr_bounded, example16_bounded)
    _bounded_row("Example 16 A (local)", example16_bounded)


def test_example16_unbounded(benchmark, example16_unbounded):
    assert not benchmark(is_lr_bounded, example16_unbounded)
    _unbounded_row("Example 16 A' (p-pairs)", example16_unbounded)


def test_example17_unbounded(benchmark, example7_extended):
    assert not benchmark(is_lr_bounded, example7_extended)
    _unbounded_row("Example 17 (all distinct)", example7_extended)


def test_projection_bound(benchmark, example1_automaton):
    projected = project_register_automaton(example1_automaton, 1)
    estimate = benchmark(lambda: lr_bound_estimate(projected, max_cycle=3))
    assert estimate <= example1_automaton.k
    ROWS.append(
        (
            "Example 1 projection",
            "bounded (Prop 20)",
            "estimate %d <= k = %d" % (estimate, example1_automaton.k),
        )
    )


register_table(
    "E8: LR max cut-graph cover at 4, 7, 10, 13, 16 loops",
    ["instance", "verdict", "max cover per window"],
    ROWS,
)
