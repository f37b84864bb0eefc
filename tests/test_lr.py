"""Tests for LR-boundedness and Theorem 19 (Section 5)."""

import random
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Database,
    ExtendedAutomaton,
    GlobalConstraint,
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    Y,
    eq,
    generate_finite_runs,
    is_lr_bounded,
    lr_bound_estimate,
    neq,
    project_register_automaton,
    synthesize_register_automaton,
)
from repro.automata.regex import concat, literal, plus
from repro.core.extended import normalize_control
from repro.core.lr import bipartite_vertex_cover, lr_cover_profile
from repro.core.symbolic import scontrol_buchi
from repro.foundations.errors import SpecificationError
from repro.generators import random_extended_automaton, random_register_automaton

from tests.helpers import canonical_finite_runs, canonical_trace, per_cut_profile

EMPTY = SigmaType()


class TestVertexCover:
    def test_empty_graph(self):
        assert bipartite_vertex_cover([], [], []) == 0

    def test_star(self):
        edges = [(0, "a"), (0, "b"), (0, "c")]
        assert bipartite_vertex_cover([0], ["a", "b", "c"], edges) == 1

    def test_perfect_matching(self):
        edges = [(0, "a"), (1, "b"), (2, "c")]
        assert bipartite_vertex_cover([0, 1, 2], ["a", "b", "c"], edges) == 3

    def test_koenig_on_path(self):
        edges = [(0, "a"), (1, "a"), (1, "b")]
        assert bipartite_vertex_cover([0, 1], ["a", "b"], edges) == 2


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=1, max_value=2),
    constraints=st.integers(min_value=0, max_value=3),
    loops=st.integers(min_value=1, max_value=7),
)
def test_cut_sweep_agrees_with_per_cut_graphs(seed, k, constraints, loops):
    """The one-sweep profile equals the profile built one cut graph at a time.

    Random automata carry equality and inequality constraints, so classes
    merge across gaps and edges reach over many cuts.
    """
    extended = random_extended_automaton(
        random.Random(seed), k=k, n_states=3, n_transitions=5, n_constraints=constraints
    )
    normalised = normalize_control(extended)
    lassos = scontrol_buchi(normalised.automaton).iter_accepted_lassos(4, 1)
    for lasso in islice(lassos, 6):
        assert lr_cover_profile(normalised, lasso, loops) == per_cut_profile(
            normalised, lasso, loops
        )


class TestExamples16And17:
    def test_local_disequality_is_bounded(self, example16_bounded):
        assert is_lr_bounded(example16_bounded)

    def test_trace_equivalent_variant_is_not(self, example16_unbounded):
        """Example 16: LR-boundedness is syntactic, not semantic."""
        assert not is_lr_bounded(example16_unbounded)

    def test_all_distinct_is_not_bounded(self, example7_extended):
        """Example 17: the all-distinct automaton is not LR-bounded,
        hence (Theorem 19) not a projection of any register automaton."""
        assert not is_lr_bounded(example7_extended)

    def test_bound_estimate_small_for_local(
        self, example16_bounded, example16_unbounded, example7_extended
    ):
        """At 16 loops the estimate separates bounded from unbounded: the
        local disequality keeps a cover of 1, while Example 16's A' and
        Example 7 grow with the window (a 5-loop window reads 1 for all
        three)."""
        assert lr_bound_estimate(example16_bounded, loops=16) == 1
        assert lr_bound_estimate(example16_unbounded, loops=16) > 1
        assert lr_bound_estimate(example7_extended, loops=16) > 1


class TestProposition20:
    def test_projection_outputs_are_lr_bounded(self, example1_automaton):
        projected = project_register_automaton(example1_automaton, 1)
        assert is_lr_bounded(projected, max_cycle=3)

    def test_projection_bound_at_most_k(self, example1_automaton):
        projected = project_register_automaton(example1_automaton, 1)
        assert lr_bound_estimate(projected, max_cycle=3) <= example1_automaton.k


class TestProposition22:
    @pytest.fixture
    def alternating(self):
        """p/q alternation with adjacent values distinct (LR bound 1)."""
        base = RegisterAutomaton(
            1,
            Signature.empty(),
            {"p", "q"},
            {"p"},
            {"p"},
            [("p", EMPTY, "q"), ("q", EMPTY, "p")],
        )
        return ExtendedAutomaton(
            base, [GlobalConstraint("neq", 1, 1, concat(literal("p"), literal("q")))]
        )

    def test_requires_single_register(self, example1_automaton):
        with pytest.raises(SpecificationError):
            synthesize_register_automaton(ExtendedAutomaton(example1_automaton, []))

    def test_requires_no_equalities(self, example5_extended):
        with pytest.raises(SpecificationError):
            synthesize_register_automaton(example5_extended)

    def test_soundness_and_completeness(self, alternating, empty_database):
        """Pi_1(Reg(A)) == Reg(B) on bounded prefixes, up to value renaming."""
        synthesized = synthesize_register_automaton(alternating, bank_a=1, bank_b=1)
        pool = ("a", "b", "c")
        length = 5
        constrained = {
            canonical_trace(run.data)
            for run in canonical_finite_runs(
                alternating.automaton, empty_database, length, pool
            )
            if alternating.satisfies_constraints(run)
        }
        projected = {
            canonical_trace(tuple(row[:1] for row in run.data))
            for run in canonical_finite_runs(synthesized, empty_database, length, pool)
        }
        assert projected == constrained

    def test_canonical_runs_cover_every_renaming(self, alternating, empty_database):
        """The pool-order enumeration keeps every canonical trace of the full one."""
        automata = [
            alternating.automaton,
            synthesize_register_automaton(alternating, bank_a=1, bank_b=1),
        ]
        for seed in range(4):
            rng = random.Random(seed)
            automata.append(
                random_register_automaton(
                    rng, k=rng.randint(1, 2), n_states=2, n_transitions=3
                )
            )
        pool = ("a", "b", "c")
        for automaton in automata:
            for length in (3, 4):
                full = {
                    canonical_trace(run.data)
                    for run in generate_finite_runs(
                        automaton, empty_database, length, pool=pool
                    )
                }
                canonical = {
                    canonical_trace(run.data)
                    for run in canonical_finite_runs(
                        automaton, empty_database, length, pool
                    )
                }
                assert canonical == full

    def test_register_layout(self, alternating):
        synthesized = synthesize_register_automaton(alternating, bank_a=2, bank_b=3)
        assert synthesized.k == 1 + 2 + 3
