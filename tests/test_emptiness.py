"""Tests for emptiness of extended automata (Theorem 9 / Corollary 10)."""

import pytest

from repro import (
    ExtendedAutomaton,
    GlobalConstraint,
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    check_emptiness,
    has_run,
    rel,
)
from repro.automata.regex import concat, literal, plus
from repro.core.emptiness import clique_number

EMPTY = SigmaType()


class TestCliqueNumber:
    def test_empty_graph(self):
        assert clique_number([], set()) == 0

    def test_triangle(self):
        edges = {(1, 2), (2, 3), (1, 3)}
        assert clique_number([1, 2, 3, 4], edges) == 3

    def test_bipartite(self):
        edges = {(1, 3), (1, 4), (2, 3), (2, 4)}
        assert clique_number([1, 2, 3, 4], edges) == 2


class TestNoConstraints:
    def test_plain_automaton_nonempty(self, example1_automaton):
        result = check_emptiness(ExtendedAutomaton(example1_automaton, []))
        assert not result.empty
        assert result.exact

    def test_unreachable_acceptance_empty(self):
        automaton = RegisterAutomaton(
            1, Signature.empty(), {"a", "b"}, {"a"}, {"b"}, [("a", EMPTY, "a")]
        )
        result = check_emptiness(ExtendedAutomaton(automaton, []))
        assert result.empty and result.exact


class TestExample7:
    def test_all_distinct_nonempty(self, example7_extended):
        result = check_emptiness(example7_extended)
        assert not result.empty
        assert result.exact

    def test_no_data_periodic_witness(self, example7_extended):
        """Example 7 has runs but no ultimately periodic (in data) run."""
        result = check_emptiness(example7_extended)
        assert result.witness.lasso_run() is None

    def test_finite_witnesses_are_valid_and_distinct(self, example7_extended):
        result = check_emptiness(example7_extended)
        for length in (3, 7, 12):
            database, run = result.witness.finite_witness(length)
            assert len(run) == length
            assert run.is_valid(result.witness.normalised.automaton, database)
            values = [row[0] for row in run.data]
            assert len(set(values)) == length  # all pairwise distinct

    def test_contradictory_constraints_empty(self, example7_extended):
        base = example7_extended.automaton
        all_pairs = concat(literal("q"), plus(literal("q")))
        contradictory = ExtendedAutomaton(
            base,
            list(example7_extended.constraints)
            + [GlobalConstraint("eq", 1, 1, all_pairs)],
        )
        result = check_emptiness(contradictory)
        assert result.empty


class TestExample8:
    def test_with_breaks_nonempty(self, example8_extended):
        """(p q)^omega-style traces are realisable over a finite database."""
        result = check_emptiness(example8_extended, max_prefix=1, max_cycle=4)
        assert not result.empty
        out = result.witness.lasso_run()
        assert out is not None
        database, run = out
        assert run.is_valid(result.witness.normalised.automaton, database)

    def test_p_only_empty(self, example8_p_only):
        """p^omega demands infinitely many distinct values inside finite P."""
        result = check_emptiness(example8_p_only, max_prefix=1, max_cycle=3)
        assert result.empty

    def test_has_run_wrapper(self, example8_extended, example8_p_only):
        assert has_run(example8_extended, max_prefix=1, max_cycle=4)
        assert not has_run(example8_p_only, max_prefix=1, max_cycle=3)


def _p_only():
    """Example 8's p-only restriction with a p p+ p factor: no candidate realises."""
    signature = Signature(relations={"P": 1})
    guard = SigmaType([rel("P", X(1))])
    base = RegisterAutomaton(1, signature, {"p"}, {"p"}, {"p"}, [("p", guard, "p")])
    factor = concat(literal("p"), plus(literal("p")), literal("p"))
    return ExtendedAutomaton(base, [GlobalConstraint("neq", 1, 1, factor)])


class TestCandidateCap:
    def test_cap_counts_the_first_candidate_past_it(self):
        """Stopping at ``max_candidates`` reports cap + 1 candidates checked.

        The first unique candidate past the cap is counted though never
        checked; a cap the enumeration never reaches reports the true count.
        """
        extended = _p_only()
        full = check_emptiness(extended)
        n = full.candidates_checked
        assert (n, full.verdict) == (163, "unknown")
        for cap in (1, 5, n - 1):
            result = check_emptiness(extended, max_candidates=cap)
            assert result.candidates_checked == cap + 1
            assert result.verdict == "unknown"
        for cap in (n, n + 1):
            assert check_emptiness(extended, max_candidates=cap).candidates_checked == n


class TestWitnessProjection:
    def test_witness_projects_to_original_arity(self, example7_extended):
        result = check_emptiness(example7_extended)
        _db, run = result.witness.finite_witness(5)
        projected = result.witness.project_to_original(run)
        assert all(len(row) == example7_extended.k for row in projected.data)
