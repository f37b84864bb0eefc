"""Tests for run objects, validity checking and bounded run search."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Database,
    FiniteRun,
    LassoRun,
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    Y,
    eq,
    find_lasso_run,
    generate_finite_runs,
    neq,
)
from repro.core.runs import validity_error, value_pool
from repro.foundations.errors import SpecificationError

from tests.helpers import literal_configurations, literal_find_lasso_run, random_control_automaton


@pytest.fixture
def example1_run(example1_automaton, example1_guards):
    d1, d2, d3 = example1_guards
    # (d2 d1, q1) (d3 d1, q2) (d4 d1, q2) (d1 d1, q1-bound) per Example 1
    return FiniteRun(
        data=(("v1", "v1"), ("v2", "v1"), ("v3", "v1")),
        states=("q1", "q2", "q2"),
        guards=(d1, d2),
    )


class TestFiniteRun:
    def test_shape_validation(self):
        with pytest.raises(SpecificationError):
            FiniteRun(data=(("a",),), states=("q", "q"), guards=())

    def test_guard_count_validation(self):
        with pytest.raises(SpecificationError):
            FiniteRun(data=(("a",),), states=("q",), guards=(SigmaType(),))

    def test_validity(self, example1_automaton, example1_run, empty_database):
        assert example1_run.is_valid(example1_automaton, empty_database)

    def test_invalid_initial_state(self, example1_automaton, example1_guards, empty_database):
        d1, d2, _d3 = example1_guards
        run = FiniteRun((("a", "a"),), ("q2",), ())
        assert "not initial" in validity_error(run, example1_automaton, empty_database)

    def test_invalid_guard_failure(self, example1_automaton, example1_guards, empty_database):
        d1, _d2, _d3 = example1_guards
        # d1 requires x1 = x2
        run = FiniteRun(
            (("a", "b"), ("c", "b")), ("q1", "q2"), (d1,)
        )
        assert "fails" in validity_error(run, example1_automaton, empty_database)

    def test_wrong_arity_detected(self, example1_automaton, empty_database):
        run = FiniteRun((("a",),), ("q1",), ())
        assert "arity" in validity_error(run, example1_automaton, empty_database)

    def test_traces(self, example1_run, example1_guards):
        d1, d2, _d3 = example1_guards
        assert example1_run.register_trace() == (
            ("v1", "v1"),
            ("v2", "v1"),
            ("v3", "v1"),
        )
        assert example1_run.state_trace() == ("q1", "q2", "q2")
        assert example1_run.control_trace() == (("q1", d1), ("q2", d2))

    def test_project(self, example1_run):
        assert example1_run.project(1).data == (("v1",), ("v2",), ("v3",))

    def test_map_states_and_guards(self, example1_run):
        mapped = example1_run.map_states(str.upper)
        assert mapped.states == ("Q1", "Q2", "Q2")


class TestLassoRun:
    @pytest.fixture
    def loop_run(self, example1_automaton, example1_guards):
        d1, d2, d3 = example1_guards
        # q1 --d1--> q2 --d2--> q2 --d3--> back to q1 (loop over everything)
        return LassoRun(
            data=(("v1", "v1"), ("v2", "v1"), ("v3", "v1")),
            states=("q1", "q2", "q2"),
            guards=(d1, d2, d3),
            loop_start=0,
        )

    def test_validity(self, example1_automaton, loop_run, empty_database):
        assert loop_run.is_valid(example1_automaton, empty_database)

    def test_buchi_condition(self, example1_automaton, example1_guards, empty_database):
        d1, d2, _d3 = example1_guards
        run = LassoRun(
            data=(("a", "a"), ("b", "a")),
            states=("q1", "q2"),
            guards=(d1, d2),
            loop_start=1,
        )
        assert "Buchi" in validity_error(run, example1_automaton, empty_database)

    def test_wrap_guard_checked(self, example1_automaton, example1_guards, empty_database):
        d1, d2, d3 = example1_guards
        # wrap d3 requires y1 = y2 back at loop start: data[0] = (v1,v1) ok;
        # break it by making the loop-start tuple unequal
        run = LassoRun(
            data=(("v1", "v2"), ("v3", "v2"), ("v4", "v2")),
            states=("q1", "q2", "q2"),
            guards=(d1, d2, d3),
            loop_start=0,
        )
        error = validity_error(run, example1_automaton, empty_database)
        assert error is not None  # d1 requires x1 = x2 at position 0 anyway

    def test_traces_are_lassos(self, loop_run):
        trace = loop_run.register_trace()
        assert trace[0] == ("v1", "v1")
        assert trace[3] == ("v1", "v1")

    def test_unfold(self, loop_run, example1_automaton, empty_database):
        prefix = loop_run.unfold(7)
        assert len(prefix) == 7
        assert prefix.is_valid(example1_automaton, empty_database)

    def test_successor_and_position(self, loop_run):
        assert loop_run.successor(2) == 0
        assert loop_run.position_at(5) == 2


class TestSearch:
    def test_find_lasso_run(self, example1_automaton, empty_database):
        run = find_lasso_run(example1_automaton, empty_database)
        assert run is not None
        assert run.is_valid(example1_automaton, empty_database)

    def test_find_lasso_run_empty_automaton(self, empty_database):
        # accepting state unreachable through an infinite run
        guard = SigmaType([neq(X(1), X(1 + 0))]) if False else SigmaType()
        automaton = RegisterAutomaton(
            1, Signature.empty(), {"a", "b"}, {"a"}, {"b"}, [("b", SigmaType(), "b")]
        )
        assert find_lasso_run(automaton, empty_database) is None

    def test_generate_finite_runs_are_valid(self, example1_automaton, empty_database):
        runs = list(
            generate_finite_runs(example1_automaton, empty_database, 4, pool=("a", "b"))
        )
        assert runs
        for run in runs:
            assert run.is_valid(example1_automaton, empty_database)

    def test_generate_finite_runs_limit(self, example1_automaton, empty_database):
        runs = list(
            generate_finite_runs(
                example1_automaton, empty_database, 4, pool=("a", "b"), limit=3
            )
        )
        assert len(runs) == 3

    def test_value_pool_size(self, example1_automaton, empty_database):
        pool = value_pool(example1_automaton, empty_database)
        assert len(pool) == 2 * example1_automaton.k + 1

    def test_search_respects_database(self, example23_automaton, example23_database):
        run = find_lasso_run(example23_automaton, example23_database)
        assert run is not None
        assert run.is_valid(example23_automaton, example23_database)
        # register 1 must alternate between E-targets and non-targets of c
        values = [row[0] for row in run.data]
        assert "d0" in values

    def test_configuration_cap_is_the_reachable_count(self, example1_automaton, empty_database):
        """The search raises exactly when more configurations are reachable than the cap."""
        pool = value_pool(example1_automaton, empty_database)
        reachable = len(literal_configurations(example1_automaton, empty_database, pool)[0])
        run = find_lasso_run(example1_automaton, empty_database, max_configurations=reachable)
        assert run is not None
        with pytest.raises(SpecificationError, match="exceeds %d nodes" % (reachable - 1)):
            find_lasso_run(example1_automaton, empty_database, max_configurations=reachable - 1)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from((1, 1, 2)),
    st.integers(min_value=0, max_value=40),
)
def test_run_search_matches_per_anchor_cycle_searches(seed, k, cap):
    """One Tarjan pass finds the run one cycle search per accepting configuration found.

    ``tests.helpers.literal_find_lasso_run`` is the oracle: the same
    ``LassoRun`` field for field, or ``None``, and under a configuration
    cap the same run or the same ``SpecificationError``.
    """
    automaton = random_control_automaton(random.Random(seed), k)
    database = Database(Signature.empty())
    assert find_lasso_run(automaton, database) == literal_find_lasso_run(automaton, database)

    def capped(search):
        try:
            return search(automaton, database, max_configurations=cap)
        except SpecificationError:
            return "raised"

    assert capped(find_lasso_run) == capped(literal_find_lasso_run)
