"""Tests for projections (Theorem 13, Lemma 21, Examples 4/5)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Database,
    ExtendedAutomaton,
    FiniteRun,
    GlobalConstraint,
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    Y,
    eq,
    equality_tracker_dfa,
    generate_finite_runs,
    inequality_tracker_dfa,
    neq,
    nrel,
    project_extended,
    project_register_automaton,
    rel,
)
from repro.automata.regex import literal
from repro.core.extended import (
    _normalisation_projection,
    eliminate_equality_constraints,
    lift_constraints_to_states,
)
from repro.core.projection import _bridge_dfa, _normalize, _symbol_masks, corridor_dfa
from repro.core.pruning import prune_extended, prune_infeasible
from repro.core.theorem24 import _normalize_db
from repro.foundations.errors import SpecificationError
from repro.generators import random_extended_automaton, random_register_automaton
from repro.workflows.review import manuscript_review_workflow
from repro.workflows.views import _split_attributes

from tests.helpers import (
    canonical_trace,
    literal_bridge_dfa,
    literal_corridor_dfa,
    literal_equality_tracker_dfa,
    literal_inequality_tracker_dfa,
)

EMPTY = SigmaType()


class TestTrackers:
    @pytest.fixture
    def normalized_example1(self, example1_automaton):
        return example1_automaton.completed().state_driven()

    def test_equality_tracker_accepts_carried_values(self, normalized_example1):
        """Register 2 carries its value along every factor of Example 1."""
        dfa = equality_tracker_dfa(normalized_example1, 2, 2)
        for state_word_len in (1, 2, 3):
            # every factor of every state trace keeps register 2 constant:
            # pick any path through the state-driven control
            state = sorted(normalized_example1.states, key=repr)[0]
            word = [state]
            for _ in range(state_word_len - 1):
                nexts = normalized_example1.transitions_from(word[-1])
                if not nexts:
                    break
                word.append(nexts[0].target)
            assert dfa.accepts(word)

    def test_equality_tracker_single_position(self, normalized_example1):
        """e=_{12} accepts single states whose guard has x1 = x2."""
        dfa = equality_tracker_dfa(normalized_example1, 1, 2)
        for state in normalized_example1.states:
            guard = normalized_example1.guard_of_state(state)
            assert dfa.accepts([state]) == guard.entails(eq(X(1), X(2)))

    def test_inequality_tracker_single_position(self):
        change = SigmaType([neq(X(1), Y(1))])
        automaton = RegisterAutomaton(
            1, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", change, "q")]
        ).completed().state_driven()
        dfa = inequality_tracker_dfa(automaton, 1, 1)
        states = sorted(automaton.states, key=repr)
        # adjacent positions differ: factors of length 2 accepted
        for source in states:
            for transition in automaton.transitions_from(source):
                assert dfa.accepts([source, transition.target])
        # single positions never (x1 != x1 unsatisfiable)
        for state in states:
            assert not dfa.accepts([state])

    @pytest.mark.parametrize(
        "build",
        [
            lambda a: equality_tracker_dfa(a, 0, 1),
            lambda a: equality_tracker_dfa(a, 1, 3),
            lambda a: inequality_tracker_dfa(a, 3, 1),
            lambda a: inequality_tracker_dfa(a, 1, 3),
            lambda a: inequality_tracker_dfa(a, 1, -1),
            lambda a: corridor_dfa(a, ("x", 1), ("x", 3)),
            lambda a: corridor_dfa(a, ("y", 0), ("x", 1)),
            lambda a: corridor_dfa(a, ("z", 1), ("x", 1)),
            lambda a: corridor_dfa(a, ("x", 1), ("X", 2)),
        ],
        ids=[
            "eq-i0", "eq-j3", "neq-i3", "neq-j3", "neq-j-1",
            "corridor-end3", "corridor-start0", "corridor-kind-z", "corridor-kind-X",
        ],
    )
    def test_bad_registers_and_endpoints_rejected(self, normalized_example1, build):
        """Registers outside 1..k and endpoint kinds other than x / y."""
        with pytest.raises(SpecificationError):
            build(normalized_example1)


def _assert_same_language(coded, literal_dfa):
    assert coded.equivalent(literal_dfa)
    assert coded.size() == literal_dfa.size()


def _assert_trackers_match_literal(automaton, corridors=False):
    """Every coded tracker of *automaton* against the NFA-based oracle."""
    registers = range(1, automaton.k + 1)
    for i in registers:
        for j in registers:
            _assert_same_language(
                equality_tracker_dfa(automaton, i, j),
                literal_equality_tracker_dfa(automaton, i, j),
            )
            _assert_same_language(
                inequality_tracker_dfa(automaton, i, j),
                literal_inequality_tracker_dfa(automaton, i, j),
            )
            if not corridors:
                continue
            for start_kind in "xy":
                for end_kind in "xy":
                    start, end = (start_kind, i), (end_kind, j)
                    _assert_same_language(
                        corridor_dfa(automaton, start, end),
                        literal_corridor_dfa(automaton, start, end),
                    )


class TestCodedTrackersMatchLiteral:
    """The bitmask trackers recognise the determinised NFA languages."""

    def test_example1(self, example1_automaton):
        _assert_trackers_match_literal(
            example1_automaton.completed().state_driven(), corridors=True
        )

    @pytest.mark.parametrize("role, hidden", [("author", ["reviewer"]), ("reviewer", ["author"])])
    def test_manuscript_views(self, role, hidden):
        spec = manuscript_review_workflow(with_database=False)
        _visible, order = _split_attributes(spec, hidden)
        automaton = _normalize(prune_infeasible(spec.reordered(order).compile()))
        _assert_trackers_match_literal(automaton)

    def test_example23_binary(self, example23_automaton):
        _assert_trackers_match_literal(_normalize_db(example23_automaton), corridors=True)

    def test_example23_ternary(self):
        signature = Signature(relations={"E": 3, "U": 1})
        edge = (X(1), X(2), Y(1))
        automaton = RegisterAutomaton(
            2,
            signature,
            {"p", "q"},
            {"p"},
            {"p"},
            [
                ("p", SigmaType([eq(X(2), Y(2)), rel("U", X(1)), rel("E", *edge)]), "q"),
                ("q", SigmaType([eq(X(2), Y(2)), rel("U", X(1)), nrel("E", *edge)]), "p"),
            ],
        )
        _assert_trackers_match_literal(_normalize_db(automaton), corridors=True)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=2),
        st.booleans(),
    )
    def test_random_complete_state_driven(self, seed, k, live):
        """Random automata, with terminal states when not *live*."""
        rng = random.Random(seed)
        automaton = random_register_automaton(
            rng,
            k=k,
            n_states=rng.randint(1, 2),
            n_transitions=rng.randint(1, 3),
            ensure_live=live,
        )
        _assert_trackers_match_literal(_normalize(automaton))

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=2))
    def test_random_bridges(self, seed, k):
        """The ``project_extended`` bridges for one random ``neq`` constraint."""
        rng = random.Random(seed)
        extended = prune_extended(
            random_extended_automaton(
                rng, k=k, n_states=rng.randint(1, 2), n_transitions=rng.randint(1, 2),
                n_constraints=1, equality_fraction=0.0,
            )
        )
        without_eq, _k = eliminate_equality_constraints(extended)
        base = _normalize(without_eq.automaton)
        (constraint,) = lift_constraints_to_states(
            without_eq.inequality_constraints(),
            without_eq.automaton.states,
            base.states,
            _normalisation_projection(without_eq.automaton, base),
        )
        dfa = constraint.compiled(base.states)
        symbols, masks = _symbol_masks(base)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                _assert_same_language(
                    _bridge_dfa(symbols, masks, dfa, constraint.i, constraint.j, i, j),
                    literal_bridge_dfa(base, dfa, constraint.i, constraint.j, i, j),
                )


class TestExample4And5:
    """Example 4: register automata are NOT closed under projection;
    Example 5 / Theorem 13: extended automata describe the projection."""

    def test_projection_needs_global_constraints(self, example1_automaton):
        """Example 4's moral: the projection cannot be purely local.

        The projected view carries an equality constraint whose language
        contains factors longer than 2 -- exactly the long-distance
        "initial value recurs" condition no register automaton can state
        on one register.
        """
        projected = project_register_automaton(example1_automaton, 1)
        long_equalities = []
        for constraint in projected.constraints:
            if constraint.kind != "eq":
                continue
            dfa = projected.constraint_dfa(constraint)
            witness = dfa.shortest_accepted()
            if witness is not None:
                # is there also a *longer* accepted factor?
                longer = any(
                    dfa.accepts(witness[:1] * n + witness)
                    for n in range(1, 4)
                ) or not dfa.intersect(dfa).is_empty()
                long_equalities.append(constraint)
        assert long_equalities

    def test_example1_projection_exact(self, example1_automaton, empty_database):
        """Brute-force check: Pi_1(prefixes of A) == constrained prefixes of B."""
        from tests.helpers import projection_prefix_sets

        projected = project_register_automaton(example1_automaton, 1)
        original, image = projection_prefix_sets(
            example1_automaton, projected, 1, length=4
        )
        assert original == image

    def test_projection_to_zero_registers(self, example1_automaton):
        projected = project_register_automaton(example1_automaton, 0)
        assert projected.automaton.k == 0

    def test_projection_rejects_database_automata(self, example23_automaton):
        with pytest.raises(SpecificationError):
            project_register_automaton(example23_automaton, 1)

    def test_projection_register_bound(self, example1_automaton):
        with pytest.raises(SpecificationError):
            project_register_automaton(example1_automaton, 3)


class TestProjectExtended:
    def test_projecting_away_constraint_free_register(self, empty_database):
        """2 registers, register 2 independent: projection is the free automaton."""
        keep2 = SigmaType([eq(X(2), Y(2))])
        automaton = RegisterAutomaton(
            2, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", keep2, "q")]
        )
        extended = ExtendedAutomaton(automaton, [])
        projected = project_extended(extended, 1)
        from tests.helpers import projection_prefix_sets

        original, image = projection_prefix_sets(automaton, projected, 1, length=4)
        assert original == image

    def test_inequality_constraint_transported(self, empty_database):
        """1 visible + 1 hidden register tied together; a global inequality
        on the hidden register must reappear on the visible one."""
        tie = SigmaType([eq(X(1), X(2)), eq(Y(1), Y(2))])
        automaton = RegisterAutomaton(
            2, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", tie, "q")]
        )
        # hidden register pairwise distinct at adjacent positions
        extended = ExtendedAutomaton(
            automaton,
            [GlobalConstraint("neq", 2, 2, literal("q") + literal("q"))],
        )
        projected = project_extended(extended, 1)
        from repro.db import Database
        from tests.helpers import value_pool_of_size

        length = 4
        pool = value_pool_of_size(length + length + 1)
        original = {
            canonical_trace(tuple(row[:1] for row in run.data))
            for run in generate_finite_runs(automaton, empty_database, length, pool=pool)
            if extended.satisfies_constraints(run)
        }
        image = {
            canonical_trace(run.data)
            for run in generate_finite_runs(
                projected.automaton, empty_database, length, pool=value_pool_of_size(length + 1)
            )
            if projected.satisfies_constraints(run)
        }
        assert original == image
