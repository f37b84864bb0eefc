"""Tests for projections (Theorem 13, Lemma 21, Examples 4/5)."""

import random
from itertools import combinations

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
from repro.core.extended import eliminate_equality_constraints, normalize_control
from repro.core.projection import _bridge_dfa, _symbol_masks, corridor_dfa
from repro.core.pruning import prune_extended, prune_infeasible
from repro.core.register_automaton import Transition
from repro.core.theorem24 import _literal_occurrences, _normalize_db
from repro.foundations.errors import SpecificationError
from repro.logic.terms import register_index
from repro.generators import random_extended_automaton, random_register_automaton
from repro.workflows.review import manuscript_review_workflow
from repro.workflows.views import _split_attributes

from tests.helpers import (
    canonical_trace,
    literal_anchored_corridor_dfa,
    literal_bridge_dfa,
    literal_equality_tracker_dfa,
    literal_inequality_tracker_dfa,
    no_terminal_before_last,
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
            lambda a: corridor_dfa(a, [(("x", 1), ("x", 3))], *_sampled_anchors(a)[0]),
            lambda a: corridor_dfa(a, [(("y", 0), ("x", 1))], *_sampled_anchors(a)[0]),
            lambda a: corridor_dfa(a, [(("z", 1), ("x", 1))], *_sampled_anchors(a)[0]),
            lambda a: corridor_dfa(a, [(("x", 1), ("X", 2))], *_sampled_anchors(a)[0]),
            lambda a: corridor_dfa(a, [], "nowhere", _sampled_anchors(a)[0][1]),
            lambda a: corridor_dfa(a, [], _sampled_anchors(a)[0][0], "nowhere"),
        ],
        ids=[
            "eq-i0", "eq-j3", "neq-i3", "neq-j3", "neq-j-1",
            "corridor-end3", "corridor-start0", "corridor-kind-z", "corridor-kind-X",
            "corridor-first-unknown", "corridor-last-unknown",
        ],
    )
    def test_bad_registers_and_endpoints_rejected(self, normalized_example1, build):
        """Registers outside 1..k, endpoint kinds other than x / y, unknown anchors."""
        with pytest.raises(SpecificationError):
            build(normalized_example1)


def _example23_ternary():
    """Example 23 with a ternary ``E``."""
    signature = Signature(relations={"E": 3, "U": 1})
    edge = (X(1), X(2), Y(1))
    return RegisterAutomaton(
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


def _sampled_anchors(automaton, count=3):
    """*count* (first, last) pairs of guarded states, drawn at a fixed seed.

    Every pair would take seconds per automaton through the literal
    oracle; a sample keeps both same-state and distinct-state anchors.
    """
    guarded = sorted(
        (q for q in automaton.states if automaton.guard_of_state(q) is not None), key=repr
    )
    rng = random.Random(len(guarded))
    return [(guarded[0], guarded[0])] + [
        (rng.choice(guarded), rng.choice(guarded)) for _ in range(count - 1)
    ]


def _assert_same_language(coded, literal_dfa):
    assert coded.equivalent(literal_dfa)
    assert coded.size() == literal_dfa.size()


def _assert_trackers_match_literal(automaton, corridors=False):
    """Every coded tracker of *automaton* against the NFA-based oracle.

    With *corridors*, every x/y endpoint pair is also checked as a
    one-pair anchored corridor at a sample of anchors, against the literal
    corridor intersected with the anchor shape.
    """
    registers = range(1, automaton.k + 1)
    anchors = _sampled_anchors(automaton) if corridors else ()
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
                    pair = ((start_kind, i), (end_kind, j))
                    for first, last in anchors:
                        _assert_same_language(
                            corridor_dfa(automaton, [pair], first, last),
                            literal_anchored_corridor_dfa(automaton, [pair], first, last),
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
        automaton = prune_infeasible(spec.reordered(order).compile())
        normalised = normalize_control(ExtendedAutomaton(automaton, []))
        _assert_trackers_match_literal(normalised.automaton)

    def test_example23_binary(self, example23_automaton):
        _assert_trackers_match_literal(_normalize_db(example23_automaton), corridors=True)

    def test_example23_ternary(self):
        _assert_trackers_match_literal(_normalize_db(_example23_ternary()), corridors=True)

    def test_anchored_corridor_of_several_pairs(self):
        """No pair, or two pairs at once: the literal corridors, intersected."""
        automaton = _normalize_db(_example23_ternary())
        terms = [(kind, r) for kind in "xy" for r in (1, 2)]
        pairs = [(start, end) for start in terms for end in terms]
        rng = random.Random(23)
        for first, last in _sampled_anchors(automaton):
            for endpoints in ([], rng.sample(pairs, 2), rng.sample(pairs, 2)):
                _assert_same_language(
                    corridor_dfa(automaton, endpoints, first, last),
                    literal_anchored_corridor_dfa(automaton, endpoints, first, last),
                )

    def test_terminal_letter_only_ends_a_factor(self, example23_automaton):
        """Every Theorem 24 factor of Example 23 with a terminal branch.

        The tracker, like every tracker, rejects a factor through a state
        without a guard; a run never fires from one.  Only the factors
        with no endpoint pair differ from the literal oracle, which
        accepts any word from the first anchor to the last.
        """
        terminal = Transition("p", SigmaType([rel("U", X(2))]), "r")
        automaton = RegisterAutomaton(
            2,
            example23_automaton.signature,
            example23_automaton.states | {"r"},
            example23_automaton.initial,
            example23_automaton.accepting,
            list(example23_automaton.transitions) + [terminal],
        )
        normalised = _normalize_db(automaton)
        restriction = no_terminal_before_last(normalised)
        occurrences = _literal_occurrences(normalised)
        negatives = [o for o in occurrences if not o[1]]
        positives = [o for o in occurrences if o[1]]
        relaxed = []
        for neg_state, _neg, relation, neg_args in negatives:
            for pos_state, _pos, other, pos_args in positives:
                if relation != other:
                    continue
                for (first, first_args), (last, last_args) in (
                    ((neg_state, neg_args), (pos_state, pos_args)),
                    ((pos_state, pos_args), (neg_state, neg_args)),
                ):
                    for size in range(len(first_args)):
                        for e_set in combinations(range(len(first_args)), size):
                            endpoints = [
                                (register_index(first_args[c]), register_index(last_args[c]))
                                for c in e_set
                            ]
                            coded = corridor_dfa(normalised, endpoints, first, last)
                            oracle = literal_anchored_corridor_dfa(
                                normalised, endpoints, first, last
                            )
                            assert coded.equivalent(oracle.intersect(restriction))
                            if not coded.equivalent(oracle):
                                relaxed.append(endpoints)
        assert relaxed and not any(relaxed)

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
        normalised = normalize_control(ExtendedAutomaton(automaton, []))
        _assert_trackers_match_literal(normalised.automaton)

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
        normalised = normalize_control(without_eq)
        base = normalised.automaton
        (constraint,) = normalised.inequality_constraints()
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
