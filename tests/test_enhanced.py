"""Tests for enhanced automata and Theorem 24 (Section 6)."""

import random

import pytest

from repro import (
    Database,
    EnhancedAutomaton,
    ExtendedAutomaton,
    FiniteRun,
    FinitenessConstraint,
    GlobalConstraint,
    LassoRun,
    PairSelector,
    RegisterAutomaton,
    SigmaType,
    Signature,
    TupleInequalityConstraint,
    X,
    Y,
    eq,
    generate_finite_runs,
    neq,
    nrel,
    project_with_database,
    rel,
)
from repro.automata.regex import any_of, concat, literal, star
from repro.core.pruning import prune_infeasible
from repro.core.theorem24 import _normalize_db, adom_position_dfa
from repro.foundations.errors import SpecificationError
from repro.generators import random_database, random_register_automaton
from repro.logic.types import project_type_dataless

from tests.helpers import literal_adom_position_dfa

EMPTY = SigmaType()


class TestConstraintModel:
    def test_tuple_arity_must_match(self):
        with pytest.raises(SpecificationError):
            TupleInequalityConstraint(
                left=((0, 1),),
                right=((0, 1), (1, 1)),
                selector=PairSelector(literal("q"), literal("q")),
            )

    def test_register_bounds_checked(self):
        base = RegisterAutomaton(
            1, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", EMPTY, "q")]
        )
        constraint = TupleInequalityConstraint(
            left=((0, 2),),
            right=((0, 2),),
            selector=PairSelector(star(literal("q")), literal("q")),
        )
        with pytest.raises(SpecificationError):
            EnhancedAutomaton(base, tuple_constraints=[constraint])

    def test_only_equalities_in_global_slot(self):
        base = RegisterAutomaton(
            1, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", EMPTY, "q")]
        )
        with pytest.raises(SpecificationError):
            EnhancedAutomaton(
                base, equality_constraints=[GlobalConstraint("neq", 1, 1, literal("q"))]
            )

    def test_from_extended_embedding(self, example7_extended):
        enhanced = EnhancedAutomaton.from_extended(example7_extended)
        assert len(enhanced.tuple_constraints) == 1
        run = FiniteRun((("a",), ("a",)), ("q", "q"), (EMPTY,))
        assert not enhanced.satisfies_constraints(run)
        run2 = FiniteRun((("a",), ("b",)), ("q", "q"), (EMPTY,))
        assert enhanced.satisfies_constraints(run2)


class TestTupleChecking:
    @pytest.fixture
    def pairwise(self):
        """Adjacent pairs (x, x+1) at p-anchors must differ as 2-tuples."""
        base = RegisterAutomaton(
            1,
            Signature.empty(),
            {"p", "q"},
            {"p"},
            {"p"},
            [("p", EMPTY, "q"), ("q", EMPTY, "p")],
        )
        selector = PairSelector(
            prefix=concat(star(any_of(["p", "q"])), literal("p")),
            factor=concat(literal("p"), star(any_of(["p", "q"])), literal("p")),
        )
        constraint = TupleInequalityConstraint(
            left=((0, 1), (1, 1)), right=((0, 1), (1, 1)), selector=selector
        )
        return EnhancedAutomaton(base, tuple_constraints=[constraint])

    def test_finite_run_tuple_violation(self, pairwise):
        run = FiniteRun(
            (("a",), ("b",), ("a",), ("b",)), ("p", "q", "p", "q"), (EMPTY,) * 3
        )
        # anchors 0 and 2: tuples (a,b) and (a,b) equal -> violation
        assert not pairwise.satisfies_constraints(run)

    def test_finite_run_tuple_ok(self, pairwise):
        run = FiniteRun(
            (("a",), ("b",), ("c",), ("b",)), ("p", "q", "p", "q"), (EMPTY,) * 3
        )
        assert pairwise.satisfies_constraints(run)

    def test_lasso_run_wrapped_violation(self, pairwise):
        run = LassoRun(
            (("a",), ("b",)), ("p", "q"), (EMPTY, EMPTY), loop_start=0
        )
        # every p-anchor repeats the same (a, b) pair
        assert not pairwise.satisfies_constraints(run)

    def test_selected_values(self):
        base = RegisterAutomaton(
            1,
            Signature.empty(),
            {"p", "q"},
            {"p"},
            {"p"},
            [("p", EMPTY, "q"), ("q", EMPTY, "p")],
        )
        fin = FinitenessConstraint(
            register=1, selector=concat(star(any_of(["p", "q"])), literal("p"))
        )
        enhanced = EnhancedAutomaton(base, finiteness_constraints=[fin])
        run = FiniteRun(
            (("a",), ("b",), ("c",), ("d",)), ("p", "q", "p", "q"), (EMPTY,) * 3
        )
        assert enhanced.selected_values(fin, run) == ["a", "c"]


class TestTheorem24Example23:
    def test_shape(self, example23_automaton):
        view = project_with_database(example23_automaton, 1)
        assert view.automaton.k == 1
        assert view.automaton.signature.is_empty()
        assert view.equality_constraints
        assert view.tuple_constraints
        assert view.finiteness_constraints

    def test_projected_runs_satisfy_view(self, example23_automaton, example23_database):
        normalised = _normalize_db(example23_automaton)
        view = project_with_database(example23_automaton, 1)
        checked = 0
        for run in generate_finite_runs(
            normalised, example23_database, 7, pool=("c", "d0", "d1"), limit=200
        ):
            projected = FiniteRun(
                tuple(row[:1] for row in run.data[:6]),
                run.states[:6],
                tuple(project_type_dataless(g, 1) for g in run.guards[:5]),
            )
            assert view.constraint_violation(projected) is None
            checked += 1
        assert checked > 0

    def test_even_odd_clash_rejected(self, example23_automaton):
        """The paper's analysis: even and odd values must be disjoint."""
        normalised = _normalize_db(example23_automaton)
        view = project_with_database(example23_automaton, 1)

        def search(values):
            transition_set = {
                (t.source, t.guard, t.target) for t in normalised.transitions
            }

            def extend(index, states):
                if index == len(values):
                    guards = tuple(
                        project_type_dataless(normalised.guard_of_state(states[i]), 1)
                        for i in range(len(values) - 1)
                    )
                    run = FiniteRun(tuple((v,) for v in values), tuple(states), guards)
                    from repro.db import Database as DB
                    from repro.db.evaluation import evaluate_type, transition_valuation

                    empty = DB(Signature.empty())
                    for i in range(len(values) - 1):
                        if not evaluate_type(
                            guards[i],
                            empty,
                            transition_valuation((values[i],), (values[i + 1],)),
                        ):
                            return None
                        if (
                            states[i],
                            normalised.guard_of_state(states[i]),
                            states[i + 1],
                        ) not in transition_set:
                            return None
                    if view.constraint_violation(run) is None:
                        return run
                    return None
                target = "p" if index % 2 == 0 else "q"
                for state in sorted(normalised.states, key=repr):
                    if state[0] != target:
                        continue
                    if index == 0 and state not in normalised.initial:
                        continue
                    found = extend(index + 1, states + [state])
                    if found is not None:
                        return found
                return None

            return extend(0, [])

        assert search(["u", "v", "u", "v", "u"]) is not None
        assert search(["u", "v", "u", "u", "u"]) is None

    def test_ternary_variant(self):
        """Example 23 with ternary E: pairs may repeat values but not tuples."""
        signature = Signature(relations={"E": 3, "U": 1})
        delta = SigmaType(
            [eq(X(2), Y(2)), rel("U", X(1)), rel("E", X(1), X(2), Y(1))]
        )
        delta_neg = SigmaType(
            [eq(X(2), Y(2)), rel("U", X(1)), nrel("E", X(1), X(2), Y(1))]
        )
        automaton = RegisterAutomaton(
            2,
            signature,
            {"p", "q"},
            {"p"},
            {"p"},
            [("p", delta, "q"), ("q", delta_neg, "p")],
        )
        view = project_with_database(automaton, 1)
        # the binary tuple constraints (value at alpha, value at alpha+1) exist
        binary = [c for c in view.tuple_constraints if c.arity == 2]
        assert binary

    def test_register_bound_checked(self, example23_automaton):
        with pytest.raises(SpecificationError):
            project_with_database(example23_automaton, 3)


class TestTheorem24Random:
    def test_projected_runs_satisfy_view(self):
        """The ``>=`` inclusion on random relational automata and databases.

        Runs of the normalised automaton over a random database, projected
        onto ``m`` registers and dataless guards, satisfy the view.  Only
        their first 5 of 6 positions are projected: the last position's
        guard never fires, so its data may break it.
        """
        signatures = (
            Signature(relations={"E": 2, "U": 1}),
            Signature(relations={"R": 1}),
            Signature(relations={"E": 2}),
        )
        checked = 0
        for seed in range(40):
            rng = random.Random(seed)
            k = rng.choice((1, 2))
            signature = rng.choice(signatures)
            automaton = random_register_automaton(
                rng, k=k, n_states=2, n_transitions=rng.randint(2, 3), signature=signature
            )
            database = random_database(rng, signature)
            normalised = _normalize_db(prune_infeasible(automaton))
            pool = tuple(sorted(database.active_domain(), key=repr)[:3]) + ("f0", "f1")
            runs = list(generate_finite_runs(normalised, database, 6, pool=pool, limit=100))
            for m in range(1, k + 1):
                view = project_with_database(automaton, m)
                for run in runs:
                    prefix = FiniteRun(
                        tuple(row[:m] for row in run.data[:5]),
                        run.states[:5],
                        tuple(project_type_dataless(g, m) for g in run.guards[:4]),
                    )
                    assert view.constraint_violation(prefix) is None, (seed, m, run)
                    checked += 1
        assert checked > 1000


class TestAdomPositions:
    def test_all_positions_selected_when_always_in_relation(self, example23_automaton):
        normalised = _normalize_db(example23_automaton)
        dfa = adom_position_dfa(normalised, 1)
        # register 1 is in U at every position: every non-empty prefix accepted
        state = dfa.initial
        for symbol in [sorted(normalised.states, key=repr)[0]] * 3:
            state = dfa.delta(state, symbol)
            assert state in dfa.accepting

    def test_matches_literal_selector(self, example23_automaton):
        """Example 23 and random relational automata, every register."""
        automata = [example23_automaton]
        for seed in range(12):
            rng = random.Random(seed)
            signature = rng.choice(
                (Signature(relations={"E": 2, "U": 1}), Signature(relations={"R": 1}))
            )
            automata.append(
                random_register_automaton(
                    rng, k=2, n_states=2, n_transitions=3, signature=signature
                )
            )
        for automaton in automata:
            normalised = _normalize_db(automaton)
            for register in range(1, automaton.k + 1):
                coded = adom_position_dfa(normalised, register)
                literal_dfa = literal_adom_position_dfa(normalised, register)
                assert coded.equivalent(literal_dfa)
                assert coded.size() == literal_dfa.size()

    def test_no_relations_never_selected(self):
        base = RegisterAutomaton(
            1, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", EMPTY, "q")]
        ).equality_completed().state_driven()
        dfa = adom_position_dfa(base, 1)
        assert dfa.is_empty()
