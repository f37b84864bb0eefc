"""Integration tests: full pipelines crossing several modules."""

import random

import pytest

from repro import (
    Database,
    ExtendedAutomaton,
    LtlFoSentence,
    Signature,
    check_emptiness,
    find_lasso_run,
    generate_finite_runs,
    is_lr_bounded,
    manuscript_review_workflow,
    project_register_automaton,
    role_view,
    verify,
)
from repro.generators import random_register_automaton
from repro.logic.formulas import atom_eq
from repro.logic.terms import X
from repro.ltl import Eventually, Globally, Not_, Prop
from repro.ltl.syntax import Or_
from tests.helpers import canonical_trace


class TestProjectionPipeline:
    """Project random automata and compare against brute force (Theorem 13)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_projection_exact(self, seed, empty_database):
        from tests.helpers import projection_prefix_sets

        automaton = random_register_automaton(
            random.Random(seed), k=2, n_states=2, n_transitions=3
        )
        projected = project_register_automaton(automaton, 1)
        original, image = projection_prefix_sets(automaton, projected, 1, length=3)
        assert original == image

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_projection_is_lr_bounded(self, seed):
        """Proposition 20 on random instances."""
        automaton = random_register_automaton(
            random.Random(seed), k=2, n_states=2, n_transitions=3
        )
        projected = project_register_automaton(automaton, 1)
        assert is_lr_bounded(projected, max_cycle=3, max_candidates=40)


class TestEmptinessAgainstSearch:
    """The symbolic emptiness decision agrees with concrete run search."""

    @pytest.mark.parametrize("seed", list(range(8)))
    def test_plain_automata(self, seed, empty_database):
        # k = 2 searches find_lasso_run's default pool of 2k + 1 values.
        for k, pool in ((1, ("a", "b", "c")), (2, None)):
            automaton = random_register_automaton(
                random.Random(seed), k=k, n_states=3, n_transitions=4, ensure_live=False
            )
            symbolic = not check_emptiness(ExtendedAutomaton(automaton, [])).empty
            concrete = find_lasso_run(automaton, empty_database, pool=pool) is not None
            assert symbolic == concrete


class TestWorkflowVerification:
    def test_review_workflow_properties(self):
        spec = manuscript_review_workflow(with_database=False)
        automaton = spec.compile()
        extended = ExtendedAutomaton(automaton, [])
        author = spec.register_of("author")
        reviewer = spec.register_of("reviewer")
        # Safety: the reviewer is never the author while under review...
        # expressed positionally: G (under-review -> reviewer != author).
        # States are not propositions in LTL-FO, so use the stage-invariant
        # encoding: on every transition out of under-review the registers
        # already satisfy the disequality; here we check the weaker global
        # eventuality: F (reviewer != author).
        sentence = LtlFoSentence(
            skeleton=Eventually(Prop("distinct")),
            propositions={"distinct": ~atom_eq(X(author), X(reviewer))},
        )
        result = verify(extended, sentence)
        assert result.holds and result.exact

    def test_review_workflow_negative_property(self):
        spec = manuscript_review_workflow(with_database=False)
        automaton = spec.compile()
        extended = ExtendedAutomaton(automaton, [])
        paper = spec.register_of("paper")
        topic = spec.register_of("topic")
        # G (paper = topic) is absurd and must fail with a counterexample.
        sentence = LtlFoSentence(
            skeleton=Globally(Prop("same")),
            propositions={"same": atom_eq(X(paper), X(topic))},
        )
        result = verify(extended, sentence)
        assert not result.holds

    def test_author_view_roundtrip(self, empty_database):
        """Projected concrete runs satisfy the view's constraints."""
        spec = manuscript_review_workflow(with_database=False)
        automaton = spec.compile()
        view = role_view(spec, "author", hidden=["reviewer"])
        # states of the view automaton are normalised; check data-level:
        # every projected register trace of a concrete run appears among
        # the view automaton's constrained traces.
        pool = ("p", "a", "t", "r", "s")
        length = 4
        original = {
            canonical_trace(tuple(row[:3] for row in run.data))
            for run in generate_finite_runs(automaton, empty_database, length, pool=pool, limit=60)
        }
        image = {
            canonical_trace(run.data)
            for run in generate_finite_runs(
                view.automaton.automaton, empty_database, length, pool=pool, limit=100000
            )
            if view.automaton.satisfies_constraints(run)
        }
        assert original <= image


class TestEndToEndEmptinessWitness:
    def test_witness_runs_check_out(self, example8_extended):
        result = check_emptiness(example8_extended, max_prefix=1, max_cycle=4)
        assert not result.empty
        database, run = result.witness.lasso_run()
        normalised = result.witness.normalised
        assert normalised.is_run(run, database)
        # and the finite unfolding is a valid prefix too
        prefix = run.unfold(9)
        assert prefix.is_valid(normalised.automaton, database)
