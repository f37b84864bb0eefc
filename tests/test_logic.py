"""Unit tests for repro.logic: terms, literals, closure, types."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.foundations.errors import InconsistentTypeError
from repro.logic import (
    Const,
    EqualityClosure,
    SigmaType,
    UnionFind,
    Var,
    X,
    Y,
    agree,
    eq,
    equality_type,
    neq,
    nrel,
    register_index,
    rel,
    x_vars,
    y_vars,
)
from repro.logic.literals import EqAtom, Literal, RelAtom
from repro.logic.types import boundary_signature, project_type_dataless

from tests.helpers import literal_agree


class TestTerms:
    def test_register_variables(self):
        assert X(1).name == "x1"
        assert Y(3).name == "y3"
        assert register_index(X(2)) == ("x", 2)
        assert register_index(Y(7)) == ("y", 7)

    def test_non_register_variables(self):
        assert register_index(Var("z1")) is None
        assert register_index(Const("c")) is None

    def test_register_indices_start_at_one(self):
        with pytest.raises(ValueError):
            X(0)
        with pytest.raises(ValueError):
            Y(-1)

    def test_tuples(self):
        assert x_vars(2) == (X(1), X(2))
        assert y_vars(1) == (Y(1),)

    def test_ordering_is_total(self):
        terms = [Const("b"), X(1), Y(2), Const("a"), Var("z")]
        ordered = sorted(terms)
        # variables come before constants
        assert all(t.is_variable() for t in ordered[:3])
        assert all(t.is_constant() for t in ordered[3:])


class TestLiterals:
    def test_equality_atom_canonical_order(self):
        assert EqAtom(Y(1), X(1)) == EqAtom(X(1), Y(1))
        assert EqAtom(Y(1), X(1)).left == X(1)

    def test_swap_preserves_both_terms(self):
        atom = EqAtom(X(2), X(1))
        assert {atom.left, atom.right} == {X(1), X(2)}

    def test_negation(self):
        literal = eq(X(1), Y(1))
        assert literal.negate() == neq(X(1), Y(1))
        assert literal.negate().negate() == literal

    def test_relational_literals(self):
        literal = rel("R", X(1), Y(2))
        assert literal.is_relational()
        assert not literal.is_equality()
        assert nrel("R", X(1), Y(2)) == literal.negate()

    def test_mixed_sorting(self):
        literals = [rel("R", X(1)), eq(X(1), X(2)), neq(X(1), Y(1))]
        ordered = sorted(literals)
        assert ordered[0].is_equality()
        assert ordered[-1].is_relational()


class TestUnionFind:
    def test_union_and_find(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.same("a", "c")
        assert not uf.same("a", "d")

    def test_classes(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.find(3)
        classes = uf.classes()
        assert {frozenset(c) for c in classes.values()} == {
            frozenset({1, 2}),
            frozenset({3}),
        }


class TestEqualityClosure:
    def test_transitive_equality(self):
        closure = EqualityClosure([eq(X(1), X(2)), eq(X(2), Y(2))])
        assert closure.entails_eq(X(1), Y(2))

    def test_inequality_conflict(self):
        closure = EqualityClosure([eq(X(1), X(2)), neq(X(1), X(2))])
        assert not closure.is_consistent()

    def test_relational_conflict_modulo_equality(self):
        closure = EqualityClosure(
            [eq(X(1), Y(1)), rel("R", X(1)), nrel("R", Y(1))]
        )
        assert not closure.is_consistent()

    def test_relational_no_conflict_distinct_tuples(self):
        closure = EqualityClosure([rel("R", X(1)), nrel("R", Y(1))])
        assert closure.is_consistent()

    def test_entails_neq_through_classes(self):
        closure = EqualityClosure([eq(X(1), X(2)), neq(X(2), Y(1)), eq(Y(1), Y(2))])
        assert closure.entails_neq(X(1), Y(2))


class TestSigmaType:
    def test_unsatisfiable_raises(self):
        with pytest.raises(InconsistentTypeError):
            SigmaType([eq(X(1), X(2)), eq(X(2), X(3)), neq(X(1), X(3))])

    def test_trivial_self_equality_dropped(self):
        delta = SigmaType([eq(X(1), X(1))])
        assert delta.literals == frozenset()

    def test_trivial_self_inequality_raises(self):
        with pytest.raises(InconsistentTypeError):
            SigmaType([neq(X(1), X(1))])

    def test_entailment(self, example1_guards):
        d1, _d2, _d3 = example1_guards
        assert d1.entails(eq(X(1), Y(2)))
        assert not d1.entails(eq(X(1), Y(1)))

    def test_restriction_is_syntactic(self, example1_guards):
        d1, _d2, _d3 = example1_guards
        restricted = d1.restrict([X(1), X(2)])
        assert restricted.literals == frozenset([eq(X(1), X(2))])

    def test_shift_y_to_x(self):
        delta = SigmaType([eq(Y(1), Y(2))])
        shifted = delta.shift_y_to_x(2)
        assert shifted.literals == frozenset([eq(X(1), X(2))])

    def test_conjoin_detects_conflicts(self):
        left = SigmaType([eq(X(1), X(2))])
        right = SigmaType([neq(X(1), X(2))])
        with pytest.raises(InconsistentTypeError):
            left.conjoin(right)

    def test_equality_type_rejects_relations(self):
        with pytest.raises(InconsistentTypeError):
            equality_type(rel("R", X(1)))

    def test_pretty_empty(self):
        assert SigmaType().pretty() == "true"

    def test_hash_and_equality(self):
        assert SigmaType([eq(X(1), Y(1))]) == SigmaType([eq(Y(1), X(1))])
        assert hash(SigmaType([eq(X(1), Y(1))])) == hash(SigmaType([eq(Y(1), X(1))]))


class TestCompletion:
    def test_example2_delta1_has_two_completions(self, example1_guards):
        """Example 2: settling y1 vs y2 settles everything for delta1."""
        d1, _d2, _d3 = example1_guards
        variables = [X(1), X(2), Y(1), Y(2)]
        completions = list(d1.completions({}, variables))
        assert len(completions) == 2

    def test_completions_are_complete(self, example1_guards):
        d1, _d2, _d3 = example1_guards
        variables = [X(1), X(2), Y(1), Y(2)]
        for completion in d1.completions({}, variables):
            assert completion.is_complete({}, variables)

    def test_completions_partition_models(self, example1_guards):
        """Distinct completions disagree on at least one literal."""
        d1, _d2, _d3 = example1_guards
        variables = [X(1), X(2), Y(1), Y(2)]
        completions = list(d1.completions({}, variables))
        first, second = completions
        assert any(second.entails(l.negate()) for l in first.literals)

    def test_relational_completion(self):
        delta = SigmaType([rel("P", X(1))])
        variables = [X(1), Y(1)]
        completions = list(delta.completions({"P": 1}, variables))
        # settle x1 ? y1, and P(y1) when x1 != y1
        assert len(completions) == 3
        for completion in completions:
            assert completion.is_complete({"P": 1}, variables)

    def test_one_literal_form_per_complete_type(self):
        """A completion of ``x2 = y1`` *is* the completion of ``true`` it equals."""
        variables = [X(1), X(2), Y(1), Y(2)]
        of_true = list(SigmaType().completions({}, variables))
        of_guard = list(SigmaType([eq(X(2), Y(1))]).completions({}, variables))
        assert (len(of_true), len(of_guard)) == (15, 5)
        for completion in of_guard:
            assert any(completion is other for other in of_true)

    def test_empty_type_completion_count(self):
        # 1 register: settle x1 ? y1 -> 2 completions
        completions = list(SigmaType().completions({}, [X(1), Y(1)]))
        assert len(completions) == 2


class TestAgree:
    def test_agreement_via_entailment(self):
        """y1 = y2 entailed but not syntactic still agrees with x1 = x2."""
        delta_now = SigmaType([eq(X(1), X(2)), eq(X(1), Y(1)), eq(X(2), Y(2))])
        delta_next = SigmaType([eq(X(1), X(2)), eq(X(1), Y(1)), eq(X(2), Y(2))])
        assert agree(delta_now, delta_next, 2)

    def test_disagreement(self):
        delta_now = SigmaType([eq(Y(1), Y(2))])
        delta_next = SigmaType([neq(X(1), X(2))])
        assert not agree(delta_now, delta_next, 2)

    def test_unsettled_boundaries_agree_when_both_open(self):
        assert agree(SigmaType(), SigmaType(), 2)

    def test_relational_boundary(self):
        delta_now = SigmaType([rel("P", Y(1))])
        delta_next_pos = SigmaType([rel("P", X(1))])
        delta_next_neg = SigmaType([nrel("P", X(1))])
        assert agree(delta_now, delta_next_pos, 1)
        assert not agree(delta_now, delta_next_neg, 1)

    def test_signature_names_atoms_by_register_and_constant(self):
        """The y side of one guard and the x side of the next share atom names."""
        c = Const("c")
        delta = SigmaType([eq(Y(1), c), neq(Y(1), Y(2)), rel("E", Y(2), c), nrel("P", X(1))])
        positive, negative = boundary_signature(delta, 2, "y")
        # y1 = c, so E(y2, c) is E(y2, y1) too, and y1 != y2 is y2 != c.
        assert positive == {("eq", 1, c), ("rel", "E", (2, 1)), ("rel", "E", (2, c))}
        assert negative == {("eq", 1, 2), ("eq", 2, c)}
        assert boundary_signature(delta, 2, "x") == (frozenset(), {("rel", "P", (1,))})


#: The vocabulary of the random types: relations of arity 1 and 2, two constants.
RELATIONS = {"P": 1, "E": 2}
CONSTANTS = (Const("c"), Const("d"))


def _random_type(rng, k):
    """A random satisfiable type over the registers, constants and relations.

    Mostly partial; now and then one of its equality completions, so
    boundary atoms settled only through the closure come up too.
    """
    terms = list(x_vars(k)) + list(y_vars(k)) + list(CONSTANTS[: rng.randint(0, 2)])
    while True:
        literals = []
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.55:
                left, right = rng.sample(terms, 2)
                literals.append(eq(left, right) if rng.random() < 0.5 else neq(left, right))
            else:
                relation = rng.choice(sorted(RELATIONS))
                args = [rng.choice(terms) for _ in range(RELATIONS[relation])]
                build = rel if rng.random() < 0.5 else nrel
                literals.append(build(relation, *args))
        try:
            delta = SigmaType(literals)
        except InconsistentTypeError:
            continue
        if rng.random() < 0.25:
            variables = list(x_vars(k)) + list(y_vars(k))
            delta = next(delta.completions({}, variables, sorted(delta.constants)))
        return delta


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=3))
def test_agree_matches_pairwise_entailment(seed, k):
    """Boundary signatures decide agreement as the atom-by-atom loop does."""
    rng = random.Random(seed)
    types = [_random_type(rng, k) for _ in range(4)]
    for delta_now in types:
        for delta_next in types:
            assert agree(delta_now, delta_next, k) == literal_agree(delta_now, delta_next, k)


class TestProjection:
    def test_project_type_keeps_visible_literals(self):
        delta = SigmaType([eq(X(1), Y(1)), eq(X(2), Y(2)), eq(X(1), X(2))])
        projected = project_type_dataless(delta, 1)
        assert projected.literals == frozenset([eq(X(1), Y(1))])

    def test_project_type_dataless_strips_relations_and_constants(self):
        delta = SigmaType(
            [eq(X(1), Y(1)), rel("P", X(1)), eq(X(1), Const("c"))]
        )
        projected = project_type_dataless(delta, 1)
        assert projected.literals == frozenset([eq(X(1), Y(1))])
