"""Unit tests for repro.db: schemas, databases, evaluation."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.db.evaluation as evaluation
from repro.core.register_automaton import RegisterAutomaton
from repro.core.runs import FiniteRun, validity_error
from repro.db import Database, Signature, evaluate_formula, evaluate_type
from repro.db.evaluation import evaluate_literal, some_guard_holds, transition_valuation
from repro.foundations.errors import EvaluationError, InconsistentTypeError, SpecificationError
from repro.logic import SigmaType, X, Y, eq, neq, nrel, rel
from repro.logic.formulas import And, Not, Or, atom_eq, atom_rel
from repro.logic.terms import Const


@pytest.fixture
def graph_db():
    signature = Signature(relations={"E": 2, "U": 1}, constants=("root",))
    return Database(
        signature,
        relations={"E": [("a", "b"), ("b", "c")], "U": [("a",)]},
        constants={"root": "a"},
    )


class TestSignature:
    def test_empty(self):
        assert Signature.empty().is_empty()

    def test_arity_lookup(self, graph_db):
        assert graph_db.signature.arity("E") == 2

    def test_unknown_relation_raises(self):
        with pytest.raises(SpecificationError):
            Signature().arity("R")

    def test_negative_arity_rejected(self):
        with pytest.raises(SpecificationError):
            Signature(relations={"R": -1})

    def test_duplicate_constants_rejected(self):
        with pytest.raises(SpecificationError):
            Signature(constants=("c", "c"))

    def test_extend(self):
        signature = Signature(relations={"R": 1}).extend({"S": 2}, ["c"])
        assert signature.arity("S") == 2
        assert signature.constants == ("c",)

    def test_extend_conflicting_arity_rejected(self):
        with pytest.raises(SpecificationError):
            Signature(relations={"R": 1}).extend({"R": 2})


class TestDatabase:
    def test_active_domain(self, graph_db):
        assert graph_db.active_domain() == frozenset({"a", "b", "c"})

    def test_holds(self, graph_db):
        assert graph_db.holds("E", ("a", "b"))
        assert not graph_db.holds("E", ("b", "a"))

    def test_constants_required(self):
        signature = Signature(constants=("c",))
        with pytest.raises(SpecificationError):
            Database(signature)

    def test_wrong_arity_rejected(self):
        signature = Signature(relations={"E": 2})
        with pytest.raises(SpecificationError):
            Database(signature, relations={"E": [("a",)]})

    def test_unknown_relation_rejected(self):
        with pytest.raises(SpecificationError):
            Database(Signature.empty(), relations={"R": [("a",)]})

    def test_with_and_without_facts(self, graph_db):
        extended = graph_db.with_facts("E", [("c", "a")])
        assert extended.holds("E", ("c", "a"))
        shrunk = extended.without_facts("E", [("c", "a")])
        assert not shrunk.holds("E", ("c", "a"))
        assert shrunk == graph_db

    def test_rename_values(self, graph_db):
        renamed = graph_db.rename_values({"a": "z"})
        assert renamed.holds("E", ("z", "b"))
        assert renamed.constant_value("root") == "z"

    def test_rename_must_be_injective(self, graph_db):
        with pytest.raises(SpecificationError):
            graph_db.rename_values({"a": "b"})

    def test_size(self, graph_db):
        assert graph_db.size() == 3


class TestEvaluation:
    def test_type_evaluation(self, graph_db):
        delta = SigmaType([rel("E", X(1), Y(1)), eq(X(2), Y(2))])
        valuation = transition_valuation(("a", "k"), ("b", "k"))
        assert evaluate_type(delta, graph_db, valuation)

    def test_negative_literal(self, graph_db):
        valuation = transition_valuation(("b",), ("a",))
        assert evaluate_literal(nrel("E", X(1), Y(1)), graph_db, valuation)

    def test_constants_resolve(self, graph_db):
        delta = SigmaType([eq(X(1), Const("root"))])
        assert evaluate_type(delta, graph_db, transition_valuation(("a",), ("b",)))
        assert not evaluate_type(delta, graph_db, transition_valuation(("b",), ("a",)))

    def test_missing_variable_raises(self, graph_db):
        with pytest.raises(EvaluationError):
            evaluate_literal(eq(X(1), X(2)), graph_db, {})

    def test_formula_connectives(self, graph_db):
        formula = Or((atom_rel("U", X(1)), Not(atom_eq(X(1), X(1)))))
        assert evaluate_formula(formula, graph_db, transition_valuation(("a",), ()))
        assert not evaluate_formula(
            formula, graph_db, transition_valuation(("b",), ())
        )

    def test_transition_valuation_layout(self):
        valuation = transition_valuation(("u", "v"), ("w",))
        assert valuation[X(1)] == "u"
        assert valuation[X(2)] == "v"
        assert valuation[Y(1)] == "w"


# ---------------------------------------------------------------------- #
# the one guard check of run validation and streaming
# ---------------------------------------------------------------------- #

GUARD_TERMS = [X(1), X(2), Y(1), Y(2), Const("root")]


@st.composite
def guards(draw):
    """Satisfiable types over x1, x2, y1, y2 and ``root``: (in)equalities, E and U."""
    term = st.sampled_from(GUARD_TERMS)
    atom = st.one_of(
        st.tuples(st.just("eq"), term, term),
        st.tuples(st.just("E"), term, term),
        st.tuples(st.just("U"), term),
    )
    literals = []
    for (kind, *args), positive in draw(
        st.lists(st.tuples(atom, st.booleans()), max_size=4)
    ):
        if kind == "eq":
            literal = (eq if positive else neq)(*args)
        else:
            literal = (rel if positive else nrel)(kind, *args)
        try:
            SigmaType(literals + [literal])
        except InconsistentTypeError:
            continue
        literals.append(literal)
    return SigmaType(literals)


class TestSomeGuardHolds:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        guard_list=st.lists(guards(), max_size=3),
        before=st.tuples(*[st.sampled_from("abcd")] * 2),
        after=st.tuples(*[st.sampled_from("abcd")] * 2),
    )
    def test_agrees_with_evaluate_type(self, graph_db, guard_list, before, after):
        valuation = transition_valuation(before, after)
        expected = any(evaluate_type(g, graph_db, valuation) for g in guard_list)
        assert some_guard_holds(guard_list, graph_db, before, after) == expected

    def test_builds_at_most_one_valuation(self, graph_db, monkeypatch):
        built = []
        real = evaluation.transition_valuation

        def counting(before, after, extra=None):
            built.append((before, after))
            return real(before, after, extra)

        monkeypatch.setattr(evaluation, "transition_valuation", counting)
        # a literal-free guard holds without one, also after a failing guard
        assert some_guard_holds([SigmaType()], graph_db, ("b",), ("a",))
        assert built == []
        fails = SigmaType([rel("E", X(1), Y(1))])
        assert some_guard_holds([fails, fails, SigmaType()], graph_db, ("b",), ("a",))
        assert not some_guard_holds([fails, fails], graph_db, ("b",), ("a",))
        assert built == [(("b",), ("a",))] * 2
        # run validation takes the same path
        del built[:]
        run = FiniteRun((("a",), ("b",), ("c",)), ("q",) * 3, (SigmaType(),) * 2)
        automaton = RegisterAutomaton(
            1, graph_db.signature, {"q"}, {"q"}, {"q"}, [("q", SigmaType(), "q")]
        )
        assert validity_error(run, automaton, graph_db) is None
        assert built == []
