"""Unit tests for the LTL substrate and LTL-FO sentences."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.automata import Lasso
from repro.foundations.errors import EvaluationError, SpecificationError
from repro.logic import SigmaType, X, Y, eq, neq
from repro.logic.formulas import Not, atom_eq
from repro.ltl import (
    And_,
    Eventually,
    FalseLtl,
    Globally,
    LtlFoSentence,
    Next,
    Not_,
    Or_,
    Prop,
    Release,
    TrueLtl,
    Until,
    evaluate_formula_under_type,
    ltl_to_buchi,
    nnf,
)
from repro.ltl.ltlfo import proposition_assignment
from repro.ltl.syntax import satisfies

p, q = Prop("p"), Prop("q")


def w(*letters, period):
    return Lasso(tuple(frozenset(l) for l in letters), tuple(frozenset(l) for l in period))


class TestNnf:
    def test_negated_globally(self):
        assert nnf(Not_(Globally(p))) == Until(TrueLtl(), Not_(p))

    def test_negated_eventually(self):
        assert nnf(Not_(Eventually(p))) == Release(FalseLtl(), Not_(p))

    def test_double_negation(self):
        assert nnf(Not_(Not_(p))) == p

    def test_de_morgan(self):
        assert nnf(Not_(And_(p, q))) == Or_(Not_(p), Not_(q))

    def test_until_release_duality(self):
        assert nnf(Not_(Until(p, q))) == Release(Not_(p), Not_(q))

    def test_next_commutes(self):
        assert nnf(Not_(Next(p))) == Next(Not_(p))


class TestOracle:
    def test_globally(self):
        assert satisfies(w(period=[{"p"}]), Globally(p))
        assert not satisfies(w({"p"}, period=[{}]), Globally(p))

    def test_eventually(self):
        assert satisfies(w({}, {}, period=[{"p"}]), Eventually(p))
        assert not satisfies(w({"q"}, period=[{}]), Eventually(p))

    def test_until(self):
        assert satisfies(w({"p"}, {"p"}, period=[{"q"}]), Until(p, q))
        assert not satisfies(w({"p"}, period=[{"p"}]), Until(p, q))

    def test_release(self):
        assert satisfies(w(period=[{"q"}]), Release(p, q))
        assert satisfies(w({"q"}, period=[{"p", "q"}]), Release(p, q))
        assert not satisfies(w({"q"}, {}, period=[{"q"}]), Release(p, q))

    def test_next(self):
        assert satisfies(w({}, {"p"}, period=[{}]), Next(p))

    def test_nested(self):
        formula = Globally(Or_(Not_(p), Eventually(q)))
        assert satisfies(w(period=[{"p"}, {"q"}]), formula)
        assert not satisfies(w({"q"}, period=[{"p"}]), formula)


class TestTranslation:
    CASES = [
        Globally(p),
        Eventually(p),
        Until(p, q),
        Release(p, q),
        Next(p),
        Globally(Or_(Not_(p), Eventually(q))),
        And_(Eventually(p), Eventually(q)),
        Globally(Eventually(p)),
        Eventually(Globally(p)),
    ]

    WORDS = [
        w(period=[{"p"}]),
        w(period=[{}]),
        w(period=[{"p"}, {"q"}]),
        w(period=[{"q"}]),
        w({"p"}, period=[{}]),
        w({}, {"p"}, period=[{"q"}]),
        w({"p", "q"}, period=[{"p"}]),
        w(period=[{}, {"p"}, {"p", "q"}]),
    ]

    @pytest.mark.parametrize("formula", CASES, ids=repr)
    def test_translation_matches_oracle(self, formula):
        # the translated NBA reads letters over exactly the formula's
        # propositions, so project the test words onto that vocabulary
        automaton, props = ltl_to_buchi(formula)
        for word in self.WORDS:
            projected = word.map(lambda letter: frozenset(letter) & props)
            assert automaton.accepts(projected) == satisfies(word, formula), (
                formula,
                word,
            )

    def test_negation_is_complement_on_samples(self):
        formula = Globally(Or_(Not_(p), Eventually(q)))
        positive, props = ltl_to_buchi(formula)
        negative, _ = ltl_to_buchi(Not_(formula))
        for word in self.WORDS:
            projected = word.map(lambda letter: frozenset(letter) & props)
            assert positive.accepts(projected) != negative.accepts(projected)

    def test_automaton_independent_of_hash_seed(self):
        # The acceptance sets used to follow the hash order of the closure
        # set, and the state numbers the repr of frozensets: each
        # PYTHONHASHSEED built a different automaton.  Checked on the
        # negated templates of the ltl-verify workload.
        script = (
            "from repro.ltl import Eventually, Globally, Not_, Or_, Prop, ltl_to_buchi\n"
            "p, q = Prop('p'), Prop('q')\n"
            "templates = [Eventually(p), Globally(p), Globally(Or_(Not_(p), Eventually(q))),\n"
            "             Globally(Eventually(p)), Eventually(Globally(p)),\n"
            "             Globally(Or_(Not_(p), Eventually(Globally(q))))]\n"
            "for template in templates:\n"
            "    automaton, _props = ltl_to_buchi(Not_(template))\n"
            "    print(sorted((s, sorted(a), sorted(automaton.successors(s, a)))\n"
            "                 for s in automaton.states() for a in automaton.symbols()),\n"
            "          sorted(automaton.initial), sorted(automaton.accepting))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        tables = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("0", "1", "2")
        ]
        assert tables[0] == tables[1] == tables[2]


class TestLtlFo:
    def test_missing_proposition_definition_rejected(self):
        with pytest.raises(SpecificationError):
            LtlFoSentence(skeleton=Globally(Prop("r")), propositions={})

    def test_undeclared_global_rejected(self):
        from repro.logic.terms import Var

        with pytest.raises(SpecificationError):
            LtlFoSentence(
                skeleton=Globally(Prop("r")),
                propositions={"r": atom_eq(X(1), Var("z1"))},
            )

    def test_declared_global_accepted(self):
        from repro.logic.terms import Var

        sentence = LtlFoSentence(
            skeleton=Globally(Prop("r")),
            propositions={"r": atom_eq(X(1), Var("z1"))},
            global_vars=(Var("z1"),),
        )
        assert sentence.has_globals()

    def test_evaluate_under_complete_type(self):
        delta = SigmaType([eq(X(1), X(2)), eq(X(1), Y(1)), eq(X(2), Y(2))])
        assert evaluate_formula_under_type(atom_eq(X(1), X(2)), delta)
        assert evaluate_formula_under_type(atom_eq(Y(1), Y(2)), delta)
        assert not evaluate_formula_under_type(Not(atom_eq(X(1), X(2))), delta)

    def test_unsettled_atom_raises(self):
        delta = SigmaType([eq(X(1), Y(1))])
        with pytest.raises(EvaluationError):
            evaluate_formula_under_type(atom_eq(X(1), X(2)), delta)

    def test_proposition_assignment(self):
        sentence = LtlFoSentence(
            skeleton=Globally(Prop("same")),
            propositions={"same": atom_eq(X(1), X(2))},
        )
        equal = SigmaType([eq(X(1), X(2)), eq(X(1), Y(1)), eq(X(2), Y(2)), eq(Y(1), Y(2))])
        different = SigmaType([neq(X(1), X(2)), eq(X(1), Y(1)), eq(X(2), Y(2)), neq(Y(1), Y(2))])
        assert proposition_assignment(sentence, equal) == frozenset({"same"})
        assert proposition_assignment(sentence, different) == frozenset()
