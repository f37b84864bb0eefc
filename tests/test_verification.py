"""Tests for LTL-FO verification (Theorem 12).

``verify`` runs on the coded kernel (``repro.core.symkernel``) wherever
``check_emptiness`` does; ``tests.helpers.without_symkernel()`` forces the
literal ``completed()`` / ``state_driven()`` path, the oracle the coded
answers must match byte for byte.  ``tests.helpers.without_product_search()``
replaces the on-the-fly pair search by the lifted flagged product, the
oracle for its verdicts.  Counterexamples are checked against the concrete
semantics (:func:`run_satisfies`) as ground truth.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ExtendedAutomaton,
    GlobalConstraint,
    LtlFoSentence,
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    Y,
    eq,
    neq,
    run_satisfies,
    verify,
)
from repro.automata.regex import concat, literal, plus
from repro.core.extended import eliminate_equality_constraints
from repro.core.symkernel import build_kernel
from repro.foundations.errors import EvaluationError
from repro.generators import random_register_automaton
from repro.generators.automata import random_constraint_regex
from repro.logic.formulas import Or, atom_eq, atom_rel
from repro.logic.terms import Var
from repro.ltl import Eventually, Globally, Not_, Prop
from repro.ltl.syntax import Or_
from tests.helpers import without_product_search, without_symkernel

EMPTY = SigmaType()


def sentence_eq12(skeleton_factory):
    return LtlFoSentence(
        skeleton=skeleton_factory(Prop("eq12")),
        propositions={"eq12": atom_eq(X(1), X(2))},
    )


class TestRegisterAutomatonVerification:
    """Exact verification: no global constraints."""

    def test_invariant_holds(self, example1_automaton):
        # G(eq12 -> F eq12) is a tautology-like response property
        sentence = LtlFoSentence(
            skeleton=Globally(Or_(Not_(Prop("eq12")), Eventually(Prop("eq12")))),
            propositions={"eq12": atom_eq(X(1), X(2))},
        )
        result = verify(ExtendedAutomaton(example1_automaton, []), sentence)
        assert result.holds and result.exact

    def test_violated_invariant_with_counterexample(self, example1_automaton):
        sentence = sentence_eq12(Globally)
        result = verify(ExtendedAutomaton(example1_automaton, []), sentence)
        assert not result.holds
        assert result.exact
        out = result.counterexample.lasso_run()
        assert out is not None
        database, run = out
        # the concrete counterexample genuinely violates the property
        visible = run.project(2)
        assert not run_satisfies(sentence, visible, database)

    def test_eventuality_holds(self, example1_automaton):
        # delta1 forces x1 = x2 at position 0, so F eq12 holds
        sentence = sentence_eq12(Eventually)
        result = verify(ExtendedAutomaton(example1_automaton, []), sentence)
        assert result.holds and result.exact

    def test_global_variables(self, example1_automaton):
        """forall z: G (x2 = z -> F x1 = z): register 2 pins register 1's recurrence."""
        z = Var("z1")
        sentence = LtlFoSentence(
            skeleton=Globally(Or_(Not_(Prop("x2z")), Eventually(Prop("x1z")))),
            propositions={"x2z": atom_eq(X(2), z), "x1z": atom_eq(X(1), z)},
            global_vars=(z,),
        )
        result = verify(ExtendedAutomaton(example1_automaton, []), sentence)
        assert result.holds

    def test_global_variables_violation(self, example1_automaton):
        """forall z: G x1 != z is false (choose z = the first value)."""
        z = Var("z1")
        sentence = LtlFoSentence(
            skeleton=Globally(Not_(Prop("hit"))),
            propositions={"hit": atom_eq(X(1), z)},
            global_vars=(z,),
        )
        result = verify(ExtendedAutomaton(example1_automaton, []), sentence)
        assert not result.holds


class TestExtendedVerification:
    def test_all_distinct_never_repeats(self, example7_extended):
        """On the all-distinct automaton, G (x1 != y1) holds."""
        sentence = LtlFoSentence(
            skeleton=Globally(Prop("change")),
            propositions={"change": ~atom_eq(X(1), Y(1))},
        )
        result = verify(example7_extended, sentence, max_cycle=4)
        assert result.holds

    def test_plain_base_would_violate(self, example7_extended):
        """Without the constraint the same property fails (sanity contrast)."""
        sentence = LtlFoSentence(
            skeleton=Globally(Prop("change")),
            propositions={"change": ~atom_eq(X(1), Y(1))},
        )
        bare = ExtendedAutomaton(example7_extended.automaton, [])
        result = verify(bare, sentence)
        assert not result.holds and result.exact

    def test_database_property(self, example8_extended):
        """G P(x1) holds: every guard requires membership."""
        sentence = LtlFoSentence(
            skeleton=Globally(Prop("inP")),
            propositions={"inP": atom_rel("P", X(1))},
        )
        result = verify(example8_extended, sentence, max_cycle=4)
        assert result.holds


class TestRunSatisfies:
    def test_oracle_on_lasso(self, example1_automaton, example1_guards, empty_database):
        from repro import LassoRun

        d1, d2, d3 = example1_guards
        run = LassoRun(
            data=(("v", "v"), ("w", "v"), ("v", "v")),
            states=("q1", "q2", "q2"),
            guards=(d1, d2, d3),
            loop_start=0,
        )
        eventually_eq = sentence_eq12(Eventually)
        globally_eq = sentence_eq12(Globally)
        assert run_satisfies(eventually_eq, run, empty_database)
        assert not run_satisfies(globally_eq, run, empty_database)

    def test_each_global_variable_gets_its_own_fresh_value(self):
        """forall z1 z2 z3: G(z1 = z2 or z2 = z3 or z1 = z3) fails on any run.

        The run holds one value, so a refuting valuation needs two fresh
        values besides it.
        """
        z1, z2, z3 = Var("z1"), Var("z2"), Var("z3")
        automaton = RegisterAutomaton(
            1, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", SigmaType([eq(X(1), Y(1))]), "q")]
        )
        sentence = LtlFoSentence(
            skeleton=Globally(Prop("p")),
            propositions={"p": Or((atom_eq(z1, z2), atom_eq(z2, z3), atom_eq(z1, z3)))},
            global_vars=(z1, z2, z3),
        )
        result = verify(ExtendedAutomaton(automaton, []), sentence)
        assert not result.holds and result.exact
        database, run = result.counterexample.lasso_run()
        visible = run.project(1)
        assert len({value for row in visible.data for value in row}) == 1
        assert not run_satisfies(sentence, visible, database)


# --------------------------------------------------------------------- #
# the coded path against the literal one and against ground truth
# --------------------------------------------------------------------- #

#: The six template shapes of the ltl-verify workload.
TEMPLATES = (
    lambda p, q: Eventually(p),
    lambda p, q: Globally(p),
    lambda p, q: Globally(Or_(Not_(p), Eventually(q))),
    lambda p, q: Globally(Eventually(p)),
    lambda p, q: Eventually(Globally(p)),
    lambda p, q: Globally(Or_(Not_(p), Eventually(Globally(q)))),
)


def _random_instance(seed, k, constraints, with_global, template):
    """A random automaton with *constraints* ``neq`` constraints, and a sentence.

    Atoms compare an x register with an x or y register (or the global
    ``z1``) and are negated with probability 0.3.
    """
    rng = random.Random(seed)
    automaton = random_register_automaton(
        rng, k=k, n_states=rng.randint(2, 3), n_transitions=rng.randint(3, 5)
    )
    states = sorted(automaton.states)
    extended = ExtendedAutomaton(
        automaton,
        [
            GlobalConstraint(
                "neq", rng.randint(1, k), rng.randint(1, k), random_constraint_regex(rng, states)
            )
            for _ in range(constraints)
        ],
    )
    z = Var("z1")
    partners = [X, Y] + ([lambda _index: z] if with_global else [])

    def atom():
        formula = atom_eq(X(rng.randint(1, k)), rng.choice(partners)(rng.randint(1, k)))
        return ~formula if rng.random() < 0.3 else formula

    sentence = LtlFoSentence(
        skeleton=TEMPLATES[template](Prop("p"), Prop("q")),
        propositions={"p": atom(), "q": atom()},
        global_vars=(z,) if with_global else (),
    )
    return extended, sentence


def _fingerprint(result):
    trace = result.counterexample.trace if result.counterexample else None
    return (
        result.holds,
        result.exact,
        result.product_size,
        result.candidates_checked,
        repr(trace),
    )


def _assert_coded_matches_literal(extended, sentence):
    """Coded equals literal byte for byte, and both agree with the lifted product.

    With constraints the bounded enumeration runs on the flagged product,
    so the oracle matches byte for byte too; without them the pair search
    must reach the same verdict, and every counterexample must refute the
    sentence on a concrete run.
    """
    coded = verify(extended, sentence)
    with without_symkernel():
        literal = verify(extended, sentence)
    assert _fingerprint(coded) == _fingerprint(literal)
    with without_product_search():
        oracle = verify(extended, sentence)
    if extended.constraints:
        assert _fingerprint(coded) == _fingerprint(oracle)
    else:
        assert (coded.holds, coded.exact) == (oracle.holds, oracle.exact)
    for result in (coded, oracle):
        if result.counterexample is None:
            continue
        realised = result.counterexample.lasso_run()
        # Only a global constraint can rule out every data-periodic run.
        assert realised is not None or extended.constraints
        if realised is not None:
            database, run = realised
            assert not run_satisfies(sentence, run.project(extended.k), database)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.sampled_from([1, 2]),
    constraints=st.integers(min_value=0, max_value=2),
    with_global=st.booleans(),
    template=st.integers(min_value=0, max_value=len(TEMPLATES) - 1),
)
def test_coded_verify_matches_literal(seed, k, constraints, with_global, template):
    _assert_coded_matches_literal(*_random_instance(seed, k, constraints, with_global, template))


@pytest.mark.parametrize("seed,template", [(3, 1), (11, 3), (29, 5)])
def test_coded_verify_matches_literal_at_k3(seed, template):
    # Pinned: the literal path completes over x1..x3, y1..y3 and takes
    # about a second per call here.
    _assert_coded_matches_literal(*_random_instance(seed, 3, 1, False, template))


def test_verify_independent_of_hash_seed():
    """Verdicts, product sizes and counterexamples are the same under every hash seed."""
    script = (
        "from repro import verify\n"
        "from tests.test_verification import TEMPLATES, _fingerprint, _random_instance\n"
        "for template in range(len(TEMPLATES)):\n"
        "    for seed, k, constraints, with_global in ((5, 2, 0, False), (8, 2, 0, True),\n"
        "                                              (13, 1, 1, False)):\n"
        "        instance = _random_instance(seed, k, constraints, with_global, template)\n"
        "        print(_fingerprint(verify(*instance)))\n"
    )
    root = Path(__file__).resolve().parent.parent
    fingerprints = [
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
                (str(root / "src"), str(root))
            )),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("0", "1", "2")
    ]
    assert fingerprints[0] == fingerprints[1] == fingerprints[2]
    assert fingerprints[0].count("\n") == 3 * len(TEMPLATES)


def _unsettled_messages(extended, sentence):
    """The ``EvaluationError`` messages of the kernel and the literal path."""
    with pytest.raises(EvaluationError) as coded:
        verify(extended, sentence)
    with without_symkernel(), pytest.raises(EvaluationError) as literal:
        verify(extended, sentence)
    return str(coded.value), str(literal.value)


def test_unsettled_atom_raises_on_both_paths(example1_automaton):
    # x3 is no register of a k = 2 automaton: no complete type settles it.
    sentence = LtlFoSentence(
        skeleton=Globally(Prop("p")), propositions={"p": atom_eq(X(1), X(3))}
    )
    coded, literal_path = _unsettled_messages(ExtendedAutomaton(example1_automaton, []), sentence)
    assert coded == literal_path
    # Register 2 of a k = 1 automaton is unsettled too when Proposition 6
    # adds a register 2 to track an equality constraint: it holds the
    # elimination's bookkeeping, which no property reads.
    automaton = RegisterAutomaton(
        1, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", SigmaType([eq(X(1), Y(1))]), "q")]
    )
    sentence = LtlFoSentence(
        skeleton=Globally(Prop("p")), propositions={"p": atom_eq(X(1), X(2))}
    )
    plain = _unsettled_messages(ExtendedAutomaton(automaton, []), sentence)
    constrained = ExtendedAutomaton(automaton, [GlobalConstraint("eq", 1, 1, literal("q"))])
    assert eliminate_equality_constraints(constrained)[0].k > 1
    assert _unsettled_messages(constrained, sentence) == plain
    assert plain[0] == plain[1]


def test_already_normal_automaton_verifies():
    # Complete, state-driven control: the kernel declines it and the
    # literal path decides without normalising.
    stay = SigmaType([eq(X(1), Y(1))])
    move = SigmaType([neq(X(1), Y(1))])
    automaton = RegisterAutomaton(
        1, Signature.empty(), {"a", "b"}, {"a"}, {"a"}, [("a", stay, "b"), ("b", move, "a")]
    )
    extended = ExtendedAutomaton(automaton, [])
    assert build_kernel(eliminate_equality_constraints(extended)[0]) is None
    sentence = LtlFoSentence(
        skeleton=Globally(Prop("same")), propositions={"same": atom_eq(X(1), Y(1))}
    )
    result = verify(extended, sentence)
    assert not result.holds and result.exact
    database, run = result.counterexample.lasso_run()
    assert not run_satisfies(sentence, run.project(1), database)
    _assert_coded_matches_literal(extended, sentence)
