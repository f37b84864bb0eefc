"""LTL-FO verification of workflows (Theorem 12).

Checks temporal properties of the Example 1 automaton and of the
manuscript-review workflow, with counterexample extraction and independent
ground-truth confirmation (the semantic oracle re-evaluates the property
on the concrete counterexample run).

Run with:  python examples/verification_demo.py
"""

from repro import (
    ExtendedAutomaton,
    LtlFoSentence,
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    eq,
    manuscript_review_workflow,
    run_satisfies,
    verify,
)
from repro.logic.formulas import atom_eq
from repro.logic.terms import Var, Y
from repro.ltl import Eventually, Globally, Prop
from repro.ltl.syntax import Not_, Or_


def example1() -> RegisterAutomaton:
    d1 = SigmaType([eq(X(1), X(2)), eq(X(2), Y(2))])
    d2 = SigmaType([eq(X(2), Y(2))])
    d3 = SigmaType([eq(X(2), Y(2)), eq(Y(1), Y(2))])
    return RegisterAutomaton(
        2,
        Signature.empty(),
        {"q1", "q2"},
        {"q1"},
        {"q1"},
        [("q1", d1, "q2"), ("q2", d2, "q2"), ("q2", d3, "q1")],
    )


def check(extended, name, sentence):
    result = verify(extended, sentence)
    verdict = "HOLDS" if result.holds else "FAILS"
    exactness = "exact" if result.exact else "bounded"
    print(
        "  %-38s %s (%s, %d product states explored)"
        % (name, verdict, exactness, result.product_size)
    )
    if not result.holds and result.counterexample is not None:
        out = result.counterexample.lasso_run()
        if out is not None:
            database, run = out
            visible = run.project(extended.k)
            print("     counterexample register trace:", visible.data)
            print(
                "     oracle confirms violation:",
                not run_satisfies(sentence, visible, database),
            )
    return result


def main() -> None:
    automaton = ExtendedAutomaton(example1(), [])
    eq12 = {"eq12": atom_eq(X(1), X(2))}

    print("Example 1 automaton:")
    check(
        automaton,
        "F eq12 (registers eventually equal)",
        LtlFoSentence(skeleton=Eventually(Prop("eq12")), propositions=eq12),
    )
    check(
        automaton,
        "G eq12 (always equal)",
        LtlFoSentence(skeleton=Globally(Prop("eq12")), propositions=eq12),
    )
    check(
        automaton,
        "G (eq12 -> F eq12) (recurrence)",
        LtlFoSentence(
            skeleton=Globally(Or_(Not_(Prop("eq12")), Eventually(Prop("eq12")))),
            propositions=eq12,
        ),
    )

    # A property with a universally quantified global variable z:
    # whatever value register 2 ever holds, register 1 eventually holds it.
    z = Var("z1")
    check(
        automaton,
        "forall z: G (x2=z -> F x1=z)",
        LtlFoSentence(
            skeleton=Globally(Or_(Not_(Prop("x2z")), Eventually(Prop("x1z")))),
            propositions={"x2z": atom_eq(X(2), z), "x1z": atom_eq(X(1), z)},
            global_vars=(z,),
        ),
    )

    print("\nManuscript-review workflow:")
    spec = manuscript_review_workflow(with_database=False)
    workflow = ExtendedAutomaton(spec.compile(), [])
    author = spec.register_of("author")
    reviewer = spec.register_of("reviewer")
    check(
        workflow,
        "F (reviewer != author)",
        LtlFoSentence(
            skeleton=Eventually(Prop("distinct")),
            propositions={"distinct": ~atom_eq(X(author), X(reviewer))},
        ),
    )
    paper = spec.register_of("paper")
    check(
        workflow,
        "G (paper id never changes)",
        LtlFoSentence(
            skeleton=Globally(Prop("kept")),
            propositions={"kept": atom_eq(X(paper), Y(paper))},
        ),
    )


if __name__ == "__main__":
    main()
