"""E6 -- LTL-FO verification (Theorem 12).

Verifies a family of properties of growing temporal depth against the
Example-1 automaton and the review workflow, reporting product sizes plus
decision time.  No case has global constraints, so the product size is
the number of (control, property) pairs the on-the-fly emptiness search
visited before it stopped.

Expected shape: cost grows with the negated property's Buchi automaton
(exponential in formula size, the classical LTL blow-up), not with the data.

Every case is decided three times: timed on the coded kernel, then once
more on the literal path (``tests.helpers.without_symkernel()``) and once
on the lifted flagged product (``tests.helpers.without_product_search()``).
Verdict, product size and counterexample trace must agree between the
first two, and the verdict with the third, before a row is kept.
"""

import sys
from pathlib import Path

import pytest

from repro import ExtendedAutomaton, LtlFoSentence, manuscript_review_workflow, verify
from repro.logic.formulas import atom_eq
from repro.logic.terms import X
from repro.ltl import Eventually, Globally, Next, Prop
from repro.ltl.syntax import Not_, Or_, Until

from _tables import register_table

sys.path.insert(0, str(Path(__file__).parent.parent))
from tests.helpers import without_product_search, without_symkernel  # noqa: E402

ROWS = []


def _eq12():
    return {"eq12": atom_eq(X(1), X(2))}


def _fingerprint(result):
    trace = result.counterexample.trace if result.counterexample else None
    return result.holds, result.product_size, repr(trace)


def _assert_literal_agrees(result, extended, sentence):
    with without_symkernel():
        literal = verify(extended, sentence)
    assert _fingerprint(result) == _fingerprint(literal)
    with without_product_search():
        oracle = verify(extended, sentence)
    assert (result.holds, result.exact) == (oracle.holds, oracle.exact)


PROPERTIES = [
    ("F eq12", Eventually(Prop("eq12")), True),
    ("G eq12", Globally(Prop("eq12")), False),
    ("G(eq12 -> F eq12)", Globally(Or_(Not_(Prop("eq12")), Eventually(Prop("eq12")))), True),
    ("GF eq12", Globally(Eventually(Prop("eq12"))), True),
    ("X X eq12", Next(Next(Prop("eq12"))), False),
    # fails: runs may leave eq12 false from position 1 onwards for a while
    ("eq12 U (X eq12)", Until(Prop("eq12"), Next(Prop("eq12"))), False),
]


@pytest.mark.parametrize("name,skeleton,expected", PROPERTIES, ids=[p[0] for p in PROPERTIES])
def test_verify_example1(benchmark, example1_automaton, name, skeleton, expected):
    sentence = LtlFoSentence(skeleton=skeleton, propositions=_eq12())
    extended = ExtendedAutomaton(example1_automaton, [])
    result = benchmark(verify, extended, sentence)
    assert result.holds == expected
    _assert_literal_agrees(result, extended, sentence)
    ROWS.append((name, "holds" if result.holds else "fails", result.product_size))


def test_verify_workflow(benchmark):
    spec = manuscript_review_workflow(with_database=False)
    extended = ExtendedAutomaton(spec.compile(), [])
    author, reviewer = spec.register_of("author"), spec.register_of("reviewer")
    sentence = LtlFoSentence(
        skeleton=Eventually(Prop("distinct")),
        propositions={"distinct": ~atom_eq(X(author), X(reviewer))},
    )
    result = benchmark(verify, extended, sentence)
    assert result.holds
    _assert_literal_agrees(result, extended, sentence)
    ROWS.append(("review: F(rev != auth)", "holds", result.product_size))


register_table(
    "E6: LTL-FO verification",
    ["property", "verdict", "product size"],
    ROWS,
)
