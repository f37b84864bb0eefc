"""E10 -- Section 6: hiding the database (Theorem 24, Example 23).

Builds the database-hidden view of Example 23 (binary and ternary E) and
measures construction time and the resulting constraint inventory, plus the
throughput of enhanced-constraint checking on lasso runs.

Expected shape, asserted before the rows are recorded: the binary variant
yields one equality constraint and only monadic tuple inequality
constraints (enforcing even/odd value disjointness); the ternary variant
yields arity-2 tuple constraints; both get one finiteness constraint, for
the register forced into the active domain.
"""

import pytest

from repro import (
    LassoRun,
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    Y,
    eq,
    nrel,
    project_with_database,
    rel,
)
from repro.logic.types import project_type_dataless

from _tables import register_table

ROWS = []


def _example23(binary: bool) -> RegisterAutomaton:
    if binary:
        signature = Signature(relations={"E": 2, "U": 1})
        pos = rel("E", X(2), X(1))
        neg = nrel("E", X(2), X(1))
    else:
        signature = Signature(relations={"E": 3, "U": 1})
        pos = rel("E", X(1), X(2), Y(1))
        neg = nrel("E", X(1), X(2), Y(1))
    delta = SigmaType([eq(X(2), Y(2)), rel("U", X(1)), pos])
    delta_neg = SigmaType([eq(X(2), Y(2)), rel("U", X(1)), neg])
    return RegisterAutomaton(
        2,
        signature,
        {"p", "q"},
        {"p"},
        {"p"},
        [("p", delta, "q"), ("q", delta_neg, "p")],
    )


@pytest.mark.parametrize("variant", ["binary", "ternary"])
def test_theorem24_construction(benchmark, variant):
    automaton = _example23(variant == "binary")
    view = benchmark(project_with_database, automaton, 1)
    arities = [c.arity for c in view.tuple_constraints]
    if variant == "binary":
        assert len(view.equality_constraints) == 1
        assert arities and set(arities) == {1}
    else:
        assert 2 in arities
    assert len(view.finiteness_constraints) == 1
    ROWS.append(
        (
            "Example 23 %s" % variant,
            len(view.equality_constraints),
            len(view.tuple_constraints),
            len(view.finiteness_constraints),
            max((c.arity for c in view.tuple_constraints), default=0),
        )
    )


def test_constraint_checking_throughput(benchmark):
    """Exact lasso checking of the enhanced constraints."""
    automaton = _example23(True)
    view = project_with_database(automaton, 1)
    from repro.core.theorem24 import _normalize_db

    normalised = _normalize_db(automaton)
    # build a structurally consistent alternating lasso run of the view
    states = sorted(normalised.states, key=repr)
    p_state = next(s for s in states if s[0] == "p" and s in normalised.initial)
    # follow transitions to a q state and back
    q_state = normalised.transitions_from(p_state)[0].target
    back = normalised.transitions_from(q_state)[0].target
    run = LassoRun(
        data=(("u",), ("v",)),
        states=(p_state, q_state),
        guards=(
            project_type_dataless(normalised.guard_of_state(p_state), 1),
            project_type_dataless(normalised.guard_of_state(q_state), 1),
        ),
        loop_start=0,
    )

    def check():
        return view.constraint_violation(run)

    benchmark(check)
    ROWS.append(("lasso check (binary)", "-", "-", "-", "-"))


register_table(
    "E10: Theorem 24 constructions",
    ["instance", "eq", "tuple", "finiteness", "max tuple arity"],
    ROWS,
)
