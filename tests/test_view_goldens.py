"""Golden digests of projected views (Theorem 13, Theorem 24).

Each view is written out canonically and hashed with sha256: its states,
initial and accepting sets and transitions in order, every constraint's
kind, registers and DFA table with its state numbers, and Theorem 24's
tuple and finiteness selectors.  ``tests/goldens/projection_views.json``
holds the digests, so a change to any view -- a transition moved, a tracker
numbered differently -- fails here even when its language is unchanged.
The digests were made before the projection trackers stopped keying on
the last symbol read; regenerate them only after a deliberate change to a
construction, with::

    PYTHONPATH=src:. python tests/test_view_goldens.py --regen
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from repro import (
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    Y,
    eq,
    nrel,
    project_extended,
    project_register_automaton,
    rel,
)
from repro.core.enhanced import EnhancedAutomaton
from repro.core.theorem24 import project_with_database
from repro.generators import random_extended_automaton, random_register_automaton
from repro.workflows.review import manuscript_review_workflow
from repro.workflows.views import RoleView, database_hidden_view, role_view

GOLDEN = Path(__file__).resolve().parent / "goldens" / "projection_views.json"

#: Seeds of the random automata projected at m = 1.
RANDOM_SEEDS = (0, 1, 2, 3, 4, 5)


def dfa_lines(dfa):
    """The DFA as text: alphabet, initial and accepting states, one row per state."""
    symbols = sorted(dfa.alphabet, key=repr)
    lines = [
        "alphabet %s" % " ".join(map(repr, symbols)),
        "initial %r" % (dfa.initial,),
        "accepting %s" % " ".join(sorted(map(repr, dfa.accepting))),
    ]
    for state in sorted(dfa.states, key=repr):
        targets = " ".join(repr(dfa.delta(state, symbol)) for symbol in symbols)
        lines.append("%r -> %s" % (state, targets))
    return lines


def automaton_lines(automaton):
    """The control: registers, signature, state sets and transitions in order."""
    lines = [
        "k %d" % automaton.k,
        "signature %r" % (automaton.signature,),
        "states %s" % " ".join(sorted(map(repr, automaton.states))),
        "initial %s" % " ".join(sorted(map(repr, automaton.initial))),
        "accepting %s" % " ".join(sorted(map(repr, automaton.accepting))),
    ]
    lines.extend("transition %r" % (transition,) for transition in automaton.transitions)
    return lines


def view_lines(view):
    """A projected view (extended, enhanced or a role view) as text."""
    if isinstance(view, RoleView):
        return [
            "role %s" % view.role,
            "visible %s" % " ".join(view.visible_attributes),
        ] + view_lines(view.automaton)
    lines = automaton_lines(view.automaton)
    states = view.automaton.states
    if isinstance(view, EnhancedAutomaton):
        for constraint in view.equality_constraints:
            lines.append("equality %d %d" % (constraint.i, constraint.j))
            lines.extend(dfa_lines(constraint.compiled(states)))
        for constraint in view.tuple_constraints:
            lines.append("tuple %r %r" % (constraint.left, constraint.right))
            prefix, factor = constraint.selector.compiled(states)
            lines.extend(["prefix"] + dfa_lines(prefix) + ["factor"] + dfa_lines(factor))
        for constraint in view.finiteness_constraints:
            lines.append("finiteness %d" % constraint.register)
            lines.extend(dfa_lines(constraint.selector))
        return lines
    for constraint in view.constraints:
        lines.append("constraint %s %d %d" % (constraint.kind, constraint.i, constraint.j))
        lines.extend(dfa_lines(constraint.compiled(states)))
    return lines


def view_digest(view) -> str:
    """The sha256 of the view's canonical text."""
    return hashlib.sha256("\n".join(view_lines(view)).encode()).hexdigest()


def _example1():
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


def _example23(ternary: bool):
    """Example 23, with a binary ``E`` or a ternary one."""
    signature = Signature(relations={"E": 3 if ternary else 2, "U": 1})
    edge = (X(1), X(2), Y(1)) if ternary else (X(2), X(1))
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


def golden_views():
    """``(name, thunk)`` for every view the golden file pins, in file order."""
    free = manuscript_review_workflow(with_database=False)
    spec = manuscript_review_workflow(with_database=True)
    views = [
        ("example1", lambda: project_register_automaton(_example1(), 1)),
        ("role_view:author", lambda: role_view(free, "author", ["reviewer"])),
        ("role_view:reviewer", lambda: role_view(free, "reviewer", ["author"])),
        (
            "database_hidden_view:outsider",
            lambda: database_hidden_view(spec, "outsider", ["reviewer"]),
        ),
        ("example23:binary", lambda: project_with_database(_example23(False), 1)),
        ("example23:ternary", lambda: project_with_database(_example23(True), 1)),
    ]
    for k in (1, 2, 3):
        # The E7 sweep's instances (benchmarks/bench_projection.py).
        views.append((
            "e7:k=%d" % k,
            lambda k=k: project_register_automaton(
                random_register_automaton(
                    random.Random(300 + k), k=k, n_states=2, n_transitions=3
                ),
                1,
            ),
        ))
    relational = Signature(relations={"E": 2, "U": 1})
    for seed in RANDOM_SEEDS:
        # Odd seeds may leave states without a guard (terminal states).
        views.append((
            "random_register_automaton:%d" % seed,
            lambda seed=seed: project_register_automaton(
                random_register_automaton(
                    random.Random(seed), k=2, n_states=3, n_transitions=4, ensure_live=seed % 2 == 0
                ),
                1,
            ),
        ))
        views.append((
            "random_relational_automaton:%d" % seed,
            lambda seed=seed: project_with_database(
                random_register_automaton(
                    random.Random(seed), k=2, n_states=2, n_transitions=3, signature=relational
                ),
                1,
            ),
        ))
        views.append((
            "random_extended_automaton:%d" % seed,
            lambda seed=seed: project_extended(
                random_extended_automaton(
                    random.Random(seed), k=2, n_states=2, n_transitions=3,
                    n_constraints=1, equality_fraction=0.0,
                ),
                1,
            ),
        ))
    return views


def test_views_match_golden_digests():
    """Every view, constraint numbering included, equals the golden one."""
    expected = json.loads(GOLDEN.read_text())["digests"]
    built = {name: view_digest(thunk()) for name, thunk in golden_views()}
    assert list(built) == list(expected)
    assert built == expected


def _regenerate() -> None:
    payload = {
        "_comment": [
            "sha256 of tests/test_view_goldens.py::view_lines for each view.",
            "Regenerate only after a deliberate change to a projection construction.",
        ],
        "digests": {name: view_digest(thunk()) for name, thunk in golden_views()},
    }
    GOLDEN.write_text(json.dumps(payload, indent=2) + "\n")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regenerate()
