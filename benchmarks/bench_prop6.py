"""E4 -- Proposition 6: eliminating global equality constraints.

The construction adds one register per state of each equality-constraint
DFA, plus control-state bookkeeping.  We sweep the constraint-DFA size
(longer anchored expressions) and report register/state/transition growth
and elimination time.

Expected shape: register growth exactly equals the total DFA state count;
control grows with the subset bookkeeping (worst case exponential, modest
on anchored constraints).

Each eliminated automaton is then decided: ``check_emptiness`` must answer
"nonempty" within a 3 s deadline, and its witness must replay on the
constrained cycle automaton.  The kernel completes each transition over
its scoped vocabulary only (``repro.core.extended.register_scopes``); the
"kernel completions" column is the number of transitions that gives, so
a completion over all 2k variables (the Bell(2k) wall, which left these
decisions "unknown") shows up as a jump there before it shows up as a
timeout.
"""

import sys
from pathlib import Path

import pytest

from repro import (
    ExtendedAutomaton,
    GlobalConstraint,
    RegisterAutomaton,
    SigmaType,
    Signature,
    check_emptiness,
)
from repro.automata.regex import any_of, concat, literal, star
from repro.core.extended import eliminate_equality_constraints
from repro.core.symkernel import build_kernel

from _tables import register_table

sys.path.insert(0, str(Path(__file__).parent.parent))
from tests.helpers import witness_on_original  # noqa: E402

ROWS = []

EMPTY = SigmaType()

#: Per-decision deadline, in ms.
DEADLINE_MS = 3000


def _cycle_automaton(n_states: int) -> RegisterAutomaton:
    states = ["s%d" % i for i in range(n_states)]
    transitions = [
        (states[i], EMPTY, states[(i + 1) % n_states]) for i in range(n_states)
    ]
    return RegisterAutomaton(
        1, Signature.empty(), states, {states[0]}, {states[0]}, transitions
    )


@pytest.mark.parametrize("cycle", [2, 3, 4])
def test_elimination_growth(benchmark, cycle):
    automaton = _cycle_automaton(cycle)
    # equality between consecutive visits of s0: anchored regex s0 ... s0
    middle = star(any_of(["s%d" % i for i in range(1, cycle)]))
    expression = concat(literal("s0"), middle, literal("s0"))
    extended = ExtendedAutomaton(automaton, [GlobalConstraint("eq", 1, 1, expression)])
    eliminated, kept = benchmark(eliminate_equality_constraints, extended)
    dfa = extended.constraint_dfa(extended.constraints[0])
    assert eliminated.automaton.k == 1 + dfa.size()

    result = check_emptiness(extended, deadline=DEADLINE_MS)
    assert result.verdict == "nonempty"
    database, run = witness_on_original(extended, result.witness, 2 * cycle + 2)
    assert run is not None and extended.is_run(run, database)
    completions = build_kernel(eliminated, kept).stats["completed_transitions"]
    ROWS.append(
        (
            cycle,
            dfa.size(),
            eliminated.automaton.k,
            len(eliminated.automaton.states),
            len(eliminated.automaton.transitions),
            completions,
            result.verdict,
        )
    )


register_table(
    "E4: Proposition 6 elimination growth",
    [
        "cycle length",
        "constraint DFA",
        "registers out",
        "states out",
        "transitions out",
        "kernel completions",
        "verdict",
    ],
    ROWS,
)
