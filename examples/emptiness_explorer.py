"""Exploring the quasi-regular boundary (Theorem 9, Example 8).

Example 8 is the paper's witness that extended-automaton state traces are
*not* omega-regular: with a unary database P and a constraint forcing
p-blocks to use pairwise distinct values, the length of p-blocks is bounded
by |P| -- a non-regular condition.  This script probes the boundary: lassos
with q-breaks are realisable, the pure-p lasso is not, and the decision is
the bounded-clique test on the trace's inequality graph G_w.

Run with:  python examples/emptiness_explorer.py
"""

from repro import (
    ExtendedAutomaton,
    GlobalConstraint,
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    check_emptiness,
    rel,
)
from repro.automata.regex import concat, literal, star
from repro.core.emptiness import (
    LiteralControl,
    clique_number,
    trace_has_bounded_cliques,
    trace_is_consistent,
)
from repro.core.extended import eliminate_equality_constraints
from repro.core.tracewindow import TraceWindow


def main() -> None:
    signature = Signature(relations={"P": 1})
    guard = SigmaType([rel("P", X(1))])
    base = RegisterAutomaton(
        1,
        signature,
        {"p", "q"},
        {"p"},
        {"p", "q"},
        [("p", guard, "p"), ("p", guard, "q"), ("q", guard, "q"), ("q", guard, "p")],
    )
    p_block = concat(literal("p"), star(literal("p")), literal("p"))
    extended = ExtendedAutomaton(base, [GlobalConstraint("neq", 1, 1, p_block)])
    print("Example 8:", extended)

    result = check_emptiness(extended, max_prefix=1, max_cycle=4)
    print("\nfull automaton nonempty:", not result.empty)
    database, run = result.witness.lasso_run()
    print("witness lasso run data:", run.data, "states:",
          tuple(s[0][0] for s in run.states))
    print("witness database:", database)

    # Probe individual lasso traces: increasing p-block length inside the loop.
    control = LiteralControl(eliminate_equality_constraints(extended)[0])
    normalised, buchi = control.normalised, control.buchi
    print("\nper-lasso realisability (loop shape -> verdict):")
    probed = 0
    for lasso in buchi.iter_accepted_lassos(4, 1):
        shape = "".join(pair[0][0][0] for pair in lasso.period)
        consistent = trace_is_consistent(normalised, lasso)
        bounded = consistent and trace_has_bounded_cliques(normalised, lasso)
        verdict = "realisable" if (consistent and bounded) else (
            "inconsistent" if not consistent else "unbounded cliques"
        )
        window = TraceWindow(
            lasso,
            1,
            length=len(lasso.prefix) + 3 * len(lasso.period),
            inequality_constraints=normalised.inequality_constraints(),
            states=normalised.automaton.states,
        )
        vertices, edges = window.constraint_graph()
        print(
            "  (%s)^w: %-18s  |G_w window|: %d vertices, %d edges, clique %d"
            % (shape, verdict, len(vertices), len(edges), clique_number(vertices, edges))
        )
        probed += 1
        if probed >= 6:
            break

    # The pure-p automaton is empty: the clique grows with the window.
    p_only = ExtendedAutomaton(
        RegisterAutomaton(1, signature, {"p"}, {"p"}, {"p"}, [("p", guard, "p")]),
        [GlobalConstraint("neq", 1, 1, p_block)],
    )
    verdict = check_emptiness(p_only, max_prefix=1, max_cycle=3)
    print("\np-only automaton empty:", verdict.empty,
          "(the paper's non-omega-regular boundary)")


if __name__ == "__main__":
    main()
