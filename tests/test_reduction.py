"""Backward dataflow + the sound reduction layer (PR 7).

Four layers, tested bottom-up:

* the backward worklist solver (``solve_backward`` over the *same* core
  as ``solve_forward``), on both the powerset and the antichain lattice;
* register liveness and co-reachability on hand-built automata,
  including the copy-into-live soundness trap (a register that is never
  read directly but flows into a read register must stay);
* ``trim`` / ``trim_extended`` -- the accepting-lasso-relevant behaviour
  is preserved exactly (brute-forced over all accepted lasso candidates
  on small automata), identity fallbacks fire on budget-trip /
  normalisation-shape flips, and ``project_dead_registers`` keeps the
  verdict while shrinking ``k``;
* the end-to-end contract: ``check_emptiness`` with the trim is
  **byte-identical** -- verdict, witness, *and* ``candidates_checked``
  -- to the untrimmed search (``tests.helpers.without_trim``), a
  strictly stronger bar than pruning's "never checks more".
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    ExtendedAutomaton,
    GlobalConstraint,
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    Y,
    check_emptiness,
    eq,
    neq,
)
from repro.analysis.dataflow import (
    BackwardProblem,
    PowersetLattice,
    SubsumptionLattice,
    analyze_co_reachability,
    analyze_register_liveness,
    co_reachability_outcome,
    guard_read_registers,
    register_liveness_outcome,
    solve_backward,
    solve_forward,
)
from repro.automata.regex import concat, literal, plus, star
from repro.core.reduction import (
    DEFAULT_TRIM_BUDGET,
    project_dead_registers,
    trim,
    trim_extended,
)
from repro.core.symbolic import scontrol_buchi
from repro.foundations.resilience import OutcomeStatus
from repro.generators import random_extended_automaton
from tests.helpers import without_trim

EMPTY = Signature.empty()

KEEP1 = SigmaType([eq(X(1), Y(1))])
FRESH1 = SigmaType([neq(X(1), Y(1))])


def ra(k, states, initial, accepting, transitions):
    return RegisterAutomaton(k, EMPTY, states, initial, accepting, transitions)


# --------------------------------------------------------------------- #
# the backward solver
# --------------------------------------------------------------------- #


class _LabelCoReach(BackwardProblem):
    """Toy problem: collect the labels of all edge paths *out of* each node."""

    lattice = PowersetLattice()

    def __init__(self, edges, exits):
        self._edges = edges  # node -> [(label, successor)], forward direction
        self._exits = exits  # node -> frozenset seed

    def nodes(self):
        return self._edges.keys()

    def exit(self, node):
        return self._exits.get(node, frozenset())

    def out_edges(self, node):
        return self._edges[node]

    def transfer(self, label, value):
        return value | {label}


class TestSolveBackward:
    def test_information_flows_against_the_edges(self):
        problem = _LabelCoReach(
            {
                "a": [("ab", "b")],
                "b": [("bc", "c")],
                "c": [],
            },
            {"c": frozenset({"goal"})},
        )
        result = solve_backward(problem)
        assert result is not None
        assert result.values["c"] == frozenset({"goal"})
        assert result.values["b"] == frozenset({"goal", "bc"})
        assert result.values["a"] == frozenset({"goal", "bc", "ab"})

    def test_cycles_reach_the_fixpoint(self):
        problem = _LabelCoReach(
            {"a": [("ab", "b")], "b": [("ba", "a"), ("bc", "c")], "c": []},
            {"c": frozenset({"goal"})},
        )
        result = solve_backward(problem)
        assert result.values["a"] == frozenset({"goal", "ab", "ba", "bc"})
        assert result.values["b"] == frozenset({"goal", "ab", "ba", "bc"})

    def test_budget_exhaustion_returns_none(self):
        problem = _LabelCoReach(
            {"a": [("ab", "b")], "b": [("ba", "a")]},
            {"a": frozenset({"seed"})},
        )
        assert solve_backward(problem, max_edge_evaluations=1) is None

    def test_sink_stays_at_its_exit_value(self):
        problem = _LabelCoReach(
            {"a": [("ab", "b")], "b": []}, {"a": frozenset({"seed"})}
        )
        result = solve_backward(problem)
        # b has no successors: nothing flows into it backwards.
        assert result.values["b"] == frozenset()
        # a sees its own exit seed plus the contribution over a->b.
        assert result.values["a"] == frozenset({"seed", "ab"})

    def test_antichain_lattice_backward(self):
        # Subsumption = superset: keeping only the maximal sets.
        class _Antichain(_LabelCoReach):
            lattice = SubsumptionLattice(
                lambda big, small: frozenset(small) <= frozenset(big)
            )

            def transfer(self, label, value):
                return frozenset(
                    tuple(sorted(set(element) | {label})) for element in value
                )

            def exit(self, node):
                seed = self._exits.get(node)
                return frozenset() if seed is None else frozenset({()})

        problem = _Antichain(
            {"a": [("l", "b"), ("m", "b")], "b": []}, {"b": frozenset({()})}
        )
        result = solve_backward(problem)
        # Both one-label sets survive (incomparable): a genuine antichain.
        assert result.values["a"] == frozenset({("l",), ("m",)})

    def test_shares_the_forward_core(self):
        # The acceptance criterion "no duplicated solver loop", checked
        # structurally: solve_backward's bytecode references solve_forward
        # and contains no worklist machinery of its own.
        names = solve_backward.__code__.co_names
        assert "solve_forward" in names
        assert "while" not in solve_backward.__code__.co_varnames
        forward_result = solve_forward.__code__.co_consts
        assert solve_backward.__code__.co_consts != forward_result


# --------------------------------------------------------------------- #
# guard reads and register liveness
# --------------------------------------------------------------------- #


class TestGuardReadRegisters:
    def test_pure_copies_do_not_read(self):
        assert guard_read_registers(SigmaType([eq(X(1), Y(1))]), 2) == ()
        assert guard_read_registers(SigmaType([eq(X(1), Y(2))]), 2) == ()

    def test_comparison_reads_both(self):
        assert guard_read_registers(SigmaType([eq(X(1), X(2))]), 2) == (1, 2)

    def test_disequality_reads(self):
        assert guard_read_registers(SigmaType([neq(X(1), Y(1))]), 2) == (1,)

    def test_comparison_through_y_corridor(self):
        # x1 = y2 and x2 = y2 entails x1 = x2: both registers are read
        # even though no literal compares them directly.
        guard = SigmaType([eq(X(1), Y(2)), eq(X(2), Y(2))])
        assert guard_read_registers(guard, 2) == (1, 2)

    def test_cached_per_instance(self):
        guard = SigmaType([eq(X(1), X(2))])
        assert guard_read_registers(guard, 2) is guard_read_registers(guard, 2)


def chain():
    """reg2 := reg1 at q0->q1; reg2 is read at q1->q2; reg1 never after q0."""
    copy21 = SigmaType([eq(X(1), Y(2))])
    read2 = SigmaType([neq(X(2), Y(2))])
    return ra(
        2,
        {"q0", "q1", "q2"},
        {"q0"},
        {"q2"},
        [("q0", copy21, "q1"), ("q1", read2, "q2"), ("q2", read2, "q2")],
    )


class TestRegisterLiveness:
    def test_copy_into_read_makes_the_source_live(self):
        liveness = analyze_register_liveness(chain())
        assert liveness.live_at("q0") == frozenset({1})
        assert liveness.live_at("q1") == frozenset({2})
        assert liveness.live_at("q2") == frozenset({2})

    def test_dead_at_is_the_sorted_complement(self):
        liveness = analyze_register_liveness(chain())
        assert liveness.dead_at("q0") == (2,)
        assert liveness.dead_at("q1") == (1,)

    def test_write_only_requires_live_nowhere(self):
        # reg1 is never read directly, but it flows into read reg2: the
        # copy-into-live trap -- dropping it would change the verdict.
        liveness = analyze_register_liveness(chain())
        assert liveness.write_only_registers() == ()

    def test_write_only_detected(self):
        # reg2 := new reg1 value, never read, never forwarded.
        guard = SigmaType([eq(X(1), Y(1)), eq(Y(2), Y(1))])
        automaton = ra(2, {"p", "q"}, {"p"}, {"q"},
                       [("p", guard, "q"), ("q", FRESH1, "q")])
        liveness = analyze_register_liveness(automaton)
        assert liveness.write_only_registers() == (2,)

    def test_never_read_proof_shape(self):
        liveness = analyze_register_liveness(chain())
        proof = liveness.never_read_proof("q1", 1)
        assert proof["register"] == 1
        assert proof["truncated"] is False
        assert all(entry["dead_here"] for entry in proof["cone"])
        for entry in proof["cone"]:
            for step in entry["steps"]:
                assert 1 not in step["reads"]
                assert step["flows_into_live"] == []

    def test_declines_above_register_cap(self):
        from repro.analysis.dataflow import MAX_REGISTERS

        k = MAX_REGISTERS + 1
        literals = [eq(X(i), Y(i)) for i in range(1, k + 1)]
        automaton = ra(k, {"a"}, {"a"}, {"a"}, [("a", SigmaType(literals), "a")])
        outcome = register_liveness_outcome(automaton)
        assert outcome.status is OutcomeStatus.DEGRADED
        assert outcome.value is None
        assert outcome.stats["reason"] == "register-cap"

    def test_declines_over_edge_budget(self):
        outcome = register_liveness_outcome(chain(), max_edge_evaluations=1)
        assert outcome.status is OutcomeStatus.DEGRADED
        assert outcome.stats["reason"] == "edge-budget"


# --------------------------------------------------------------------- #
# co-reachability
# --------------------------------------------------------------------- #

FORCE = SigmaType([eq(X(1), X(2)), eq(X(1), Y(1)), eq(X(2), Y(2))])
KEEP2 = SigmaType([eq(X(1), Y(1)), eq(X(2), Y(2))])
SPLIT = SigmaType([neq(X(1), X(2)), eq(X(1), Y(1)), eq(X(2), Y(2))])


def forced_funnel():
    """After FORCE, the SPLIT edge into the accepting sink can never fire."""
    return ra(
        2,
        {"q0", "q1", "junk", "acc"},
        {"q0"},
        {"acc"},
        [
            ("q0", FORCE, "q1"),
            ("q1", SPLIT, "junk"),
            ("junk", KEEP2, "acc"),
            ("q1", KEEP2, "acc"),
            ("acc", KEEP2, "acc"),
        ],
    )


class TestCoReachability:
    def test_anchors_are_accepting_states_on_feasible_cycles(self):
        analysis = analyze_co_reachability(forced_funnel())
        assert analysis.anchors == frozenset({"acc"})

    def test_infeasible_corridor_is_not_co_reachable(self):
        analysis = analyze_co_reachability(forced_funnel())
        assert analysis.is_co_reachable("q0")
        assert analysis.is_co_reachable("q1")
        # junk is graph-co-accessible to acc, but its only incoming edge
        # is the infeasible SPLIT, so it has no reachable types and its
        # outgoing edge to acc is infeasible too: no anchor flows back.
        # (Sound: the DF007 pass only reports *abstractly reachable*
        # states, and junk is not one.)
        assert not analysis.is_co_reachable("junk")

    def test_state_with_no_feasible_path_to_any_anchor(self):
        dead_end = ra(
            1,
            {"s", "acc", "pit"},
            {"s"},
            {"acc"},
            [
                ("s", KEEP1, "acc"),
                ("acc", KEEP1, "acc"),
                ("s", KEEP1, "pit"),
                ("pit", KEEP1, "pit"),
            ],
        )
        analysis = analyze_co_reachability(dead_end)
        assert analysis.non_co_reachable_states() == ("pit",)
        assert analysis.anchors_from("s") == frozenset({"acc"})

    def test_no_accepting_cycle_means_no_anchors(self):
        automaton = ra(1, {"s", "acc"}, {"s"}, {"acc"}, [("s", KEEP1, "acc")])
        analysis = analyze_co_reachability(automaton)
        assert analysis.anchors == frozenset()
        assert analysis.non_co_reachable_states() == ("acc", "s")

    def test_declines_when_forward_analysis_declines(self):
        outcome = co_reachability_outcome(
            forced_funnel(), max_edge_evaluations=1
        )
        assert outcome.status is OutcomeStatus.DEGRADED
        assert outcome.stats["reason"] in ("forward-analysis", "edge-budget")


# --------------------------------------------------------------------- #
# trim
# --------------------------------------------------------------------- #


def junky():
    """An accepting cycle plus a reachable junk tail (same guard: no
    normalisation-shape flip when the tail is trimmed)."""
    return ra(
        1,
        {"s", "acc", "j1", "j2"},
        {"s"},
        {"acc"},
        [
            ("s", KEEP1, "acc"),
            ("acc", FRESH1, "acc"),
            ("s", KEEP1, "j1"),
            ("j1", KEEP1, "j2"),
            ("j2", KEEP1, "j1"),
        ],
    )


def _accepted_lassos(automaton, max_cycle=4, max_prefix=4):
    """All accepted lasso candidates, in enumeration order."""
    return list(
        scontrol_buchi(automaton).iter_accepted_lassos(max_cycle, max_prefix)
    )


class TestTrim:
    def test_drops_the_junk_tail(self):
        trimmed = trim(junky())
        assert trimmed.states == frozenset({"s", "acc"})
        assert trimmed.initial == frozenset({"s"})
        assert trimmed.accepting == frozenset({"acc"})

    def test_candidate_sequence_preserved_exactly(self):
        automaton = junky()
        trimmed = trim(automaton)
        assert _accepted_lassos(automaton) == _accepted_lassos(trimmed)

    def test_identity_when_nothing_to_trim(self):
        trimmed = trim(junky())
        assert trim(trimmed) is trimmed

    def test_budget_trip_returns_identity(self):
        automaton = junky()
        assert trim(automaton, max_steps=1) is automaton

    def test_default_budget_is_generous(self):
        assert DEFAULT_TRIM_BUDGET >= 100_000

    def test_state_driven_flip_falls_back_to_identity(self):
        # Trimming the FRESH1 branch would leave "s" single-guard and flip
        # is_state_driven() False -> True: trim must refuse.
        automaton = ra(
            1,
            {"s", "acc", "junk"},
            {"s"},
            {"acc"},
            [
                ("s", KEEP1, "acc"),
                ("acc", KEEP1, "acc"),
                ("s", FRESH1, "junk"),
            ],
        )
        assert not automaton.is_state_driven()
        assert trim(automaton) is automaton

    def test_empty_language_left_untouched(self):
        # No accepting cycle at all: keep-set misses the initial states.
        automaton = ra(1, {"s", "acc"}, {"s"}, {"acc"}, [("s", KEEP1, "acc")])
        assert trim(automaton) is automaton

    def test_trim_extended_remaps_constraint_dfas(self):
        automaton = junky()
        factor = concat(literal("s"), plus(literal("acc")))
        extended = ExtendedAutomaton(
            automaton, [GlobalConstraint("neq", 1, 1, factor)]
        )
        trimmed = trim_extended(extended)
        assert trimmed.automaton.states == frozenset({"s", "acc"})
        for constraint in trimmed.constraints:
            dfa = trimmed.constraint_dfa(constraint)
            assert dfa.alphabet == trimmed.automaton.states

    def test_trim_extended_identity_passthrough(self):
        extended = ExtendedAutomaton(trim(junky()), [])
        assert trim_extended(extended) is extended


# --------------------------------------------------------------------- #
# dead-register projection
# --------------------------------------------------------------------- #


class TestProjectDeadRegisters:
    def test_drops_a_write_only_register(self):
        guard = SigmaType([eq(X(1), Y(1)), eq(Y(2), Y(1))])
        automaton = ra(2, {"p", "q"}, {"p"}, {"q"},
                       [("p", guard, "q"), ("q", FRESH1, "q")])
        projected, dropped = project_dead_registers(automaton)
        assert dropped == (2,)
        assert projected.k == 1
        assert projected.states == automaton.states

    def test_saturation_keeps_entailed_facts(self):
        # y1 = y3 and y2 = y3 entails y1 = y2 *through* dropped register
        # 3; the syntactic restriction would lose it, the saturated
        # projection must keep it.
        guard = SigmaType([eq(Y(1), Y(3)), eq(Y(2), Y(3))])
        read12 = SigmaType([neq(X(1), X(2))])
        automaton = ra(3, {"p", "q"}, {"p"}, {"q"},
                       [("p", guard, "q"), ("q", read12, "q")])
        projected, dropped = project_dead_registers(automaton)
        assert dropped == (3,)
        assert projected.k == 2
        (first, _second) = sorted(
            projected.transitions, key=lambda t: t.source
        )
        assert first.guard.entails(eq(Y(1), Y(2)))

    def test_copy_into_live_register_is_kept(self):
        projected, dropped = project_dead_registers(chain())
        assert dropped == ()
        assert projected is chain() or projected.k == 2

    def test_refuses_relational_signatures(self):
        signature = Signature(relations={"R": 1})
        automaton = RegisterAutomaton(
            1, signature, {"p"}, {"p"}, {"p"}, [("p", KEEP1, "p")]
        )
        projected, dropped = project_dead_registers(automaton)
        assert projected is automaton and dropped == ()

    def test_verdict_preserved(self):
        guard = SigmaType([eq(X(1), Y(1)), eq(Y(2), Y(1))])
        automaton = ra(2, {"p", "q"}, {"p"}, {"q"},
                       [("p", guard, "q"), ("q", FRESH1, "q")])
        projected, dropped = project_dead_registers(automaton)
        assert dropped == (2,)
        original = check_emptiness(
            ExtendedAutomaton(automaton, []), max_prefix=2, max_cycle=3
        )
        reduced = check_emptiness(
            ExtendedAutomaton(projected, []), max_prefix=2, max_cycle=3
        )
        assert original.empty == reduced.empty
        assert original.exact == reduced.exact

    def test_verdict_preserved_when_empty(self):
        # Emptiness by control (acc unreachable); registers 1 and 3 are
        # pure copies that never feed a read, so both are dropped.
        dead = ra(
            3,
            {"p", "q", "acc"},
            {"p"},
            {"acc"},
            [("p", SigmaType([eq(Y(3), Y(1)), eq(X(1), Y(1))]), "q")],
        )
        projected, dropped = project_dead_registers(dead)
        assert 3 in dropped
        original = check_emptiness(
            ExtendedAutomaton(dead, []), max_prefix=2, max_cycle=2
        )
        reduced = check_emptiness(
            ExtendedAutomaton(projected, []), max_prefix=2, max_cycle=2
        )
        assert original.empty and reduced.empty


# --------------------------------------------------------------------- #
# the DF006/DF007/DF008 passes
# --------------------------------------------------------------------- #


class TestBackwardPasses:
    def test_df008_flags_the_write_only_register(self):
        from repro.analysis import analyze

        guard = SigmaType([eq(X(1), Y(1)), eq(Y(2), Y(1))])
        automaton = ra(2, {"p", "q"}, {"p"}, {"q"},
                       [("p", guard, "q"), ("q", FRESH1, "q")])
        report = analyze(automaton)
        assert "DF008" in report.codes()
        finding = next(d for d in report.diagnostics if d.code == "DF008")
        assert finding.data["register"] == 2
        assert "project_dead_registers" in finding.data["reduction"]
        assert report.ok  # warnings do not fail the report

    def test_df008_silent_when_the_copy_feeds_a_read(self):
        from repro.analysis import analyze

        assert "DF008" not in analyze(chain()).codes()

    def test_df006_reports_positionally_dead_registers(self):
        from repro.analysis import analyze

        report = analyze(chain())
        assert "DF006" in report.codes()
        finding = next(d for d in report.diagnostics if d.code == "DF006")
        assert finding.data["dead"]
        assert finding.data["proofs"]

    def test_df007_flags_states_cut_from_every_anchor(self):
        from repro.analysis import analyze

        dead_end = ra(
            1,
            {"s", "acc", "pit"},
            {"s"},
            {"acc"},
            [
                ("s", KEEP1, "acc"),
                ("acc", KEEP1, "acc"),
                ("s", KEEP1, "pit"),
                ("pit", KEEP1, "pit"),
            ],
        )
        # pit never reaches acc in the graph: RA111 claims it and DF007
        # stays silent (each state is explained exactly once).
        assert "DF007" not in analyze(dead_end).codes()
        # DF007 fires where the graph-level check cannot see the problem:
        # junk2 reaches acc, but only over an infeasible edge.
        automaton = ra(
            2,
            {"q0", "q1", "junk2", "acc"},
            {"q0"},
            {"acc"},
            [
                ("q0", FORCE, "q1"),
                ("q1", KEEP2, "acc"),
                ("acc", KEEP2, "acc"),
                ("q1", KEEP2, "junk2"),
                ("junk2", SPLIT, "acc"),
            ],
        )
        report = analyze(automaton)
        assert "DF007" in report.codes()
        finding = next(d for d in report.diagnostics if d.code == "DF007")
        assert "junk2" in finding.location
        assert report.ok


# --------------------------------------------------------------------- #
# end-to-end: the trim is byte-identical
# --------------------------------------------------------------------- #


def _fingerprint(result):
    witness = result.witness
    return (
        result.empty,
        result.exact,
        result.candidates_checked,
        result.max_prefix,
        result.max_cycle,
        None if witness is None else witness.trace,
    )


def _compare_reduce_modes(extended, max_prefix=2, max_cycle=4):
    """check_emptiness with and without the trim; byte-identity bar."""
    reduced = check_emptiness(extended, max_prefix=max_prefix, max_cycle=max_cycle)
    with without_trim():
        baseline = check_emptiness(
            extended, max_prefix=max_prefix, max_cycle=max_cycle
        )
    assert _fingerprint(reduced) == _fingerprint(baseline)
    return reduced, baseline


def junky_constrained():
    factor = concat(literal("s"), plus(literal("acc")))
    return ExtendedAutomaton(
        junky(), [GlobalConstraint("neq", 1, 1, factor)]
    )


class TestReduceSoundEndToEnd:
    def test_junky_unconstrained(self):
        _compare_reduce_modes(ExtendedAutomaton(junky(), []))

    def test_junky_with_inequality_constraint(self):
        _compare_reduce_modes(junky_constrained())

    def test_empty_language(self):
        automaton = ra(
            1, {"s", "acc"}, {"s"}, {"acc"}, [("s", KEEP1, "s")]
        )
        reduced, _ = _compare_reduce_modes(ExtendedAutomaton(automaton, []))
        assert reduced.empty


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_reduce_byte_identical_on_random_extended_automata(seed):
    """The headline property: the trim never changes a single byte.

    Verdict, exactness, bounds, candidates_checked and the winning
    witness trace are identical with the reduction on and off -- trim is
    candidate-preserving, not merely sound.  Inequality constraints only,
    for the same tractability reason as the pruning property.
    """
    extended = random_extended_automaton(
        random.Random(seed),
        k=2,
        n_states=4,
        n_transitions=5,
        n_constraints=1,
        equality_fraction=0.0,
    )
    _compare_reduce_modes(extended, max_prefix=1, max_cycle=3)
