"""Dataflow engine (PR 4): fixpoints, the equality domain, proved pruning.

Four layers, tested bottom-up:

* the generic worklist solver (``repro.analysis.dataflow.framework``);
* the reachable-equality-types domain -- exact per-state type sets,
  witness paths and forced equalities on hand-built automata, and on
  random ones the type of every valuation a bounded valid run reaches;
* the sound pruner ``prune_infeasible`` / ``prune_extended`` -- the
  valid-run set is preserved *exactly* (brute-forced over all data words
  from a small pool);
* the end-to-end contract: ``check_emptiness`` returns the same verdict
  and witness as the unpruned search (``tests.helpers.without_pruning``)
  while never checking *more* candidates.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Database,
    ExtendedAutomaton,
    GlobalConstraint,
    RegisterAutomaton,
    SigmaType,
    Signature,
    Transition,
    X,
    Y,
    check_emptiness,
    eq,
    generate_finite_runs,
    neq,
    prune_extended,
    prune_infeasible,
)
from repro.analysis.dataflow import (
    MAX_REGISTERS,
    ForwardProblem,
    PowersetLattice,
    analyze_reachable_types,
    solve_forward,
)
from repro.automata.buchi import BuchiAutomaton
from repro.automata.regex import concat, literal, plus
from repro.core.emptiness import LiteralControl
from repro.core.symkernel import SymbolicKernel, build_kernel
from repro.generators import random_extended_automaton, random_register_automaton
from repro.logic.types import complete_equality_x_types
from tests.helpers import without_pruning

EMPTY = Signature.empty()


def ra(k, states, initial, accepting, transitions):
    return RegisterAutomaton(k, EMPTY, states, initial, accepting, transitions)


# --------------------------------------------------------------------- #
# the generic solver
# --------------------------------------------------------------------- #


class _LabelReach(ForwardProblem):
    """Toy problem: collect the labels of all edge paths into each node."""

    lattice = PowersetLattice()

    def __init__(self, edges, entries):
        self._edges = edges  # node -> [(label, successor)]
        self._entries = entries  # node -> frozenset seed

    def nodes(self):
        return self._edges.keys()

    def entry(self, node):
        return self._entries.get(node, frozenset())

    def out_edges(self, node):
        return self._edges[node]

    def transfer(self, label, value):
        return value | {label}


class TestSolver:
    def test_fixpoint_on_a_cyclic_graph(self):
        problem = _LabelReach(
            {
                "a": [("ab", "b")],
                "b": [("bc", "c")],
                "c": [("cb", "b")],
            },
            {"a": frozenset({"start"})},
        )
        result = solve_forward(problem)
        assert result is not None
        assert result.values["a"] == frozenset({"start"})
        assert result.values["b"] == frozenset({"start", "ab", "bc", "cb"})
        assert result.values["c"] == frozenset({"start", "ab", "bc", "cb"})
        assert result.edge_evaluations >= 3

    def test_budget_exhaustion_returns_none(self):
        problem = _LabelReach(
            {"a": [("ab", "b")], "b": [("ba", "a")]},
            {"a": frozenset({"seed"})},
        )
        assert solve_forward(problem, max_edge_evaluations=1) is None

    def test_unreachable_node_stays_bottom(self):
        problem = _LabelReach(
            {"a": [], "island": []}, {"a": frozenset({"start"})}
        )
        result = solve_forward(problem)
        assert result.values["island"] == frozenset()


class TestCompleteTypes:
    def test_bell_numbers(self):
        # One complete type per partition of {x1..xk}: the Bell numbers.
        assert [len(complete_equality_x_types(k)) for k in range(5)] == [
            1, 1, 2, 5, 15,
        ]

    def test_memoised(self):
        assert complete_equality_x_types(3) is complete_equality_x_types(3)

    def test_types_are_complete_and_exclusive(self):
        one, two = complete_equality_x_types(2)
        assert one.entails(eq(X(1), X(2))) != two.entails(eq(X(1), X(2)))


# --------------------------------------------------------------------- #
# the equality domain on a hand-built automaton
# --------------------------------------------------------------------- #

FORCE = SigmaType([eq(X(1), X(2)), eq(X(1), Y(1)), eq(X(2), Y(2))])
KEEP = SigmaType([eq(X(1), Y(1)), eq(X(2), Y(2))])
SPLIT = SigmaType([neq(X(1), X(2)), eq(X(1), Y(1)), eq(X(2), Y(2))])


def funnel():
    """q1 is only reached with x1 = x2; the neq edge to q3 never fires."""
    return ra(
        2,
        {"q0", "q1", "q2", "q3"},
        {"q0"},
        {"q2"},
        [
            ("q0", FORCE, "q1"),
            ("q1", KEEP, "q2"),
            ("q1", SPLIT, "q3"),
            ("q3", KEEP, "q3"),
        ],
    )


class TestEqualityDomain:
    def test_per_state_types_are_exact(self):
        types = analyze_reachable_types(funnel())
        merged, split = complete_equality_x_types(2)
        if not merged.entails(eq(X(1), X(2))):
            merged, split = split, merged
        assert types.types_at("q0") == frozenset((merged, split))
        assert types.types_at("q1") == frozenset((merged,))
        assert types.types_at("q2") == frozenset((merged,))
        assert types.types_at("q3") == frozenset()

    def test_infeasible_transition_and_unreachable_state(self):
        types = analyze_reachable_types(funnel())
        # The split edge is refuted at its (reachable) source; the q3
        # self-loop is infeasible because q3 itself is unreachable.
        assert {(t.source, t.guard) for t in types.infeasible_transitions()} == {
            ("q1", SPLIT),
            ("q3", KEEP),
        }
        assert types.unreachable_states() == ("q3",)

    def test_feasibility_queries(self):
        types = analyze_reachable_types(funnel())
        assert types.feasible_from("q1", KEEP)
        assert not types.feasible_from("q1", SPLIT)
        assert types.feasible_from("q0", FORCE)

    def test_witness_paths(self):
        types = analyze_reachable_types(funnel())
        assert types.witness_path("q0") == []
        path = types.witness_path("q1")
        assert [t.guard for t in path] == [FORCE]
        assert types.witness_path("q3") is None

    def test_forced_equalities(self):
        types = analyze_reachable_types(funnel())
        assert types.forced_equalities("q1") == ((1, 2),)
        assert types.forced_equalities("q0") == ()

    def test_declines_above_register_cap(self):
        k = MAX_REGISTERS + 1
        literals = [eq(X(i), Y(i)) for i in range(1, k + 1)]
        automaton = ra(k, {"a"}, {"a"}, {"a"}, [("a", SigmaType(literals), "a")])
        assert analyze_reachable_types(automaton) is None

    def test_declines_over_edge_budget(self):
        assert analyze_reachable_types(funnel(), max_edge_evaluations=1) is None


# --------------------------------------------------------------------- #
# prune_infeasible / prune_extended
# --------------------------------------------------------------------- #


def _run_set(automaton, length, pool=("a", "b", "c")):
    database = Database(EMPTY)
    return {
        (run.states, run.data)
        for run in generate_finite_runs(automaton, database, length, pool=pool)
    }


class TestPruneInfeasible:
    def test_drops_proved_dead_control(self):
        pruned = prune_infeasible(funnel())
        assert pruned.states == frozenset({"q0", "q1", "q2"})
        assert SPLIT not in [t.guard for t in pruned.transitions]
        assert pruned.initial == frozenset({"q0"})
        assert pruned.accepting == frozenset({"q2"})

    def test_identity_when_nothing_to_prune(self):
        automaton = ra(1, {"a"}, {"a"}, {"a"}, [("a", SigmaType([eq(X(1), Y(1))]), "a")])
        assert prune_infeasible(automaton) is automaton

    def test_valid_run_set_preserved_exactly(self):
        automaton = funnel()
        pruned = prune_infeasible(automaton)
        for length in range(5):
            assert _run_set(automaton, length) == _run_set(pruned, length)

    def test_restricted_filters_both_endpoints(self):
        automaton = funnel()
        shrunk = automaton.restricted({"q0", "q1"})
        assert shrunk.states == frozenset({"q0", "q1"})
        assert all(
            t.source in shrunk.states and t.target in shrunk.states
            for t in shrunk.transitions
        )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=2))
def test_prune_preserves_runs_on_random_automata(seed, k):
    automaton = random_register_automaton(
        random.Random(seed), k=k, n_states=3, n_transitions=5
    )
    pruned = prune_infeasible(automaton)
    assert _run_set(automaton, 3, pool=("a", "b")) == _run_set(
        pruned, 3, pool=("a", "b")
    )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=2))
def test_reachable_types_contain_every_concrete_configuration(seed, k):
    """Ground truth for the domain: every register valuation a valid run
    prefix reaches has its complete equality type in ``types_at``."""
    automaton = random_register_automaton(
        random.Random(seed), k=k, n_states=3, n_transitions=5
    )
    types = analyze_reachable_types(automaton)
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    pool = tuple(range(k + 1))
    for length in range(1, 5):
        for run in generate_finite_runs(automaton, Database(EMPTY), length, pool=pool):
            values = run.data[-1]
            assert any(
                all(
                    phi.entails(eq(X(i), X(j))) == (values[i - 1] == values[j - 1])
                    for i, j in pairs
                )
                for phi in types.types_at(run.states[-1])
            ), (run.states, run.data)


def _example23(constrained):
    d1 = SigmaType([eq(X(1), X(2)), eq(X(2), Y(2))])
    d2 = SigmaType([eq(X(2), Y(2))])
    d3 = SigmaType([eq(X(2), Y(2)), eq(Y(1), Y(2))])
    automaton = ra(
        2,
        {"q1", "q2"},
        {"q1"},
        {"q1"},
        [("q1", d1, "q2"), ("q2", d2, "q2"), ("q2", d3, "q1")],
    )
    constraints = []
    if constrained:
        factor = concat(literal("q1"), plus(literal("q2")), literal("q1"))
        constraints = [GlobalConstraint("neq", 1, 1, factor)]
    return ExtendedAutomaton(automaton, constraints), d1, d2, d3


class TestPruneExtended:
    def _constrained_funnel(self):
        factor = concat(literal("q0"), plus(literal("q1")), literal("q2"))
        return ExtendedAutomaton(
            funnel(), [GlobalConstraint("neq", 1, 2, factor)]
        )

    def test_constraint_dfas_remapped_to_surviving_states(self):
        extended = self._constrained_funnel()
        pruned = prune_extended(extended)
        assert pruned.automaton.states == frozenset({"q0", "q1", "q2"})
        (constraint,) = pruned.constraints
        dfa = pruned.constraint_dfa(constraint)  # alphabet check passes
        assert dfa.alphabet == pruned.automaton.states

    def test_identity_when_automaton_untouched(self):
        extended, *_ = _example23(True)
        assert prune_extended(extended) is extended

    def test_emptiness_verdict_survives_pruning(self):
        extended = self._constrained_funnel()
        on = check_emptiness(extended, max_prefix=2, max_cycle=4)
        pruned = prune_extended(extended)
        off = check_emptiness(pruned, max_prefix=2, max_cycle=4)
        assert on.empty == off.empty


# --------------------------------------------------------------------- #
# constraint narrowing in the lasso enumeration
# --------------------------------------------------------------------- #


class _BanState:
    """Stub filter: prune any path whose word visits the banned state."""

    def __init__(self, banned):
        self.banned = banned

    def empty(self):
        return ()

    def step(self, filter_state, symbol):
        state, _guard = symbol
        return None if state == self.banned else filter_state


def _pair_buchi():
    """SControl-shaped Buchi: states and symbols are (state, guard) pairs."""
    a, b, c = ("a", "ga"), ("b", "gb"), ("c", "gc")
    return BuchiAutomaton(
        {a: {a: {b, c}}, b: {b: {a}}, c: {c: {a}}},
        initial={a},
        accepting={a},
    )


class TestNarrowedEnumeration:
    def test_filter_only_skips_and_keeps_order(self):
        buchi = _pair_buchi()
        everything = list(buchi.iter_accepted_lassos(3, 2))
        narrowed = list(
            buchi.iter_accepted_lassos(3, 2, narrow=_BanState("b"))
        )
        banned = lambda lasso: any(
            state == "b" for state, _ in tuple(lasso.prefix) + tuple(lasso.period)
        )
        assert narrowed == [lasso for lasso in everything if not banned(lasso)]
        assert any(banned(lasso) for lasso in everything)  # filter had work

    def test_none_narrow_is_the_identity(self):
        buchi = _pair_buchi()
        assert list(buchi.iter_accepted_lassos(3, 2, narrow=None)) == list(
            buchi.iter_accepted_lassos(3, 2)
        )

    def test_narrowing_mirrors_the_consistency_walk(self):
        extended, *_ = _example23(True)
        for control in _normal_controls(extended):
            narrow = control.build_narrowing()
            assert narrow is not None
            words = _control_words(control, ("q1", "q2", "q2", "q1"))
            assert words
            for word in words:
                fstate = narrow.empty()
                for symbol in word[:-1]:
                    fstate = narrow.step(fstate, symbol)
                    assert fstate is not None
                # Closing the q1 q2+ q1 factor forces register 1 equal
                # across it: the "neq" constraint is violated inside the
                # word, so the whole subtree is pruned.
                assert narrow.step(fstate, word[-1]) is None
            assert narrow.paths_pruned == len(words)

    def test_narrowing_none_without_inequality_constraints(self):
        extended, *_ = _example23(False)
        for control in _normal_controls(extended):
            assert control.build_narrowing() is None


def _normal_controls(extended):
    """Both normal forms of *extended*: the literal control and the kernel."""
    kernel = build_kernel(extended)
    assert kernel is not None
    return LiteralControl(extended), kernel


def _control_words(control, shape):
    """Every ``SControl`` word of *control* whose original states spell *shape*."""

    def original_state(symbol):
        if isinstance(control, SymbolicKernel):
            symbol = control.decode_node(int(symbol[1:]))
        (state, _completion), _guard = symbol
        return state

    buchi = control.buchi
    words = [(symbol,) for symbol in sorted(buchi.initial, key=repr)]
    words = [word for word in words if original_state(word[0]) == shape[0]]
    for state in shape[1:]:
        words = [
            word + (symbol,)
            for word in words
            # SControl reads its state: the symbol after a pair is its successor.
            for symbol in sorted(buchi.successors(word[-1], word[-1]), key=repr)
            if original_state(symbol) == state
        ]
    return words


# --------------------------------------------------------------------- #
# end-to-end: pruning never changes the answer, never checks more
# --------------------------------------------------------------------- #


def _fingerprint(result):
    witness = result.witness
    return (
        result.empty,
        result.exact,
        result.max_prefix,
        result.max_cycle,
        None if witness is None else witness.trace,
    )


def _compare_modes(extended, max_prefix=2, max_cycle=4):
    """check_emptiness with and without pruning; assert the contract."""
    pruned = check_emptiness(extended, max_prefix=max_prefix, max_cycle=max_cycle)
    with without_pruning():
        baseline = check_emptiness(
            extended, max_prefix=max_prefix, max_cycle=max_cycle
        )
    assert _fingerprint(pruned) == _fingerprint(baseline)
    assert pruned.candidates_checked <= baseline.candidates_checked
    return pruned, baseline


class TestPruningSoundEndToEnd:
    def test_example23_both_verdicts(self):
        for constrained in (False, True):
            extended, *_ = _example23(constrained)
            pruned, _ = _compare_modes(extended)
            assert pruned.empty == constrained

    def test_narrowing_strictly_shrinks_the_search(self):
        extended, *_ = _example23(True)
        pruned, baseline = _compare_modes(extended)
        assert pruned.candidates_checked < baseline.candidates_checked

    def test_funnel_with_junk_subgraph(self):
        factor = concat(literal("q0"), plus(literal("q1")), literal("q2"))
        extended = ExtendedAutomaton(
            funnel(), [GlobalConstraint("neq", 1, 2, factor)]
        )
        _compare_modes(extended)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_pruning_sound_on_random_extended_automata(seed):
    """The headline property: pruning never changes the answer.

    Verdict, exactness, bounds and the winning witness trace are identical
    with pruning on and off, and the pruned run never checks more
    candidates.  Instances are small enough to stay far below the
    candidate cap, where the contract is exact.  Inequality constraints
    only: the narrowing targets them, and planted equality constraints
    route through the (exponential) Proposition 6 elimination, which makes
    random instances intractably slow regardless of pruning.
    """
    extended = random_extended_automaton(
        random.Random(seed),
        k=2,
        n_states=3,
        n_transitions=4,
        n_constraints=2,
        equality_fraction=0.0,
    )
    pruned, baseline = _compare_modes(extended, max_prefix=1, max_cycle=3)
    if not pruned.empty:
        assert pruned.witness.trace == baseline.witness.trace
