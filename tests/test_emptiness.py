"""Tests for emptiness of extended automata (Theorem 9 / Corollary 10)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
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
    check_emptiness,
    eq,
    has_run,
    neq,
    rel,
    verify,
)
from repro.automata.regex import any_of, concat, literal, plus, star
from repro.automata.words import Lasso
from repro.core.emptiness import LiteralControl, clique_number
from repro.core.extended import eliminate_equality_constraints, normalize_control
from repro.core.symkernel import build_kernel
from repro.core.tracewindow import TraceWindow
from repro.generators import random_extended_automaton
from repro.logic.formulas import atom_eq
from repro.ltl import Globally, Prop
from tests.helpers import witness_on_original, without_register_scopes, without_symkernel

EMPTY = SigmaType()


class TestCliqueNumber:
    def test_empty_graph(self):
        assert clique_number([], set()) == 0

    def test_triangle(self):
        edges = {(1, 2), (2, 3), (1, 3)}
        assert clique_number([1, 2, 3, 4], edges) == 3

    def test_bipartite(self):
        edges = {(1, 3), (1, 4), (2, 3), (2, 4)}
        assert clique_number([1, 2, 3, 4], edges) == 2


class TestNoConstraints:
    def test_plain_automaton_nonempty(self, example1_automaton):
        result = check_emptiness(ExtendedAutomaton(example1_automaton, []))
        assert not result.empty
        assert result.exact

    def test_unreachable_acceptance_empty(self):
        automaton = RegisterAutomaton(
            1, Signature.empty(), {"a", "b"}, {"a"}, {"b"}, [("a", EMPTY, "a")]
        )
        result = check_emptiness(ExtendedAutomaton(automaton, []))
        assert result.empty and result.exact


class TestExample7:
    def test_all_distinct_nonempty(self, example7_extended):
        result = check_emptiness(example7_extended)
        assert not result.empty
        assert result.exact

    def test_no_data_periodic_witness(self, example7_extended):
        """Example 7 has runs but no ultimately periodic (in data) run."""
        result = check_emptiness(example7_extended)
        assert result.witness.lasso_run() is None

    def test_finite_witnesses_are_valid_and_distinct(self, example7_extended):
        result = check_emptiness(example7_extended)
        for length in (3, 7, 12):
            database, run = result.witness.finite_witness(length)
            assert len(run) == length
            assert run.is_valid(result.witness.normalised.automaton, database)
            values = [row[0] for row in run.data]
            assert len(set(values)) == length  # all pairwise distinct

    def test_contradictory_constraints_empty(self, example7_extended):
        base = example7_extended.automaton
        all_pairs = concat(literal("q"), plus(literal("q")))
        contradictory = ExtendedAutomaton(
            base,
            list(example7_extended.constraints)
            + [GlobalConstraint("eq", 1, 1, all_pairs)],
        )
        result = check_emptiness(contradictory)
        assert result.empty


class TestExample8:
    def test_with_breaks_nonempty(self, example8_extended):
        """(p q)^omega-style traces are realisable over a finite database."""
        result = check_emptiness(example8_extended, max_prefix=1, max_cycle=4)
        assert not result.empty
        out = result.witness.lasso_run()
        assert out is not None
        database, run = out
        assert run.is_valid(result.witness.normalised.automaton, database)

    def test_p_only_empty(self, example8_p_only):
        """p^omega demands infinitely many distinct values inside finite P."""
        result = check_emptiness(example8_p_only, max_prefix=1, max_cycle=3)
        assert result.empty

    def test_has_run_wrapper(self, example8_extended, example8_p_only):
        assert has_run(example8_extended, max_prefix=1, max_cycle=4)
        assert not has_run(example8_p_only, max_prefix=1, max_cycle=3)


def _p_only():
    """Example 8's p-only restriction with a p p+ p factor: no candidate realises."""
    signature = Signature(relations={"P": 1})
    guard = SigmaType([rel("P", X(1))])
    base = RegisterAutomaton(1, signature, {"p"}, {"p"}, {"p"}, [("p", guard, "p")])
    factor = concat(literal("p"), plus(literal("p")), literal("p"))
    return ExtendedAutomaton(base, [GlobalConstraint("neq", 1, 1, factor)])


class TestCandidateCap:
    def test_cap_counts_the_first_candidate_past_it(self):
        """Stopping at ``max_candidates`` reports cap + 1 candidates checked.

        The first unique candidate past the cap is counted though never
        checked; a cap the enumeration never reaches reports the true count.
        """
        extended = _p_only()
        full = check_emptiness(extended)
        n = full.candidates_checked
        assert (n, full.verdict) == (163, "unknown")
        for cap in (1, 5, n - 1):
            result = check_emptiness(extended, max_candidates=cap)
            assert result.candidates_checked == cap + 1
            assert result.verdict == "unknown"
        for cap in (n, n + 1):
            assert check_emptiness(extended, max_candidates=cap).candidates_checked == n


def _cycle_never_closes():
    """A constrained automaton whose ``SControl`` accepts no lasso.

    Every state lies on the cycle ``q0 q1 q2``, so pruning and trim keep
    them all, but the cycle cannot repeat: ``q0`` is entered with its two
    registers unequal (``y1 != y2``) and leaves only with them equal
    (``x1 = x2``).
    """
    automaton = RegisterAutomaton(
        2,
        Signature.empty(),
        {"q0", "q1", "q2"},
        {"q0"},
        {"q0"},
        [
            ("q0", SigmaType([eq(X(1), X(2)), eq(Y(1), Y(2))]), "q1"),
            ("q1", SigmaType([neq(X(1), Y(1))]), "q2"),
            ("q2", SigmaType([neq(Y(1), Y(2))]), "q0"),
        ],
    )
    factor = concat(literal("q0"), plus(literal("q1")), literal("q2"))
    return ExtendedAutomaton(automaton, [GlobalConstraint("neq", 1, 2, factor)])


class TestEndRule:
    """When no candidate is realisable, "empty" is exact iff no lasso is accepted."""

    def test_no_accepting_lasso_is_exact_empty(self):
        extended = _cycle_never_closes()
        with without_symkernel():
            literal = check_emptiness(extended)
        for result in (check_emptiness(extended), literal):
            assert result.verdict == "empty" and result.exact
            assert result.candidates_checked == 0
            assert (result.max_prefix, result.max_cycle) == (2, 6)

    def test_verify_holds_exactly_without_accepting_lasso(self):
        sentence = LtlFoSentence(
            skeleton=Globally(Prop("eq12")),
            propositions={"eq12": atom_eq(X(1), X(2))},
        )
        result = verify(_cycle_never_closes(), sentence)
        assert result.holds and result.exact

    def test_example8_p_only_stays_unknown(self, example8_p_only):
        """The quasi-regular boundary: lassos are accepted, none is realisable."""
        result = check_emptiness(example8_p_only, max_prefix=1, max_cycle=3)
        assert result.verdict == "unknown"
        without_eq, _k = eliminate_equality_constraints(example8_p_only)
        assert LiteralControl(without_eq).buchi.find_accepted_lasso() is not None


# --------------------------------------------------------------------- #
# ground truth for the corridor walk and the narrowing filter
# --------------------------------------------------------------------- #


class _RecordingNarrowing:
    """Wraps a narrowing filter; records each word it steps to and its answer."""

    def __init__(self, inner):
        self.inner = inner
        self.steps = []

    def empty(self):
        return (self.inner.empty(), ())

    def step(self, fstate, symbol):
        inner_state, word = fstate
        word = word + (symbol,)
        following = self.inner.step(inner_state, symbol)
        self.steps.append((word, following is None))
        return None if following is None else (following, word)


def _window_conflict(normalised, trace, length):
    window = TraceWindow(
        trace,
        normalised.automaton.k,
        length=length,
        inequality_constraints=normalised.inequality_constraints(),
        states=normalised.automaton.states,
    )
    return window.conflict()


def _check_against_windows(without_eq, control, cap=10):
    """The control's candidate check and narrowing agree with union-find
    trace windows."""
    normalised = normalize_control(without_eq)
    k = normalised.automaton.k
    dfa_size = max(
        len(automaton.constraint_dfa(constraint).states)
        for automaton in (without_eq, normalised)
        for constraint in automaton.inequality_constraints()
    )
    check = control.candidate_check()
    for count, lasso in enumerate(control.buchi.iter_accepted_lassos(3, 1)):
        if count == cap:
            break
        trace = control.decode_lasso(lasso)
        # A violation lies within |Q_dfa| * 2^k * spine positions of its
        # start: a thread's (DFA state, corridor, offset in the spine)
        # repeats by then.
        spine = trace.spine_length()
        length = spine + dfa_size * 2 ** k * spine
        assert check(lasso) == (_window_conflict(normalised, trace, length) is None)

    recorder = _RecordingNarrowing(control.build_narrowing())
    for count, _lasso in enumerate(control.buchi.iter_accepted_lassos(3, 1, narrow=recorder)):
        if count == cap:
            break
    for word, pruned in recorder.steps[: 4 * cap]:
        trace = control.decode_lasso(Lasso(word[:-1], word[-1:]))
        conflict = _window_conflict(normalised, trace, len(word))
        assert pruned == (conflict is not None)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000), k=st.integers(min_value=1, max_value=2))
def test_walk_and_narrowing_agree_with_trace_windows(seed, k):
    """Ground truth for Theorem 9's consistency check, on both normal forms.

    Each candidate's verdict equals the absence of a conflict in a
    union-find window long enough to be exact, and the narrowing prunes a
    word exactly when that word's own window has a conflict.  The windows
    (:class:`repro.core.tracewindow.TraceWindow`) share only
    :func:`repro.core.caching.dead_states` with the consistency filter:
    both stop following a start position once its DFA run is dead.
    """
    extended = random_extended_automaton(
        random.Random(seed),
        k=k,
        n_states=3,
        n_transitions=4,
        n_constraints=2,
        equality_fraction=0.0,
    )
    without_eq, _k = eliminate_equality_constraints(extended)
    _check_against_windows(without_eq, LiteralControl(without_eq))
    kernel = build_kernel(without_eq)
    if kernel is not None:
        _check_against_windows(without_eq, kernel)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=1, max_value=2),
    n_states=st.integers(min_value=2, max_value=3),
    ending=st.booleans(),
)
def test_scoped_completion_against_original_and_unscoped(seed, k, n_states, ending):
    """Ground truth for the scoped normal form on equality constraints.

    Every nonempty witness, mapped back to the original states and
    registers, is a run of the original extended automaton that keeps
    every constraint, the equality ones included.  Wherever the unscoped
    normal form (``without_register_scopes()``) decides within its
    deadline, the verdicts are equal.  With *ending* the equality
    constraint is one over the factors ending in one state: its DFA has
    two states, so the unscoped form stays small enough to decide.
    """
    rng = random.Random(seed)
    extended = random_extended_automaton(
        rng, k=k, n_states=n_states, n_transitions=n_states + 1, n_constraints=2
    )
    if ending:
        states = sorted(extended.automaton.states)
        suffix = concat(star(any_of(states)), literal(rng.choice(states)))
        equality = GlobalConstraint("eq", rng.randrange(1, k + 1), rng.randrange(1, k + 1), suffix)
        extended = ExtendedAutomaton(
            extended.automaton, (equality,) + extended.inequality_constraints()
        )
    scoped = check_emptiness(extended, deadline=300)
    if scoped.witness is not None:
        database, run = witness_on_original(extended, scoped.witness, 6)
        assert run is not None and extended.is_run(run, database)
    with without_register_scopes():
        unscoped = check_emptiness(extended, deadline=100)
    if "unknown" not in (scoped.verdict, unscoped.verdict):
        assert scoped.verdict == unscoped.verdict


def test_one_letter_factor_is_caught_where_it_starts():
    """A constraint matched by a single position: ``x1 != x1`` at every ``q``.

    The violation lies at its start position, so the filter must check
    the thread it spawns before it advances it.  Random constraints almost
    never match one letter; this pins the case.
    """
    automaton = RegisterAutomaton(
        1,
        Signature.empty(),
        {"p", "q"},
        {"p"},
        {"p"},
        [("p", EMPTY, "p"), ("p", EMPTY, "q"), ("q", EMPTY, "p")],
    )
    extended = ExtendedAutomaton(automaton, [GlobalConstraint("neq", 1, 1, literal("q"))])
    without_eq, _k = eliminate_equality_constraints(extended)
    for control in (LiteralControl(without_eq), build_kernel(without_eq)):
        _check_against_windows(without_eq, control)


def test_factor_longer_than_the_period_is_caught_around_the_loop():
    """A constraint matched by four consecutive ``q`` only.

    On the one-letter loops of ``q`` the violating factor spans four
    periods, so the candidate check must go round the period until its
    filter state at the boundary repeats, not stop after one round.
    """
    automaton = RegisterAutomaton(1, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", EMPTY, "q")])
    four = concat(literal("q"), literal("q"), literal("q"), literal("q"))
    extended = ExtendedAutomaton(automaton, [GlobalConstraint("neq", 1, 1, four)])
    without_eq, _k = eliminate_equality_constraints(extended)
    for control in (LiteralControl(without_eq), build_kernel(without_eq)):
        _check_against_windows(without_eq, control)


class TestWitnessProjection:
    def test_witness_projects_to_original_arity(self, example7_extended):
        result = check_emptiness(example7_extended)
        _db, run = result.witness.finite_witness(5)
        projected = result.witness.project_to_original(run)
        assert all(len(row) == example7_extended.k for row in projected.data)
