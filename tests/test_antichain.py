"""Antichain dataflow domain (PR 6): partition codes, subsumption, high k.

Five layers, tested bottom-up:

* the partition-code tables of ``repro.logic.types`` -- Bell counts,
  encode/decode roundtrips, and literal-for-literal agreement with the
  legacy ``completions`` enumeration (the byte-identity anchor);
* the generic :class:`~repro.analysis.dataflow.framework.SubsumptionLattice`;
* the cache-correctness regressions: mode listeners drop the
  ``_COMPLETE_X_TYPES`` table (and the decode cache) on an interning flip;
* antichain == explicit -- every query of :class:`ReachableTypes` agrees
  with the explicit Bell(k) oracle ``tests.helpers.explicit_reachable_types``
  on random automata (k <= 5, where the explicit domain is tolerable);
* end-to-end at high k: DF001/DF002/DF004 fire on 7..12-register
  automata, and ``check_emptiness`` at k = 8 is invariant under pruning
  (``tests.helpers.without_pruning``) and ``REPRO_WORKERS``.
"""

import os
import random
from contextlib import contextmanager

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
from repro.analysis import analyze
from repro.analysis.dataflow import (
    MAX_REGISTERS,
    SubsumptionLattice,
    analyze_reachable_types,
    reachable_types_outcome,
)
from repro.automata.regex import concat, literal
from repro.core.parallel import shutdown_executor
from repro.foundations.interning import clear_intern_tables, interning
from repro.foundations.memo import clear_value_caches
from repro.foundations.resilience import OutcomeStatus
from repro.generators import random_register_automaton
from repro.logic.terms import x_vars
from repro.logic.types import (
    all_pairs_mask,
    closure_mask,
    complete_equality_x_types,
    decode_partition_code,
    enumerate_interval_codes,
    interval_contains,
    interval_size,
    pair_bit,
    pair_bits,
    partition_code,
    successor_atoms,
)
from tests.helpers import explicit_reachable_types, without_pruning

EMPTY = Signature.empty()

#: Bell numbers B(1)..B(8): the sizes of the complete-x-type domains.
BELL = (1, 2, 5, 15, 52, 203, 877, 4140)


@contextmanager
def _env(**overrides):
    """Pin environment knobs for one block (``None`` unsets a variable)."""
    previous = {name: os.environ.get(name) for name in overrides}
    for name, value in overrides.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    try:
        yield
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def ra(k, states, initial, accepting, transitions):
    return RegisterAutomaton(k, EMPTY, states, initial, accepting, transitions)


def _funnel(k):
    """init --all-equal--> narrow --x1!=x2--> dead: DF001/DF002/DF004 bait.

    The FORCE guard collapses every register into one class, so at
    ``narrow`` all pairs are provably aliased (DF004), the SPLIT edge can
    never fire (DF001) and ``dead`` is graph-reachable yet valid-run
    unreachable (DF002).  Guards mention at most two x-registers (the
    y-chains are free), so the sigma-reduction keeps every transfer at
    Bell(2) no matter how large k grows -- this family is what makes the
    12-register cap testable at all.
    """
    y_chain = [eq(Y(i), Y(i + 1)) for i in range(1, k)]
    force = SigmaType(y_chain)
    keep = SigmaType([eq(X(1), Y(1))] + y_chain)
    split = SigmaType([neq(X(1), X(2)), eq(X(1), Y(1))] + y_chain)
    return ra(
        k,
        {"init", "narrow", "dead"},
        {"init"},
        {"narrow"},
        [
            ("init", force, "narrow"),
            ("narrow", keep, "narrow"),
            ("narrow", split, "dead"),
            ("dead", keep, "dead"),
        ],
    )


# --------------------------------------------------------------------- #
# partition codes
# --------------------------------------------------------------------- #


class TestPartitionCodes:
    def test_pair_tables(self):
        assert pair_bits(3) == ((1, 2), (1, 3), (2, 3))
        assert pair_bit(2, 3, 3) == 2
        assert pair_bit(3, 2, 3) == 2  # order-insensitive
        assert all_pairs_mask(4) == (1 << 6) - 1

    def test_closure_mask_is_transitive(self):
        k = 4
        mask = 1 << pair_bit(1, 2, k) | 1 << pair_bit(2, 3, k)
        closed = closure_mask(mask, k)
        assert closed >> pair_bit(1, 3, k) & 1
        assert not closed >> pair_bit(1, 4, k) & 1

    def test_bell_counts(self):
        for k, bell in enumerate(BELL, start=1):
            assert interval_size(0, 0, k) == bell

    def test_codes_roundtrip_through_decode(self):
        for k in range(1, 6):
            for code in enumerate_interval_codes(0, 0, k):
                assert partition_code(decode_partition_code(code, k), k) == code

    def test_decode_replays_legacy_completions_exactly(self):
        # The byte-identity anchor: the code tables must reproduce the old
        # ``completions``-based enumeration literal for literal, in order.
        for k in range(1, 6):
            legacy = tuple(SigmaType([]).completions({}, tuple(x_vars(k))))
            rebuilt = complete_equality_x_types(k)
            assert [phi.literals for phi in rebuilt] == [
                phi.literals for phi in legacy
            ]

    def test_interval_containment(self):
        k = 3
        bit12 = 1 << pair_bit(1, 2, k)
        bit13 = 1 << pair_bit(1, 3, k)
        assert interval_contains((0, 0), (bit12, bit13))
        assert interval_contains((bit12, 0), (bit12, bit13))
        assert not interval_contains((bit12, 0), (bit13, 0))
        assert not interval_contains((0, bit13), (0, 0))

    def test_inconsistent_interval_is_empty(self):
        k = 3
        eq_mask = 1 << pair_bit(1, 2, k) | 1 << pair_bit(2, 3, k)
        neq_mask = 1 << pair_bit(1, 3, k)  # contradicts the closure
        assert interval_size(eq_mask, neq_mask, k) == 0

    def test_successor_atoms_ignore_unmentioned_registers(self):
        # The sigma-reduction: a guard over x1/x2 yields the same atoms no
        # matter how registers 3..k are related in the source interval.
        k = 4
        guard = SigmaType([eq(X(1), X(2)), eq(X(1), Y(1))])
        bit34 = 1 << pair_bit(3, 4, k)
        assert successor_atoms(0, 0, guard, k) == successor_atoms(
            bit34, 0, guard, k
        )


# --------------------------------------------------------------------- #
# the subsumption lattice
# --------------------------------------------------------------------- #


def _covers(outer, inner):
    """Bitmask superset: the partial order for the lattice unit tests."""
    return outer & inner == inner


class TestSubsumptionLattice:
    def test_prune_keeps_only_maximal_elements(self):
        lattice = SubsumptionLattice(_covers)
        assert lattice.prune([0b01, 0b11, 0b10, 0b01]) == frozenset({0b11})
        assert lattice.prune([0b01, 0b10]) == frozenset({0b01, 0b10})

    def test_join_is_union_plus_prune(self):
        lattice = SubsumptionLattice(_covers)
        left = frozenset({0b01})
        right = frozenset({0b11, 0b100})
        assert lattice.join(left, right) == frozenset({0b11, 0b100})
        assert lattice.join(left, left) is left  # equal values short-circuit

    def test_leq_means_every_element_subsumed(self):
        lattice = SubsumptionLattice(_covers)
        assert lattice.leq(frozenset(), frozenset({0b1}))
        assert lattice.leq(frozenset({0b01}), frozenset({0b11}))
        assert not lattice.leq(frozenset({0b100}), frozenset({0b11}))

    def test_bottom_is_empty(self):
        assert SubsumptionLattice(_covers).bottom() == frozenset()


# --------------------------------------------------------------------- #
# cache correctness across interning flips
# --------------------------------------------------------------------- #


class TestModeFlipRegression:
    def test_complete_types_table_dropped_on_interning_flip(self):
        # The historical bug: ``_COMPLETE_X_TYPES`` was keyed only by k, so
        # a flip of REPRO_INTERN kept handing out types built under the
        # other mode, breaking identity-is-equality for everything
        # downstream.  The mode listener must drop the table on the flip.
        with interning(True):
            interned = complete_equality_x_types(4)
            assert complete_equality_x_types(4) is interned  # memo hit
            with interning(False):
                plain = complete_equality_x_types(4)
                assert plain is not interned
                assert [phi.pretty() for phi in plain] == [
                    phi.pretty() for phi in interned
                ]
            rebuilt = complete_equality_x_types(4)
            assert rebuilt is not plain  # ablated tuple dropped on exit

    def test_decode_cache_dropped_on_interning_flip(self):
        with interning(True):
            first = decode_partition_code(0, 3)
            assert decode_partition_code(0, 3) is first
            with interning(False):
                ablated = decode_partition_code(0, 3)
                assert ablated == first
                assert ablated is not first

    def test_clear_intern_tables_also_fires_the_listeners(self):
        with interning(True):
            before = complete_equality_x_types(3)
            clear_intern_tables()
            after = complete_equality_x_types(3)
            assert after is not before
            assert after == before


# --------------------------------------------------------------------- #
# antichain == explicit
# --------------------------------------------------------------------- #


def _fingerprint(types):
    """Every observable query of the analysis, in deterministic order."""
    automaton = types.automaton
    rows = []
    for state in sorted(automaton.states, key=repr):
        rows.append(
            (
                state,
                sorted(phi.pretty() for phi in types.types_at(state)),
                types.forced_equalities(state),
                types.is_reachable(state),
            )
        )
    return (
        tuple(rows),
        tuple((repr(t), types.feasible(t)) for t in automaton.transitions),
        types.unreachable_states(),
        tuple(repr(t) for t in types.infeasible_transitions()),
    )


def _assert_matches_oracle(automaton):
    """Fingerprints agree, and each witness path is certified by the oracle."""
    types = analyze_reachable_types(automaton)
    oracle = explicit_reachable_types(automaton)
    assert _fingerprint(types) == _fingerprint(oracle)
    for state in sorted(automaton.states, key=repr):
        witness = types.witness_path(state)
        if witness is None:
            assert not oracle.is_reachable(state)
        else:
            assert oracle.certifies(witness, state)


class TestAntichainMatchesExplicit:
    def test_funnel_fingerprints_agree(self):
        _assert_matches_oracle(_funnel(4))

    @settings(
        deadline=None,
        max_examples=30,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(2, 5),
        n_states=st.integers(2, 4),
        n_transitions=st.integers(3, 8),
    )
    def test_random_automata_fingerprints_agree(
        self, seed, k, n_states, n_transitions
    ):
        _assert_matches_oracle(
            random_register_automaton(
                random.Random(seed),
                k=k,
                n_states=n_states,
                n_transitions=n_transitions,
            )
        )


# --------------------------------------------------------------------- #
# end-to-end at high register counts
# --------------------------------------------------------------------- #


class TestHighRegisterEndToEnd:
    def test_df_passes_fire_at_seven_registers(self):
        k = 7
        report = analyze(
            _funnel(k), only=["dataflow-feasibility", "dataflow-constancy"]
        )
        by_code = {}
        for diagnostic in report.diagnostics:
            by_code.setdefault(diagnostic.code, []).append(diagnostic)
        assert sorted(by_code) == ["DF001", "DF002", "DF004"]
        [infeasible] = by_code["DF001"]
        assert "narrow" in infeasible.location and "dead" in infeasible.location
        assert infeasible.data["proof"]["refuted_types"]
        assert infeasible.data["witness_to_source"] is not None
        [unreachable] = by_code["DF002"]
        assert "dead" in unreachable.location
        [constancy] = by_code["DF004"]
        assert constancy.data["pairs"] == [
            [i, j] for i in range(1, k + 1) for j in range(i + 1, k + 1)
        ]

    def test_df_passes_fire_at_eight_registers(self):
        report = analyze(
            _funnel(8), only=["dataflow-feasibility", "dataflow-constancy"]
        )
        assert sorted({d.code for d in report.diagnostics}) == [
            "DF001",
            "DF002",
            "DF004",
        ]

    def test_ten_registers_solve_through_the_interval_frontier(self):
        # Bell(10) = 115975: materialising the explicit domain (or even
        # one witness frontier) is out of the question, so this exercises
        # exactly the queries that stay on the interval representation.
        k = 10
        outcome = reachable_types_outcome(_funnel(k))
        assert outcome.ok
        types = outcome.value
        assert types.is_reachable("narrow")
        assert not types.is_reachable("dead")
        assert types.unreachable_states() == ("dead",)
        assert {(t.source, t.target) for t in types.infeasible_transitions()} == {
            ("narrow", "dead"),
            ("dead", "dead"),
        }
        assert types.forced_equalities("narrow") == tuple(
            (i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)
        )
        assert types.forced_equalities("init") == ()
        # The one reachable non-top state materialises to a single type.
        [narrow_type] = types.types_at("narrow")
        assert narrow_type.entails(eq(X(1), X(k)))

    def test_register_cap_is_now_twelve(self):
        assert MAX_REGISTERS >= 10
        assert reachable_types_outcome(_funnel(MAX_REGISTERS)).ok
        declined = reachable_types_outcome(_funnel(MAX_REGISTERS + 1))
        assert declined.status is OutcomeStatus.DEGRADED
        assert declined.stats["reason"] == "register-cap"


# --------------------------------------------------------------------- #
# pruning and worker parity at k = 8
# --------------------------------------------------------------------- #


def _complete_k8_extended():
    """An eight-register extended automaton whose guards are complete.

    Complete guards keep the emptiness pipeline off the ``completed()``
    blow-up (Bell(2k) splits per transition), and one outgoing guard per
    state keeps ``state_driven()`` a no-op -- so normalisation is the
    identity whether or not the pruner ran, and the two modes' witnesses
    can be compared byte for byte.  ``mid``'s only guard requires
    ``x1 != x2`` where all registers are provably equal, so ``mid`` is a
    reachable dead end and ``junk`` is dead -- pruned by default, walked
    without pruning; verdict and witness must not move.
    """
    k = 8
    chain = lambda terms: [eq(a, b) for a, b in zip(terms, terms[1:])]
    xs = [X(i) for i in range(1, k + 1)]
    ys = [Y(i) for i in range(1, k + 1)]
    all_equal = SigmaType(chain(xs + ys))
    x1_apart = SigmaType(chain(xs[1:] + ys) + [neq(X(1), X(2))])
    automaton = ra(
        k,
        {"q0", "q1", "mid", "junk"},
        {"q0"},
        {"q1", "junk"},
        [
            ("q0", all_equal, "q1"),
            ("q0", all_equal, "mid"),
            ("q1", all_equal, "q1"),
            ("mid", x1_apart, "junk"),
            ("junk", x1_apart, "junk"),
        ],
    )
    factor = concat(literal("q0"), literal("q0"))  # never matches
    return ExtendedAutomaton(automaton, [GlobalConstraint("neq", 1, 1, factor)])


def _emptiness_fingerprint(result):
    witness = result.witness
    return (
        result.empty,
        result.exact,
        result.max_prefix,
        result.max_cycle,
        None if witness is None else witness.trace,
    )


def _decide_k8(**overrides):
    with _env(**overrides):
        clear_value_caches()
        clear_intern_tables()
        try:
            return check_emptiness(
                _complete_k8_extended(), max_prefix=3, max_cycle=3
            )
        finally:
            shutdown_executor()


class TestKnobParityAtEightRegisters:
    def test_prune_parity(self):
        pruned = _decide_k8()
        with without_pruning():
            baseline = _decide_k8()
        assert not pruned.empty
        assert _emptiness_fingerprint(pruned) == _emptiness_fingerprint(baseline)
        assert pruned.candidates_checked <= baseline.candidates_checked

    def test_worker_parity(self):
        serial = _decide_k8(REPRO_WORKERS="1")
        parallel = _decide_k8(REPRO_WORKERS="2")
        assert _emptiness_fingerprint(serial) == _emptiness_fingerprint(parallel)
