"""Tests for the code-based normalisation kernel (``repro.core.symkernel``).

Three layers:

* completion codes (``repro.logic.types``): the code enumeration lists
  the partitions of the literal backtracking search in its order at
  k=3..6, and ``decode_code`` yields the canonical completion
  ``completions()`` yields -- the same object;
* the kernel graph (``repro.core.symkernel``): eligibility gates, and the
  id Buchi automaton is isomorphic -- via ``decode_node`` -- to the legacy
  ``scontrol_buchi`` of the normalised automaton;
* the routed pipeline (``repro.core.emptiness``): verdict, witness trace
  and ``candidates_checked`` byte-identical between the kernel and the
  literal path forced by ``tests.helpers.without_symkernel()`` on the
  paper fixtures, random automata, and automata with equality
  constraints (Proposition 6 elimination feeds the kernel).
"""

import random
from contextlib import nullcontext

import pytest

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
from repro.automata.regex import any_of, concat, literal, plus, star
from repro.core.extended import eliminate_equality_constraints, normalize_control
from repro.core.register_automaton import Transition
from repro.core.symbolic import scontrol_buchi
from repro.core.symkernel import build_kernel
from repro.foundations.interning import clear_intern_tables
from repro.foundations.memo import clear_value_caches
from repro.foundations.stats import cache_stats
from repro.generators import random_extended_automaton, random_register_automaton
from repro.logic.terms import x_vars, y_vars
from repro.logic.types import decode_code, guard_completion_search, pair_bits
from tests.helpers import witness_on_original, without_symkernel

EMPTY = SigmaType()


def _without_eq(extended):
    return eliminate_equality_constraints(extended)[0]


# --------------------------------------------------------------------- #
# completion codes vs the legacy enumeration
# --------------------------------------------------------------------- #


def _sample_guards(terms):
    """A few equality guards exercising entailed, asserted and open pairs."""
    guards = [EMPTY, SigmaType([eq(terms[0], terms[1])])]
    if len(terms) >= 3:
        guards.append(SigmaType([eq(terms[0], terms[1]), neq(terms[1], terms[2])]))
        guards.append(SigmaType([neq(terms[0], terms[2])]))
    if len(terms) >= 4:
        guards.append(
            SigmaType([eq(terms[0], terms[2]), eq(terms[1], terms[3]), neq(terms[0], terms[1])])
        )
    return guards


def _partition_code(completion, vocab):
    """The partition code of complete type *completion*, read off its closure."""
    return sum(
        1 << bit
        for bit, (i, j) in enumerate(pair_bits(len(vocab)))
        if completion.entails(eq(vocab[i - 1], vocab[j - 1]))
    )


def _assert_codes_match_literal_search(guard, vocab):
    # The literal backtracking search is the independent reference: the
    # codes list its leaves in order, and decoding a code rebuilds its
    # leaf's canonical literal set.
    reference = list(guard._enumerate_completions({}, vocab, ()))
    codes = guard_completion_search(guard, vocab)
    assert list(codes) == [_partition_code(leaf, vocab) for leaf in reference]
    assert len(set(codes)) == len(codes)
    for code, leaf in zip(codes, reference):
        decoded = decode_code(code, vocab)
        assert decoded.literals == leaf.literals
        assert repr(decoded) == repr(leaf)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_completion_codes_match_legacy_sequence(k):
    """Satellite: codes-vs-literal completion-sequence identity at k=3..6."""
    vocab = tuple(x_vars(k))
    for guard in _sample_guards(vocab):
        _assert_codes_match_literal_search(guard, vocab)


@pytest.mark.parametrize("k", [2, 3])
def test_completion_codes_match_legacy_xy_vocabulary(k):
    """The emptiness vocabulary x1..xk, y1..yk decodes identically too."""
    vocab = tuple(x_vars(k)) + tuple(y_vars(k))
    for guard in _sample_guards(vocab):
        _assert_codes_match_literal_search(guard, vocab)


def test_completion_codes_reject_relational_guards():
    from repro.foundations.errors import SpecificationError
    from repro.logic.literals import rel

    guard = SigmaType([rel("R", X(1))])
    with pytest.raises(SpecificationError):
        guard_completion_search(guard, tuple(x_vars(2)))


# --------------------------------------------------------------------- #
# kernel eligibility
# --------------------------------------------------------------------- #


def test_declines_relational_signature(example8_extended):
    assert build_kernel(_without_eq(example8_extended)) is None


def test_declines_complete_state_driven_automaton():
    # One state, one guard settling its single vocabulary pair: the legacy
    # normalisation is the identity, so there is no completion wall to skip.
    guard = SigmaType([eq(X(1), Y(1))])
    automaton = RegisterAutomaton(
        1, Signature.empty(), {"a"}, {"a"}, {"a"}, [("a", guard, "a")]
    )
    assert build_kernel(_without_eq(ExtendedAutomaton(automaton, []))) is None


def test_declines_k0():
    automaton = RegisterAutomaton(
        0, Signature.empty(), {"a"}, {"a"}, {"a"}, [("a", EMPTY, "a")]
    )
    assert build_kernel(_without_eq(ExtendedAutomaton(automaton, []))) is None


def test_builds_on_example7(example7_extended):
    kernel = build_kernel(_without_eq(example7_extended))
    assert kernel is not None
    # k=1: the empty guard has two completions (x1 = y1 / x1 != y1), both
    # control pairs of the state-driven completed automaton.
    assert kernel.stats["control_nodes"] == 2
    assert kernel.stats["completed_transitions"] == 2


# --------------------------------------------------------------------- #
# structural identity of the coded control graph
# --------------------------------------------------------------------- #


def _assert_buchi_isomorphic(kernel, legacy):
    mapping = {
        node_id: kernel.decode_node(int(node_id[1:]))
        for node_id in kernel.buchi.states()
    }
    assert set(mapping.values()) == set(legacy.states())
    assert {mapping[s] for s in kernel.buchi.initial} == set(legacy.initial)
    assert {mapping[s] for s in kernel.buchi.accepting} == set(legacy.accepting)
    for node_id, pair in mapping.items():
        coded = {mapping[t] for t in kernel.buchi.successors(node_id, node_id)}
        assert coded == set(legacy.successors(pair, pair))
    # Rank order replays legacy repr order: the id sequence sorted as the
    # Buchi searches sort it corresponds to the pair reprs sorted the same
    # way -- the replay invariant the candidate enumeration relies on.
    ids_sorted = sorted(mapping, key=repr)
    pairs_sorted = sorted(mapping.values(), key=repr)
    assert [mapping[node_id] for node_id in ids_sorted] == pairs_sorted


def test_kernel_buchi_matches_scontrol(example1_automaton, example5_extended):
    # Example 5 after Proposition 6: k = 5, each transition completed over
    # its scoped vocabulary on both sides.
    for extended in (ExtendedAutomaton(example1_automaton, []), example5_extended):
        without_eq, kept = eliminate_equality_constraints(extended)
        kernel = build_kernel(without_eq, kept)
        assert kernel is not None
        legacy = scontrol_buchi(normalize_control(without_eq, kept).automaton)
        _assert_buchi_isomorphic(kernel, legacy)


@pytest.mark.parametrize("seed", range(6))
def test_kernel_buchi_matches_scontrol_random(seed):
    rng = random.Random(seed)
    automaton = random_register_automaton(rng, k=2, n_states=3, n_transitions=4)
    extended = ExtendedAutomaton(automaton, [])
    kernel = build_kernel(_without_eq(extended))
    if kernel is None:  # already complete + state-driven: legacy identity
        return
    legacy = scontrol_buchi(normalize_control(_without_eq(extended)).automaton)
    _assert_buchi_isomorphic(kernel, legacy)


# --------------------------------------------------------------------- #
# routed pipeline: byte-identity between the kernel and the literal path
# --------------------------------------------------------------------- #


def _run_both(extended, **bounds):
    on = check_emptiness(extended, **bounds)
    with without_symkernel():
        off = check_emptiness(extended, **bounds)
    return on, off


def _assert_identical(on, off):
    assert on.verdict == off.verdict
    assert (on.empty, on.exact) == (off.empty, off.exact)
    assert on.candidates_checked == off.candidates_checked
    assert (on.max_prefix, on.max_cycle) == (off.max_prefix, off.max_cycle)
    if off.witness is None:
        assert on.witness is None
    else:
        assert on.witness.trace == off.witness.trace
        assert repr(on.witness.trace) == repr(off.witness.trace)


def test_ab_no_constraints(example1_automaton):
    on, off = _run_both(ExtendedAutomaton(example1_automaton, []))
    _assert_identical(on, off)
    assert not on.empty and on.candidates_checked == 1


def test_ab_example7(example7_extended):
    on, off = _run_both(example7_extended)
    _assert_identical(on, off)
    assert not on.empty


def test_prop6_elimination_feeds_eligible_automaton(example5_extended):
    """Proposition 6 elimination yields a kernel-eligible b-state automaton.

    The eliminated automaton is relation-free, constant-free and
    incomplete, so ``build_kernel`` accepts it rather than fall back.
    Elimination raises k to 5, and each guard is completed over its
    scoped vocabulary only: the registers a guard at its source or target
    mentions, never the Bell(10) = 115975 partitions of all ten variables.
    """
    without_eq, kept = eliminate_equality_constraints(example5_extended)
    automaton = without_eq.automaton
    assert (kept, automaton.k) == (1, 5)
    assert not automaton.signature.relations
    assert not automaton.signature.const_terms()
    assert not without_eq.equality_constraints()
    assert build_kernel(without_eq, kept) is not None


def test_ab_example5(example5_extended):
    """Example 5 is decided "nonempty", and its witness replays on it."""
    on, off = _run_both(example5_extended)
    _assert_identical(on, off)
    assert on.verdict == "nonempty"
    database, run = witness_on_original(example5_extended, on.witness, 8)
    assert run is not None and example5_extended.is_run(run, database)


def test_ab_relational_fallback(example8_extended):
    """Ineligible automata route through the unchanged legacy path."""
    on, off = _run_both(example8_extended, max_prefix=1, max_cycle=4)
    _assert_identical(on, off)
    assert not on.empty


def test_ab_empty_verdict():
    automaton = RegisterAutomaton(
        1, Signature.empty(), {"a", "b"}, {"a"}, {"b"}, [("a", EMPTY, "a")]
    )
    on, off = _run_both(ExtendedAutomaton(automaton, []))
    _assert_identical(on, off)
    assert on.empty and on.exact


def test_ab_contradictory_constraints():
    # Every cycle crosses the eq(x1, y1) edge, repeating the register value,
    # while the neq constraint demands all positions pairwise distinct.
    automaton = RegisterAutomaton(
        1,
        Signature.empty(),
        {"a", "b"},
        {"a"},
        {"a"},
        [("a", EMPTY, "b"), ("b", SigmaType([eq(X(1), Y(1))]), "a")],
    )
    anyc = any_of(["a", "b"])
    all_distinct = concat(anyc, plus(anyc))
    contradictory = ExtendedAutomaton(
        automaton, [GlobalConstraint("neq", 1, 1, all_distinct)]
    )
    on, off = _run_both(contradictory, max_prefix=1, max_cycle=3)
    _assert_identical(on, off)
    assert on.empty


@pytest.mark.parametrize("seed", range(10))
def test_ab_random_extended(seed):
    rng = random.Random(1000 + seed)
    k = rng.choice([1, 2])
    drawn = random_extended_automaton(
        rng,
        k=k,
        n_states=3,
        n_transitions=4,
        n_constraints=2,
        equality_fraction=0.0,
    )
    # Plus an equality constraint over the factors ending in one state: its
    # DFA has two states, so Proposition 6 adds two registers and the
    # literal leg stays small enough to run.
    states = sorted(drawn.automaton.states)
    ending = concat(star(any_of(states)), literal(rng.choice(states)))
    equality = GlobalConstraint("eq", rng.randrange(1, k + 1), rng.randrange(1, k + 1), ending)
    extended = ExtendedAutomaton(drawn.automaton, drawn.constraints + (equality,))
    on, off = _run_both(
        extended, max_prefix=1, max_cycle=3, max_candidates=200
    )
    _assert_identical(on, off)


def test_ab_k3_workload():
    """A k=3 witness-bearing workload: the Bell(6)=203-way completion."""
    guard = SigmaType([eq(X(1), Y(2))])
    automaton = RegisterAutomaton(
        3,
        Signature.empty(),
        {"a", "b"},
        {"a"},
        {"b"},
        [("a", guard, "b"), ("b", EMPTY, "a")],
    )
    pattern = concat(literal("a"), star(literal("b")), literal("a"))
    extended = ExtendedAutomaton(automaton, [GlobalConstraint("neq", 1, 2, pattern)])
    on, off = _run_both(extended, max_prefix=1, max_cycle=2, max_candidates=50)
    _assert_identical(on, off)


def test_ab_complete_non_canonical_guards():
    """Complete guards written in a non-canonical form are canonicalised.

    Every guard settles all of ``x1, x2, y1, y2`` but not in the literal
    form the completion search reaches, and state ``a`` fires two of them,
    so the automaton is complete but not state-driven and the kernel takes
    it.  The kernel decodes each node canonically; the literal path must
    complete the complete guards too, or its witness keeps them as written.
    """
    all_equal = SigmaType([eq(X(1), X(2)), eq(X(2), Y(1)), eq(Y(1), Y(2))])
    renewed = SigmaType([eq(X(1), X(2)), eq(Y(1), Y(2)), neq(X(2), Y(2))])
    automaton = RegisterAutomaton(
        2,
        Signature.empty(),
        {"a", "b"},
        {"a"},
        {"a"},
        [("a", all_equal, "b"), ("a", renewed, "a"), ("b", all_equal, "a")],
    )
    assert automaton.is_complete() and not automaton.is_state_driven()
    extended = ExtendedAutomaton(
        automaton, [GlobalConstraint("neq", 1, 1, concat(literal("a"), literal("a")))]
    )
    assert build_kernel(_without_eq(extended)) is not None
    on, off = _run_both(extended)
    _assert_identical(on, off)
    assert not on.empty


# --------------------------------------------------------------------- #
# what the kernel materialises
# --------------------------------------------------------------------- #


def _sigma_types_built(literal):
    """SigmaTypes constructed deciding a fresh k=3 loop from cold caches.

    The one guard, ``x1 = y1``, leaves every other pair open, so it has
    52 completions over the six variables.  Constructions are counted as
    misses of the ``SigmaType`` intern table.
    """
    clear_value_caches()
    clear_intern_tables()
    guard = SigmaType([eq(X(1), Y(1))])
    automaton = RegisterAutomaton(
        3, Signature.empty(), {"a"}, {"a"}, {"a"}, [("a", guard, "a")]
    )
    vocabulary = tuple(x_vars(3)) + tuple(y_vars(3))
    assert len(guard_completion_search(guard, vocabulary)) == 52
    stats = cache_stats("intern.SigmaType")
    before = stats.misses
    with without_symkernel() if literal else nullcontext():
        result = check_emptiness(ExtendedAutomaton(automaton, []))
    assert not result.empty
    return stats.misses - before


def test_kernel_materialises_no_completions():
    """The kernel enumerates completions as codes, never as SigmaTypes.

    The literal path builds every one of the 52 completions; the kernel
    builds at most a handful of objects, at least 5x fewer than the
    literal path (the bar E19 held), and fewer than the completions.
    """
    kernel = _sigma_types_built(literal=False)
    literal = _sigma_types_built(literal=True)
    assert literal >= 52
    assert kernel < 52
    assert 5 * kernel <= literal


# --------------------------------------------------------------------- #
# scoped completion: the views Proposition 6 used to put out of reach
# --------------------------------------------------------------------- #

#: Transitions after completing each view's Proposition 6 automaton over
#: its scoped vocabularies.  Completing over all 2k variables (k = 9, 11
#: and 9 after Proposition 6) is the Bell(2k) search that used to expire
#: before the first candidate, so a count that grows back is the wall.
VIEW_COMPLETED_TRANSITIONS = {"author": 12, "reviewer": 54, "example1": 273}


@pytest.fixture
def paper_views(example1_automaton):
    """``name -> (view, original automaton)`` for the three decided views."""
    from repro.core.projection import project_register_automaton
    from repro.workflows import manuscript_review_workflow, role_view

    spec = manuscript_review_workflow(with_database=False)
    workflow = spec.compile()
    return {
        "author": (role_view(spec, "author", ["reviewer"]).automaton, workflow),
        "reviewer": (role_view(spec, "reviewer", ["author"]).automaton, workflow),
        "example1": (project_register_automaton(example1_automaton, 1), example1_automaton),
    }


@pytest.mark.parametrize("name", sorted(VIEW_COMPLETED_TRANSITIONS))
def test_view_completion_is_scoped(paper_views, name):
    view, _original = paper_views[name]
    without_eq, kept = eliminate_equality_constraints(view)
    assert kept < without_eq.k
    kernel = build_kernel(without_eq, kept)
    assert kernel.stats["completed_transitions"] == VIEW_COMPLETED_TRANSITIONS[name]


@pytest.mark.parametrize("name", sorted(VIEW_COMPLETED_TRANSITIONS))
def test_view_decided_like_its_original(paper_views, name):
    """Each view is "nonempty" like its original, and its witness replays."""
    view, original = paper_views[name]
    on, off = _run_both(view)
    _assert_identical(on, off)
    assert on.verdict == "nonempty"
    assert check_emptiness(ExtendedAutomaton(original, [])).verdict == on.verdict
    database, run = witness_on_original(view, on.witness, 8)
    assert run is not None and view.is_run(run, database)


# --------------------------------------------------------------------- #
# a witness's normal form is its trace's
# --------------------------------------------------------------------- #


def _assert_trace_shaped(witness):
    """``witness.normalised`` holds the trace's states and steps, and replays."""
    trace = witness.trace
    pairs = trace.prefix + trace.period
    following = pairs[1:] + trace.period[:1]
    normalised = witness.normalised
    automaton = normalised.automaton
    assert automaton.states == frozenset(state for state, _guard in pairs)
    assert set(automaton.transitions) == {
        Transition(state, guard, target)
        for (state, guard), (target, _) in zip(pairs, following)
    }
    assert automaton.is_state_driven()
    assert pairs[0][0] in automaton.initial
    assert any(state in automaton.accepting for state, _guard in trace.period)
    database, run = witness.finite_witness(6)
    assert len(run) == 6
    assert run.is_valid(automaton, database) and normalised.satisfies_constraints(run)
    realised = witness.lasso_run()
    if realised is not None:
        database, run = realised
        assert normalised.is_run(run, database)


def _normal_form_fingerprint(witness):
    automaton = witness.normalised.automaton
    return (
        automaton.states,
        automaton.initial,
        automaton.accepting,
        frozenset(automaton.transitions),
        [(c.kind, c.i, c.j) for c in witness.normalised.constraints],
    )


def test_witness_normal_form_is_its_trace(example7_extended):
    kernel = check_emptiness(example7_extended).witness
    with without_symkernel():
        literal = check_emptiness(example7_extended).witness
    assert kernel.trace == literal.trace
    for witness in (kernel, literal):
        _assert_trace_shaped(witness)
        # All values distinct: runs exist, periodic ones do not.
        assert witness.lasso_run() is None
    assert _normal_form_fingerprint(kernel) == _normal_form_fingerprint(literal)
    for mine, theirs in zip(kernel.normalised.constraints, literal.normalised.constraints):
        assert kernel.normalised.constraint_dfa(mine).equivalent(
            literal.normalised.constraint_dfa(theirs)
        )


def test_witness_normal_form_is_its_trace_on_eq_draw():
    """A draw whose whole scoped normal form has 4,854 states.

    Its witness builds the two states its trace visits.  Under
    ``without_symkernel()`` the search itself builds the whole literal
    normal form, so only the kernel leg runs.
    """
    rng = random.Random(9)
    k = rng.choice([1, 2])
    n = rng.choice([2, 3])
    extended = random_extended_automaton(
        rng, k=k, n_states=n, n_transitions=n + 1, n_constraints=2, equality_fraction=0.5
    )
    witness = check_emptiness(extended).witness
    assert len(witness.normalised.automaton.states) == 2
    _assert_trace_shaped(witness)
    assert witness.lasso_run() is not None
    database, run = witness_on_original(extended, witness, 6)
    assert run is not None and extended.is_run(run, database)
