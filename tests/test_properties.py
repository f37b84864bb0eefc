"""Property-based tests (hypothesis) on the core data structures."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Lasso, RegisterAutomaton, SigmaType, Signature, X, Y, eq, neq
from repro.automata.regex import parse_regex
from repro.foundations.errors import InconsistentTypeError
from repro.generators import random_equality_type, random_register_automaton
from repro.logic.closure import EqualityClosure
from repro.ltl import ltl_to_buchi
from repro.ltl.syntax import (
    And_,
    Eventually,
    Globally,
    Next,
    Not_,
    Or_,
    Prop,
    Release,
    Until,
    nnf,
    satisfies,
)

# --------------------------------------------------------------------- #
# lassos
# --------------------------------------------------------------------- #

letters = st.sampled_from("abc")
lassos = st.builds(
    Lasso,
    st.lists(letters, max_size=4),
    st.lists(letters, min_size=1, max_size=4),
)


@given(lassos, st.integers(min_value=0, max_value=30))
def test_lasso_canonicalisation_preserves_letters(lasso, position):
    """The canonical form denotes the same omega-word."""
    rebuilt = Lasso(lasso.prefix, lasso.period)
    assert rebuilt[position] == lasso[position]


@given(
    st.lists(letters, max_size=3),
    st.lists(letters, min_size=1, max_size=3),
    st.integers(min_value=1, max_value=3),
)
def test_lasso_unrolling_is_identity(prefix, period, times):
    base = Lasso(prefix, period)
    unrolled = Lasso(tuple(prefix) + tuple(period) * times, period)
    assert base == unrolled


@given(lassos, st.integers(min_value=0, max_value=6))
def test_lasso_shift_semantics(lasso, count):
    shifted = lasso.shift(count)
    for offset in range(8):
        assert shifted[offset] == lasso[count + offset]


# --------------------------------------------------------------------- #
# equality types
# --------------------------------------------------------------------- #


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
def test_random_types_close_consistently(seed, k):
    """The closure of a satisfiable type never entails both l and not-l."""
    delta = random_equality_type(random.Random(seed), k)
    for literal in delta.literals:
        assert delta.entails(literal)
        assert not delta.entails(literal.negate())


@given(st.integers(min_value=0, max_value=10_000))
def test_completions_are_mutually_exclusive(seed):
    rng = random.Random(seed)
    delta = random_equality_type(rng, 2)
    variables = [X(1), X(2), Y(1), Y(2)]
    completions = list(delta.completions({}, variables))
    assert completions  # a satisfiable type always has a completion
    for index, one in enumerate(completions):
        assert one.is_complete({}, variables)
        for other in completions[index + 1 :]:
            merged = list(one.literals) + list(other.literals)
            assert not EqualityClosure(merged).is_consistent()


@given(st.integers(min_value=0, max_value=10_000))
def test_restriction_is_entailed(seed):
    rng = random.Random(seed)
    delta = random_equality_type(rng, 3)
    restricted = delta.restrict([X(1), X(2), Y(1), Y(2)])
    for literal in restricted.literals:
        assert delta.entails(literal)


# --------------------------------------------------------------------- #
# regular expressions / DFA
# --------------------------------------------------------------------- #

regex_texts = st.sampled_from(
    ["a", "ab", "a*", "(ab)*", "a|b", "(a|b)*a", "a(a|b)*b", "ab|ba", "a?b+"]
)
words = st.lists(st.sampled_from("ab"), max_size=6).map(tuple)


@given(regex_texts, words)
def test_dfa_agrees_with_nfa(text, word):
    expression = parse_regex(text)
    dfa = expression.to_dfa(alphabet="ab")
    assert dfa.accepts(word) == expression.to_nfa().accepts(word)


@given(regex_texts, words)
def test_complement_flips_membership(text, word):
    dfa = parse_regex(text).to_dfa(alphabet="ab")
    assert dfa.accepts(word) != dfa.complement().accepts(word)


@given(regex_texts, regex_texts, words)
def test_products_are_boolean(one, two, word):
    left = parse_regex(one).to_dfa(alphabet="ab")
    right = parse_regex(two).to_dfa(alphabet="ab")
    assert left.intersect(right).accepts(word) == (
        left.accepts(word) and right.accepts(word)
    )
    assert left.union(right).accepts(word) == (
        left.accepts(word) or right.accepts(word)
    )


@given(regex_texts, words)
def test_minimisation_preserves_language(text, word):
    dfa = parse_regex(text).to_dfa(alphabet="ab")
    assert dfa.minimize().accepts(word) == dfa.accepts(word)


# --------------------------------------------------------------------- #
# LTL translation vs the semantic oracle
# --------------------------------------------------------------------- #

p, q = Prop("p"), Prop("q")


def ltl_formulas(depth):
    leaf = st.sampled_from([p, q])
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(Not_, inner),
            st.builds(And_, inner, inner),
            st.builds(Or_, inner, inner),
            st.builds(Next, inner),
            st.builds(Until, inner, inner),
            st.builds(Release, inner, inner),
            st.builds(Globally, inner),
            st.builds(Eventually, inner),
        ),
        max_leaves=depth,
    )


ap_letters = st.sampled_from(
    [frozenset(), frozenset({"p"}), frozenset({"q"}), frozenset({"p", "q"})]
)
ap_words = st.builds(
    Lasso,
    st.lists(ap_letters, max_size=2),
    st.lists(ap_letters, min_size=1, max_size=3),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ltl_formulas(4), ap_words)
def test_ltl_translation_matches_oracle(formula, word):
    automaton, props = ltl_to_buchi(formula)
    projected = word.map(lambda letter: frozenset(letter) & props)
    assert automaton.accepts(projected) == satisfies(word, formula)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ltl_formulas(3), ap_words)
def test_nnf_preserves_semantics(formula, word):
    assert satisfies(word, formula) == satisfies(word, nnf(formula))


# --------------------------------------------------------------------- #
# register automata: Control = SControl on random instances
# --------------------------------------------------------------------- #


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=2))
def test_scontrol_lassos_realizable(seed, k):
    """Every sampled symbolic lasso of a random automaton is realisable."""
    from repro.core.symbolic import control_equals_scontrol_on_samples

    automaton = random_register_automaton(
        random.Random(seed), k=k, n_states=2, n_transitions=3
    )
    assert control_equals_scontrol_on_samples(
        automaton, max_prefix=1, max_cycle=3, limit=6
    )


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=1000))
def test_completion_preserves_runs(seed):
    """Runs of the original automaton are runs of the completed one (as sets
    of register traces, prefix-level check), at k = 1 and k = 2."""
    from repro import Database, generate_finite_runs
    from tests.helpers import canonical_trace

    database = Database(Signature.empty())
    for k, pool in ((1, ("a", "b")), (2, ("a", "b", "c"))):
        automaton = random_register_automaton(
            random.Random(seed), k=k, n_states=2, n_transitions=3
        )
        completed = automaton.completed()
        original = {
            canonical_trace(run.data)
            for run in generate_finite_runs(automaton, database, 3, pool=pool)
        }
        completed_traces = {
            canonical_trace(run.data)
            for run in generate_finite_runs(completed, database, 3, pool=pool)
        }
        assert original == completed_traces


# --------------------------------------------------------------------- #
# presentation invariance of the normal forms
# --------------------------------------------------------------------- #

#: The pipeline's ``ltl-verify`` templates over propositions p and q.
LTL_TEMPLATES = (
    lambda p, q: Eventually(p),
    lambda p, q: Globally(p),
    lambda p, q: Globally(Or_(Not_(p), Eventually(q))),
    lambda p, q: Globally(Eventually(p)),
    lambda p, q: Eventually(Globally(p)),
    lambda p, q: Globally(Or_(Not_(p), Eventually(Globally(q)))),
)


def _presentation_fingerprint(shown, registers, states, seed):
    """What must not depend on the presentation, read off copy *shown*."""
    from repro import ExtendedAutomaton, GlobalConstraint, check_emptiness
    from repro.core.extended import normalize_control
    from repro.core.symkernel import build_kernel
    from repro.core.verification import verify
    from repro.generators.automata import random_constraint_regex
    from repro.logic.formulas import atom_eq
    from repro.ltl.ltlfo import LtlFoSentence

    # Constraints and atoms are drawn from one stream per base instance,
    # over the presented states in original-name order, as the pipeline's
    # corpora draw them.
    draw = random.Random(seed)
    k = shown.k
    constraints = [
        GlobalConstraint(
            "neq",
            registers[draw.randrange(1, k + 1)],
            registers[draw.randrange(1, k + 1)],
            random_constraint_regex(draw, states),
        )
        for _ in range(draw.randint(0, 2))
    ]
    extended = ExtendedAutomaton(shown, constraints)
    kernel = build_kernel(extended)
    normalised = normalize_control(extended).automaton

    def atom():
        a, b = draw.randint(1, k), draw.randint(1, k)
        right = Y if draw.random() < 0.5 else X
        formula = atom_eq(X(registers[a]), right(registers[b]))
        return ~formula if draw.random() < 0.3 else formula

    template = draw.choice(LTL_TEMPLATES)
    sentence = LtlFoSentence(
        skeleton=template(Prop("p"), Prop("q")), propositions={"p": atom(), "q": atom()}
    )
    verified = verify(ExtendedAutomaton(shown, []), sentence)
    return (
        None if kernel is None else (kernel.stats["control_nodes"], kernel.stats["control_edges"]),
        (len(normalised.states), len(normalised.transitions)),
        check_emptiness(extended).verdict,
        verified.holds,
        verified.product_size if verified.holds else None,
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_normal_forms_independent_of_presentation(seed):
    """Renamed states, permuted registers and shuffled transitions change
    no kernel or normal-form size, no verdict and no holding product size:
    a complete type has one literal form, whichever guard it completes."""
    from tests.helpers import present

    rng = random.Random(seed)
    k = rng.choice((1, 2))
    n_states = rng.randint(2, 3)
    base = random_register_automaton(
        rng, k=k, n_states=n_states, n_transitions=n_states + rng.randint(0, 3)
    )
    fingerprints = {
        _presentation_fingerprint(*present(base, random.Random("%d:%d" % (seed, copy))), seed)
        for copy in range(3)
    }
    assert len(fingerprints) == 1
