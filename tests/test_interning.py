"""Interning invariants (PR 3): identity, hashing, pickling.

The hash-consed logic kernel promises that structural equality *is*
identity for terms, literals and sigma-types.  These properties pin the
promise down:

* permutation identity -- a sigma-type built from any ordering of the
  same literal bag is the same object;
* hash stability -- hashes agree across construction orders;
* pickle safety -- values re-intern on unpickle, so a round trip yields
  the canonical instance;
* structural equality -- after ``clear_intern_tables()`` a rebuilt value
  is a new object that still compares, hashes and prints like the old
  one, and emptiness answers do not change.
"""

import pickle
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    SigmaType,
    X,
    Y,
    check_emptiness,
    eq,
    neq,
)
from repro.foundations.errors import InconsistentTypeError
from repro.foundations.interning import clear_intern_tables
from repro.generators import random_equality_type
from repro.logic.literals import EqAtom, Literal, RelAtom
from repro.logic.terms import Const, Var

# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #

terms = st.one_of(
    st.sampled_from([X(1), X(2), X(3), Y(1), Y(2), Y(3)]),
    st.sampled_from([Const("a"), Const("b")]),
)

equality_literals = st.builds(
    lambda left, right, positive: eq(left, right) if positive else neq(left, right),
    terms,
    terms,
    st.booleans(),
)

relational_literals = st.builds(
    lambda name, args, positive: Literal(RelAtom(name, tuple(args)), positive),
    st.sampled_from(["P", "R"]),
    st.lists(terms, min_size=1, max_size=2),
    st.booleans(),
)

literal_bags = st.lists(
    st.one_of(equality_literals, relational_literals), max_size=6
)


def _sigma(literals):
    """Build a SigmaType, skipping the (valid) inconsistent bags."""
    try:
        return SigmaType(literals)
    except InconsistentTypeError:
        return None


# --------------------------------------------------------------------- #
# identity and hashing
# --------------------------------------------------------------------- #


@given(literal_bags, st.randoms(use_true_random=False))
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_permutation_identity(literals, rng):
    """Any ordering of the same literal bag interns to the same object."""
    first = _sigma(literals)
    if first is None:
        return
    shuffled = list(literals)
    rng.shuffle(shuffled)
    second = _sigma(shuffled)
    assert second is first
    assert hash(second) == hash(first)
    assert repr(second) == repr(first)


@given(literal_bags)
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_duplicate_literals_collapse(literals):
    """Repeating literals does not change the interned value."""
    first = _sigma(literals)
    if first is None:
        return
    assert _sigma(literals + literals) is first


@given(equality_literals)
def test_literal_identity(lit):
    """Reconstructing a literal field by field yields the same object."""
    rebuilt = Literal(EqAtom(lit.atom.left, lit.atom.right), lit.positive)
    assert rebuilt is lit
    assert lit.negate().negate() is lit


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**32))
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_random_equality_type_hash_stable(k, seed):
    """Generator output re-interns to itself with a stable hash."""
    delta = random_equality_type(random.Random(seed), k)
    again = random_equality_type(random.Random(seed), k)
    assert again is delta
    assert hash(again) == hash(delta)


# --------------------------------------------------------------------- #
# pickling
# --------------------------------------------------------------------- #


@given(literal_bags)
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_pickle_reinterns(literals):
    """A pickle round trip returns the canonical interned instance."""
    value = _sigma(literals)
    if value is None:
        return
    clone = pickle.loads(pickle.dumps(value))
    assert clone is value
    for lit in value.literals:
        assert pickle.loads(pickle.dumps(lit)) is lit


def test_pickle_reinterns_terms():
    for term in (X(1), Y(2), Const("a")):
        assert pickle.loads(pickle.dumps(term)) is term


# --------------------------------------------------------------------- #
# structural equality once the tables are cleared
# --------------------------------------------------------------------- #


def _rebuild(value):
    """A structural copy of *value*, built bottom-up through the constructors."""
    if isinstance(value, (Var, Const)):
        return type(value)(value.name)
    if isinstance(value, EqAtom):
        return EqAtom(_rebuild(value.left), _rebuild(value.right))
    if isinstance(value, RelAtom):
        return RelAtom(value.relation, tuple(_rebuild(t) for t in value.args))
    if isinstance(value, Literal):
        return Literal(_rebuild(value.atom), value.positive)
    return SigmaType([_rebuild(lit) for lit in value.literals])


@given(literal_bags)
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_equality_stays_structural_across_a_table_clear(literals):
    """A value rebuilt after ``clear_intern_tables()`` equals the old one.

    The old instances stay alive but are no longer canonical, so this is
    how two equal values end up as different objects: ``==``, ``hash``
    and ``repr`` must not depend on identity, and a pickle round trip of
    the old value lands on the new canonical instance.
    """
    old = _sigma(literals)
    if old is None:
        return
    values = [old]
    values += sorted(old.literals, key=repr)
    values += sorted(old.terms, key=repr)
    clear_intern_tables()
    for before in values:
        after = _rebuild(before)
        assert after is not before
        assert after == before and before == after
        assert hash(after) == hash(before)
        assert repr(after) == repr(before)
        assert pickle.loads(pickle.dumps(before)) is after


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


def test_emptiness_unchanged_across_a_table_clear(example7_extended):
    before = check_emptiness(example7_extended)
    clear_intern_tables()
    after = check_emptiness(example7_extended)
    assert _fingerprint(after) == _fingerprint(before)
    assert repr(after.witness.trace) == repr(before.witness.trace)
