"""LTL to Buchi translation (declarative tableau construction).

The classical construction: states are the locally consistent subsets
("atoms") of the closure of the NNF formula; transitions enforce the
expansion laws of X, U and R; a generalized Buchi acceptance set per until
subformula guarantees that promised eventualities are fulfilled.  The
result is degeneralised to a plain Buchi automaton whose alphabet is
``frozenset`` truth assignments over the formula's propositions.

Exponential in the formula, as it must be; the LTL-FO properties used for
workflow verification (Theorem 12) are small, so this is comfortably
practical.
"""

from itertools import chain, combinations
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.automata.buchi import BuchiAutomaton, GeneralizedBuchiAutomaton
from repro.ltl.syntax import (
    And_,
    FalseLtl,
    LtlFormula,
    Next,
    Not_,
    Or_,
    Prop,
    Release,
    TrueLtl,
    Until,
    nnf,
    subformulas,
)


def _powerset(items: List) -> Iterable[Tuple]:
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def _locally_consistent(atom: FrozenSet[LtlFormula], closure: Set[LtlFormula]) -> bool:
    """Local (boolean) consistency of a candidate tableau atom."""
    for node in closure:
        if isinstance(node, TrueLtl) and node not in atom:
            return False
        if isinstance(node, FalseLtl) and node in atom:
            return False
        if isinstance(node, Not_):
            # NNF: operand is a proposition
            if (node in atom) == (node.operand in atom):
                return False
        if isinstance(node, And_):
            if (node in atom) != (node.left in atom and node.right in atom):
                return False
        if isinstance(node, Or_):
            if (node in atom) != (node.left in atom or node.right in atom):
                return False
        if isinstance(node, Until):
            # expansion: U in atom requires right, or left now (the "next"
            # half is checked on transitions)
            if node in atom and not (node.right in atom or node.left in atom):
                return False
            if node.right in atom and node not in atom:
                return False
        if isinstance(node, Release):
            if node in atom and node.right not in atom:
                return False
            if node.right in atom and node.left in atom and node not in atom:
                return False
    return True


def _transition_consistent(
    source: FrozenSet[LtlFormula], target: FrozenSet[LtlFormula], closure: Set[LtlFormula]
) -> bool:
    """The step conditions: X, U and R expansion laws across a transition."""
    for node in closure:
        if isinstance(node, Next):
            if (node in source) != (node.operand in target):
                return False
        if isinstance(node, Until):
            holds_now = node in source
            expansion = node.right in source or (node.left in source and node in target)
            if holds_now != expansion:
                return False
        if isinstance(node, Release):
            holds_now = node in source
            expansion = node.right in source and (node.left in source or node in target)
            if holds_now != expansion:
                return False
    return True


def ltl_to_generalized_buchi(formula: LtlFormula) -> Tuple[GeneralizedBuchiAutomaton, FrozenSet[str]]:
    """Translate *formula* to a generalized Buchi automaton.

    Returns the automaton and the proposition vocabulary.  The alphabet of
    the automaton is ``frozenset`` subsets of that vocabulary; a transition
    from atom ``M`` is enabled on letter ``a`` when ``a`` agrees with the
    literals of ``M``.
    """
    normal = nnf(formula)
    closure = subformulas(normal)
    propositions = frozenset(normal.propositions())
    letters = [frozenset(c) for c in _powerset(sorted(propositions))]

    candidates = [
        frozenset(subset) for subset in _powerset(sorted(closure, key=repr))
    ]
    atoms = [atom for atom in candidates if _locally_consistent(atom, closure)]

    def letter_compatible(atom: FrozenSet[LtlFormula], letter: FrozenSet[str]) -> bool:
        for node in closure:
            if isinstance(node, Prop):
                if (node in atom) != (node.name in letter):
                    return False
        return True

    transitions: Dict[FrozenSet[LtlFormula], Dict[FrozenSet[str], Set]] = {}
    for source in atoms:
        for target in atoms:
            if not _transition_consistent(source, target, closure):
                continue
            for letter in letters:
                if letter_compatible(source, letter):
                    transitions.setdefault(source, {}).setdefault(letter, set()).add(target)

    initial = [atom for atom in atoms if normal in atom]
    # One acceptance set per until, in reverse repr order (in the F/G
    # templates: outermost first).  The hash order of the closure set
    # would make the degeneralised automaton follow PYTHONHASHSEED.
    untils = sorted((node for node in closure if isinstance(node, Until)), key=repr, reverse=True)
    acceptance_sets = [
        frozenset(atom for atom in atoms if node not in atom or node.right in atom)
        for node in untils
    ]
    return (
        GeneralizedBuchiAutomaton(transitions, initial, acceptance_sets),
        propositions,
    )


def ltl_to_buchi(formula: LtlFormula) -> Tuple[BuchiAutomaton, FrozenSet[str]]:
    """Translate *formula* to a plain Buchi automaton over 2^AP letters.

    >>> automaton, props = ltl_to_buchi(Prop("p"))
    >>> sorted(props)
    ['p']
    """
    generalized, propositions = ltl_to_generalized_buchi(formula)
    return generalized.degeneralize().relabel_states(), propositions
