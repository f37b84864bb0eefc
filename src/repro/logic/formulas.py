"""Quantifier-free first-order formulas.

Sigma-types cover the conjunctive fragment; LTL-FO propositions
(Definition 11) are arbitrary quantifier-free formulas, so we provide a
small boolean-combination AST on top of atoms.  Evaluation against a
database and a valuation lives in :mod:`repro.db.evaluation`.
"""

from dataclasses import dataclass
from typing import FrozenSet, Set, Tuple

from repro.logic.literals import Atom, EqAtom, RelAtom
from repro.logic.terms import Term


class Formula:
    """Base class of quantifier-free formulas."""

    def free_terms(self) -> FrozenSet[Term]:
        raise NotImplementedError

    def negate(self) -> "Formula":
        return Not(self)

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return self.negate()


@dataclass(frozen=True)
class TrueFormula(Formula):
    """The formula ``true``."""

    def free_terms(self) -> FrozenSet[Term]:
        return frozenset()

    def __repr__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseFormula(Formula):
    """The formula ``false``."""

    def free_terms(self) -> FrozenSet[Term]:
        return frozenset()

    def __repr__(self) -> str:
        return "false"


@dataclass(frozen=True)
class AtomFormula(Formula):
    """A single atom used as a formula."""

    atom: Atom

    def free_terms(self) -> FrozenSet[Term]:
        return frozenset(self.atom.terms)

    def __repr__(self) -> str:
        return repr(self.atom)


@dataclass(frozen=True)
class Not(Formula):
    """Negation."""

    operand: Formula

    def free_terms(self) -> FrozenSet[Term]:
        return self.operand.free_terms()

    def negate(self) -> Formula:
        return self.operand

    def __repr__(self) -> str:
        return "not (%r)" % (self.operand,)


@dataclass(frozen=True)
class And(Formula):
    """Conjunction of arbitrarily many operands."""

    operands: Tuple[Formula, ...]

    def free_terms(self) -> FrozenSet[Term]:
        found: Set[Term] = set()
        for operand in self.operands:
            found.update(operand.free_terms())
        return frozenset(found)

    def __repr__(self) -> str:
        return "(" + " and ".join(repr(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Or(Formula):
    """Disjunction of arbitrarily many operands."""

    operands: Tuple[Formula, ...]

    def free_terms(self) -> FrozenSet[Term]:
        found: Set[Term] = set()
        for operand in self.operands:
            found.update(operand.free_terms())
        return frozenset(found)

    def __repr__(self) -> str:
        return "(" + " or ".join(repr(op) for op in self.operands) + ")"


def atom_eq(left: Term, right: Term) -> Formula:
    """Shorthand for the atomic formula ``left = right``."""
    return AtomFormula(EqAtom(left, right))


def atom_rel(relation: str, *args: Term) -> Formula:
    """Shorthand for the atomic formula ``relation(args)``."""
    return AtomFormula(RelAtom(relation, tuple(args)))
