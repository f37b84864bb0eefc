"""Atoms and literals over a relational signature (Section 2).

An *atom* is either an equality ``s = t`` between terms or a relational atom
``R(t1, .., tm)``.  A *literal* is an atom or its negation.  Literals are the
conjuncts of sigma-types (:class:`repro.logic.types.SigmaType`).

Like terms, atoms and literals are hash-consed: the constructors return one
canonical instance per value (``EqAtom`` first normalises argument order,
so ``x1 = y1`` and ``y1 = x1`` intern to the same object), and every
instance carries its hash and sort key from construction.  The helpers
:func:`eq` / :func:`neq` / :func:`rel` / :func:`nrel` are the preferred
spelling in hot paths -- the repo linter (rule ``HC001``) flags raw
``Literal``/atom construction inside ``repro.core``.
"""

from typing import Tuple, Union

from repro.foundations.interning import Interned
from repro.logic.terms import Term


class EqAtom(metaclass=Interned):
    """The equality atom ``left = right``.

    Stored in a canonical order (``left <= right`` lexicographically) so that
    ``x1 = y1`` and ``y1 = x1`` are the same atom.
    """

    __slots__ = ("left", "right", "_hash", "_sort", "__weakref__")

    def __init__(self, left: Term, right: Term):
        if right < left:
            left, right = right, left
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_sort", (0, "", left.sort_key(), right.sort_key()))
        object.__setattr__(self, "_hash", hash(("EqAtom", left, right)))

    @classmethod
    def __intern_key__(cls, left: Term, right: Term):
        if right < left:
            left, right = right, left
        return (left, right)

    def __setattr__(self, attribute, value):
        raise AttributeError("atoms are immutable")

    def __delattr__(self, attribute):
        raise AttributeError("atoms are immutable")

    def __reduce__(self):
        return (EqAtom, (self.left, self.right))

    @property
    def terms(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def sort_key(self) -> Tuple:
        return self._sort

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not EqAtom:
            return NotImplemented if not isinstance(other, RelAtom) else False
        return self.left == other.left and self.right == other.right

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other) -> bool:
        if not isinstance(other, (EqAtom, RelAtom)):
            return NotImplemented
        return self._sort < other.sort_key()

    def __repr__(self) -> str:
        return "%r = %r" % (self.left, self.right)


class RelAtom(metaclass=Interned):
    """The relational atom ``relation(args)``."""

    __slots__ = ("relation", "args", "_hash", "_sort", "__weakref__")

    def __init__(self, relation: str, args: Tuple[Term, ...]):
        args = tuple(args)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "args", args)
        object.__setattr__(
            self, "_sort", (1, relation, tuple(t.sort_key() for t in args))
        )
        object.__setattr__(self, "_hash", hash(("RelAtom", relation, args)))

    @classmethod
    def __intern_key__(cls, relation: str, args: Tuple[Term, ...]):
        return (relation, tuple(args))

    def __setattr__(self, attribute, value):
        raise AttributeError("atoms are immutable")

    def __delattr__(self, attribute):
        raise AttributeError("atoms are immutable")

    def __reduce__(self):
        return (RelAtom, (self.relation, self.args))

    @property
    def terms(self) -> Tuple[Term, ...]:
        return self.args

    def sort_key(self) -> Tuple:
        return self._sort

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not RelAtom:
            return NotImplemented if not isinstance(other, EqAtom) else False
        return self.relation == other.relation and self.args == other.args

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other) -> bool:
        if not isinstance(other, (EqAtom, RelAtom)):
            return NotImplemented
        return self._sort < other.sort_key()

    def __repr__(self) -> str:
        return "%s(%s)" % (self.relation, ", ".join(repr(t) for t in self.args))


Atom = Union[EqAtom, RelAtom]


class Literal(metaclass=Interned):
    """An atom with a polarity: positive (the atom) or negative (its negation)."""

    __slots__ = ("atom", "positive", "_hash", "_sort", "__weakref__")

    def __init__(self, atom: Atom, positive: bool = True):
        positive = bool(positive)
        object.__setattr__(self, "atom", atom)
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "_sort", (atom.sort_key(), not positive))
        object.__setattr__(self, "_hash", hash(("Literal", atom, positive)))

    @classmethod
    def __intern_key__(cls, atom: Atom, positive: bool = True):
        return (atom, bool(positive))

    def __setattr__(self, attribute, value):
        raise AttributeError("literals are immutable")

    def __delattr__(self, attribute):
        raise AttributeError("literals are immutable")

    def __reduce__(self):
        return (Literal, (self.atom, self.positive))

    @property
    def terms(self) -> Tuple[Term, ...]:
        return self.atom.terms

    def sort_key(self) -> Tuple:
        return self._sort

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not Literal:
            return NotImplemented
        return self.positive == other.positive and self.atom == other.atom

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other) -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return self._sort < other._sort

    def negate(self) -> "Literal":
        """The literal with opposite polarity."""
        return Literal(self.atom, not self.positive)

    def is_equality(self) -> bool:
        return type(self.atom) is EqAtom

    def is_relational(self) -> bool:
        return type(self.atom) is RelAtom

    def __repr__(self) -> str:
        if self.positive:
            return repr(self.atom)
        if type(self.atom) is EqAtom:
            return "%r != %r" % (self.atom.left, self.atom.right)
        return "not %r" % (self.atom,)


def eq(left: Term, right: Term) -> Literal:
    """The literal ``left = right``."""
    return Literal(EqAtom(left, right), True)


def neq(left: Term, right: Term) -> Literal:
    """The literal ``left != right``."""
    return Literal(EqAtom(left, right), False)


def rel(relation: str, *args: Term) -> Literal:
    """The positive relational literal ``relation(args)``."""
    return Literal(RelAtom(relation, tuple(args)), True)


def nrel(relation: str, *args: Term) -> Literal:
    """The negative relational literal ``not relation(args)``."""
    return Literal(RelAtom(relation, tuple(args)), False)
