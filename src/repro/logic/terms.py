"""Terms: variables and constants.

Registers follow the paper's convention: in a transition guard over a
``k``-register automaton, ``x1 .. xk`` denote the register contents *before*
the transition and ``y1 .. yk`` the contents *after* it.  :func:`X` and
:func:`Y` build these variables; :func:`register_index` recovers the
(kind, index) structure from a variable when it follows the convention.

Terms are **hash-consed** (see :mod:`repro.foundations.interning`): the
constructors return one canonical instance per name, carrying a
precomputed hash and sort key, so the millions of ``Var("x1")`` lookups
the run searches perform hash in O(1) and compare by identity.  Equality
stays structural for values built before an intern-table clear.
"""

import re
from typing import Optional, Tuple

from repro.foundations.interning import Interned


class Term(metaclass=Interned):
    """Base class for terms.  Terms are immutable, hashable and totally
    ordered (variables before constants, then by name) so that literal sets
    canonicalise deterministically."""

    __slots__ = ("name", "_hash", "_sort", "__weakref__")

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(
            self, "_sort", (0 if self.is_variable() else 1, name)
        )
        object.__setattr__(self, "_hash", hash((type(self).__name__, name)))

    @classmethod
    def __intern_key__(cls, name: str) -> str:
        return name

    def __setattr__(self, attribute, value):
        raise AttributeError("terms are immutable")

    def __delattr__(self, attribute):
        raise AttributeError("terms are immutable")

    def __reduce__(self):
        # Route unpickling through the constructor so unpickled values
        # re-intern on load.
        return (type(self), (self.name,))

    def is_variable(self) -> bool:
        raise NotImplementedError

    def is_constant(self) -> bool:
        return not self.is_variable()

    def sort_key(self) -> Tuple[int, str]:
        return self._sort

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented if not isinstance(other, Term) else False
        return self.name == other.name

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self._sort < other._sort

    def __le__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self._sort <= other._sort

    def __gt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self._sort > other._sort

    def __ge__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self._sort >= other._sort


class Var(Term):
    """A first-order variable, identified by its name."""

    __slots__ = ()

    def is_variable(self) -> bool:
        return True

    def __repr__(self) -> str:
        return self.name


class Const(Term):
    """A constant symbol of the signature.

    A constant denotes an element of the data domain; the denotation is fixed
    by the database (see :class:`repro.db.Database`), not by the symbol.
    """

    __slots__ = ()

    def is_variable(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "~" + self.name


_REGISTER_RE = re.compile(r"^([xy])([0-9]+)$")


def X(i: int) -> Var:
    """The variable ``x_i``: the content of register *i* before a transition.

    Registers are numbered from 1, as in the paper.
    """
    if i < 1:
        raise ValueError("register indices start at 1, got %d" % i)
    return Var("x%d" % i)


def Y(i: int) -> Var:
    """The variable ``y_i``: the content of register *i* after a transition."""
    if i < 1:
        raise ValueError("register indices start at 1, got %d" % i)
    return Var("y%d" % i)


def x_vars(k: int) -> Tuple[Var, ...]:
    """The tuple ``(x1, ..., xk)``."""
    return tuple(X(i) for i in range(1, k + 1))


def y_vars(k: int) -> Tuple[Var, ...]:
    """The tuple ``(y1, ..., yk)``."""
    return tuple(Y(i) for i in range(1, k + 1))


def register_index(term: Term) -> Optional[Tuple[str, int]]:
    """Decompose a register variable into ``(kind, index)``.

    Returns ``("x", i)`` for ``x_i``, ``("y", i)`` for ``y_i`` and ``None``
    for constants and variables outside the register convention (such as the
    global variables of LTL-FO formulas).

    >>> register_index(X(2))
    ('x', 2)
    >>> register_index(Var("z1")) is None
    True
    """
    if not isinstance(term, Var):
        return None
    match = _REGISTER_RE.match(term.name)
    if match is None:
        return None
    return match.group(1), int(match.group(2))
