"""Ultimately periodic omega-words ("lassos").

Infinite words of the form ``u . v^omega`` with finite ``u`` (the prefix) and
non-empty finite ``v`` (the period) are the finite certificates of the
omega-regular world: every non-empty omega-regular language contains one, and
all decision procedures in this library return their witnesses in this form.

A :class:`Lasso` is immutable and normalised to a canonical form (primitive
period, shortest prefix), so two lassos denote the same omega-word exactly
when they compare equal.
"""

from typing import Callable, Hashable, Iterator, Sequence, Tuple, TypeVar

Symbol = TypeVar("Symbol", bound=Hashable)


def _primitive_root(seq: Tuple) -> Tuple:
    """The shortest word whose repetition yields *seq*."""
    n = len(seq)
    for length in range(1, n + 1):
        if n % length == 0 and seq == seq[:length] * (n // length):
            return seq[:length]
    return seq


class Lasso:
    """The omega-word ``prefix . period^omega``.

    Examples
    --------
    >>> w = Lasso(("a",), ("b", "a", "b", "a"))
    >>> w == Lasso(("a", "b"), ("a", "b"))
    True
    >>> w[0], w[1], w[100]
    ('a', 'b', 'a')
    """

    __slots__ = ("_prefix", "_period")

    def __init__(self, prefix: Sequence, period: Sequence):
        prefix = tuple(prefix)
        period = tuple(period)
        if not period:
            raise ValueError("the period of a lasso must be non-empty")
        period = _primitive_root(period)
        # Shorten the prefix: while its last letter equals the period's last
        # letter, rotate the period backwards and absorb the letter.
        while prefix and prefix[-1] == period[-1]:
            prefix = prefix[:-1]
            period = (period[-1],) + period[:-1]
        self._prefix = prefix
        self._period = period

    @property
    def prefix(self) -> Tuple:
        return self._prefix

    @property
    def period(self) -> Tuple:
        return self._period

    def __getitem__(self, position: int):
        """The letter at *position* (0-based)."""
        if position < 0:
            raise IndexError("omega-words have no negative positions")
        if position < len(self._prefix):
            return self._prefix[position]
        offset = position - len(self._prefix)
        return self._period[offset % len(self._period)]

    def factor(self, start: int, end: int) -> Tuple:
        """The finite factor at positions ``start .. end`` inclusive."""
        if end < start:
            return ()
        return tuple(self[i] for i in range(start, end + 1))

    def letters(self) -> frozenset:
        """The set of letters occurring in the word."""
        return frozenset(self._prefix) | frozenset(self._period)

    def recurring_letters(self) -> frozenset:
        """The letters occurring infinitely often (those of the period)."""
        return frozenset(self._period)

    def map(self, fn: Callable) -> "Lasso":
        """Apply a letter-to-letter function (a homomorphic image).

        The paper repeatedly recovers traces as homomorphic images (e.g.
        state traces from control traces); this is the lasso-level
        realisation.
        """
        return Lasso(tuple(fn(a) for a in self._prefix), tuple(fn(a) for a in self._period))

    def shift(self, count: int) -> "Lasso":
        """The word with the first *count* letters removed."""
        if count <= len(self._prefix):
            return Lasso(self._prefix[count:], self._period)
        offset = (count - len(self._prefix)) % len(self._period)
        return Lasso((), self._period[offset:] + self._period[:offset])

    def unroll(self, times: int) -> "Lasso":
        """An equal word whose explicit prefix covers *times* extra periods."""
        return Lasso(self._prefix + self._period * times, self._period)

    def iterate(self) -> Iterator:
        """Iterate over the letters forever."""
        for letter in self._prefix:
            yield letter
        while True:
            for letter in self._period:
                yield letter

    def spine_length(self) -> int:
        """Length of prefix plus one period: positions covering all behaviour."""
        return len(self._prefix) + len(self._period)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lasso):
            return NotImplemented
        return self._prefix == other._prefix and self._period == other._period

    def __hash__(self) -> int:
        return hash((self._prefix, self._period))

    def __repr__(self) -> str:
        show = lambda seq: "".join(str(s) for s in seq) if all(
            isinstance(s, str) and len(s) == 1 for s in seq
        ) else repr(seq)
        return "Lasso(%s; (%s)^w)" % (show(self._prefix), show(self._period))
