"""Sigma-types: the transition guards of register automata (Section 2).

A *type* is a satisfiable conjunction of literals over a relational
signature, here represented by :class:`SigmaType`.  Types are immutable;
every construction checks satisfiability and raises
:class:`~repro.foundations.errors.InconsistentTypeError` otherwise, matching
the paper's requirement that types be satisfiable.

The module also implements the two pieces of type algebra the paper relies
on throughout:

* **restriction** ``delta | z`` -- the conjunction of the literals of
  ``delta`` using only variables from ``z`` (and constants),
* **completion** -- enumeration of the *complete* types extending a type,
  which settle every equality between variables (and variable/constant
  pairs) and every relational fact over the available terms.  The paper
  warns this is exponential; :meth:`SigmaType.completions` is a lazy
  generator so callers pay only for what they consume.

Finally :func:`agree` implements condition (iii) of symbolic control traces:
two consecutive types agree on the common registers when
``delta_n | y`` equals ``delta_{n+1} | x`` under the renaming ``y_i -> x_i``.
"""

import weakref
from functools import cached_property
from itertools import product as cartesian_product
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.foundations.errors import InconsistentTypeError, SpecificationError
from repro.foundations.interning import register_clear_listener, register_intern_table
from repro.foundations.memo import ValueCache
from repro.foundations.resilience import current_deadline
from repro.foundations.stats import cache_stats
from repro.logic.closure import EqualityClosure
from repro.logic.literals import Atom, EqAtom, Literal, RelAtom
from repro.logic.terms import Const, Term, Var, X, Y, register_index, x_vars


def _substitute_term(term: Term, mapping: Dict[Term, Term]) -> Term:
    return mapping.get(term, term)


def _substitute_literal(literal: Literal, mapping: Dict[Term, Term]) -> Literal:
    atom = literal.atom
    if isinstance(atom, EqAtom):
        new_atom: Atom = EqAtom(
            _substitute_term(atom.left, mapping), _substitute_term(atom.right, mapping)
        )
    else:
        new_atom = RelAtom(atom.relation, tuple(_substitute_term(t, mapping) for t in atom.args))
    return Literal(new_atom, literal.positive)


class SigmaType:
    """A satisfiable conjunction of literals (a "type" in the paper).

    Parameters
    ----------
    literals:
        The conjuncts.  Duplicates are removed; trivial literals ``t = t``
        are dropped.
    check:
        When ``True`` (the default), satisfiability is verified and an
        :class:`InconsistentTypeError` raised on failure.

    Examples
    --------
    The type ``delta_1`` of the paper's Example 1 (``x1 = x2 and x2 = y2``):

    >>> from repro.logic import X, Y, eq
    >>> delta1 = SigmaType([eq(X(1), X(2)), eq(X(2), Y(2))])
    >>> delta1.entails(eq(X(1), Y(2)))
    True

    Types are hash-consed: constructing the same literal set twice (in any
    iteration order) yields one canonical instance, so structural equality
    is usually pointer identity and the cached properties below (closure,
    terms, canonical form) are computed once per *value*.  The table is
    weak -- unreferenced types are collected normally -- and equality
    stays structural, so a type built before
    :func:`~repro.foundations.interning.clear_intern_tables` still equals
    its rebuilt canonical twin.  Subclasses bypass the table.
    """

    __slots__ = ("_literals", "_hash", "__weakref__", "__dict__")

    _intern_table: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls, literals: Iterable[Literal] = (), check: bool = True):
        cleaned: Set[Literal] = set()
        for literal in literals:
            atom = literal.atom
            if isinstance(atom, EqAtom) and atom.left == atom.right:
                if literal.positive:
                    continue
                raise InconsistentTypeError("literal %r is trivially false" % (literal,))
            cleaned.add(literal)
        frozen: FrozenSet[Literal] = frozenset(cleaned)
        interning = cls is SigmaType
        if interning:
            stats = _SIGMA_STATS
            existing = cls._intern_table.get(frozen)
            if existing is not None:
                stats.hits += 1
                if check and not existing.is_satisfiable():
                    raise InconsistentTypeError(
                        "unsatisfiable type: %s"
                        % ", ".join(sorted(repr(l) for l in cleaned))
                    )
                return existing
            stats.misses += 1
        self = object.__new__(cls)
        self._literals = frozen
        self._hash = hash(frozen)
        if check and not self.closure.is_consistent():
            raise InconsistentTypeError(
                "unsatisfiable type: %s" % ", ".join(sorted(repr(l) for l in cleaned))
            )
        if interning:
            self = cls._intern_table.setdefault(frozen, self)
            _SIGMA_STATS.note_entries(len(cls._intern_table))
        return self

    def __init__(self, literals: Iterable[Literal] = (), check: bool = True):
        # All construction work happens in __new__ so that intern hits skip
        # it entirely; nothing to do here.
        pass

    def __reduce__(self):
        # Unpickling re-enters the interning constructor (check=False: the
        # literals were satisfiable when pickled).
        return (_rebuild_sigma_type, (self.canonical_literals,))

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def literals(self) -> FrozenSet[Literal]:
        return self._literals

    @cached_property
    def closure(self) -> EqualityClosure:
        """The equality closure of the literals (cached)."""
        return EqualityClosure(self._literals)

    @cached_property
    def terms(self) -> FrozenSet[Term]:
        found: Set[Term] = set()
        for literal in self._literals:
            found.update(literal.terms)
        return frozenset(found)

    @cached_property
    def variables(self) -> FrozenSet[Var]:
        return frozenset(t for t in self.terms if isinstance(t, Var))

    @cached_property
    def constants(self) -> FrozenSet[Const]:
        return frozenset(t for t in self.terms if isinstance(t, Const))

    def equality_literals(self) -> List[Literal]:
        return sorted(l for l in self._literals if l.is_equality())

    def relational_literals(self) -> List[Literal]:
        return sorted(l for l in self._literals if l.is_relational())

    def is_equality_type(self) -> bool:
        """Whether the type mentions no relation symbols (Section 2)."""
        return not any(l.is_relational() for l in self._literals)

    # ------------------------------------------------------------------ #
    # logical queries
    # ------------------------------------------------------------------ #

    def is_satisfiable(self) -> bool:
        cached = self.__dict__.get("_satisfiable")
        if cached is None:
            cached = self.__dict__["_satisfiable"] = self.closure.is_consistent()
        return cached

    def entails(self, literal: Literal) -> bool:
        """Whether every model of this type satisfies *literal*."""
        atom = literal.atom
        if isinstance(atom, EqAtom) and atom.left == atom.right:
            return literal.positive
        return self.closure.entails_literal(literal)

    # ------------------------------------------------------------------ #
    # algebra
    # ------------------------------------------------------------------ #

    def conjoin(self, other: "SigmaType") -> "SigmaType":
        """The conjunction of two types (raises if unsatisfiable)."""
        return SigmaType(self._literals | other._literals)

    def with_literals(self, extra: Iterable[Literal]) -> "SigmaType":
        """This type extended with *extra* literals (raises if unsatisfiable)."""
        return SigmaType(list(self._literals) + list(extra))

    def restrict(self, allowed: Iterable[Term]) -> "SigmaType":
        """The restriction ``delta | allowed``.

        Keeps exactly the literals all of whose *variables* belong to
        *allowed*; constants are always allowed, as in the paper's
        ``delta |_{z}`` notation.
        """
        allowed_set = set(allowed)
        kept = [
            literal
            for literal in self._literals
            if all(t in allowed_set or isinstance(t, Const) for t in literal.terms)
        ]
        return SigmaType(kept, check=False)

    def rename(self, mapping: Dict[Term, Term]) -> "SigmaType":
        """Apply a term substitution (used for the ``y -> x`` shift)."""
        return SigmaType(
            (_substitute_literal(l, mapping) for l in self._literals), check=False
        )

    def x_part(self, k: int) -> "SigmaType":
        """``pi_1(delta)``: the restriction to the x-variables (Theorem 9)."""
        return self.restrict(X(i) for i in range(1, k + 1))

    def y_part(self, k: int) -> "SigmaType":
        """The restriction to the y-variables."""
        return self.restrict(Y(i) for i in range(1, k + 1))

    def shift_y_to_x(self, k: int) -> "SigmaType":
        """``delta | y`` rewritten over the x-variables (for agreement checks)."""
        return self.y_part(k).rename({Y(i): X(i) for i in range(1, k + 1)})

    # ------------------------------------------------------------------ #
    # completeness and completion
    # ------------------------------------------------------------------ #

    def _completion_obligations(
        self, relations: Dict[str, int], variables: Sequence[Var], constants: Sequence[Const]
    ) -> List[Atom]:
        """All atoms a complete type must settle, in deterministic order."""
        obligations: List[Atom] = []
        for left_index, left in enumerate(variables):
            for right in list(variables[left_index + 1 :]) + list(constants):
                obligations.append(EqAtom(left, right))
        terms: List[Term] = list(variables) + list(constants)
        for relation in sorted(relations):
            arity = relations[relation]
            for combo in cartesian_product(terms, repeat=arity):
                obligations.append(RelAtom(relation, combo))
        return obligations

    def is_complete(
        self,
        relations: Dict[str, int],
        variables: Sequence[Var],
        constants: Sequence[Const] = (),
    ) -> bool:
        """Whether the type is complete over the given vocabulary.

        Complete means (Section 2): every relational fact over the terms is
        settled, and every variable/variable and variable/constant equality
        is settled.  Settled is understood modulo entailment, so that e.g.
        ``x1 = x2, x2 = x3`` settles ``x1 = x3``.
        """
        for atom in self._completion_obligations(relations, variables, constants):
            positive = Literal(atom, True)
            if not self.entails(positive) and not self.entails(positive.negate()):
                return False
        return True

    def completions(
        self,
        relations: Dict[str, int],
        variables: Sequence[Var],
        constants: Sequence[Const] = (),
    ) -> Iterator["SigmaType"]:
        """Enumerate the complete types extending this one, in canonical form.

        This is the exponential blow-up the paper mentions; the enumeration
        is a backtracking search that settles one undecided atom at a time
        and prunes inconsistent branches via the equality closure.  Each
        complete type comes out with one literal set, whichever guard it
        completes: the literals no obligation covers (the relational
        literals of an :meth:`equality_completed` guard), then, walking
        the obligations in order, the literal the type entails for each
        obligation those so far leave open.  That is the literal set the
        completion search of ``true`` reaches for the type; over a
        relation-free, constant-free vocabulary it is
        :func:`decode_code` of the type's partition code.  The result is
        memoised per value and vocabulary: under interning, two
        structurally equal guards share one completion computation.
        """
        key = (
            tuple(sorted(relations.items())),
            tuple(variables),
            tuple(constants),
        )
        memo = self.__dict__.setdefault("_completions_memo", {})
        found = memo.get(key)
        if found is not None:
            return iter(found)
        memo[key] = found = tuple(
            self._enumerate_completions(relations, variables, constants)
        )
        return iter(found)

    def _enumerate_completions(
        self,
        relations: Dict[str, int],
        variables: Sequence[Var],
        constants: Sequence[Const],
    ) -> Iterator["SigmaType"]:
        """The backtracking search behind :meth:`completions`.

        ``current`` is the guard plus the branch choices so far, and
        ``canonical`` the canonical literals of the same branch: it gains
        each obligation in turn that ``current`` settles and it does not.
        """
        obligations = self._completion_obligations(relations, variables, constants)
        covered = frozenset(obligations)

        def extend(current: SigmaType, canonical: SigmaType, index: int) -> Iterator[SigmaType]:
            # One ambient-deadline poll per search node: this enumeration is
            # the exponential blow-up the paper warns about, and the poll is
            # a thread-local read (plus one clock read under a deadline), so
            # even doubly-exponential searches stay interruptible for free.
            # An expiry aborts before the completions memo is assigned, so a
            # partial enumeration never poisons the cache.
            active = current_deadline()
            if active is not None:
                active.check("types.completions")
            while index < len(obligations):
                positive = Literal(obligations[index], True)
                negative = positive.negate()
                index += 1
                if current.entails(positive) or current.entails(negative):
                    if not (canonical.entails(positive) or canonical.entails(negative)):
                        settled = positive if current.entails(positive) else negative
                        canonical = SigmaType(canonical.literals | {settled}, check=False)
                    continue
                for choice in (positive, negative):
                    try:
                        candidate = current.with_literals([choice])
                    except InconsistentTypeError:
                        continue
                    yield from extend(
                        candidate, SigmaType(canonical.literals | {choice}, check=False), index
                    )
                return
            yield canonical

        kept = [literal for literal in self._literals if literal.atom not in covered]
        yield from extend(self, SigmaType(kept, check=False), 0)

    # ------------------------------------------------------------------ #
    # canonical form, equality, display
    # ------------------------------------------------------------------ #

    @cached_property
    def canonical_literals(self) -> Tuple[Literal, ...]:
        """Sorted literal tuple: the canonical syntactic form."""
        return tuple(sorted(self._literals))

    @cached_property
    def _canonical_reprs(self) -> Tuple[str, ...]:
        """Rendered literals in canonical order (cached: repr/pretty reuse)."""
        return tuple(repr(l) for l in self.canonical_literals)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, SigmaType):
            return NotImplemented
        return self._literals == other._literals

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        found = self.__dict__.get("_repr")
        if found is None:
            if not self._literals:
                found = "SigmaType(true)"
            else:
                found = "SigmaType(%s)" % " and ".join(self._canonical_reprs)
            self.__dict__["_repr"] = found
        return found

    def pretty(self) -> str:
        """A compact single-line rendering, ``true`` for the empty type."""
        found = self.__dict__.get("_pretty")
        if found is None:
            if not self._literals:
                found = "true"
            else:
                found = " & ".join(self._canonical_reprs)
            self.__dict__["_pretty"] = found
        return found


_SIGMA_STATS = cache_stats("intern.SigmaType")
register_intern_table("SigmaType", SigmaType._intern_table)


def _rebuild_sigma_type(literals: Tuple[Literal, ...]) -> SigmaType:
    """Pickle helper: reconstruct (and hence re-intern) a type on load."""
    return SigmaType(literals, check=False)


def x_equality_classes(delta: SigmaType, k: int) -> Dict[int, FrozenSet[int]]:
    """For each register ``i``, the registers forced equal to it *now*.

    ``result[i]`` is ``{m : delta entails x_i = x_m} | {i}`` -- the
    ``~``-class of register ``i`` at the current position.  Cached on the
    type instance (per *k*): a pure function of the guard, queried once
    per trace position by the consistency check and the Lemma 21 tracker
    constructions, where the union-find walks used to dominate.  Under
    interning the memo is shared by every structurally equal guard.
    """
    cache = delta.__dict__.get("_x_classes")
    if cache is None:
        cache = delta.__dict__["_x_classes"] = {}
    found = cache.get(k)
    if found is None:
        closure = delta.closure
        found = cache[k] = {
            i: frozenset(
                m
                for m in range(1, k + 1)
                if m == i or closure.same(X(i), X(m))
            )
            for i in range(1, k + 1)
        }
    return found


def y_successor_images(delta: SigmaType, k: int) -> Dict[int, FrozenSet[int]]:
    """For each register ``l``, the next-position registers it flows into.

    ``result[l] = {m : delta entails x_l = y_m}``.  The one-step image of
    a register set under the guard is the union of these images, which is
    how corridors are advanced position by position.  Cached like
    :func:`x_equality_classes`.
    """
    cache = delta.__dict__.get("_y_images")
    if cache is None:
        cache = delta.__dict__["_y_images"] = {}
    found = cache.get(k)
    if found is None:
        closure = delta.closure
        found = cache[k] = {
            l: frozenset(
                m for m in range(1, k + 1) if closure.same(X(l), Y(m))
            )
            for l in range(1, k + 1)
        }
    return found


def corridor_masks(
    delta: SigmaType, k: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """``(x_class, y_image, x_switch, y_switch)``: the guard's corridor bitmasks.

    Each entry is a *k*-tuple indexed by ``register - 1``, and register
    ``m`` is bit ``m - 1`` -- the layout of the symkernel's completion-code
    masks.  For register ``l``:

    * ``x_class[l-1]``: the registers forced equal to ``x_l`` now (the mask
      form of :func:`x_equality_classes`);
    * ``y_image[l-1]``: the registers ``m`` with ``x_l = y_m`` (the mask
      form of :func:`y_successor_images`; :func:`advance_mask` walks it);
    * ``x_switch[l-1]``: the union of the x-classes of the registers ``m``
      with ``x_l != x_m`` entailed;
    * ``y_switch[l-1]``: the union of the y-landing classes
      ``{m} | {m2 : y_m = y_m2}`` of the registers ``m`` with ``x_l != y_m``
      entailed.

    The two switch masks are where a Lemma 21 inequality corridor can hand
    over from the left side of a disequality to the right.  Cached on the
    type instance per *k*, like :func:`x_equality_classes`.
    """
    cache = delta.__dict__.get("_corridor_masks")
    if cache is None:
        cache = delta.__dict__["_corridor_masks"] = {}
    found = cache.get(k)
    if found is None:
        closure = delta.closure
        registers = range(1, k + 1)

        def mask(members: Iterable[int]) -> int:
            return sum(1 << (m - 1) for m in members)

        classes = x_equality_classes(delta, k)
        images = y_successor_images(delta, k)
        x_class = tuple(mask(classes[l]) for l in registers)
        landing = tuple(
            mask(m2 for m2 in registers if m2 == m or closure.same(Y(m), Y(m2)))
            for m in registers
        )
        x_switch = []
        y_switch = []
        for l in registers:
            x_union = y_union = 0
            for m in registers:
                if closure.entails_neq(X(l), X(m)):
                    x_union |= x_class[m - 1]
                if closure.entails_neq(X(l), Y(m)):
                    y_union |= landing[m - 1]
            x_switch.append(x_union)
            y_switch.append(y_union)
        found = cache[k] = (
            x_class,
            tuple(mask(images[l]) for l in registers),
            tuple(x_switch),
            tuple(y_switch),
        )
    return found


def advance_mask(table: Tuple[int, ...], members: int) -> int:
    """The union of ``table[l-1]`` over the registers ``l`` in *members*.

    With a ``y_image`` table this is one corridor step; with a switch
    table of :func:`corridor_masks`, the corridors the members hand over to.
    """
    result = 0
    remaining = members
    while remaining:
        low = remaining & -remaining
        result |= table[low.bit_length() - 1]
        remaining ^= low
    return result


# ---------------------------------------------------------------------- #
# partition codes: complete equality x-types as integers
# ---------------------------------------------------------------------- #
#
# A complete equality type over x1..xk is a set partition of the registers
# (blocks = equality classes, distinct blocks implicitly unequal).  We
# encode each partition as a *pair bitmask*: one bit per register pair
# (i, j), i < j, set exactly when the partition puts i and j in one block.
# Pairs are numbered in the completion-obligation order -- (1,2), (1,3),
# ..., (1,k), (2,3), ... -- so the code-driven enumerations below list
# partitions in the order :meth:`SigmaType.completions` yields them, and
# :func:`decode_code` builds the one (canonical) literal set it yields for
# each.
#
# On top of single codes sits the *interval* (atom) representation the
# antichain dataflow domain works with: a pair ``(e, d)`` of masks denotes
# the set of partitions ``{m : e <= m and m & d == 0}`` (all pairs in
# ``e`` forced equal, all pairs in ``d`` forced apart).  A single code
# ``c`` embeds as the degenerate interval ``(c, ALL & ~c)``.  Interval
# containment -- hence subsumption in the antichain -- is two integer
# mask comparisons; see :func:`interval_contains`.


def pair_bits(k: int) -> Tuple[Tuple[int, int], ...]:
    """The register pairs ``(i, j)``, ``i < j``, in bit-index order."""
    found = _PAIR_BITS.get(k)
    if found is None:
        found = _PAIR_BITS[k] = tuple(
            (i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)
        )
    return found


_PAIR_BITS: Dict[int, Tuple[Tuple[int, int], ...]] = {}  # mode-ok: pure integer tables
_PAIR_INDEX: Dict[int, Dict[Tuple[int, int], int]] = {}  # mode-ok: pure integer tables


def pair_bit(i: int, j: int, k: int) -> int:
    """The bit index of pair ``(i, j)`` (order-insensitive) at width *k*."""
    table = _PAIR_INDEX.get(k)
    if table is None:
        table = _PAIR_INDEX[k] = {
            pair: bit for bit, pair in enumerate(pair_bits(k))
        }
    return table[(i, j) if i < j else (j, i)]


def all_pairs_mask(k: int) -> int:
    """The mask with every pair bit set (the one-block partition)."""
    return (1 << (k * (k - 1) // 2)) - 1


def closure_mask(mask: int, k: int) -> int:
    """The transitive closure of *mask* as an equality relation on 1..k."""
    labels = list(range(k + 1))

    def find(register: int) -> int:
        while labels[register] != register:
            labels[register] = labels[labels[register]]
            register = labels[register]
        return register

    for bit, (i, j) in enumerate(pair_bits(k)):
        if mask >> bit & 1:
            ri, rj = find(i), find(j)
            if ri != rj:
                labels[max(ri, rj)] = min(ri, rj)
    closed = 0
    for bit, (i, j) in enumerate(pair_bits(k)):
        if find(i) == find(j):
            closed |= 1 << bit
    return closed


def partition_code(phi: "SigmaType", k: int) -> int:
    """Encode complete equality x-type *phi* as its partition code."""
    classes = x_equality_classes(phi, k)
    code = 0
    for bit, (i, j) in enumerate(pair_bits(k)):
        if j in classes[i]:
            code |= 1 << bit
    return code


def interval_contains(outer: Tuple[int, int], inner: Tuple[int, int]) -> bool:
    """Whether interval *outer* ``(e, d)`` contains interval *inner*.

    Containment holds exactly when the outer constraints are weaker:
    ``e_outer <= e_inner`` and ``d_outer <= d_inner`` (as bit sets).  Both
    intervals must be normalised (``e`` transitively closed, ``e & d ==
    0``); all intervals produced by this module are.
    """
    e_outer, d_outer = outer
    e_inner, d_inner = inner
    return (e_outer & ~e_inner) == 0 and (d_outer & ~d_inner) == 0


def decode_partition_code(code: int, k: int) -> "SigmaType":
    """The canonical complete x-type of partition code *code* (over ``x1..xk``)."""
    return decode_code(code, x_vars(k))


def decode_code(code: int, terms: Tuple[Term, ...]) -> "SigmaType":
    """The canonical complete equality type of partition code *code*.

    *code* is a pair bitmask over ``pair_bits(len(terms))``.  The literal
    set is the canonical one of :meth:`SigmaType.completions`: walk the
    pairs in obligation order, skip pairs the literals so far settle (same
    block, or an asserted disequality between the two blocks), and assert
    the (dis)equality the code dictates for the others -- exactly what the
    completion search of ``true`` accumulates on the branch leading to
    this partition.  Cached per ``(code, terms)``.
    """
    return _DECODE_CACHE.lookup(
        (code, terms), lambda: SigmaType(_code_literals(code, terms), check=False)
    )


def _code_literals(code: int, terms: Tuple[Term, ...]) -> List[Literal]:
    """The literals of ``decode_code(code, terms)``, without the type.

    The coded kernel renders a node's text from them, so deciding an
    automaton builds no :class:`SigmaType` per node.
    """
    labels = list(range(len(terms) + 1))

    def find(register: int) -> int:
        while labels[register] != register:
            labels[register] = labels[labels[register]]
            register = labels[register]
        return register

    neq_edges: Set[Tuple[int, int]] = set()
    literals: List[Literal] = []
    for bit, (i, j) in enumerate(pair_bits(len(terms))):
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        edge = (min(ri, rj), max(ri, rj))
        if code >> bit & 1:
            literals.append(Literal(EqAtom(terms[i - 1], terms[j - 1]), True))
            root = min(ri, rj)
            other = max(ri, rj)
            labels[other] = root
            # Re-anchor disequality edges that referenced the merged root.
            if neq_edges:
                neq_edges = {
                    tuple(sorted((root if a == other else a, root if b == other else b)))
                    for a, b in neq_edges
                }
        elif edge not in neq_edges:
            literals.append(Literal(EqAtom(terms[i - 1], terms[j - 1]), False))
            neq_edges.add(edge)
    return literals


def enumerate_interval_codes(e_mask: int, d_mask: int, k: int) -> Tuple[int, ...]:
    """All partition codes in the interval ``(e_mask, d_mask)``.

    The enumeration order replays the eq-first backtracking of
    :meth:`SigmaType.completions`, so ``enumerate_interval_codes(0, 0, k)``
    lists the Bell(k) partitions in exactly the order
    ``SigmaType().completions({}, [X(1)..X(k)])`` produces them.  It is the
    completion search of :func:`_completion_code_search` over the
    registers, with the interval's pairs as the entailed ones.
    """
    return _INTERVAL_CACHE.lookup(
        (e_mask, d_mask, k), lambda: tuple(_completion_code_search(e_mask, d_mask, k))
    )


def interval_size(e_mask: int, d_mask: int, k: int) -> int:
    """How many partitions the interval contains (diagnostics/benchmarks)."""
    return len(enumerate_interval_codes(e_mask, d_mask, k))


# ---------------------------------------------------------------------- #
# completion codes: guard completions as integers (the symkernel front)
# ---------------------------------------------------------------------- #
#
# The emptiness pipeline completes guards over the 2k-variable vocabulary
# x1..xk, y1..yk; each completion settles every variable pair and is hence
# a set partition of the vocabulary -- exactly what a pair-bitmask code over
# ``pair_bits(len(vocab))`` describes.  :func:`guard_completion_search`
# lists those codes in the order :meth:`SigmaType.completions` yields the
# corresponding complete types, without constructing a single literal, and
# :func:`decode_code` rebuilds any one of them: a completion's canonical
# literal set depends on its partition alone, not on the guard.
#
# Validity domain: the guard must settle vocabulary pairs through its
# *equality closure* alone.  Relational literals can prune completion
# branches in ways no pair mask sees (``R(x1) and not R(x2)`` refutes the
# ``x1 = x2`` branch without entailing ``x1 != x2``), so callers must stay
# on equality types -- :func:`guard_completion_search` raises otherwise.
# That is precisely the domain of the emptiness kernel, whose eligibility
# gate requires a relation-free signature.


def completion_masks(delta: "SigmaType", terms: Tuple[Term, ...]) -> Tuple[int, int]:
    """The guard's entailed (equal, distinct) pair masks over *terms*.

    Bit ``b`` of the first mask is set when the guard entails equality of
    the ``b``-th vocabulary pair (in :func:`pair_bits` order over the term
    sequence), bit ``b`` of the second when it entails the disequality.
    Entailment goes through the full literal closure, so chains through
    terms outside the vocabulary are captured.
    """
    closure = delta.closure
    e_mask = 0
    d_mask = 0
    for bit, (i, j) in enumerate(pair_bits(len(terms))):
        left, right = terms[i - 1], terms[j - 1]
        if closure.entails_eq(left, right):
            e_mask |= 1 << bit
        elif closure.entails_neq(left, right):
            d_mask |= 1 << bit
    return e_mask, d_mask


def guard_completion_search(delta: "SigmaType", terms: Tuple[Term, ...]) -> Tuple[int, ...]:
    """The partition codes of the guard's completions over *terms*.

    ``guard_completion_search(g, vocab)[n]`` is the partition code of
    ``list(g.completions({}, vocab))[n]``: same completions, same order,
    no :class:`SigmaType` construction.  Memoised on the type instance per
    vocabulary (pure integers: safe across table clears).
    """
    if not delta.is_equality_type():
        raise SpecificationError(
            "completion codes require an equality type, got %r" % (delta,)
        )
    terms = tuple(terms)
    memo = delta.__dict__.setdefault("_completion_codes_memo", {})
    found = memo.get(terms)
    if found is None:
        e_mask, d_mask = completion_masks(delta, terms)
        # Assigned only after the full (deadline-interruptible) search, so
        # an expiry never poisons the memo with a partial enumeration.
        memo[terms] = found = tuple(_completion_code_search(e_mask, d_mask, len(terms)))
    return found


def _completion_code_search(e_mask: int, d_mask: int, n: int) -> Iterator[int]:
    """The completion DFS of ``_enumerate_completions`` over pure masks.

    Seeds a union-find from the entailed equalities and a disequality edge
    set from the entailed disequalities, then branches eq-first on every
    unsettled pair -- the same skip and branch schedule as the literal
    search (both branches of an unsettled pair are always consistent on an
    equality type).  Yields the codes of the leaves.
    """
    pairs = pair_bits(n)

    def entailed_neq(labels, neq_edges, ri: int, rj: int) -> bool:
        for a, b in neq_edges:
            roots = (labels[a], labels[b])
            if roots == (ri, rj) or roots == (rj, ri):
                return True
        return False

    def extend(bit: int, labels, neq_edges):
        # One ambient-deadline poll per search node, mirroring the literal
        # completion enumeration (see ``SigmaType._enumerate_completions``).
        active = current_deadline()
        if active is not None:
            active.check("types.completion_codes")
        while bit < len(pairs):
            i, j = pairs[bit]
            ri, rj = labels[i], labels[j]
            if ri == rj or entailed_neq(labels, neq_edges, ri, rj):
                bit += 1
                continue
            root, other = min(ri, rj), max(ri, rj)
            merged = tuple(root if label == other else label for label in labels)
            yield from extend(bit + 1, merged, neq_edges)
            yield from extend(bit + 1, labels, neq_edges + ((i, j),))
            return
        code = 0
        for index, (i, j) in enumerate(pairs):
            if labels[i] == labels[j]:
                code |= 1 << index
        yield code

    labels = list(range(n + 1))

    def find(register: int) -> int:
        while labels[register] != register:
            labels[register] = labels[labels[register]]
            register = labels[register]
        return register

    for bit, (i, j) in enumerate(pairs):
        if e_mask >> bit & 1:
            ri, rj = find(i), find(j)
            if ri != rj:
                labels[max(ri, rj)] = min(ri, rj)
    seeded = tuple(find(register) if register else 0 for register in range(n + 1))
    neq_edges: Tuple[Tuple[int, int], ...] = ()
    for bit, (i, j) in enumerate(pairs):
        if d_mask >> bit & 1:
            if seeded[i] == seeded[j]:
                return  # the guard itself is inconsistent: nothing to list
            neq_edges += ((i, j),)
    yield from extend(0, seeded, neq_edges)


#: Complete equality x-types per register count (the Bell(k) partitions of
#: {x1..xk}).  Module-level so the tuples stay stable -- and shared --
#: between intern-table clears; a clear drops the table too (the listener
#: below), because handing out types that are no longer canonical would
#: break the identity-is-equality invariant interned code relies on.
_COMPLETE_X_TYPES: Dict[int, Tuple["SigmaType", ...]] = {}

#: Canonical decode of partition codes (SigmaType values: dropped on a clear).
_DECODE_CACHE = ValueCache("logic.decode_partition")

#: Interval membership lists (pure integers: clear-independent, but cheap to
#: rebuild, so the blanket clear below does no harm).
_INTERVAL_CACHE = ValueCache("logic.interval_codes")

#: Bounded transfer-function memos (replaces the per-guard ``__dict__``
#: memo that grew without bound under interning; ``CacheStats`` now sees
#: hit rates and evictions).
_ABSTRACT_SUCCESSORS = ValueCache("logic.abstract_successors", maxsize=65536)
_SUCCESSOR_ATOMS = ValueCache("logic.successor_atoms", maxsize=65536)


register_clear_listener(_COMPLETE_X_TYPES.clear)
register_clear_listener(_DECODE_CACHE.clear)
register_clear_listener(_ABSTRACT_SUCCESSORS.clear)
register_clear_listener(_SUCCESSOR_ATOMS.clear)


def complete_equality_x_types(k: int) -> Tuple["SigmaType", ...]:
    """All complete equality types over ``x1..xk``.

    These are exactly the set partitions of the registers (blocks =
    equality classes, distinct blocks implicitly unequal), so there are
    Bell(k) of them: 1, 2, 5, 15, 52, 203 for k = 1..6.  They form the
    abstract domain of the reachable-configurations dataflow analysis
    (:mod:`repro.analysis.dataflow`): an over-approximation of the
    register configurations reachable at a control state is a *set* of
    these types.

    Enumerated through the partition-code tables, which replay the old
    ``SigmaType().completions`` search exactly -- same types, same order,
    same (canonical) literal sets.
    """
    found = _COMPLETE_X_TYPES.get(k)
    if found is None:
        found = _COMPLETE_X_TYPES[k] = tuple(
            decode_partition_code(code, k)
            for code in enumerate_interval_codes(0, 0, k)
        )
    return found


def guard_x_registers(delta: "SigmaType", k: int) -> Tuple[int, ...]:
    """The registers whose current value the guard actually mentions.

    The sigma-reduction underlying :func:`successor_atoms`: the transfer
    function of a guard depends only on the restriction of the source
    partition to these registers, because non-mentioned registers can
    interact with the guard's terms only through them.
    """
    cache = delta.__dict__.get("_guard_x_registers")
    if cache is None:
        cache = delta.__dict__["_guard_x_registers"] = {}
    found = cache.get(k)
    if found is None:
        mentioned = set()
        for variable in delta.variables:
            decomposed = register_index(variable)
            if decomposed is not None and decomposed[0] == "x" and decomposed[1] <= k:
                mentioned.add(decomposed[1])
        found = cache[k] = tuple(sorted(mentioned))
    return found


def successor_atoms(
    e_mask: int, d_mask: int, delta: "SigmaType", k: int
) -> Tuple[Tuple[int, int], ...]:
    """One-step successor intervals of interval ``(e_mask, d_mask)``.

    The symbolic transfer function: instead of pushing every partition of
    the interval through the guard (Bell(k) conjoin/probe rounds), observe
    that the successor facts depend only on the source partition's
    restriction ``sigma`` to :func:`guard_x_registers`.  Enumerate the
    Bell(|R|) candidate restrictions, keep those some interval member
    realises, and for each consistent ``delta & sigma`` read off the
    entailed (dis)equalities among the ``y``-registers -- which is itself
    an interval over the next position.  Exact: the union of the returned
    intervals equals the set of :func:`abstract_successor_types` results
    over all interval members.
    """
    return _SUCCESSOR_ATOMS.lookup(
        (e_mask, d_mask, delta, k),
        lambda: _successor_atoms(e_mask, d_mask, delta, k),
    )


def _successor_atoms(
    e_mask: int, d_mask: int, delta: "SigmaType", k: int
) -> Tuple[Tuple[int, int], ...]:
    registers = guard_x_registers(delta, k)
    r_pair_bits = [
        (bit, pair)
        for bit, pair in enumerate(pair_bits(k))
        if pair[0] in registers and pair[1] in registers
    ]
    r_mask = 0
    for bit, _pair in r_pair_bits:
        r_mask |= 1 << bit
    results: List[Tuple[int, int]] = []
    seen: Set[Tuple[int, int]] = set()
    for sigma in _partitions_of(registers):
        sigma_mask = 0
        for bit, (i, j) in r_pair_bits:
            if sigma[i] == sigma[j]:
                sigma_mask |= 1 << bit
        closed = closure_mask(e_mask | sigma_mask, k)
        if closed & d_mask:
            continue
        if closed & r_mask != sigma_mask:
            # The interval's equalities coarsen sigma: no member restricts
            # to exactly this partition of the guard registers.
            continue
        literals = [
            Literal(EqAtom(X(i), X(j)), sigma[i] == sigma[j])
            for _bit, (i, j) in r_pair_bits
        ]
        try:
            joint = delta.with_literals(literals)
        except InconsistentTypeError:
            continue
        atom = _y_interval(joint, k)
        if atom not in seen:
            seen.add(atom)
            results.append(atom)
    return tuple(results)


def _partitions_of(registers: Sequence[int]) -> Iterator[Dict[int, int]]:
    """All set partitions of *registers* as register -> block-id maps."""
    if not registers:
        yield {}
        return
    assignment: Dict[int, int] = {}

    def place(index: int, blocks: int) -> Iterator[Dict[int, int]]:
        if index == len(registers):
            yield dict(assignment)
            return
        register = registers[index]
        for block in range(blocks):
            assignment[register] = block
            yield from place(index + 1, blocks)
        assignment[register] = blocks
        yield from place(index + 1, blocks + 1)
        del assignment[register]

    yield from place(0, 0)


def _y_interval(joint: "SigmaType", k: int) -> Tuple[int, int]:
    """The interval of next-position partitions *joint* allows."""
    eq_mask = 0
    neq_mask = 0
    for bit, (i, j) in enumerate(pair_bits(k)):
        positive = Literal(EqAtom(Y(i), Y(j)), True)
        if joint.entails(positive):
            eq_mask |= 1 << bit
        elif joint.entails(positive.negate()):
            neq_mask |= 1 << bit
    return (eq_mask, neq_mask)


def abstract_successor_types(
    phi: SigmaType, delta: SigmaType, k: int
) -> Tuple["SigmaType", ...]:
    """Complete x-types reachable in one *delta*-step from x-type *phi*.

    The transfer function of the reachable-configurations analysis:
    conjoin the guard with the source type, read off every entailed
    (dis)equality between the next-position registers ``y_i`` as an
    interval of partition codes, and decode the interval's members to
    canonical complete types.  Sound over-approximation: if registers
    ``d`` satisfy *phi* and ``(d, d')`` satisfies *delta*, the complete
    equality type of ``d'`` is among the results.  Returns ``()`` exactly
    when ``phi & delta`` is unsatisfiable -- the transition cannot fire
    from any configuration of type *phi*.

    Memoised in a bounded :class:`~repro.foundations.memo.ValueCache`
    keyed ``(phi, delta, k)`` -- shared across structurally equal guards
    under interning, observable through ``CacheStats``, and incapable of
    growing without bound in long-lived processes (the old per-guard
    ``__dict__`` memo was not).
    """
    return _ABSTRACT_SUCCESSORS.lookup(
        (phi, delta, k), lambda: _abstract_successors(phi, delta, k)
    )


def _abstract_successors(
    phi: SigmaType, delta: SigmaType, k: int
) -> Tuple[SigmaType, ...]:
    try:
        joint = delta.conjoin(phi)
    except InconsistentTypeError:
        return ()
    eq_mask, neq_mask = _y_interval(joint, k)
    return tuple(
        decode_partition_code(code, k)
        for code in enumerate_interval_codes(eq_mask, neq_mask, k)
    )


def equality_type(*literals: Literal) -> SigmaType:
    """Build an equality type (convenience wrapper; validates purity).

    >>> from repro.logic import X, Y, eq
    >>> equality_type(eq(X(1), Y(1))).is_equality_type()
    True
    """
    built = SigmaType(literals)
    if not built.is_equality_type():
        raise InconsistentTypeError("equality types may not contain relational literals")
    return built


def boundary_signature(
    delta: SigmaType, k: int, side: str
) -> Tuple[FrozenSet[Tuple], FrozenSet[Tuple]]:
    """``(positive, negative)``: the boundary atoms *delta* entails, and those it denies.

    The boundary is one side of the guard's registers -- ``x1..xk`` when
    *side* is ``"x"``, ``y1..yk`` when it is ``"y"`` -- together with the
    guard's own constants.  An atom is named by register number or
    constant, not by variable, so a ``y`` signature and an ``x`` signature
    compare under the renaming ``y_i -> x_i`` of :func:`agree`:
    ``("eq", a, b)`` for two boundary terms in enumeration order (registers
    ascending, then constants sorted) and ``("rel", R, names)`` for a fact
    over the guard's own relation ``R``.  A type entails no atom over a
    constant or relation it does not mention, so its own vocabulary is the
    whole of what it can say.  Cached on the type instance per *k* and
    *side*, like :func:`corridor_masks`.
    """
    cache = delta.__dict__.get("_boundary_signatures")
    if cache is None:
        cache = delta.__dict__["_boundary_signatures"] = {}
    found = cache.get((k, side))
    if found is None:
        found = cache[(k, side)] = _boundary_atoms(delta, k, X if side == "x" else Y)
    return found


def _boundary_atoms(
    delta: SigmaType, k: int, variable
) -> Tuple[FrozenSet[Tuple], FrozenSet[Tuple]]:
    closure = delta.closure
    constants = sorted(delta.constants)
    terms: List[Term] = [variable(i) for i in range(1, k + 1)] + constants
    names: List[object] = list(range(1, k + 1)) + constants
    positive: Set[Tuple] = set()
    negative: Set[Tuple] = set()
    for a_index in range(len(terms)):
        for b_index in range(a_index + 1, len(terms)):
            atom = ("eq", names[a_index], names[b_index])
            if closure.entails_eq(terms[a_index], terms[b_index]):
                positive.add(atom)
            if closure.entails_neq(terms[a_index], terms[b_index]):
                negative.add(atom)
    # A relational atom is entailed exactly when some literal of the same
    # polarity has, argument by argument, a term in the same class.
    for literal in delta.literals:
        atom = literal.atom
        if not isinstance(atom, RelAtom):
            continue
        choices = [
            [name for term, name in zip(terms, names) if closure.same(term, argument)]
            for argument in atom.args
        ]
        found = positive if literal.positive else negative
        for combo in cartesian_product(*choices):
            found.add(("rel", atom.relation, combo))
    return frozenset(positive), frozenset(negative)


def agree(delta_now: SigmaType, delta_next: SigmaType, k: int) -> bool:
    """Condition (iii) of symbolic control traces (Section 2).

    ``delta_now`` and ``delta_next`` *agree on the common registers* when
    ``delta_now | y`` is isomorphic to ``delta_next | x`` under ``y_i ->
    x_i``.  The restriction is semantic: we compare what each type *entails*
    about the boundary -- every (dis)equality between the shared registers
    and constants, and every relational fact over them.  (Purely syntactic
    restriction would be wrong for types that settle a boundary atom only
    through entailment, e.g. ``y1 = y2`` via ``x1 = x2, x1 = y1, x2 = y2``.)
    For complete types this decides agreement exactly.

    Disagreement means *conflict*: one side entails a boundary atom, the
    other its negation.  (For complete types every boundary atom is settled
    on both sides, so this coincides with the paper's isomorphism of
    restrictions; for partially settled types -- e.g. equality-complete
    guards with open relational atoms -- the run merely has to satisfy the
    union of both constraints, which is possible exactly when no atom is
    settled oppositely.)  Each guard's :func:`boundary_signature` is
    computed once, so one check is two set-disjointness tests.
    """
    now_positive, now_negative = boundary_signature(delta_now, k, "y")
    next_positive, next_negative = boundary_signature(delta_next, k, "x")
    return now_positive.isdisjoint(next_negative) and now_negative.isdisjoint(next_positive)


def project_type_dataless(delta: SigmaType, m: int) -> SigmaType:
    """Restriction to registers ``1..m`` *and* to pure equality literals.

    Used by the projections (Theorem 13 / Theorem 24), whose projected
    automata have no database: the result keeps only (dis)equality
    literals among ``x1..xm, y1..ym``, dropping relational literals and
    anything mentioning constants or hidden registers.
    """
    allowed: Set[Term] = set()
    for i in range(1, m + 1):
        allowed.add(X(i))
        allowed.add(Y(i))
    kept = [
        literal
        for literal in delta.literals
        if literal.is_equality() and all(t in allowed for t in literal.terms)
    ]
    return SigmaType(kept, check=False)


def type_uses_only_registers(delta: SigmaType, k: int) -> bool:
    """Check that every variable of *delta* is ``x_i``/``y_i`` with i <= k."""
    for variable in delta.variables:
        decomposed = register_index(variable)
        if decomposed is None:
            return False
        if decomposed[1] > k:
            return False
    return True
