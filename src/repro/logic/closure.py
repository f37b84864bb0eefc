"""Equality closure over terms: the satisfiability engine for sigma-types.

Our logic is function-free, so congruence closure degenerates to the
reflexive-symmetric-transitive closure of the asserted equalities, computed
with a union-find structure.  On top of the closure we detect the three kinds
of conflicts a set of literals can exhibit:

* a negative equality ``s != t`` with ``s ~ t`` in the closure,
* a positive and a negative relational literal on tuples that are equal
  component-wise modulo the closure,
* (trivially) ``s != s``.

This module is also reused by the run machinery of the core package, where
union-find tracks the equivalence ``~_w`` between (position, register) pairs
of a symbolic control trace (Section 3).
"""

from typing import Dict, Generic, Hashable, Iterable, List, Set, Tuple, TypeVar

from repro.logic.literals import EqAtom, Literal, RelAtom

N = TypeVar("N", bound=Hashable)


class UnionFind(Generic[N]):
    """Union-find with path compression and union by rank.

    Nodes are created lazily by :meth:`find`.  The structure is generic: the
    logic layer uses terms as nodes, the core layer uses (position, register)
    pairs.
    """

    def __init__(self) -> None:
        self._parent: Dict[N, N] = {}
        self._rank: Dict[N, int] = {}

    def find(self, node: N) -> N:
        """Return the canonical representative of *node*'s class."""
        parent = self._parent
        if node not in parent:
            parent[node] = node
            self._rank[node] = 0
            return node
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(self, a: N, b: N) -> N:
        """Merge the classes of *a* and *b*; return the surviving root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return ra

    def same(self, a: N, b: N) -> bool:
        """Whether *a* and *b* are in the same class."""
        return self.find(a) == self.find(b)

    def nodes(self) -> List[N]:
        """All nodes ever touched."""
        return list(self._parent)

    def classes(self) -> Dict[N, Set[N]]:
        """A map from representative to the full class it represents."""
        result: Dict[N, Set[N]] = {}
        for node in self._parent:
            result.setdefault(self.find(node), set()).add(node)
        return result


class EqualityClosure:
    """The equality closure of a set of literals, with conflict detection.

    Build one from literals, then query :meth:`is_consistent`,
    :meth:`entails_eq` and :meth:`entails_neq`.
    """

    def __init__(self, literals: Iterable[Literal]):
        self._literals: Tuple[Literal, ...] = tuple(literals)
        self._uf: UnionFind = UnionFind()
        self._neq_pairs: List[Tuple] = []
        self._pos_rel: List[RelAtom] = []
        self._neg_rel: List[RelAtom] = []
        for literal in self._literals:
            atom = literal.atom
            if isinstance(atom, EqAtom):
                self._uf.find(atom.left)
                self._uf.find(atom.right)
                if literal.positive:
                    self._uf.union(atom.left, atom.right)
                else:
                    self._neq_pairs.append((atom.left, atom.right))
            else:
                for term in atom.args:
                    self._uf.find(term)
                if literal.positive:
                    self._pos_rel.append(atom)
                else:
                    self._neg_rel.append(atom)

    def same(self, a, b) -> bool:
        """Whether terms *a* and *b* are forced equal by the closure."""
        return self._uf.same(a, b)

    def entails_eq(self, a, b) -> bool:
        """Whether the literals entail ``a = b``."""
        return self.same(a, b)

    def entails_neq(self, a, b) -> bool:
        """Whether the literals entail ``a != b``.

        True when some asserted disequality connects the classes of *a* and
        *b* (the only way a disequality can be entailed in equality logic).
        """
        ca, cb = self._uf.find(a), self._uf.find(b)
        for left, right in self._neq_pairs:
            cl, cr = self._uf.find(left), self._uf.find(right)
            if (cl, cr) in ((ca, cb), (cb, ca)):
                return True
        return False

    def _tuples_equal(self, one: RelAtom, other: RelAtom) -> bool:
        if one.relation != other.relation or len(one.args) != len(other.args):
            return False
        return all(self.same(a, b) for a, b in zip(one.args, other.args))

    def is_consistent(self) -> bool:
        """Whether the literal set is satisfiable.

        Function-free quantifier-free conjunctions are satisfiable exactly
        when the closure produces no conflict: build a model whose universe is
        the set of equivalence classes, interpreting relations by the positive
        literals.
        """
        for left, right in self._neq_pairs:
            if self.same(left, right):
                return False
        for pos in self._pos_rel:
            for negative in self._neg_rel:
                if self._tuples_equal(pos, negative):
                    return False
        return True

    def entails_literal(self, literal: Literal) -> bool:
        """Whether the closed literal set entails *literal*."""
        atom = literal.atom
        if isinstance(atom, EqAtom):
            if literal.positive:
                return self.entails_eq(atom.left, atom.right)
            return self.entails_neq(atom.left, atom.right)
        pool = self._pos_rel if literal.positive else self._neg_rel
        return any(self._tuples_equal(atom, candidate) for candidate in pool)
