"""Finite windows of lasso control traces: classes, graphs, realisations.

Several decision procedures (emptiness of extended automata, LR-boundedness,
the Section 6 constructions) analyse the equivalence ``~_w`` and the
inequality relation ``!=_w`` of a symbolic control trace ``w`` (Section 3).
For lasso-shaped ``w`` everything is eventually periodic; a
:class:`TraceWindow` materialises a finite unfolding -- the prefix plus a
chosen number of loop iterations, *not* closed into a ring unless asked
to, so no spurious identifications occur -- and computes:

* the equivalence classes of ``~_w`` restricted to the window (generated by
  the guards' equality literals; global equality constraints are assumed to
  have been eliminated by Proposition 6 beforehand),
* membership of classes in the *active-domain positions* ``adom_w``
  (classes touching a positive relational literal, cf. Theorem 9),
* the inequality edges from local disequality literals and from global
  inequality constraints whose matches lie inside the window,
* the graph ``G_w`` of Theorem 9 (inequality edges between adom classes)
  and the edges of the graphs ``G^w_h`` of Section 5 (left/right
  inequality edges at a cut ``h``) at every cut, filed in one sweep,
* concrete realisations: per-class distinct values, a window database and a
  valid :class:`FiniteRun`.

Given ``loop_start``, the window is closed into the ring of stage 1 of
Theorem 9: a ``y`` term at its last position names position
``loop_start``, so the realisation is the data of a lasso run
(:func:`repro.core.symbolic.realize_control_trace`).
"""

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.automata.words import Lasso
from repro.core.caching import dead_states
from repro.db.database import Database
from repro.foundations.domain import FreshSupply
from repro.logic.closure import UnionFind
from repro.logic.literals import EqAtom, RelAtom
from repro.logic.terms import Const, register_index
from repro.core.runs import FiniteRun

Node = Tuple[int, int]  # (position, register)


class TraceWindow:
    """A finite unfolding of a lasso control trace, with its constraint data.

    The classes are built once, at construction.  A scan of the global
    constraints runs each DFA from every start position to the end of the
    window, or until it reaches a dead state.  :meth:`cut_edges` sweeps
    the window once: it files each inequality edge under the cuts it
    crosses, so the cut graphs ``G^w_h`` at all cuts cost one scan.

    Parameters
    ----------
    trace:
        A lasso of ``(state, guard)`` pairs (a symbolic control trace).
    k:
        Number of registers.
    length:
        Number of positions to materialise (defaults to prefix + 3 loops).
    inequality_constraints:
        Global inequality constraints (as
        :class:`~repro.core.extended.GlobalConstraint` objects with compiled
        or compilable expressions over the automaton's states).
    states:
        The automaton's state set (alphabet for constraint compilation).
    loop_start:
        When given, a ``y`` term at the last position names this position
        instead of one past the window, closing the window into a ring.
    """

    def __init__(
        self,
        trace: Lasso,
        k: int,
        length: Optional[int] = None,
        inequality_constraints: Sequence = (),
        states: Optional[FrozenSet] = None,
        equality_constraints: Sequence = (),
        loop_start: Optional[int] = None,
    ):
        if length is None:
            length = len(trace.prefix) + 3 * len(trace.period)
        self._trace = trace
        self._k = k
        self._length = length
        self._loop_start = loop_start
        self._pairs = [trace[i] for i in range(length)]
        self._states = [pair[0] for pair in self._pairs]
        self._guards = [pair[1] for pair in self._pairs]
        self._constraints = list(inequality_constraints)
        self._equality_constraints = list(equality_constraints)
        self._alphabet = states
        self._uf: UnionFind = UnionFind()
        self._local_inequalities: List[Tuple[Node, Node]] = []
        self._positive_literals: List[Tuple[int, RelAtom]] = []
        self._negative_literals: List[Tuple[int, RelAtom]] = []
        self._build()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def _node(self, position: int, term) -> object:
        if isinstance(term, Const):
            return ("const", term.name)
        kind, index = register_index(term)
        if kind == "x":
            return (position, index)
        if position + 1 == self._length and self._loop_start is not None:
            return (self._loop_start, index)
        return (position + 1, index)

    def _build(self) -> None:
        for position in range(self._length):
            for register in range(1, self._k + 1):
                self._uf.find((position, register))
        for position, guard in enumerate(self._guards):
            for literal in guard.literals:
                atom = literal.atom
                if isinstance(atom, EqAtom):
                    left = self._node(position, atom.left)
                    right = self._node(position, atom.right)
                    if self._in_window(left) and self._in_window(right):
                        if literal.positive:
                            self._uf.union(left, right)
                        else:
                            self._local_inequalities.append((left, right))
                else:
                    if literal.positive:
                        self._positive_literals.append((position, atom))
                    else:
                        self._negative_literals.append((position, atom))
        # Global equality constraints matched inside the window merge their
        # endpoint classes (used by analyses that bypass Proposition 6).
        for left, right in self._matches(self._equality_constraints):
            self._uf.union(left, right)

    def _matches(self, constraints: Sequence) -> Iterator[Tuple[Node, Node]]:
        """The endpoint nodes of every match of *constraints* in the window.

        In constraint order, then by start and end position.  A start
        position is abandoned once its DFA run reaches a dead state, from
        which no later end can match.
        """
        for constraint in constraints:
            dfa = constraint.compiled(self._alphabet)
            dead = dead_states(dfa)
            accepting = dfa.accepting
            step = dfa.delta
            for start in range(self._length):
                dfa_state = dfa.initial
                for end in range(start, self._length):
                    dfa_state = step(dfa_state, self._states[end])
                    if dfa_state in dead:
                        break
                    if dfa_state in accepting:
                        yield (start, constraint.i), (end, constraint.j)

    def _inequality_pairs(self) -> Iterator[Tuple[Node, Node]]:
        """Node pairs forced unequal: local disequality literals first, then
        the matches of the global inequality constraints."""
        yield from self._local_inequalities
        yield from self._matches(self._constraints)

    def _in_window(self, node) -> bool:
        if isinstance(node, tuple) and node and node[0] == "const":
            return True
        return node[0] < self._length

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def length(self) -> int:
        return self._length

    @property
    def guards(self) -> List:
        return list(self._guards)

    def class_of(self, position: int, register: int):
        """The canonical representative of ``(position, register)``."""
        return self._uf.find((position, register))

    def same_class(self, a: Node, b: Node) -> bool:
        return self._uf.same(a, b)

    def all_classes(self) -> Dict:
        """Representative -> member set, for all touched nodes."""
        return self._uf.classes()

    # ------------------------------------------------------------------ #
    # adom and inequality structure
    # ------------------------------------------------------------------ #

    def adom_classes(self) -> Set:
        """Representatives of classes in ``adom_w`` (within the window).

        A class is in the active-domain positions when one of its members
        appears in a positive relational literal (through an x- or
        y-variable) -- the paper's ``adom_w`` from Theorem 9.  Constant
        nodes are always included when they appear positively.
        """
        found: Set = set()
        for position, atom in self._positive_literals:
            for term in atom.args:
                node = self._node(position, term)
                if self._in_window(node):
                    found.add(self._uf.find(node))
        return found

    def inequality_edges(self) -> Set[Tuple]:
        """Unordered pairs of class representatives forced unequal.

        Combines local disequality literals with global inequality
        constraints matched inside the window.
        """
        find = self._uf.find
        edges: Set[Tuple] = set()
        for a, b in self._inequality_pairs():
            ra, rb = find(a), find(b)
            if ra != rb:
                edges.add((ra, rb) if repr(ra) <= repr(rb) else (rb, ra))
        return edges

    def conflict(self) -> Optional[Tuple]:
        """A pair forced both equal and unequal within the window, if any."""
        for a, b in self._inequality_pairs():
            if self._uf.same(a, b):
                return (a, b)
        return None

    def constraint_graph(self) -> Tuple[List, Set[Tuple]]:
        """``G_w`` restricted to the window: (adom class list, edge set)."""
        adom = self.adom_classes()
        edges = {
            (a, b) for (a, b) in self.inequality_edges() if a in adom and b in adom
        }
        return sorted(adom, key=repr), edges

    def cut_edges(self, right_margin: int = 1) -> List[Set[Tuple]]:
        """The edges of ``G^w_h`` (Section 5) at every cut ``h``, in one sweep.

        Entry ``h`` holds the ``(left class, right class)`` inequality edges
        between the classes entirely on positions ``<= h`` and those
        entirely on positions ``> h``; classes straddling the cut are
        excluded, as in Definition 15.  When the class of one node of an
        inequality pair ends, at ``hi``, before the class of the other
        starts, at ``lo``, their edge crosses exactly the cuts
        ``hi <= h < lo``, whichever node the pair names first.  The
        classes' spans and the edges are computed once, and each edge is
        filed under the cuts it crosses.

        ``right_margin`` handles window truncation: a class whose members
        reach into the last *right_margin* positions may extend beyond the
        window (equality corridors are contiguous, so margin 1 is exact for
        corridor classes; global equality constraints can reconnect a class
        after a gap, so callers pass a period-sized margin) and is treated
        as potentially straddling, i.e. excluded.  Exclusion only ever
        shrinks covers, so boundedness verdicts stay sound.  The list stops
        before the cut ``horizon - 1`` (``horizon = length - right_margin``),
        the first with no room for a right-side class.
        """
        horizon = self._length - right_margin
        find = self._uf.find
        spans: Dict[object, Tuple[int, int]] = {}
        for node in self._uf.nodes():
            if node[0] == "const":
                continue
            root = find(node)
            position = node[0]
            low, high = spans.get(root, (position, position))
            spans[root] = (min(low, position), max(high, position))
        crossing: Set[Tuple] = set()
        for a, b in self._inequality_pairs():
            left, right = find(a), find(b)
            if left not in spans or right not in spans:
                continue
            if spans[left][1] > spans[right][1]:
                left, right = right, left
            if spans[left][1] < spans[right][0] and spans[right][1] < horizon:
                crossing.add((left, right))
        cuts: List[Set[Tuple]] = [set() for _ in range(max(horizon - 1, 0))]
        for left, right in crossing:
            for h in range(spans[left][1], spans[right][0]):
                cuts[h].add((left, right))
        return cuts

    # ------------------------------------------------------------------ #
    # realisation
    # ------------------------------------------------------------------ #

    def realize(self, signature) -> Optional[Tuple[Database, FiniteRun]]:
        """A concrete database and valid run prefix realising the window.

        Assigns one fresh value per class; returns ``None`` when the window
        itself is contradictory (a conflict, or a positive/negative
        relational clash).  On a ring the data are those of a lasso run
        whose last guard steps back to ``loop_start``.
        """
        if self.conflict() is not None:
            return None
        supply = FreshSupply(prefix="w")
        values: Dict = {}

        def value_of(node):
            root = self._uf.find(node)
            if root not in values:
                values[root] = supply.take()
            return values[root]

        facts: Dict[str, Set[Tuple]] = {}
        for position, atom in self._positive_literals:
            row = []
            for term in atom.args:
                node = self._node(position, term)
                if not self._in_window(node):
                    break
                row.append(value_of(node))
            else:
                facts.setdefault(atom.relation, set()).add(tuple(row))
        for position, atom in self._negative_literals:
            row = []
            for term in atom.args:
                node = self._node(position, term)
                if not self._in_window(node):
                    break
                row.append(value_of(node))
            else:
                if tuple(row) in facts.get(atom.relation, set()):
                    return None
        constant_map = {
            name: value_of(("const", name)) for name in signature.constants
        }
        database = Database(signature, relations=facts, constants=constant_map)
        data = tuple(
            tuple(value_of((position, register)) for register in range(1, self._k + 1))
            for position in range(self._length)
        )
        run = FiniteRun(
            data=data,
            states=tuple(self._states),
            guards=tuple(self._guards[:-1]),
        )
        return database, run
