"""Generic forward-fixpoint dataflow solving over finite graphs.

The framework is deliberately small: a :class:`Lattice` protocol (bottom,
join, leq, optional widen), a :class:`ForwardProblem` describing a graph
with labelled edges and per-node entry values, and a worklist solver
:func:`solve_forward` computing the least fixpoint of::

    value(n)  >=  entry(n)  \\/  join over edges (m --label--> n) of
                                 transfer(label, value(m))

Determinism discipline: nodes are seeded in ``repr``-sorted order and the
worklist is FIFO with membership dedup, so the number of iterations -- and
every intermediate value -- is a pure function of the problem, independent
of hash seeds and intern-table state.  Consumers (the pruner, the
reduction) rely on this to keep repeated runs byte-identical.

Instantiations live next door: :mod:`repro.analysis.dataflow.equality_domain`
runs the reachable-equality-types analysis of registers over this solver.
"""

from collections import deque
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Generic,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.foundations.resilience import Budget

V = TypeVar("V")
Node = Hashable
Label = Hashable

__all__ = [
    "Lattice",
    "PowersetLattice",
    "SubsumptionLattice",
    "ForwardProblem",
    "BackwardProblem",
    "FixpointResult",
    "solve_forward",
    "solve_backward",
]


class Lattice(Generic[V]):
    """A join-semilattice with bottom; subclass and override the three ops.

    ``widen`` defaults to ``join`` -- correct (and terminating) whenever
    the lattice has finite height, which every instantiation in this
    repository has.  Override it for infinite-height domains.
    """

    def bottom(self) -> V:
        raise NotImplementedError

    def join(self, left: V, right: V) -> V:
        raise NotImplementedError

    def leq(self, left: V, right: V) -> bool:
        raise NotImplementedError

    def widen(self, previous: V, joined: V) -> V:
        return self.join(previous, joined)


class PowersetLattice(Lattice[FrozenSet]):
    """Finite powerset ordered by inclusion: bottom = empty, join = union."""

    def bottom(self) -> FrozenSet:
        return frozenset()

    def join(self, left: FrozenSet, right: FrozenSet) -> FrozenSet:
        if left <= right:
            return right
        if right <= left:
            return left
        return left | right

    def leq(self, left: FrozenSet, right: FrozenSet) -> bool:
        return left <= right


class SubsumptionLattice(Lattice[FrozenSet]):
    """Antichain powerset: sets pruned to their subsumption-maximal elements.

    Parameterised by ``subsumes(big, small)`` -- a *partial order* on
    elements (reflexive, transitive, antisymmetric); ``small`` is redundant
    in a set that also contains a distinct ``big`` subsuming it.  Values
    are frozensets kept in antichain form by :meth:`prune`:

    * ``bottom`` is the empty set,
    * ``join`` is union followed by pruning,
    * ``leq(a, b)`` holds when every element of ``a`` is subsumed by some
      element of ``b`` -- inclusion of the downward closures, which is the
      order the fixpoint actually computes in.

    Elements must be totally orderable (``sorted``) so pruning -- and with
    it every solver value -- is a pure function of the set, independent of
    hash iteration order (the framework's determinism discipline).

    The dataflow height argument still applies: downward closures of the
    per-node values grow strictly on every update and live in a finite
    powerset, so the worklist terminates; the least fixpoint's closures
    equal those of the explicit powerset run, which is why the antichain
    equality domain reproduces the explicit domain's verdicts exactly.
    """

    def __init__(self, subsumes: Callable[[object, object], bool]) -> None:
        self._subsumes = subsumes

    def bottom(self) -> FrozenSet:
        return frozenset()

    def prune(self, elements: Iterable) -> FrozenSet:
        """The subsumption-maximal elements of *elements*."""
        subsumes = self._subsumes
        items = sorted(set(elements))
        kept = []
        for item in items:
            if any(other != item and subsumes(other, item) for other in items):
                continue
            kept.append(item)
        return frozenset(kept)

    def join(self, left: FrozenSet, right: FrozenSet) -> FrozenSet:
        if left == right:
            return left
        return self.prune(left | right)

    def leq(self, left: FrozenSet, right: FrozenSet) -> bool:
        subsumes = self._subsumes
        return all(
            any(subsumes(big, small) for big in right) for small in left
        )


class ForwardProblem(Generic[V]):
    """A forward dataflow problem over a finite labelled graph.

    Subclasses describe the graph (:meth:`nodes`, :meth:`out_edges`), the
    boundary condition (:meth:`entry`), and the abstract semantics
    (:meth:`transfer`).  The solver never inspects nodes or labels beyond
    hashing them.
    """

    lattice: Lattice[V]

    def nodes(self) -> Iterable[Node]:
        raise NotImplementedError

    def entry(self, node: Node) -> V:
        """The boundary value injected at *node* (bottom for most nodes)."""
        raise NotImplementedError

    def out_edges(self, node: Node) -> Iterable[Tuple[Label, Node]]:
        raise NotImplementedError

    def transfer(self, label: Label, value: V) -> V:
        raise NotImplementedError


class BackwardProblem(Generic[V]):
    """A backward dataflow problem over a finite labelled graph.

    The mirror image of :class:`ForwardProblem`: information flows from a
    node's *successors* back to the node, the boundary condition
    (:meth:`exit`) is injected where forward problems inject ``entry``,
    and :meth:`transfer` abstracts an edge traversed against its
    direction -- given the value holding *after* the edge, it produces
    the contribution holding *before* it.  The least solution satisfies::

        value(n)  >=  exit(n)  \\/  join over edges (n --label--> m) of
                                    transfer(label, value(m))

    Solved by :func:`solve_backward`, which runs the *same* worklist core
    as :func:`solve_forward` on the edge-reversed graph -- there is no
    second solver loop, so the determinism discipline (repr-sorted
    seeding, FIFO dedup, budget-charged edge evaluations) carries over
    verbatim, for both :class:`PowersetLattice` and the antichain
    :class:`SubsumptionLattice`.
    """

    lattice: Lattice[V]

    def nodes(self) -> Iterable[Node]:
        raise NotImplementedError

    def exit(self, node: Node) -> V:
        """The boundary value injected at *node* (bottom for most nodes)."""
        raise NotImplementedError

    def out_edges(self, node: Node) -> Iterable[Tuple[Label, Node]]:
        """Edges in the *original* (forward) direction, as drawn."""
        raise NotImplementedError

    def transfer(self, label: Label, value: V) -> V:
        """Flow *value* (holding at the edge's target) back over the edge."""
        raise NotImplementedError


class FixpointResult(Generic[V]):
    """The least fixpoint plus solver effort counters.

    ``values`` maps every node to its final abstract value; ``iterations``
    counts node visits (worklist pops), ``edge_evaluations`` counts
    transfer-function applications.  Both counters feed the benchmark
    tables and the budget checks in the equality-domain instantiation.
    """

    __slots__ = ("values", "iterations", "edge_evaluations")

    def __init__(
        self, values: Dict[Node, V], iterations: int, edge_evaluations: int
    ) -> None:
        self.values = values
        self.iterations = iterations
        self.edge_evaluations = edge_evaluations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "FixpointResult(%d nodes, %d iterations, %d edges)" % (
            len(self.values),
            self.iterations,
            self.edge_evaluations,
        )


def solve_forward(
    problem: ForwardProblem[V],
    max_edge_evaluations=None,
) -> Optional[FixpointResult[V]]:
    """Least solution of *problem* by FIFO worklist iteration.

    *max_edge_evaluations* caps transfer applications: an ``int``, or a
    :class:`~repro.foundations.resilience.Budget` that is charged one
    unit per application (so the caller's budget hierarchy sees exactly
    the solver's effort, and an exhausted *ancestor* scope also stops
    the solve).  Returns ``None`` when the cap is exceeded before the
    fixpoint is reached -- the caller treats an exhausted budget as "no
    information" (analyses degrade to no-ops rather than unsound
    answers).  The stopping point is a pure function of the problem and
    the cap: a ``Budget`` with limit ``n`` stops on exactly the same
    edge evaluation as the plain ``int`` ``n`` did.
    """
    if isinstance(max_edge_evaluations, Budget):
        budget: Optional[Budget] = max_edge_evaluations
    elif max_edge_evaluations is not None:
        budget = Budget("edges", max_edge_evaluations)
    else:
        budget = None
    lattice = problem.lattice
    nodes: List[Node] = sorted(problem.nodes(), key=repr)
    values: Dict[Node, V] = {}
    worklist = deque()
    queued = set()
    for node in nodes:
        values[node] = problem.entry(node)
        worklist.append(node)
        queued.add(node)
    iterations = 0
    edge_evaluations = 0
    while worklist:
        node = worklist.popleft()
        queued.discard(node)
        iterations += 1
        value = values[node]
        for label, target in problem.out_edges(node):
            edge_evaluations += 1
            if budget is not None and not budget.charge():
                return None
            contribution = problem.transfer(label, value)
            previous = values.get(target)
            if previous is None:
                previous = values[target] = lattice.bottom()
            if lattice.leq(contribution, previous):
                continue
            values[target] = lattice.widen(
                previous, lattice.join(previous, contribution)
            )
            if target not in queued:
                worklist.append(target)
                queued.add(target)
    return FixpointResult(values, iterations, edge_evaluations)


class _ReversedProblem(ForwardProblem[V]):
    """A :class:`BackwardProblem` viewed forward over the reversed graph.

    Reversal is the whole adapter: ``entry`` is the backward ``exit``
    boundary and ``out_edges`` walks a precomputed predecessor index, so
    :func:`solve_forward`'s worklist, budget charging, and join/widen
    sequence run unchanged.  The predecessor lists are built in
    repr-sorted node order and keep each node's declared edge order, so
    the edge evaluation sequence is as deterministic as the forward one.
    """

    def __init__(self, problem: BackwardProblem[V]) -> None:
        self.lattice = problem.lattice
        self._problem = problem
        self._nodes = sorted(problem.nodes(), key=repr)
        in_edges: Dict[Node, List[Tuple[Label, Node]]] = {
            node: [] for node in self._nodes
        }
        for node in self._nodes:
            for label, target in problem.out_edges(node):
                in_edges.setdefault(target, []).append((label, node))
        self._in_edges = in_edges

    def nodes(self) -> Iterable[Node]:
        return self._nodes

    def entry(self, node: Node) -> V:
        return self._problem.exit(node)

    def out_edges(self, node: Node) -> Iterable[Tuple[Label, Node]]:
        return self._in_edges.get(node, ())

    def transfer(self, label: Label, value: V) -> V:
        return self._problem.transfer(label, value)


def solve_backward(
    problem: BackwardProblem[V],
    max_edge_evaluations=None,
) -> Optional[FixpointResult[V]]:
    """Least solution of the backward *problem*.

    Delegates to :func:`solve_forward` over the edge-reversed graph --
    there is deliberately no second solver loop, so the budget contract
    (int or :class:`Budget`, ``None`` on exhaustion) and the effort
    counters mean exactly what they mean forward.
    """
    return solve_forward(_ReversedProblem(problem), max_edge_evaluations)
