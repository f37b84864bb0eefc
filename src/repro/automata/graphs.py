"""Accepting-cycle search over any finite graph: Tarjan components and breadth-first paths.

Büchi emptiness, lasso membership, the Theorem 12 pair search, the
ground-truth run search and the trim and co-reachability analyses all ask
one question: is there a reachable cycle through an accepting node, and
which lasso reaches it?  They answer it with these two functions, over
a ``successors(node)`` function each caller supplies, in the manner of
the VATA library's searches over precomputed successor tables
(arXiv:1204.3240).

The caller decides everything but the graph walk: the order of the
roots and of each successor list fixes the visiting order, and a
``successors`` function may charge a budget, poll a deadline or memoise
its lists.  Nodes are any hashable values but ``None``.
"""

from bisect import bisect_left
from typing import Callable, Collection, Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

Node = Hashable


def cyclic_components(
    roots: Iterable[Node], successors: Callable[[Node], Iterable[Node]]
) -> Iterator[List[Node]]:
    """The strongly connected components reachable from *roots* that have a cycle.

    A component has a cycle when it has two or more nodes, or one node
    with a self-loop.  Components come out in the order one iterative
    Tarjan pass completes them, its members in visit order; a component
    comes after every component it reaches.  ``successors`` is called
    once per node, when the pass first visits it, so a caller that stops
    after the component it wants has expanded only the nodes visited by
    then.  Iterative, so deep graphs cannot hit the recursion limit.
    """
    number: Dict[Node, int] = {}
    nodes: List[Node] = []  # visit number -> node
    low: List[int] = []
    on_stack: List[bool] = []
    stack: List[int] = []  # visit numbers, increasing
    looped: Set[int] = set()  # visit numbers with a self-loop
    for root in roots:
        if root in number:
            continue
        visit = number[root] = len(nodes)
        nodes.append(root)
        low.append(visit)
        on_stack.append(True)
        stack.append(visit)
        work = [(visit, iter(successors(root)))]
        while work:
            visit, pending = work[-1]
            for target in pending:
                found = number.get(target)
                if found is None:
                    found = number[target] = len(nodes)
                    nodes.append(target)
                    low.append(found)
                    on_stack.append(True)
                    stack.append(found)
                    work.append((found, iter(successors(target))))
                    break
                if found == visit:
                    looped.add(visit)
                elif on_stack[found] and found < low[visit]:
                    low[visit] = found
            else:
                work.pop()
                lowest = low[visit]
                if work and lowest < low[work[-1][0]]:
                    low[work[-1][0]] = lowest
                if lowest != visit:
                    continue
                if stack[-1] == visit:
                    # One node: no list unless it has a self-loop.
                    stack.pop()
                    on_stack[visit] = False
                    if visit in looped:
                        yield [nodes[visit]]
                    continue
                cut = bisect_left(stack, visit)
                members = stack[cut:]
                del stack[cut:]
                for member in members:
                    on_stack[member] = False
                yield [nodes[member] for member in members]


def walk(
    sources: Iterable[Node],
    goal: Callable[[Node], bool],
    successors: Callable[[Node], Iterable[Node]],
    label: Callable[[Node, Node], object],
    within: Optional[Collection[Node]] = None,
    nonempty: bool = False,
) -> Optional[Tuple[List[Node], List]]:
    """The breadth-first path from *sources* to the first node that meets *goal*.

    Returns ``(nodes, labels)``: the path's nodes from a source to the
    goal node, and ``label(node, next)`` for each of its edges; ``None``
    when no goal node is reachable.  The sources are tried in order,
    then the nodes in the order the search discovers them, each node's
    successors in the order *successors* lists them.  A source that
    meets *goal* ends the walk at once, with no edge, unless *nonempty*
    asks for at least one edge (so a walk from a node back to itself
    finds a cycle).  *within* confines the walk to its nodes.  Only the
    edges of the returned path are labelled.
    """
    sources = list(sources)
    if not nonempty:
        for source in sources:
            if goal(source):
                return [source], []
    parent: Dict[Node, Optional[Node]] = dict.fromkeys(sources)
    queue = list(parent)
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        for target in successors(node):
            if within is not None and target not in within:
                continue
            if goal(target):
                path = [target]
                while node is not None:
                    path.append(node)
                    node = parent[node]
                path.reverse()
                return path, [label(source, step) for source, step in zip(path, path[1:])]
            if target not in parent:
                parent[target] = node
                queue.append(target)
    return None
