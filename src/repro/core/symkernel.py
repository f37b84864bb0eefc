"""Code-based normalisation for the emptiness pipeline (the symkernel).

``check_emptiness`` normalises the automaton -- ``completed()`` then
``state_driven()`` -- before the lasso search starts.  Completion is the
Bell(2k) wall: every guard splits into one transition per completion of
its equality skeleton, each materialised as an interned :class:`SigmaType`
with its closure, satisfiability check and canonical form, and the
state-driven conversion then multiplies those transitions again before
``scontrol_buchi`` walks them pair by pair.  For the automata the
emptiness check actually sees in the constraint pipeline -- relation-free
signature, no constants, equality-type guards -- all of that structure is
determined by *partition codes*: a completion of a guard over the
vocabulary ``x1..xk, y1..yk`` is exactly a set partition of the ``2k``
variables, an integer bitmask over :func:`repro.logic.types.pair_bits`.

This module builds the normalised symbolic control graph directly over
those codes:

* nodes are the control pairs of the normalised automaton, keyed by
  ``(source state, completion literal set)`` and carried as dense integer
  ranks with flat per-rank tuples (original state, partition code,
  per-register class masks and successor-image masks);
* the type-agreement edge test of ``scontrol_buchi`` becomes an integer
  comparison ``y_code(n) == x_code(n')`` (for complete constant-free
  equality types, agreement *is* equality of the boundary partitions);
* the Lemma 21 corridor trackers -- the candidate consistency walk and the
  :class:`~repro.core.pruning.ConstraintNarrowing` prefix filter -- run on
  register bitmasks and precomputed DFA transition tables instead of
  closure queries on materialised guards.

**Byte-identity.**  The kernel result must be indistinguishable from the
legacy path.  The anchors:

* :func:`repro.logic.types.guard_completion_search` replays the legacy
  completion DFS over pure masks, so codes come out in ``completions()``
  order and :func:`repro.logic.types.decode_completion` rebuilds any
  completion literal-for-literal (under interning: the same object).
* The Buchi lasso searches order states and symbols by ``repr``.  Kernel
  node ids are ``"n%08d" % rank`` with ranks assigned by sorting the
  nodes on the *exact legacy pair repr* -- built from the same sorted
  canonical literal strings ``SigmaType.__repr__`` uses -- so the id
  order replays the pair order and the enumeration visits candidates in
  the legacy sequence.  :class:`~repro.automata.words.Lasso`
  canonicalisation is pure symbol-equality, hence commutes with the
  id-to-pair bijection: deduplication, ``candidates_checked`` and the
  winning trace all match, and only the winner is decoded.
* The corridor walks use the *base* constraint DFAs (the legacy path
  lifts them onto normalised states, which only renames the alphabet:
  ``lifted.delta(s, (p, comp)) == base.delta(s, p)``).  The lifted DFA's
  dead-state set can be larger -- states only live through alphabet
  symbols that are not normalised-state peels -- but a thread parked on a
  lifted-dead state can never reach an accepting state over actual trace
  symbols, so keeping it alive changes no verdict and no prune decision;
  accepting states are never dead on either side, so every violation
  fires identically.
* The narrowing skips the optional abstract-configuration filter the
  legacy path attaches: on completed automata the symbolic control graph
  is already exact and the filter is a no-op (see
  :func:`repro.core.pruning.build_narrowing`).

**Eligibility.**  :func:`build_kernel` returns ``None`` -- and the caller
falls back to the legacy path -- when the signature has relations or
constants, when ``k == 0``, when some guard is not an equality type, or
when the automaton is already complete and state-driven (the legacy path
then skips normalisation entirely and there is no wall to avoid).  Within
the eligible domain an incomplete guard always yields at least two
completions from one source state, so the completed automaton is never
state-driven and the normalised control pairs are uniformly the nested
``((state, completion), completion)`` shape.

Everything is gated by the call-time ``REPRO_SYMKERNEL`` knob (default
on); ``REPRO_SYMKERNEL=0`` is the ablation switch used by CI and the E19
benchmark (``benchmarks/bench_symkernel.py``, BENCH_8.json).
"""

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.foundations import knobs
from repro.automata.buchi import BuchiAutomaton
from repro.automata.words import Lasso
from repro.core.caching import dead_states
from repro.core.extended import ExtendedAutomaton
from repro.foundations.resilience import current_deadline
from repro.logic.literals import eq, neq
from repro.logic.terms import x_vars, y_vars
from repro.logic.types import (
    decode_completion,
    guard_completion_search,
    pair_bit,
    pair_bits,
)

__all__ = ["symkernel_enabled", "build_kernel", "SymbolicKernel"]

def symkernel_enabled() -> bool:
    """The ``REPRO_SYMKERNEL`` knob, read at call time (default on).

    Never cached, so tests and the ablation CI leg can flip it per call.
    """
    return knobs.value("REPRO_SYMKERNEL")


# ---------------------------------------------------------------------- #
# pure integer bit tables (per register count)
# ---------------------------------------------------------------------- #

_BIT_TABLES: Dict[int, Tuple] = {}  # mode-ok: pure integer tables


def _bit_tables(k: int) -> Tuple:
    """Pair-bit index maps between widths ``2k`` (codes) and ``k`` (masks).

    Returns ``(x_remap, y_remap, xclass_bits, yimage_bits)``:

    * ``x_remap[b] = (bit2k, bitk)`` for the x-side pairs ``(i, j)``,
      ``i < j <= k`` -- projecting a completion code onto the current
      x-partition at width ``k``;
    * ``y_remap`` the same for the pairs ``(k+i, k+j)`` (the next
      x-partition, read off the y-side);
    * ``xclass_bits[i-1]`` lists ``(m, bit2k)`` for every other register
      ``m`` -- the bits deciding the ``~``-class of register ``i``;
    * ``yimage_bits[l-1]`` lists ``(m, bit2k)`` for the pairs
      ``(l, k+m)`` -- the bits deciding where register ``l`` flows.
    """
    found = _BIT_TABLES.get(k)
    if found is None:
        width = 2 * k
        x_remap = tuple(
            (pair_bit(i, j, width), bit) for bit, (i, j) in enumerate(pair_bits(k))
        )
        y_remap = tuple(
            (pair_bit(k + i, k + j, width), bit)
            for bit, (i, j) in enumerate(pair_bits(k))
        )
        xclass_bits = tuple(
            tuple((m, pair_bit(i, m, width)) for m in range(1, k + 1) if m != i)
            for i in range(1, k + 1)
        )
        yimage_bits = tuple(
            tuple((m, pair_bit(l, k + m, width)) for m in range(1, k + 1))
            for l in range(1, k + 1)
        )
        found = _BIT_TABLES[k] = (x_remap, y_remap, xclass_bits, yimage_bits)
    return found


def _code_masks(code: int, k: int) -> Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]:
    """``(x_code, y_code, x_class masks, y_image masks)`` of a completion code.

    ``x_class[i-1]`` has bit ``m-1`` set when the completion puts ``x_i``
    and ``x_m`` in one class (``i`` itself included) -- the integer form of
    :func:`repro.logic.types.x_equality_classes`.  ``y_image[l-1]`` has
    bit ``m-1`` set when it entails ``x_l = y_m`` -- the integer form of
    :func:`repro.logic.types.y_successor_images`.
    """
    x_remap, y_remap, xclass_bits, yimage_bits = _bit_tables(k)
    x_code = 0
    for bit2k, bitk in x_remap:
        if code >> bit2k & 1:
            x_code |= 1 << bitk
    y_code = 0
    for bit2k, bitk in y_remap:
        if code >> bit2k & 1:
            y_code |= 1 << bitk
    x_class = []
    for i in range(1, k + 1):
        mask = 1 << (i - 1)
        for m, bit2k in xclass_bits[i - 1]:
            if code >> bit2k & 1:
                mask |= 1 << (m - 1)
        x_class.append(mask)
    y_image = []
    for l in range(1, k + 1):
        mask = 0
        for m, bit2k in yimage_bits[l - 1]:
            if code >> bit2k & 1:
                mask |= 1 << (m - 1)
        y_image.append(mask)
    return x_code, y_code, tuple(x_class), tuple(y_image)


def _advance_mask(y_image: Tuple[int, ...], members: int) -> int:
    """One corridor step: the union of images of the registers in *members*."""
    result = 0
    remaining = members
    while remaining:
        low = remaining & -remaining
        result |= y_image[low.bit_length() - 1]
        remaining ^= low
    return result


class _Node:
    """One control pair of the normalised automaton, in coded form."""

    __slots__ = ("state", "guard", "code", "lits", "targets", "rank", "node_id", "text")

    def __init__(self, state, guard, code: int, lits: FrozenSet):
        self.state = state
        self.guard = guard
        self.code = code
        self.lits = lits
        self.targets: Set = set()
        self.rank = -1
        self.node_id = ""
        self.text = ""


# ---------------------------------------------------------------------- #
# corridor trackers over codes
# ---------------------------------------------------------------------- #


class CodedCandidateCheck:
    """Picklable consistency check for one id-lasso candidate.

    The coded mirror of :class:`repro.core.emptiness._CandidateCheck`:
    the same product walk of constraint DFA and corridor tracker with the
    same cycle detection, but corridors are register bitmasks, DFA steps
    are table lookups keyed by ``(dfa state, original-state index)``, and
    nothing references a guard object -- the instance ships only tuples,
    dicts and frozensets.  Bounded cliques (Theorem 9 condition (b)) hold
    vacuously in the kernel's domain: a relation-free signature gives the
    inequality graph no vertices, exactly the early-out of
    :func:`repro.core.emptiness.trace_has_bounded_cliques`.
    """

    __slots__ = ("node_orig", "node_xclass", "node_yimage", "tables")

    def __init__(self, node_orig, node_xclass, node_yimage, tables):
        self.node_orig = node_orig
        self.node_xclass = node_xclass
        self.node_yimage = node_yimage
        self.tables = tables

    def __call__(self, lasso: Lasso) -> bool:
        spine = lasso.spine_length()
        period = len(lasso.period)
        ranks = [int(symbol[1:]) for symbol in lasso.prefix + lasso.period]

        def stored(position: int) -> int:
            if position < spine:
                return position
            return spine - period + (position - (spine - period)) % period

        node_orig = self.node_orig
        node_xclass = self.node_xclass
        node_yimage = self.node_yimage
        for i_index, j_bit, delta, initial, accepting, dead in self.tables:
            for start in range(spine):
                rank = ranks[start]
                members = node_xclass[rank][i_index]
                dfa_state = delta[(initial, node_orig[rank])]
                position = start
                seen: Set[Tuple] = set()
                while True:
                    if dfa_state in dead:
                        break  # acceptance unreachable: no violation ahead
                    if dfa_state in accepting and members >> j_bit & 1:
                        return False
                    key = (dfa_state, members, stored(position))
                    if key in seen:
                        break
                    seen.add(key)
                    members = _advance_mask(node_yimage[ranks[stored(position)]], members)
                    position += 1
                    dfa_state = delta[(dfa_state, node_orig[ranks[stored(position)]])]
        return True


class CodedNarrowing:
    """Mask-level mirror of :class:`repro.core.pruning.ConstraintNarrowing`.

    Same filter-state discipline -- per-constraint thread sets advanced in
    the exact consistency-walk order (step, dead-continue, advance,
    violation, spawn) -- over node ranks instead of ``(state, guard)``
    symbols.  Prune decisions are identical to the legacy filter (see the
    module docstring for the dead-set argument); ``paths_pruned`` is kept
    for diagnostics.
    """

    __slots__ = ("_node_orig", "_node_xclass", "_node_yimage", "_tables", "paths_pruned")

    def __init__(self, node_orig, node_xclass, node_yimage, tables):
        self._node_orig = node_orig
        self._node_xclass = node_xclass
        self._node_yimage = node_yimage
        self._tables = tables
        self.paths_pruned = 0

    def empty(self) -> Tuple:
        return (None, tuple(frozenset() for _ in self._tables))

    def step(self, fstate: Tuple, symbol) -> Optional[Tuple]:
        rank = int(symbol[1:])
        orig = self._node_orig[rank]
        previous_rank, all_threads = fstate
        previous_image = (
            None if previous_rank is None else self._node_yimage[previous_rank]
        )
        new_threads: List[frozenset] = []
        for index, table in enumerate(self._tables):
            i_index, j_bit, delta, initial, accepting, dead = table
            advanced = set()
            for dfa_state, members in all_threads[index]:
                next_state = delta[(dfa_state, orig)]
                if next_state in dead:
                    continue
                next_members = _advance_mask(previous_image, members)
                if next_state in accepting and next_members >> j_bit & 1:
                    self.paths_pruned += 1
                    return None
                advanced.add((next_state, next_members))
            spawn_state = delta[(initial, orig)]
            if spawn_state not in dead:
                spawn_members = self._node_xclass[rank][i_index]
                if spawn_state in accepting and spawn_members >> j_bit & 1:
                    self.paths_pruned += 1
                    return None
                advanced.add((spawn_state, spawn_members))
            new_threads.append(frozenset(advanced))
        return (rank, tuple(new_threads))


# ---------------------------------------------------------------------- #
# the kernel
# ---------------------------------------------------------------------- #


class SymbolicKernel:
    """The coded normalised control graph of one eligible automaton.

    Produced by :func:`build_kernel`; consumed by
    :func:`repro.core.emptiness.check_emptiness`.  ``buchi`` is the Buchi
    automaton for ``SControl`` of the normalised automaton over rank ids;
    :meth:`decode_lasso` maps an id-lasso back to the legacy
    ``((state, completion), completion)`` pair lasso, materialising only
    the completions the winning witness touches.
    """

    def __init__(self, without_eq, vocab, nodes, buchi, node_tables, stats):
        self._without_eq = without_eq
        self._vocab = vocab
        self._nodes = nodes  # rank -> _Node
        self.buchi = buchi
        self._node_orig, self._node_xclass, self._node_yimage = node_tables
        self._pairs: Dict[int, Tuple] = {}
        self.stats = stats

    # -- decoding ------------------------------------------------------ #

    def decode_node(self, rank: int) -> Tuple:
        """The legacy control pair of node *rank* (cached per rank)."""
        found = self._pairs.get(rank)
        if found is None:
            node = self._nodes[rank]
            completion = decode_completion(node.guard, node.code, self._vocab)
            found = self._pairs[rank] = ((node.state, completion), completion)
        return found

    def decode_lasso(self, lasso: Lasso) -> Lasso:
        """The pair lasso of an id-lasso (byte-identical to the legacy one)."""
        return lasso.map(lambda symbol: self.decode_node(int(symbol[1:])))

    # -- corridor trackers --------------------------------------------- #

    def _constraint_tables(self) -> Tuple[Tuple, ...]:
        found = getattr(self, "_tables", None)
        if found is None:
            without_eq = self._without_eq
            orig_index: Dict[object, int] = {}
            for node in self._nodes:
                if node.state not in orig_index:
                    orig_index[node.state] = len(orig_index)
            originals = list(orig_index)
            tables = []
            for constraint in without_eq.inequality_constraints():
                dfa = without_eq.constraint_dfa(constraint)
                delta = {
                    (state, index): dfa.delta(state, original)
                    for state in dfa.states
                    for index, original in enumerate(originals)
                }
                tables.append(
                    (
                        constraint.i - 1,
                        constraint.j - 1,
                        delta,
                        dfa.initial,
                        frozenset(dfa.accepting),
                        dead_states(dfa),
                    )
                )
            # Re-key the per-node original states by the index the delta
            # tables use (plain ints: cheap to pickle with the check).
            self._node_orig = tuple(orig_index[node.state] for node in self._nodes)
            found = self._tables = tuple(tables)
        return found

    def candidate_check(self) -> CodedCandidateCheck:
        """The picklable per-candidate realisability check."""
        tables = self._constraint_tables()
        return CodedCandidateCheck(
            self._node_orig, self._node_xclass, self._node_yimage, tables
        )

    def build_narrowing(self) -> Optional[CodedNarrowing]:
        """The coded enumeration filter.

        ``None`` exactly when :func:`repro.core.pruning.build_narrowing`
        would return ``None``: no inequality constraints.
        """
        if not self._without_eq.inequality_constraints():
            return None
        tables = self._constraint_tables()
        return CodedNarrowing(
            self._node_orig, self._node_xclass, self._node_yimage, tables
        )


def build_kernel(without_eq: ExtendedAutomaton) -> Optional[SymbolicKernel]:
    """The coded normalised control graph, or ``None`` when ineligible.

    *without_eq* is the extended automaton **after** equality-constraint
    elimination (Proposition 6), pruning and trimming -- the exact input
    the legacy ``completed()``/``state_driven()`` normalisation would see.
    """
    automaton = without_eq.automaton
    signature = automaton.signature
    k = automaton.k
    if k == 0 or signature.relations or signature.const_terms():
        return None
    transitions = automaton.transitions
    if not transitions:
        return None

    guards = dict.fromkeys(transition.guard for transition in transitions)
    for guard in guards:
        if not guard.is_equality_type():
            return None

    vocab = tuple(x_vars(k)) + tuple(y_vars(k))
    searches = {}
    complete = True
    for guard in guards:
        codes, choices = guard_completion_search(guard, vocab)
        searches[guard] = (codes, choices)
        if len(codes) != 1:
            complete = False
    if complete and automaton.is_state_driven():
        return None  # legacy normalisation is the identity: nothing to win

    # Chosen-branch literals, one per (pair bit, polarity) at width 2k.
    width_pairs = pair_bits(2 * k)
    chosen_literal = {}
    for bit, (i, j) in enumerate(width_pairs):
        left, right = vocab[i - 1], vocab[j - 1]
        chosen_literal[(bit, True)] = eq(left, right)
        chosen_literal[(bit, False)] = neq(left, right)

    # Nodes: one per (source state, completion literal set), first-occurrence
    # order over (transition, completion) -- the order the legacy completed()
    # loop materialises them in.  Identical literal sets are identical
    # completions (SigmaType equality is literal-set equality), so the dedup
    # matches the control_pairs() dedup of the normalised automaton.
    nodes: Dict[Tuple, _Node] = {}
    completed_transitions = 0
    for transition in transitions:
        active = current_deadline()
        if active is not None:
            active.check("symkernel.build")
        codes, choices = searches[transition.guard]
        completed_transitions += len(codes)
        base_literals = transition.guard.literals
        for code in codes:
            lits = base_literals.union(
                chosen_literal[choice] for choice in choices[code]
            )
            key = (transition.source, lits)
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = _Node(transition.source, transition.guard, code, lits)
            node.targets.add(transition.target)

    # Control pairs: sources of normalised transitions, i.e. nodes with a
    # completion-successor.  Every guard is satisfiable, so a target has
    # followers exactly when it has base transitions.
    has_follow = {
        state: bool(automaton.transitions_from(state)) for state in automaton.states
    }
    control = [
        node
        for node in nodes.values()
        if any(has_follow[target] for target in node.targets)
    ]

    # Rank by the legacy pair repr.  The normalised pair is
    # ((state, completion), completion); its repr is assembled from the
    # state repr and the completion's canonical literal rendering -- the
    # exact strings SigmaType.__repr__ would produce -- without building
    # the SigmaType.
    state_text: Dict[object, str] = {}
    literal_text: Dict[object, str] = {}
    guard_text: Dict[FrozenSet, str] = {}
    for node in control:
        text = guard_text.get(node.lits)
        if text is None:
            if node.lits:
                rendered = []
                for literal in sorted(node.lits):
                    found = literal_text.get(literal)
                    if found is None:
                        found = literal_text[literal] = repr(literal)
                    rendered.append(found)
                text = "SigmaType(%s)" % " and ".join(rendered)
            else:
                text = "SigmaType(true)"
            guard_text[node.lits] = text
        state = state_text.get(node.state)
        if state is None:
            state = state_text[node.state] = repr(node.state)
        node.text = "((%s, %s), %s)" % (state, text, text)
    control.sort(key=lambda node: node.text)
    for rank, node in enumerate(control):
        node.rank = rank
        node.node_id = "n%08d" % rank

    # Per-code mask tables and the agreement groups.
    masks: Dict[int, Tuple] = {}
    by_state_xcode: Dict[Tuple, List[_Node]] = {}
    for node in control:
        found = masks.get(node.code)
        if found is None:
            found = masks[node.code] = _code_masks(node.code, k)
        by_state_xcode.setdefault((node.state, found[0]), []).append(node)

    buchi_transitions: Dict[str, Dict[str, frozenset]] = {}
    edge_count = 0
    for node in control:
        y_code = masks[node.code][1]
        successors: Set[str] = set()
        for target in node.targets:
            for successor in by_state_xcode.get((target, y_code), ()):
                successors.add(successor.node_id)
        if successors:
            edge_count += len(successors)
            buchi_transitions[node.node_id] = {node.node_id: frozenset(successors)}
    initial = [node.node_id for node in control if node.state in automaton.initial]
    accepting = [node.node_id for node in control if node.state in automaton.accepting]
    buchi = BuchiAutomaton(buchi_transitions, initial, accepting)

    node_orig = tuple(node.state for node in control)
    node_xclass = tuple(masks[node.code][2] for node in control)
    node_yimage = tuple(masks[node.code][3] for node in control)
    stats = {
        "control_nodes": len(control),
        "control_edges": edge_count,
        "distinct_guards": len(guards),
        "completed_transitions": completed_transitions,
    }
    return SymbolicKernel(
        without_eq,
        vocab,
        tuple(control),
        buchi,
        (node_orig, node_xclass, node_yimage),
        stats,
    )
