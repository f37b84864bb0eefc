"""Code-based normalisation for emptiness and verification (the symkernel).

``check_emptiness`` and ``verify`` normalise the automaton --
``completed()`` then ``state_driven()`` -- before the lasso search
starts.  Completion is the Bell(2k) wall: every guard splits into one
transition per completion of its equality skeleton, each materialised as
an interned :class:`SigmaType` with its closure, satisfiability check and
canonical form, and the state-driven conversion then multiplies those
transitions again before ``scontrol_buchi`` walks them pair by pair.
For the automata both actually see -- relation-free signature, no
constants, equality-type guards -- all of that structure is determined
by *partition codes*: a completion of a guard over the vocabulary
``x1..xk, y1..yk`` is exactly a set partition of the ``2k`` variables,
an integer bitmask over :func:`repro.logic.types.pair_bits`.

This module builds the normalised symbolic control graph directly over
those codes:

* nodes are the control pairs of the normalised automaton, keyed by
  ``(source state, completion literal set)`` and carried as dense integer
  ranks with flat per-rank tuples (original state, partition code,
  per-register class masks and successor-image masks);
* the type-agreement edge test of ``scontrol_buchi`` becomes an integer
  comparison ``y_code(n) == x_code(n')`` (for complete constant-free
  equality types, agreement *is* equality of the boundary partitions);
* Theorem 9's consistency condition is followed by Lemma 21-style
  corridor trackers over register bitmasks: one walk per candidate
  (:class:`CodedCandidateCheck`) and one prefix filter for the enumeration
  (:class:`CodedNarrowing`), both over precomputed DFA transition tables.
  They are the only implementation: the literal normal form
  (:class:`~repro.core.emptiness.LiteralControl`) feeds them rows read off
  :func:`repro.logic.types.corridor_masks`.  The masks are the finite
  exact configuration encoding of Chen, Wang and Yen (arXiv:1402.6783).

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
* On the kernel the corridor walks read the *base* constraint DFAs with
  original states as letters (the literal path lifts them onto normalised
  states, which only renames the alphabet:
  ``lifted.delta(s, (p, comp)) == base.delta(s, p)``).  The lifted DFA's
  dead-state set can be larger -- states only live through alphabet
  symbols that are not normalised-state peels -- but a thread parked on a
  lifted-dead state can never reach an accepting state over actual trace
  symbols, so keeping it alive changes no verdict and no prune decision;
  accepting states are never dead on either side, so every violation
  fires identically.

**Eligibility.**  :func:`build_kernel` returns ``None`` -- and the caller
falls back to the legacy path -- when the signature has relations or
constants, when ``k == 0``, when some guard is not an equality type, or
when the automaton is already complete and state-driven (the legacy path
then skips normalisation entirely and there is no wall to avoid).  Within
the eligible domain an incomplete guard always yields at least two
completions from one source state, so the completed automaton is never
state-driven and the normalised control pairs are uniformly the nested
``((state, completion), completion)`` shape.

``verify`` additionally needs every proposition settled by the codes:
a node's letter is read off its partition code
(:func:`repro.ltl.ltlfo.code_assignment`, one bit test per atom), so a
sentence with a relation, a constant or a register beyond ``k`` takes
the legacy path too, which raises ``EvaluationError`` where no complete
type settles an atom.

**Consumers.**  ``check_emptiness`` and ``verify`` ask for the kernel through
the one selection :func:`repro.core.emptiness.normal_control`; its
:class:`~repro.core.emptiness.LiteralControl` answer is the legacy path,
kept for the inputs the kernel declines.  Forcing it on eligible inputs
is the test helper ``tests.helpers.without_symkernel()``, the baseline of
the byte-identity tests (``tests/test_symkernel.py``, which also checks
that the kernel materialises no completion) and of the E6 benchmark
(``benchmarks/bench_verification.py``).
"""

from functools import partial
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.automata.buchi import BuchiAutomaton
from repro.automata.words import Lasso
from repro.core.caching import dead_states
from repro.core.extended import ExtendedAutomaton, normalize_control
from repro.foundations.resilience import current_deadline
from repro.logic.literals import eq, neq
from repro.logic.terms import x_vars, y_vars
from repro.logic.types import (
    advance_mask,
    decode_completion,
    guard_completion_search,
    pair_bit,
    pair_bits,
)

__all__ = [
    "build_kernel",
    "SymbolicKernel",
    "CodedCandidateCheck",
    "CodedNarrowing",
    "constraint_tables",
]


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
# the corridor walk and the narrowing filter (both normal forms)
# ---------------------------------------------------------------------- #


def constraint_tables(extended: ExtendedAutomaton, letters) -> Tuple[Tuple, ...]:
    """``(i, j, delta, initial, accepting, dead)`` per inequality constraint.

    ``i`` and ``j`` are the constrained registers as bit indices,
    ``delta[(dfa state, letter)]`` is the constraint DFA's step on each of
    *letters*, and ``dead`` holds the DFA states from which no accepting
    state is reachable.
    """
    tables = []
    for constraint in extended.inequality_constraints():
        dfa = extended.constraint_dfa(constraint)
        delta = {
            (state, letter): dfa.delta(state, letter)
            for state in dfa.states
            for letter in letters
        }
        tables.append(
            (
                constraint.i - 1,
                constraint.j - 1,
                delta,
                dfa.initial,
                dfa.accepting,
                dead_states(dfa),
            )
        )
    return tuple(tables)


class CodedCandidateCheck:
    """Theorem 9 condition (a), consistency, on one lasso candidate.

    A product walk of each constraint DFA with the corridor of its left
    register, from every spine position: a violation is an accepting DFA
    state whose corridor holds the right register.  Cycle detection on
    (DFA state, corridor, stored position) makes the infinite check
    finite, so the answer is exact.  Bounded cliques (condition (b)) is
    the caller's: it holds vacuously without relations, exactly the
    early-out of :func:`repro.core.emptiness.trace_has_bounded_cliques`.

    ``row_of(symbol)`` is ``(letter, x_class, y_image)``: the letter the
    constraint DFAs read at that position and the corridor masks of its
    complete type (register ``m`` is bit ``m - 1``); ``tables`` come from
    :func:`constraint_tables`.  The kernel reads rows off partition codes,
    with original states as letters and the base DFAs;
    :class:`~repro.core.emptiness.LiteralControl` reads them off
    :func:`repro.logic.types.corridor_masks`, with normalised states as
    letters and the lifted DFAs.
    """

    __slots__ = ("row_of", "tables")

    def __init__(self, row_of, tables):
        self.row_of = row_of
        self.tables = tables

    def __call__(self, lasso: Lasso) -> bool:
        spine = lasso.spine_length()
        period = len(lasso.period)
        row_of = self.row_of
        rows = [row_of(symbol) for symbol in lasso.prefix + lasso.period]

        def stored(position: int) -> int:
            if position < spine:
                return position
            return spine - period + (position - (spine - period)) % period

        for i_index, j_bit, delta, initial, accepting, dead in self.tables:
            for start in range(spine):
                letter, x_class, _y_image = rows[start]
                members = x_class[i_index]
                dfa_state = delta[(initial, letter)]
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
                    members = advance_mask(rows[stored(position)][2], members)
                    position += 1
                    dfa_state = delta[(dfa_state, rows[stored(position)][0])]
        return True


class CodedNarrowing:
    """The consistency walk as a prefix filter of the lasso enumeration.

    Threaded through
    :meth:`repro.automata.buchi.BuchiAutomaton.iter_accepted_lassos`, over
    the inputs of :class:`CodedCandidateCheck`.  A filter state is
    ``(previous y_image row, per-constraint thread sets)``; a thread
    ``(dfa state, corridor)`` is the configuration the walk would hold
    after walking one constraint from one start position to the end of
    the explored word.
    :meth:`step` advances every thread in the walk's order (step,
    dead-continue, advance, violation), spawns the thread of the new start
    position, and returns ``None`` -- pruning the enumeration subtree --
    on a violation.  A violation inside the word dooms every lasso
    extending it, so the surviving candidates keep their order: verdict
    and winning witness are those of the unnarrowed search, and only
    ``candidates_checked`` shrinks.  ``paths_pruned`` is kept for
    diagnostics.
    """

    __slots__ = ("_row_of", "_tables", "paths_pruned")

    def __init__(self, row_of, tables):
        self._row_of = row_of
        self._tables = tables
        self.paths_pruned = 0

    def empty(self) -> Tuple:
        """The filter state before any symbol has been read."""
        return (None, tuple(frozenset() for _ in self._tables))

    def step(self, fstate: Tuple, symbol) -> Optional[Tuple]:
        """The filter state after appending *symbol*, or ``None`` to prune."""
        letter, x_class, y_image = self._row_of(symbol)
        previous_image, all_threads = fstate
        new_threads: List[frozenset] = []
        for index, table in enumerate(self._tables):
            i_index, j_bit, delta, initial, accepting, dead = table
            advanced = set()
            for dfa_state, members in all_threads[index]:
                next_state = delta[(dfa_state, letter)]
                if next_state in dead:
                    continue
                next_members = advance_mask(previous_image, members)
                if next_state in accepting and next_members >> j_bit & 1:
                    self.paths_pruned += 1
                    return None
                advanced.add((next_state, next_members))
            spawn_state = delta[(initial, letter)]
            if spawn_state not in dead:
                spawn_members = x_class[i_index]
                if spawn_state in accepting and spawn_members >> j_bit & 1:
                    self.paths_pruned += 1
                    return None
                advanced.add((spawn_state, spawn_members))
            new_threads.append(frozenset(advanced))
        return (y_image, tuple(new_threads))


# ---------------------------------------------------------------------- #
# the kernel
# ---------------------------------------------------------------------- #


class SymbolicKernel:
    """The coded normalised control graph of one eligible automaton.

    Produced by :func:`build_kernel`; consumed by
    :func:`repro.core.emptiness.check_emptiness` and
    :func:`repro.core.verification.verify`.  ``buchi`` is the Buchi
    automaton for ``SControl`` of the normalised automaton over rank ids;
    :meth:`decode_lasso` maps an id-lasso back to the legacy
    ``((state, completion), completion)`` pair lasso, materialising only
    the completions the winning witness touches.
    """

    def __init__(self, without_eq, vocab, nodes, buchi, rows, stats):
        self._without_eq = without_eq
        self._vocab = vocab
        self._nodes = nodes  # rank -> _Node
        self.buchi = buchi
        #: node id -> ``(original state, x_class masks, y_image masks)``
        self._rows = rows
        self._tables: Optional[Tuple[Tuple, ...]] = None
        self._pairs: Dict[int, Tuple] = {}
        self.stats = stats
        #: Builds the literal normal form on demand.  Only a witness asked
        #: for a concrete run needs it, so the searches hand the builder,
        #: not its value, to :class:`~repro.core.emptiness.EmptinessWitness`;
        #: it holds the automaton only, so a kept witness does not keep
        #: the kernel alive.
        self.normalised = partial(normalize_control, without_eq)

    # -- decoding ------------------------------------------------------ #

    def code_of(self, symbol: str) -> int:
        """The completion code of node *symbol* (over ``x1..xk, y1..yk``)."""
        return self._nodes[int(symbol[1:])].code

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
        if self._tables is None:
            originals = dict.fromkeys(node.state for node in self._nodes)
            self._tables = constraint_tables(self._without_eq, originals)
        return self._tables

    def candidate_check(self) -> CodedCandidateCheck:
        """The per-candidate realisability check."""
        return CodedCandidateCheck(self._rows.__getitem__, self._constraint_tables())

    def build_narrowing(self) -> Optional[CodedNarrowing]:
        """The enumeration filter; ``None`` without inequality constraints."""
        if not self._without_eq.inequality_constraints():
            return None
        return CodedNarrowing(self._rows.__getitem__, self._constraint_tables())


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

    rows = {
        node.node_id: (node.state, masks[node.code][2], masks[node.code][3])
        for node in control
    }
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
        rows,
        stats,
    )
