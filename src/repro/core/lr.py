"""LR-boundedness and Theorem 19 (Section 5).

An extended automaton is **LR-bounded** (Definition 15) when there is a
uniform bound ``N`` on the vertex covers of the graphs ``G^w_h``: for every
control trace ``w`` and position ``h``, the inequality edges between
classes entirely left of the cut ``h`` and classes entirely right of it.
LR-boundedness characterises (up to register-trace equivalence) the
extended automata that are projections of register automata (Theorem 19).

This module implements:

* vertex covers of the cut graphs (they are bipartite, so König's theorem
  gives exact covers via maximum matching),
* :func:`lr_cover_profile` / :func:`is_lr_bounded`: the boundedness check
  on lasso traces, comparing cover sizes across growing windows (the
  eventually periodic structure makes covers stabilise or grow linearly;
  Theorem 18's general MSO+bounds decision [10] is replaced by this lasso
  analysis, exact on the fragment the library constructs -- see DESIGN.md),
* **Proposition 22** (:func:`synthesize_register_automaton`): an LR-bounded
  single-register extended automaton with inequality constraints is the
  projection of a register automaton; the synthesis uses the paper's
  register banks -- bank A stores *source* values whose future matches are
  checked by disequality, bank B stores guessed *target* values checked by
  membership -- with thread bookkeeping in the control state.  Soundness
  (``Pi_1(Reg(A)) subseteq Reg(B)``) holds for every budget; completeness
  requires a budget commensurate with the LR bound (the paper's
  ``2 M^2 + 1``), and our bank-B merge rule is slightly stricter than the
  paper's bag-equality test (conflicting merges abort the branch rather
  than unify), which never compromises soundness.
"""

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.automata.words import Lasso
from repro.foundations.errors import SpecificationError
from repro.foundations.resilience import current_deadline
from repro.logic.literals import eq as lit_eq
from repro.logic.literals import neq as lit_neq
from repro.logic.terms import X, Y
from repro.logic.types import SigmaType
from repro.core.extended import ExtendedAutomaton, GlobalConstraint, normalize_control
from repro.core.register_automaton import RegisterAutomaton, Transition
from repro.core.symbolic import scontrol_buchi
from repro.core.tracewindow import TraceWindow


# ---------------------------------------------------------------------- #
# vertex covers of cut graphs
# ---------------------------------------------------------------------- #


def bipartite_vertex_cover(
    left: Sequence, right: Sequence, edges: Iterable[Tuple]
) -> int:
    """Minimum vertex cover size of a bipartite graph (König: = max matching).

    *edges* are (left_vertex, right_vertex) pairs.
    """
    adjacency: Dict[object, List[object]] = {v: [] for v in left}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    match_left: Dict[object, object] = {}
    match_right: Dict[object, object] = {}

    def augment(vertex, seen: Set) -> bool:
        for other in adjacency.get(vertex, ()):
            if other in seen:
                continue
            seen.add(other)
            if other not in match_right or augment(match_right[other], seen):
                match_left[vertex] = other
                match_right[other] = vertex
                return True
        return False

    matching = 0
    for vertex in left:
        if augment(vertex, set()):
            matching += 1
    return matching


def lr_cover_profile(
    extended: ExtendedAutomaton, trace: Lasso, loops: int = 3
) -> List[int]:
    """Vertex cover sizes of ``G^w_h`` for every cut in a window of *trace*.

    *extended* should have a complete, state-driven control; both kinds of
    global constraints are honoured (equality matches merge classes inside
    the window, so no Proposition 6 elimination is required here).  The
    window covers the prefix plus *loops* loop iterations.  One sweep of
    the window (:meth:`TraceWindow.cut_edges`) files every inequality edge
    under the cuts it crosses; each cut then costs one matching.
    """
    automaton = extended.automaton
    window = TraceWindow(
        trace,
        automaton.k,
        length=len(trace.prefix) + loops * len(trace.period),
        inequality_constraints=extended.inequality_constraints(),
        states=automaton.states,
        equality_constraints=extended.equality_constraints(),
    )
    # Classes reaching into the final `margin` positions may extend beyond
    # the window and are treated as straddling (excluded); cuts at or past
    # that horizon see no right-side classes and are not meaningful, so the
    # profile stops before them.
    margin = len(trace.period) + 1
    profile: List[int] = []
    for edges in window.cut_edges(right_margin=margin):
        left = list(dict.fromkeys(a for a, _b in edges))
        right = list(dict.fromkeys(b for _a, b in edges))
        profile.append(bipartite_vertex_cover(left, right, edges))
    return profile


def is_lr_bounded(
    extended: ExtendedAutomaton,
    max_prefix: int = 1,
    max_cycle: int = 4,
    max_candidates: int = 500,
    base_loops: int = 4,
    max_loops: int = 13,
) -> bool:
    """Whether *extended* is LR-bounded (Definition 15 / Theorem 18).

    Enumerates lasso control traces and compares the maximum cut-graph
    vertex cover across windows growing by three loop iterations at a time
    (*base_loops*, then +3 up to the first size past *max_loops*: 4, 7, 10,
    13 and 16 loops by default): on the eventually periodic class/edge
    structure the cover either stabilises (bounded) or grows with the
    window (unbounded).  Exact on lassos within the enumeration bounds;
    ``DESIGN.md`` records this substitution for the paper's
    MSO+bounding-quantifier argument.  Polls the ambient deadline once per
    candidate lasso (checkpoint ``lr.lasso``).
    """
    normalised = normalize_control(extended)
    buchi = scontrol_buchi(normalised.automaton)
    for lasso in _candidate_lassos(buchi, max_prefix, max_cycle, max_candidates):
        if _window_inconsistent(normalised, lasso, base_loops + 2):
            # Definition 15 ranges over Control(A); traces whose induced
            # (in)equalities clash have no runs and are excluded (the same
            # consistency assumption Theorem 13's proof makes).
            continue
        # Grow the window until the max cover stabilises: a bounded profile
        # may legitimately climb for a while (long-range edges enter the
        # horizon) before reaching its bound, so a single comparison would
        # flag false growth.  Unbounded profiles never stabilise.
        loops = base_loops
        current = max(lr_cover_profile(normalised, lasso, loops=loops) or [0])
        stable = False
        while loops <= max_loops:
            loops += 3
            nxt = max(lr_cover_profile(normalised, lasso, loops=loops) or [0])
            if nxt <= current:
                stable = True
                break
            current = nxt
        if not stable:
            return False
    return True


def _candidate_lassos(buchi, max_prefix: int, max_cycle: int, max_candidates: int):
    """The first *max_candidates* distinct accepted lassos of *buchi*.

    Polls the ambient deadline (checkpoint ``lr.lasso``) before handing
    out each one, so the window work on a lasso never starts past the
    deadline.
    """
    seen: Set[Lasso] = set()
    for lasso in buchi.iter_accepted_lassos(max_cycle, max_prefix):
        if lasso in seen:
            continue
        seen.add(lasso)
        if len(seen) > max_candidates:
            return
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("lr.lasso")
        yield lasso


def _window_inconsistent(extended: ExtendedAutomaton, trace: Lasso, loops: int) -> bool:
    """Whether the trace's constraints clash within the analysis window."""
    automaton = extended.automaton
    window = TraceWindow(
        trace,
        automaton.k,
        length=len(trace.prefix) + loops * len(trace.period),
        inequality_constraints=extended.inequality_constraints(),
        states=automaton.states,
        equality_constraints=extended.equality_constraints(),
    )
    return window.conflict() is not None


def lr_bound_estimate(
    extended: ExtendedAutomaton,
    max_prefix: int = 1,
    max_cycle: int = 4,
    max_candidates: int = 200,
    loops: int = 5,
) -> int:
    """The largest cut-graph vertex cover observed over sampled lassos.

    The window is ``loops`` unrollings of each lasso's period.  The
    default 5-loop window cannot separate bounded from unbounded inputs:
    it reads 1 for Example 16's A, its unbounded A' and Example 7 alike,
    which 16 loops read as 1, 7 and 7.  Polls the ambient deadline once
    per candidate lasso (checkpoint ``lr.lasso``).
    """
    normalised = normalize_control(extended)
    buchi = scontrol_buchi(normalised.automaton)
    best = 0
    for lasso in _candidate_lassos(buchi, max_prefix, max_cycle, max_candidates):
        if _window_inconsistent(normalised, lasso, loops):
            continue
        profile = lr_cover_profile(normalised, lasso, loops=loops)
        if profile:
            best = max(best, max(profile))
    return best


# ---------------------------------------------------------------------- #
# Proposition 22: LR-bounded => projection of a register automaton
# ---------------------------------------------------------------------- #


def synthesize_register_automaton(
    extended: ExtendedAutomaton, bank_a: int = 2, bank_b: int = 2
) -> RegisterAutomaton:
    """**Proposition 22**: realise an LR-bounded extended automaton as the
    projection of a register automaton.

    *extended* must have one register, no database, and only inequality
    constraints (eliminate equalities with Proposition 6 first).  The
    result ``A`` has ``1 + bank_a + bank_b`` registers and satisfies
    ``Pi_1(Reg(A)) subseteq Reg(extended)`` for every budget, with equality
    when the budgets dominate the LR bound (the paper's ``kappa > M^2``).

    Register layout: register 1 simulates the visible register; registers
    ``2 .. 1+bank_a`` form bank A (stored source values, checked ``!=`` at
    every accepting position of their thread); registers ``2+bank_a ..
    1+bank_a+bank_b`` form bank B (guessed target values, checked by
    membership at accepting positions).  Control states carry the thread
    tags of every bank register, plus the set of "monitored" DFA states
    that promised no further matches.
    """
    automaton = extended.automaton
    if automaton.k != 1:
        raise SpecificationError(
            "the Proposition 22 synthesis is implemented for single-register "
            "automata, as in the paper's proof; got k=%d" % automaton.k
        )
    if automaton.signature.relations or automaton.signature.constants:
        raise SpecificationError("Proposition 22 applies to automata without a database")
    if extended.equality_constraints():
        raise SpecificationError(
            "eliminate global equality constraints (Proposition 6) before the synthesis"
        )
    constraints = list(extended.inequality_constraints())
    dfas = [extended.constraint_dfa(c) for c in constraints]

    a_regs = list(range(2, 2 + bank_a))
    b_regs = list(range(2 + bank_a, 2 + bank_a + bank_b))
    total = 1 + bank_a + bank_b

    # A control state: (q, a_tags, b_tags, bad, pending)
    #  - a_tags/b_tags: tuples over the bank registers; each entry is None
    #    or (constraint index, DFA state) -- the thread the register serves.
    #  - bad: frozenset of (constraint index, DFA state): monitored threads
    #    that must never reach acceptance.
    #  - pending: guard literals still owed for position 0 (seed states).

    def advance_tags(tags: Tuple, symbol) -> Tuple:
        advanced = []
        for tag in tags:
            if tag is None:
                advanced.append(None)
            else:
                c_index, s = tag
                advanced.append((c_index, dfas[c_index].delta(s, symbol)))
        return tuple(advanced)

    def advance_bad(bad: FrozenSet, symbol) -> Optional[FrozenSet]:
        moved = set()
        for c_index, s in bad:
            s2 = dfas[c_index].delta(s, symbol)
            if s2 in dfas[c_index].accepting:
                return None  # a promised non-match happened: branch dies
            moved.add((c_index, s2))
        return frozenset(moved)

    def spawn_options(symbol, a_tags, b_tags, bad, var):
        """Per-position source guesses for every constraint.

        Yields (a_tags, b_tags, bad, literals).  *var* is the variable
        constructor for the position's registers (Y for ordinary steps,
        X for position 0).
        """
        states_now = [
            dfas[c_index].delta(dfas[c_index].initial, symbol)
            for c_index in range(len(constraints))
        ]
        options = [(a_tags, b_tags, bad, [])]
        for c_index, s0 in enumerate(states_now):
            new_options = []
            dfa = dfas[c_index]
            for cur_a, cur_b, cur_bad, lits in options:
                # (N) not a source: monitor, unless s0 already accepts.
                if s0 not in dfa.accepting:
                    new_options.append((cur_a, cur_b, cur_bad | {(c_index, s0)}, lits))
                # (S) store own value in a free bank-A register.
                if s0 not in dfa.accepting:  # immediate self-match is unsat
                    for slot, tag in enumerate(cur_a):
                        if tag is None:
                            updated = cur_a[:slot] + ((c_index, s0),) + cur_a[slot + 1 :]
                            lit = lit_eq(var(a_regs[slot]), var(1))
                            new_options.append((updated, cur_b, cur_bad, lits + [lit]))
                            break  # one free slot is as good as another
                # (G) guess target values into free bank-B registers, or
                # adopt the existing set for this (constraint, state) tag.
                existing = [r for r, tag in enumerate(cur_b) if tag == (c_index, s0)]
                if existing:
                    adopt = [
                        lit_neq(var(b_regs[r]), var(1)) for r in existing
                    ]
                    new_options.append((cur_a, cur_b, cur_bad, lits + adopt))
                else:
                    free = [r for r, tag in enumerate(cur_b) if tag is None]
                    for count in range(1, len(free) + 1):
                        chosen = free[:count]
                        updated = list(cur_b)
                        guesses = []
                        for r in chosen:
                            updated[r] = (c_index, s0)
                            guesses.append(lit_neq(var(b_regs[r]), var(1)))
                        # distinct guessed values (a set, not a bag)
                        for r1, r2 in combinations(chosen, 2):
                            guesses.append(lit_neq(var(b_regs[r1]), var(b_regs[r2])))
                        new_options.append((cur_a, tuple(updated), cur_bad, lits + guesses))
            options = new_options
        return options

    def retire_options(a_tags, b_tags, bad):
        """Optionally retire threads: free registers, promise no matches."""
        yield a_tags, b_tags, bad
        for slot, tag in enumerate(a_tags):
            if tag is not None:
                yield (
                    a_tags[:slot] + (None,) + a_tags[slot + 1 :],
                    b_tags,
                    bad | {tag},
                )
        tags_present = {tag for tag in b_tags if tag is not None}
        for tag in tags_present:
            cleared = tuple(None if t == tag else t for t in b_tags)
            yield a_tags, cleared, bad | {tag}

    def enforcement_literals(a_tags, b_tags, var):
        """Obligations at a position: bank-A disequalities, bank-B membership.

        Bank-B membership is nondeterministic (which register matches);
        returns a list of alternative literal lists.
        """
        # Bank-A value propagation is handled by the carry literals; here we
        # only add the disequalities at accepting thread states.
        alternatives: List[List] = [list()]
        for slot, tag in enumerate(a_tags):
            if tag is None:
                continue
            c_index, s = tag
            if s in dfas[c_index].accepting:
                for alt in alternatives:
                    alt.append(lit_neq(var(1), var(a_regs[slot])))
        accepting_b_tags = {
            tag
            for tag in b_tags
            if tag is not None and tag[1] in dfas[tag[0]].accepting
        }
        for tag in sorted(accepting_b_tags, key=repr):
            slots = [r for r, t in enumerate(b_tags) if t == tag]
            expanded: List[List] = []
            for alt in alternatives:
                for r in slots:
                    expanded.append(alt + [lit_eq(var(1), var(b_regs[r]))])
            alternatives = expanded
        return alternatives

    def carry_literals(a_tags, b_tags):
        """Propagate occupied bank registers unchanged across a transition."""
        literals: List = []
        for slot, tag in enumerate(a_tags):
            if tag is not None:
                literals.append(lit_eq(X(a_regs[slot]), Y(a_regs[slot])))
        for slot, tag in enumerate(b_tags):
            if tag is not None:
                literals.append(lit_eq(X(b_regs[slot]), Y(b_regs[slot])))
        return literals

    empty_a = (None,) * bank_a
    empty_b = (None,) * bank_b

    from repro.foundations.errors import InconsistentTypeError

    seeds: Set[Tuple] = set()
    worklist: List[Tuple] = []
    for q in sorted(automaton.initial, key=repr):
        for a_tags, b_tags, bad, lits in spawn_options(q, empty_a, empty_b, frozenset(), X):
            for alt in enforcement_literals(a_tags, b_tags, X):
                seed = (q, a_tags, b_tags, bad, tuple(lits) + tuple(alt))
                if seed not in seeds:
                    seeds.add(seed)
                    worklist.append(seed)

    transitions: List[Transition] = []
    all_states: Set[Tuple] = set(seeds)
    explored: Set[Tuple] = set()
    while worklist:
        state = worklist.pop()
        if state in explored:
            continue
        explored.add(state)
        q, a_tags, b_tags, bad, pending = state
        for transition in automaton.transitions_from(q):
            target_symbol = transition.target
            for ra, rb, rbad in retire_options(a_tags, b_tags, bad):
                moved_bad = advance_bad(rbad, target_symbol)
                if moved_bad is None:
                    continue
                adv_a = advance_tags(ra, target_symbol)
                adv_b = advance_tags(rb, target_symbol)
                carry = carry_literals(ra, rb)
                for fa, fb, fbad, spawn_lits in spawn_options(
                    target_symbol, adv_a, adv_b, moved_bad, Y
                ):
                    for alt in enforcement_literals(fa, fb, Y):
                        literals = list(pending) + carry + spawn_lits + alt
                        try:
                            guard = transition.guard.with_literals(literals)
                        except InconsistentTypeError:
                            continue
                        target = (target_symbol, fa, fb, fbad, ())
                        transitions.append(Transition(state, guard, target))
                        if target not in all_states:
                            all_states.add(target)
                            worklist.append(target)

    accepting = {s for s in all_states if s[0] in automaton.accepting}
    return RegisterAutomaton(
        total,
        automaton.signature,
        all_states,
        seeds,
        accepting,
        transitions,
    )
