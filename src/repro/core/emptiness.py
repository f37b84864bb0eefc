"""Emptiness of extended register automata (Theorem 9, Corollary 10).

The paper shows that ``Control(A)`` of an extended automaton ``A`` is
*quasi-regular*: a symbolic control trace ``w`` in ``SControl(A)`` is
realised by an actual database and run iff (a) its induced (dis)equality
constraints are consistent and (b) the inequality graph ``G_w`` over
active-domain classes has bounded cliques.  Emptiness is therefore
decidable (Corollary 10).

This module implements the decision on lasso witnesses:

1. global equality constraints are eliminated (Proposition 6) and the
   control normalised (complete + state-driven), after which ``~_w`` is
   generated by local equalities only and every corridor is tracked
   exactly by the subset automata of Lemma 21; each guard is completed
   over its scoped vocabulary only, the registers Proposition 6 adds
   joining it where a guard at the transition's source or target
   mentions them (:func:`repro.core.extended.register_scopes`);
2. candidate lassos are drawn from the Buchi automaton for
   ``SControl(A)``;
3. each candidate is checked for **consistency** -- no pair of positions
   forced both equal and unequal -- exactly, by one filter that follows
   the constraint DFAs with the corridor trackers,
   :class:`~repro.core.symkernel.CodedNarrowing` on both normal forms: it
   narrows the enumeration, and run around a lasso until its state at a
   period boundary repeats it is the candidate check
   (:class:`~repro.core.symkernel.CodedCandidateCheck`);
4. each consistent candidate is checked for **bounded cliques** of
   ``G_w``: the graph restricted to growing windows is materialised and
   the maximum clique compared across window sizes; on an eventually
   periodic structure the clique size either stabilises or grows linearly
   with the window, so the comparison decides boundedness (the growth step
   is checked over one full period);
5. the first realisable candidate yields an :class:`EmptinessWitness` that
   can produce a genuine :class:`LassoRun` (when a data-periodic
   realisation exists) and arbitrarily long concrete finite witnesses
   (database + valid run prefix) otherwise; it builds only the part of
   the normal form its trace visits.

The search exists once, :func:`search_candidates`; Theorem 12's
``verify`` runs it on the product with the negated property.  For
automata without constraints every symbolic lasso is realisable and
plain Buchi emptiness gives the exact answer immediately.  Otherwise the
lasso enumeration is bounded (``max_prefix`` / ``max_cycle``): a "no
witness found" answer is exact only when the searched automaton accepts
no lasso at all, and otherwise certifies emptiness up to the bound, which
:class:`EmptinessResult` reports honestly.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Set, Tuple

from repro.automata.words import Lasso
from repro.db.database import Database
from repro.foundations.faults import FaultInjected, fault
from repro.foundations.resilience import (
    CancellationToken,
    Deadline,
    DeadlineExceeded,
    OperationCancelled,
    Outcome,
    OutcomeStatus,
    deadline_scope,
    record_event,
)
from repro.core.extended import (
    ExtendedAutomaton,
    _normalisation_projection,
    eliminate_equality_constraints,
    lift_constraints_to_states,
    normalize_control,
)
from repro.core.pruning import prune_extended
from repro.core.reduction import trim_extended
from repro.core.register_automaton import RegisterAutomaton
from repro.core.runs import FiniteRun, LassoRun
from repro.core.symbolic import scontrol_buchi
from repro.core.symkernel import (
    CodedCandidateCheck,
    CodedNarrowing,
    build_kernel,
    constraint_tables,
)
from repro.core.tracewindow import TraceWindow
from repro.logic.types import corridor_masks


def _corridor_rows(k: int):
    """The row of a ``(state, guard)`` symbol: its state, then its guard's
    x-class and y-image masks (:func:`~repro.logic.types.corridor_masks`)."""

    def row(symbol) -> Tuple:
        state, guard = symbol
        x_class, y_image, _x_switch, _y_switch = corridor_masks(guard, k)
        return state, x_class, y_image

    return row


def trace_is_consistent(extended: ExtendedAutomaton, trace: Lasso) -> bool:
    """Whether the (dis)equalities induced on *trace* are consistent.

    *extended* must be normalised (no equality constraints, complete,
    state-driven) and *trace* a lasso of ``(state, guard)`` pairs.  The
    check is :class:`~repro.core.symkernel.CodedCandidateCheck`, exact:
    it runs the consistency filter around the lasso until the filter
    state at a period boundary repeats, after which no new violation can
    come.  Only global inequality constraints can clash: guards are
    satisfiable, and a local disequality relates adjacent positions,
    whose corridors lie inside one complete guard's closure.
    """
    letters = dict.fromkeys(pair[0] for pair in trace.prefix + trace.period)
    walk = CodedCandidateCheck(
        _corridor_rows(extended.automaton.k), constraint_tables(extended, letters)
    )
    return walk(trace)


def clique_number(vertices: Sequence, edges: Set[Tuple]) -> int:
    """Maximum clique size of a small graph (exact, branch and bound)."""
    if not vertices:
        return 0
    neighbours = {v: set() for v in vertices}
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    best = [1]
    order = sorted(vertices, key=lambda v: -len(neighbours[v]))

    def grow(clique: List, candidates: Set) -> None:
        if len(clique) + len(candidates) <= best[0]:
            return
        if not candidates:
            best[0] = max(best[0], len(clique))
            return
        for vertex in sorted(candidates, key=repr):
            grow(clique + [vertex], candidates & neighbours[vertex])
            candidates = candidates - {vertex}
            if len(clique) + len(candidates) <= best[0]:
                return

    grow([], set(order))
    return best[0]


def trace_has_bounded_cliques(
    extended: ExtendedAutomaton, trace: Lasso, base_loops: int = 2
) -> bool:
    """Whether the inequality graph ``G_w`` of the trace has bounded cliques.

    Compares the maximum clique of the window graph across two window
    sizes one period apart; eventual periodicity of the class and edge
    structure makes the clique number either stabilise (bounded) or grow
    by at least one per period (unbounded -- the clique acquires one
    fresh class per loop iteration).
    """
    automaton = extended.automaton
    states = automaton.states
    constraints = extended.inequality_constraints()
    if not automaton.signature.relations:
        return True  # no database: G_w has no vertices
    prefix_len = len(trace.prefix)
    period_len = len(trace.period)
    small = TraceWindow(
        trace,
        automaton.k,
        length=prefix_len + base_loops * period_len,
        inequality_constraints=constraints,
        states=states,
    )
    large = TraceWindow(
        trace,
        automaton.k,
        length=prefix_len + (base_loops + 2) * period_len,
        inequality_constraints=constraints,
        states=states,
    )
    small_clique = clique_number(*small.constraint_graph())
    large_clique = clique_number(*large.constraint_graph())
    return large_clique <= small_clique


class LiteralControl:
    """The normalised control of an automaton the coded kernel declines.

    ``completed()`` and ``state_driven()`` build the normalised automaton
    (:func:`~repro.core.extended.normalize_control`, scoped by *kept*) and
    :func:`~repro.core.symbolic.scontrol_buchi` its ``SControl`` over
    ``(state, guard)`` pairs.  It answers the calls the searches make on a
    :class:`~repro.core.symkernel.SymbolicKernel`; its symbols are pairs
    already, so decoding is the identity.
    """

    def __init__(self, without_eq: ExtendedAutomaton, kept: Optional[int] = None):
        self.normalised = normalize_control(without_eq, kept)
        self.buchi = scontrol_buchi(self.normalised.automaton)

    def decode_lasso(self, lasso: Lasso) -> Lasso:
        return lasso

    def build_narrowing(self) -> Optional[CodedNarrowing]:
        """The enumeration filter; ``None`` without inequality constraints."""
        normalised = self.normalised
        if not normalised.inequality_constraints():
            return None
        return CodedNarrowing(
            _corridor_rows(normalised.automaton.k),
            constraint_tables(normalised, normalised.automaton.states),
        )

    def candidate_check(self):
        normalised = self.normalised

        def check(lasso: Lasso) -> bool:
            # Theorem 9: condition (a) consistency, then (b) bounded cliques.
            return trace_is_consistent(normalised, lasso) and trace_has_bounded_cliques(
                normalised, lasso
            )

        return check


def normal_control(without_eq: ExtendedAutomaton, kept: Optional[int] = None):
    """The normalised control of *without_eq*: coded wherever the kernel applies.

    *without_eq* is the automaton after Proposition 6 and *kept* the
    register count before it.  Both normal forms complete each transition
    over its scoped vocabulary only -- the registers ``1..kept`` and the
    added registers a guard at its source or target mentions
    (:func:`repro.core.extended.register_scopes`) -- which decides the
    same realisable traces as completing over all ``2k`` variables.
    Without *kept* every register is in scope.

    On eligible automata the completion and the state-driven conversion
    are computed over integer partition codes -- no SigmaType
    materialisation, no normalised RegisterAutomaton -- and the lasso
    search runs on rank ids whose repr order replays the literal pair
    order exactly, so verdicts, witness traces and ``candidates_checked``
    are byte-identical to the literal path (see :mod:`repro.core.symkernel`).
    The kernel declines relations, constants, non-equality guards, k=0
    and control that is already normal; those take the :class:`LiteralControl`.

    Either answer offers ``buchi``, ``decode_lasso``, ``build_narrowing()``
    and ``candidate_check()``.  Neither hands a normalised automaton to a
    witness: :class:`EmptinessWitness` builds the part its trace visits.
    """
    kernel = build_kernel(without_eq, kept)
    if kernel is not None:
        return kernel
    return LiteralControl(without_eq, kept)


class EmptinessWitness:
    """A realisable symbolic control trace, with concrete realisations.

    ``trace`` is the lasso of ``(state, guard)`` pairs over the normal
    form of ``without_eq``, the automaton after Proposition 6 (an
    inequality-only extended automaton).  ``original`` is the user's
    automaton; its register traces are obtained by projecting the
    normalised ones onto the first ``original_k`` registers.

    :attr:`normalised` is built from the trace, on first access, the same
    way on both normal forms; the verdict-bearing fields (``trace`` and
    the counters on :class:`EmptinessResult`) never depend on it.
    """

    def __init__(
        self, trace: Lasso, without_eq: ExtendedAutomaton, original: ExtendedAutomaton, original_k: int
    ):
        self.trace = trace
        self.without_eq = without_eq
        self.original = original
        self.original_k = original_k

    @cached_property
    def normalised(self) -> ExtendedAutomaton:
        """The normal form of ``without_eq``, restricted to the trace.

        Its states are the trace's and its transitions the trace's steps,
        the last pair stepping to the first of the period.  A state is
        initial or accepting when the state of ``without_eq`` it peels
        back to is, and the inequality constraints are lifted onto these
        states.  The realisations read the trace, ``k``, the signature and
        the lifted constraints only, so they are those of the whole
        normal form.
        """
        automaton = self.without_eq.automaton
        pairs = self.trace.prefix + self.trace.period
        following = pairs[1:] + self.trace.period[:1]
        states = dict.fromkeys(state for state, _guard in pairs)
        back = _normalisation_projection(automaton)
        restricted = RegisterAutomaton(
            automaton.k,
            automaton.signature,
            states,
            [state for state in states if back(state) in automaton.initial],
            [state for state in states if back(state) in automaton.accepting],
            dict.fromkeys(
                (state, guard, target) for (state, guard), (target, _) in zip(pairs, following)
            ),
        )
        constraints = lift_constraints_to_states(
            self.without_eq.constraints, automaton.states, restricted.states, back
        )
        return ExtendedAutomaton(restricted, constraints)

    def __repr__(self) -> str:
        return "EmptinessWitness(trace=%r, original_k=%d)" % (self.trace, self.original_k)

    def state_trace(self) -> Lasso:
        return self.trace.map(lambda pair: pair[0])

    def lasso_run(self) -> Optional[Tuple[Database, LassoRun]]:
        """A data-periodic realisation, when one exists.

        Tries the ring construction of
        :func:`repro.core.symbolic.realize_control_trace` and verifies the
        global constraints exactly on the produced lasso; returns ``None``
        when every data-periodic candidate violates a constraint (e.g. the
        "all values distinct" automaton of Example 7, which has runs but no
        periodic ones).
        """
        from repro.core.symbolic import RealizationFailure, realize_control_trace

        try:
            database, run = realize_control_trace(
                self.normalised.automaton, self.trace, check_membership=False
            )
        except RealizationFailure:
            return None
        if not self.normalised.satisfies_constraints(run):
            return None
        return database, run

    def finite_witness(self, length: int) -> Tuple[Database, FiniteRun]:
        """A concrete database and valid constrained run prefix of *length*.

        Always succeeds for realisable traces: the window realisation gives
        each ``~``-class a distinct value, which satisfies every inequality
        constraint outright.
        """
        window = TraceWindow(
            self.trace,
            self.normalised.automaton.k,
            length=max(length, 1) + 1,
            inequality_constraints=self.normalised.inequality_constraints(),
            states=self.normalised.automaton.states,
        )
        realisation = window.realize(self.normalised.automaton.signature)
        if realisation is None:
            raise AssertionError("realisable trace failed window realisation")
        database, run = realisation
        trimmed = FiniteRun(run.data[:length], run.states[:length], run.guards[: length - 1])
        return database, trimmed

    def project_to_original(self, run):
        """Project a normalised-run back to the original register count."""
        return run.project(self.original_k)


@dataclass
class EmptinessResult:
    """Outcome of the emptiness check.

    ``empty`` is the verdict; ``exact`` tells whether it is unconditional.
    Nonemptiness always is.  Emptiness is exact when the automaton has no
    constraints, or when ``SControl`` of the normalised automaton accepts
    no lasso at all; otherwise it is certified only up to the enumeration
    bounds, which are recorded (see :func:`search_candidates`).

    ``outcome`` reports *how* the check finished (see
    :class:`repro.foundations.resilience.Outcome`): ``None`` means the
    full bounded search ran; a ``TIMEOUT``/``CANCELLED`` outcome means
    the deadline expired (or the token fired) mid-search, in which case
    ``empty=True, exact=False`` encodes the same epistemic state as a
    bound truncation -- no witness found *so far* -- and the outcome's
    stats record deterministic progress counts.  :attr:`verdict` folds
    all of this into the three honest answers.
    """

    empty: bool
    exact: bool
    witness: Optional[EmptinessWitness] = None
    candidates_checked: int = 0
    max_prefix: int = 0
    max_cycle: int = 0
    outcome: Optional[Outcome] = None

    @property
    def verdict(self) -> str:
        """``"nonempty"``, ``"empty"``, or ``"unknown"``."""
        if self.outcome is not None and self.outcome.status is not OutcomeStatus.COMPLETE:
            return "unknown"
        if not self.empty:
            return "nonempty"
        return "empty" if self.exact else "unknown"


def search_candidates(
    control,
    buchi,
    constrained: bool,
    max_prefix: int,
    max_cycle: int,
    max_candidates: int,
    deadline: Optional[Deadline] = None,
    cancel: Optional[CancellationToken] = None,
) -> Tuple[Optional[Lasso], bool, int]:
    """Theorem 9's search for a realisable accepted lasso of *buchi*.

    *buchi* reads the symbols of *control* (a :func:`normal_control`
    answer): ``control.buchi`` for emptiness, its product with the
    negated property for Theorem 12.  Returns ``(lasso, exact, checked)``:
    the first realisable lasso (not decoded) or ``None``, whether that
    answer is exact, and the number of candidates checked.

    Without constraints every accepted lasso is realisable: the first one
    found wins and the answer is exact.  With constraints the accepted
    lassos within the bounds are enumerated, narrowed by
    ``control.build_narrowing()`` and checked by
    ``control.candidate_check()``.  When none is realisable, the answer is
    exact exactly when *buchi* accepts no lasso at all.  A search stopped
    by ``max_candidates`` reports cap + 1 candidates.

    The ``emptiness.lasso`` fault site and the *deadline* and *cancel*
    checkpoints fire once per checked candidate.  An interruption raises;
    a ``DeadlineExceeded`` or ``OperationCancelled`` carries the count it
    reached as ``candidates_checked``.
    """
    if not constrained:
        lasso = buchi.find_accepted_lasso()
        return lasso, True, (0 if lasso is None else 1)
    narrow = control.build_narrowing()
    check = control.candidate_check()
    checked = 0
    seen: Set[Lasso] = set()
    try:
        for lasso in buchi.iter_accepted_lassos(max_cycle, max_prefix, narrow=narrow):
            if lasso in seen:
                continue
            seen.add(lasso)
            if checked >= max_candidates:
                # Off by design: the first candidate past the cap counts
                # as checked, so a truncated search reports cap + 1.
                checked += 1
                break
            realisable = check(lasso)
            kind = fault("emptiness.lasso")
            if kind == "deadline":
                raise DeadlineExceeded("injected deadline expiry (emptiness.lasso)")
            if kind == "raise":
                raise FaultInjected("injected failure (emptiness.lasso)")
            if kind == "interrupt":
                raise KeyboardInterrupt
            if deadline is not None:
                deadline.check("emptiness.lasso")
            if cancel is not None:
                cancel.check("emptiness.lasso")
            checked += 1
            if realisable:
                return lasso, True, checked
    except (DeadlineExceeded, OperationCancelled) as interruption:
        interruption.candidates_checked = checked
        raise
    return None, buchi.find_accepted_lasso() is None, checked


def check_emptiness(
    extended: ExtendedAutomaton,
    max_prefix: int = 2,
    max_cycle: int = 6,
    max_candidates: int = 5000,
    deadline=None,
    cancel: Optional[CancellationToken] = None,
) -> EmptinessResult:
    """Decide whether *extended* has a run over some finite database.

    See the module docstring for the method.  ``max_prefix`` /
    ``max_cycle`` bound the lasso enumeration (measured on the Buchi
    automaton for ``SControl`` of the *normalised* automaton).  An
    "empty" answer is exact when no constraint survives Proposition 6 or
    when ``SControl`` accepts no lasso at all, and "unknown" otherwise
    (:func:`search_candidates`).

    ``deadline`` bounds wall time: a
    :class:`~repro.foundations.resilience.Deadline`, a number of
    milliseconds, or ``None`` to fall back to the ``REPRO_DEADLINE_MS``
    environment knob (read at call time; unset means unbounded).  The
    deadline is installed as the thread's ambient deadline, so the
    normalisation and enumeration layers below stay interruptible too.
    On expiry the check **returns** (never raises or hangs) a result
    with a ``TIMEOUT`` :attr:`~EmptinessResult.outcome` whose stats
    record how far the search got; ``result.verdict`` is ``"unknown"``.
    An optional ``cancel`` token is polled at the same checkpoints and
    produces a ``CANCELLED`` outcome the same way.

    Proved-dead control is dropped before normalisation
    (:func:`repro.core.pruning.prune_extended`) and the candidate
    enumeration is narrowed by the consistency filter
    (:class:`repro.core.symkernel.CodedNarrowing`).  Both are sound: the
    verdict and the winning witness trace are those of the unpruned
    search, while ``candidates_checked`` can only shrink.

    The automaton is additionally *trimmed* before normalisation
    (:func:`repro.core.reduction.trim_extended`): states through which no
    accepting lasso can pass are dropped.  Trim is candidate-preserving,
    a strictly stronger guarantee than pruning's -- verdict, witness,
    *and* ``candidates_checked`` are byte-identical to the untrimmed
    search; only the work per candidate shrinks.
    """
    deadline = Deadline.resolve(deadline)
    with deadline_scope(deadline):
        try:
            return _check_emptiness_bounded(
                extended, max_prefix, max_cycle, max_candidates, deadline, cancel
            )
        except (DeadlineExceeded, OperationCancelled) as interruption:
            # The candidate loop records how far it got; a checkpoint below
            # it (normalisation, guard completion) fires before any candidate.
            checked = getattr(interruption, "candidates_checked", 0)
            return _interrupted_result(
                interruption, checked, max_prefix, max_cycle, deadline
            )


def _interrupted_result(
    interruption,
    checked: int,
    max_prefix: int,
    max_cycle: int,
    deadline: Optional[Deadline],
) -> EmptinessResult:
    """Fold a cooperative interruption into an honest UNKNOWN result.

    ``empty=True, exact=False`` is the same epistemic state as a bound
    truncation: no witness found *so far*.  The stats carry only
    deterministic progress counts -- never clock readings -- so a
    fault-forced expiry reproduces byte-identically.
    """
    timed_out = isinstance(interruption, DeadlineExceeded)
    stats = {
        "candidates_checked": checked,
        "max_prefix": max_prefix,
        "max_cycle": max_cycle,
        "deadline_ms": deadline.budget_ms if deadline is not None else None,
        "reason": str(interruption),
    }
    record_event(
        "RS003",
        "emptiness check %s after %d candidates"
        % ("timed out" if timed_out else "was cancelled", checked),
        location="repro.core.emptiness.check_emptiness",
        data=stats,
    )
    maker = Outcome.timeout if timed_out else Outcome.cancelled
    return EmptinessResult(
        empty=True,
        exact=False,
        candidates_checked=checked,
        max_prefix=max_prefix,
        max_cycle=max_cycle,
        outcome=maker(**stats),
    )


def _check_emptiness_bounded(
    extended: ExtendedAutomaton,
    max_prefix: int,
    max_cycle: int,
    max_candidates: int,
    deadline: Optional[Deadline],
    cancel: Optional[CancellationToken],
) -> EmptinessResult:
    """Reduce *extended* to its normal control and search it."""
    # Up-front checkpoint: an already-expired deadline (or fired token)
    # must produce the interrupted result *deterministically*, even when
    # every layer below would be answered from warm caches and never
    # reach an inner checkpoint.
    if deadline is not None:
        deadline.check("emptiness.start")
    if cancel is not None:
        cancel.check("emptiness.start")
    extended = prune_extended(extended)
    # Sound trim: drop states no accepting lasso can visit.
    # Unlike pruning this is candidate-preserving -- verdict, witness, and
    # candidates_checked are byte-identical (see repro.core.reduction).
    extended = trim_extended(extended)
    without_eq, kept = eliminate_equality_constraints(extended)
    control = normal_control(without_eq, kept)
    constrained = bool(without_eq.constraints)
    lasso, exact, checked = search_candidates(
        control, control.buchi, constrained, max_prefix, max_cycle, max_candidates,
        deadline, cancel,
    )
    witness = None
    if lasso is not None:
        witness = EmptinessWitness(control.decode_lasso(lasso), without_eq, extended, extended.k)
    # Plain Buchi emptiness decides the unconstrained case: no bound applies.
    return EmptinessResult(
        empty=lasso is None,
        exact=exact,
        witness=witness,
        candidates_checked=checked,
        max_prefix=max_prefix if constrained else 0,
        max_cycle=max_cycle if constrained else 0,
    )


def has_run(extended: ExtendedAutomaton, **bounds) -> bool:
    """Convenience wrapper: ``True`` iff a run exists (Corollary 10)."""
    return not check_emptiness(extended, **bounds).empty