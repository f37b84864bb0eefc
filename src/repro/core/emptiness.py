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
   exactly by the subset automata of Lemma 21;
2. candidate lassos are drawn from the Buchi automaton for
   ``SControl(A)``;
3. each candidate is checked for **consistency** -- no pair of positions
   forced both equal and unequal -- exactly, by a product walk of the
   constraint DFA with the corridor tracker over the lasso (cycle
   detection makes the infinite check finite);
4. each consistent candidate is checked for **bounded cliques** of
   ``G_w``: the graph restricted to growing windows is materialised and
   the maximum clique compared across window sizes; on an eventually
   periodic structure the clique size either stabilises or grows linearly
   with the window, so the comparison decides boundedness (the growth step
   is checked over one full period);
5. the first realisable candidate yields an :class:`EmptinessWitness` that
   can produce a genuine :class:`LassoRun` (when a data-periodic
   realisation exists) and arbitrarily long concrete finite witnesses
   (database + valid run prefix) otherwise.

The lasso enumeration is bounded (``max_prefix`` / ``max_cycle``); a
"no witness found" answer therefore certifies emptiness only up to the
bound, which :class:`EmptinessResult` reports honestly.  For automata
without constraints every symbolic lasso is realisable and plain Buchi
emptiness gives the exact answer immediately.
"""

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.automata.words import Lasso
from repro.db.database import Database
from repro.foundations.errors import SpecificationError
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
from repro.core.caching import dead_states
from repro.core.parallel import imap_chunked
from repro.core.extended import (
    ExtendedAutomaton,
    GlobalConstraint,
    eliminate_equality_constraints,
    normalize_control,
)
from repro.core.pruning import build_narrowing, prune_extended
from repro.core.reduction import trim_extended
from repro.core.register_automaton import RegisterAutomaton
from repro.core.runs import FiniteRun, LassoRun
from repro.core.symbolic import scontrol_buchi
from repro.core.symkernel import build_kernel, symkernel_enabled
from repro.core.tracewindow import TraceWindow


def _normalize_for_analysis(extended: ExtendedAutomaton) -> ExtendedAutomaton:
    """Eliminate equality constraints, complete, and make state-driven."""
    without_eq, _k = eliminate_equality_constraints(extended)
    return normalize_control(without_eq)


def trace_is_consistent(extended: ExtendedAutomaton, trace: Lasso) -> bool:
    """Whether the (dis)equalities induced on *trace* are consistent.

    *extended* must be normalised (no equality constraints, complete,
    state-driven) and *trace* a lasso of ``(state, guard)`` pairs.  The
    check is exact: every matched factor of every inequality constraint is
    covered through cycle detection on (DFA state, corridor, stored
    position) triples, and local disequalities are covered by a window of
    one extra period.
    """
    automaton = extended.automaton
    k = automaton.k
    spine = trace.spine_length()
    period = len(trace.period)

    def stored(position: int) -> int:
        if position < spine:
            return position
        return spine - period + (position - (spine - period)) % period

    def guard_at(position: int):
        return trace[stored(position)][1]

    def state_at(position: int):
        return trace[stored(position)][0]

    from repro.logic.types import advance_registers, x_equality_classes

    def x_class(guard, register: int) -> frozenset:
        return x_equality_classes(guard, k)[register]

    def advance(guard, members: frozenset) -> frozenset:
        return advance_registers(guard, members, k)

    # Local conflicts are impossible position-internally (guards are
    # satisfiable) but can arise between a local disequality and a corridor
    # that loops around; those corridors are exactly the global-constraint-
    # free case and local literals relate adjacent positions only, where
    # the corridor information is inside one guard's closure -- already
    # consistent.  So only global inequality constraints can clash.
    for constraint in extended.inequality_constraints():
        dfa = extended.constraint_dfa(constraint)
        dead = dead_states(dfa)
        for start in range(spine):
            guard = guard_at(start)
            members = x_class(guard, constraint.i)
            dfa_state = dfa.delta(dfa.initial, state_at(start))
            position = start
            seen: Set[Tuple] = set()
            while True:
                if dfa_state in dead:
                    break  # acceptance is unreachable: no violation ahead
                if dfa_state in dfa.accepting and constraint.j in members:
                    return False
                key = (dfa_state, members, stored(position))
                if key in seen:
                    break
                seen.add(key)
                members = advance(guard_at(position), members)
                position += 1
                guard = guard_at(position)
                dfa_state = dfa.delta(dfa_state, state_at(position))
    return True


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


class EmptinessWitness:
    """A realisable symbolic control trace, with concrete realisations.

    ``trace`` is the lasso of ``(state, guard)`` pairs over the
    *normalised* automaton; ``normalised`` is that automaton (an
    inequality-only extended automaton).  ``original`` is the user's
    automaton; its register traces are obtained by projecting the
    normalised ones onto the first ``original_k`` registers.

    ``normalised`` may be passed as a zero-argument callable: the
    code-based kernel path (``REPRO_SYMKERNEL``) decides emptiness
    without ever materialising the normalised automaton, so the witness
    builds it lazily -- on first access -- only when a realisation is
    actually requested.  The verdict-bearing fields (``trace`` and the
    counters on :class:`EmptinessResult`) never depend on it.
    """

    def __init__(self, trace: Lasso, normalised, original: ExtendedAutomaton, original_k: int):
        self.trace = trace
        self._normalised = normalised
        self.original = original
        self.original_k = original_k

    @property
    def normalised(self) -> ExtendedAutomaton:
        if callable(self._normalised):
            self._normalised = self._normalised()
        return self._normalised

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

    ``empty`` is the verdict; ``exact`` tells whether it is unconditional
    (nonemptiness always is; emptiness is exact when the automaton has no
    constraints, and otherwise certified only up to the enumeration
    bounds, which are recorded).

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


class _CandidateCheck:
    """Picklable realisability check for one symbolic lasso candidate.

    An instance wraps the *normalised* automaton and is shipped to worker
    processes (pickled once per chunk by :func:`imap_chunked`); calling it
    runs the exact serial checks -- consistency (Theorem 9 condition (a))
    then bounded cliques (condition (b)) -- and returns the verdict.
    Interned guards re-intern on unpickling, so the per-value caches the
    checks rely on (guard closures, dead-state sets) warm up normally
    inside each worker.
    """

    __slots__ = ("normalised",)

    def __init__(self, normalised: ExtendedAutomaton):
        self.normalised = normalised

    def __call__(self, lasso: Lasso) -> bool:
        return trace_is_consistent(self.normalised, lasso) and trace_has_bounded_cliques(
            self.normalised, lasso
        )


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
    automaton for ``SControl`` of the *normalised* automaton).

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

    With ``REPRO_WORKERS`` set above 1 the candidate checks run in a
    process pool (chunked, bounded in-flight); results are consumed in
    enumeration order, so the **first realisable candidate in enumeration
    order** wins regardless of which worker finishes first and the
    returned result -- verdict, witness trace and ``candidates_checked``
    -- is identical to the serial one.

    Proved-dead control is dropped before normalisation
    (:func:`repro.core.pruning.prune_extended`) and the candidate
    enumeration is narrowed by the incremental constraint-consistency
    filter (:func:`repro.core.pruning.build_narrowing`).  Both are sound:
    the verdict and the winning witness trace are those of the unpruned
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
            # A checkpoint fired somewhere below the candidate loop's own
            # handler (normalisation, enumeration, guard completion): no
            # candidates were consumed yet on this path.
            return _interrupted_result(
                interruption, 0, max_prefix, max_cycle, deadline
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
    deterministic progress counts -- never clock readings or the
    enumeration high-water mark (which the parallel path prefetches
    ahead of consumption) -- so a fault-forced expiry reproduces
    byte-identically, serial or parallel.
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
    """The bounded search itself, with checkpoints in the candidate loop."""
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
    without_eq, _original_k = eliminate_equality_constraints(extended)
    # Code-based normalisation (REPRO_SYMKERNEL): on eligible automata the
    # Bell(2k) completion and the state-driven conversion are computed over
    # integer partition codes -- no SigmaType materialisation, no normalised
    # RegisterAutomaton -- and the lasso search runs on rank ids whose repr
    # order replays the legacy pair order exactly.  Verdict, witness trace
    # and candidates_checked are byte-identical either way; only the winning
    # witness is decoded (see repro.core.symkernel).
    kernel = build_kernel(without_eq) if symkernel_enabled() else None
    if kernel is not None:
        buchi = kernel.buchi
        decode = kernel.decode_lasso
        # The normalised automaton is only needed if someone asks the
        # witness for a concrete realisation; build it lazily then.
        normalised = None
        witness_normalised = lambda: normalize_control(without_eq)  # noqa: E731
        has_constraints = bool(without_eq.inequality_constraints())
    else:
        normalised = normalize_control(without_eq)
        buchi = scontrol_buchi(normalised.automaton)
        decode = None
        witness_normalised = normalised
        has_constraints = bool(normalised.constraints)
    if not has_constraints:
        lasso = buchi.find_accepted_lasso()
        if lasso is None:
            return EmptinessResult(empty=True, exact=True)
        if decode is not None:
            lasso = decode(lasso)
        witness = EmptinessWitness(lasso, witness_normalised, extended, extended.k)
        return EmptinessResult(empty=False, exact=True, witness=witness, candidates_checked=1)

    truncated = [False]
    if kernel is not None:
        narrow = kernel.build_narrowing()
        check = kernel.candidate_check()
    else:
        narrow = build_narrowing(normalised)
        check = _CandidateCheck(normalised)
    history: List[Lasso] = []  # candidates in enumeration order, as dispatched

    def unique_candidates():
        """Deduplicated candidates, capped at *max_candidates*.

        The serial loop counted the first candidate past the cap before
        breaking; the truncation flag preserves that off-by-design so the
        reported ``candidates_checked`` stays byte-identical.
        """
        seen: Set[Lasso] = set()
        for lasso in buchi.iter_accepted_lassos(max_cycle, max_prefix, narrow=narrow):
            if lasso in seen:
                continue
            seen.add(lasso)
            if len(history) >= max_candidates:
                truncated[0] = True
                return
            history.append(lasso)
            yield lasso

    checked = 0
    try:
        # Individual candidate checks are cheap (tens of microseconds to a
        # few milliseconds); a larger chunk amortises the per-dispatch
        # pickling of the wrapped automaton without hurting the serial path
        # (which ignores chunking entirely).  The checkpoint runs once per
        # *consumed* candidate -- driver side, identical order serial or
        # parallel -- so a fault-forced expiry lands on the same count
        # either way.
        results = imap_chunked(check, unique_candidates(), chunk_size=32)
        for index, realisable in enumerate(results):
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
            checked = index + 1
            if realisable:
                trace = history[index] if decode is None else decode(history[index])
                witness = EmptinessWitness(trace, witness_normalised, extended, extended.k)
                return EmptinessResult(
                    empty=False,
                    exact=True,
                    witness=witness,
                    candidates_checked=checked,
                    max_prefix=max_prefix,
                    max_cycle=max_cycle,
                )
    except (DeadlineExceeded, OperationCancelled) as interruption:
        return _interrupted_result(
            interruption, checked, max_prefix, max_cycle, deadline
        )
    if truncated[0]:
        checked += 1
    return EmptinessResult(
        empty=True,
        exact=False,
        candidates_checked=checked,
        max_prefix=max_prefix,
        max_cycle=max_cycle,
    )


def has_run(extended: ExtendedAutomaton, **bounds) -> bool:
    """Convenience wrapper: ``True`` iff a run exists (Corollary 10)."""
    return not check_emptiness(extended, **bounds).empty