"""Incremental (streaming) checking of runs and global constraints.

The paper motivates LR-boundedness by observing that being the projection
of a register automaton means the view's global constraints "can be
enforced entirely by local transitions, in a streaming fashion, at the cost
of additional registers" (Section 5).  This module provides the runtime
counterpart: a :class:`StreamingChecker` consumes a run one position at a
time and reports violations as soon as they are observable:

* **validity**: the next (state, registers) pair must extend the run via an
  existing transition whose guard holds over the database;
* **global equality constraints**: when a constraint factor completes, the
  two endpoint values must be equal -- checkable immediately;
* **global inequality constraints**: likewise, checkable immediately.

The checker keeps, per constraint, the set of live (DFA state, stored
value) threads -- exactly the register discipline of Propositions 6 and 22,
executed directly instead of being compiled into an automaton.  Each
constraint's thread table is immutable: a tuple of (DFA state, frozenset of
stored values) pairs that :meth:`StreamingChecker.feed` replaces on every
event and never changes in place.  Memory is
O(constraints x DFA states x distinct live values); for LR-bounded
automata the live-value count is bounded (that is Theorem 19's point), and
:attr:`StreamingChecker.peak_threads` reports the high-water mark so the
bound can be observed experimentally (benchmark E11).

Everything that is fixed for a specification is compiled once, when the
checker is built, in the manner of precomputed transition tables (VATA,
arXiv:1204.3240): per automaton state, one row per constraint with its
DFA's successor of every DFA state and of the initial one (the spawn),
its accepting and dead sets, its 0-based registers and its kind; and per
(source, target) pair of the automaton, the guards the validity check
tries, or ``None`` when the first of them has no literals and the step is
always valid.  An event then costs a few table lookups: no DFA method
call, no transition-index lookup and no guard generator.  The tables
take O(automaton states x DFA states) entries per constraint.

A :class:`SessionSnapshot` is the checker's run state in a picklable,
version-tagged form -- the compact configuration :mod:`repro.core.monitor`
stores and restores for thousands of sessions ("A Finite Exact
Representation of Register Automata Configurations", arXiv:1402.6783, is
the conceptual anchor).  It shares the checker's immutable thread tables,
so capturing and restoring one costs O(constraints); its canonical
(``repr``-sorted) form is made only when it is pickled or compared.  Its
fields live in ``__slots__``, so a snapshot is one object for the garbage
collector to track, not an instance plus its ``__dict__``.
"""

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.db.database import Database
from repro.db.evaluation import some_guard_holds
from repro.foundations.domain import DataValue
from repro.foundations.errors import SpecificationError
from repro.foundations.resilience import current_deadline
from repro.core.caching import dead_states
from repro.core.extended import ExtendedAutomaton
from repro.core.register_automaton import State


class StreamingViolation(SpecificationError):
    """Raised (or reported) when the streamed run breaks a rule."""


def _compile_guards(automaton) -> Dict[Tuple[State, State], Optional[Tuple[Any, ...]]]:
    """Per (source, target) pair of *automaton*: the guards a step tries.

    The guards are those of ``transitions_between(source, target)`` in its
    order, for :func:`some_guard_holds`; ``None`` marks a pair whose first
    guard has no literals, so the step holds without a valuation.  A pair
    without transitions is absent.
    """
    table: Dict[Tuple[State, State], Optional[Tuple[Any, ...]]] = {}
    for transition in automaton.transitions:
        pair = (transition.source, transition.target)
        if pair not in table:
            guards = tuple(t.guard for t in automaton.transitions_between(*pair))
            table[pair] = None if not guards[0].literals else guards
    return table


def _compile_rows(extended: ExtendedAutomaton) -> Dict[State, Tuple[Tuple[Any, ...], ...]]:
    """Per automaton state: one row per constraint, for :meth:`StreamingChecker.feed`.

    A row is ``(index, targets, start, first, last, is_eq, accepting,
    dead, constraint)``: the constraint's DFA successor of every DFA
    state (``targets``) and of its initial state (``start``, the spawn)
    on that automaton state, the 0-based registers ``i`` and ``j``,
    whether it is an equality constraint, and the DFA's accepting and
    dead sets.  Dead-state sets are cached per DFA *object*
    (:func:`dead_states`), never keyed by an id that garbage collection
    can recycle.
    """
    constraints = extended.constraints
    dfas = [extended.constraint_dfa(constraint) for constraint in constraints]
    dead = [dead_states(dfa) for dfa in dfas]
    return {
        symbol: tuple(
            (
                index,
                {dfa_state: dfa.delta(dfa_state, symbol) for dfa_state in dfa.states},
                dfa.delta(dfa.initial, symbol),
                constraint.i - 1,
                constraint.j - 1,
                constraint.kind == "eq",
                dfa.accepting,
                dead[index],
                constraint,
            )
            for index, (constraint, dfa) in enumerate(zip(constraints, dfas))
        )
        for symbol in extended.automaton.states
    }


class StreamingChecker:
    """Feed a run position by position; violations surface immediately.

    Parameters
    ----------
    extended:
        The specification: an extended automaton (possibly with an empty
        constraint set, for pure validity checking).
    database:
        The database the run executes over.
    strict:
        When ``True`` (default), :meth:`feed` raises on violation;
        otherwise it returns the violation message and the checker enters
        a failed state.

    Examples
    --------
    >>> # doctest-style sketch; see tests/test_streaming.py for real use
    >>> # checker = StreamingChecker(extended, database)
    >>> # checker.feed("q1", ("v", "v")); checker.feed("q2", ("w", "v"))
    """

    def __init__(
        self, extended: ExtendedAutomaton, database: Database, strict: bool = True
    ):
        automaton = extended.automaton
        self._database = database
        self._strict = strict
        self._position = -1
        self._previous: Optional[Tuple[State, Tuple[DataValue, ...]]] = None
        self._failed: Optional[str] = None
        # per constraint: a tuple of (dfa_state, frozenset of stored source
        # values) pairs, replaced by every feed and never changed in place
        self._threads: List[Tuple[Tuple[object, FrozenSet[DataValue]], ...]] = [
            () for _ in extended.constraints
        ]
        self.peak_threads = 0
        # the compiled step (module docstring)
        self._k = automaton.k
        self._initial = automaton.initial
        self._guards = _compile_guards(automaton)
        self._rows = _compile_rows(extended)

    # ------------------------------------------------------------------ #

    @property
    def position(self) -> int:
        """Index of the last consumed position (-1 before the first feed)."""
        return self._position

    @property
    def failed(self) -> Optional[str]:
        """The first violation message, or ``None`` while healthy."""
        return self._failed

    def live_threads(self) -> int:
        """Total live (DFA state, value) threads across constraints."""
        return sum(len(values) for table in self._threads for _state, values in table)

    # ------------------------------------------------------------------ #

    def _fail(self, message: str) -> Optional[str]:
        self._failed = message
        if self._strict:
            raise StreamingViolation(message)
        return message

    def snapshot(self) -> "SessionSnapshot":
        """A compact, picklable capture of this checker's run state.

        The snapshot records everything :meth:`feed` depends on --
        position, last (state, registers) pair, failed status, strictness
        and the live constraint threads -- but *not* the specification or
        database, so it stays small (Theorem 19's register discipline
        bounds the thread count) and cheap to journal.  It shares the
        immutable thread tables instead of copying them.  Restoring it
        into a checker built over the same specification resumes the run
        byte-identically to an uninterrupted feed.
        """
        return SessionSnapshot.capture(self)

    def restore(self, snapshot: "SessionSnapshot") -> "StreamingChecker":
        """Adopt *snapshot*'s run state; returns ``self`` for chaining.

        The snapshot must come from a checker over a specification with
        the same register arity and constraint count (a
        :class:`~repro.foundations.errors.SpecificationError` otherwise).
        Strictness travels with the snapshot: a failed non-strict session
        restored into a default (strict) checker keeps *returning* the
        original message instead of suddenly raising.
        """
        snapshot.apply(self)
        return self

    def feed(self, state: State, registers: Tuple[DataValue, ...]) -> Optional[str]:
        """Consume the next run position.

        Returns ``None`` when everything checks out, the violation message
        otherwise (or raises it, in strict mode).
        """
        if self._failed is not None:
            # Stay failed, reporting the *original* message verbatim on
            # every further feed -- without re-entering _fail, whose
            # re-assignment path is for first failures only.  Restored
            # snapshots rely on this: a post-violation snapshot resumes
            # into a checker that keeps answering exactly as the
            # uninterrupted one would.
            if self._strict:
                raise StreamingViolation(self._failed)
            return self._failed
        registers = tuple(registers)
        if len(registers) != self._k:
            return self._fail(
                "position %d: register tuple arity %d, expected %d"
                % (self._position + 1, len(registers), self._k)
            )
        position = self._position = self._position + 1

        # -- validity ---------------------------------------------------- #
        if position == 0:
            if state not in self._initial:
                return self._fail("position 0: state %r is not initial" % (state,))
        else:
            previous_state, previous_registers = self._previous
            guards = self._guards.get((previous_state, state), ())
            if guards is not None and not some_guard_holds(
                guards, self._database, previous_registers, registers
            ):
                return self._fail(
                    "position %d: no transition %r -> %r consistent with the data"
                    % (position, previous_state, state)
                )
        self._previous = (state, registers)

        # -- constraints -------------------------------------------------- #
        # Each table is replaced, never changed in place: snapshots share
        # the tables they capture.  A table whose constraint fails keeps
        # its old value, as do the tables after it.
        tables = self._threads
        live = 0
        for index, targets, start, first, last, is_eq, accepting, dead, constraint in (
            self._rows[state]
        ):
            advanced: Dict[object, FrozenSet[DataValue]] = {}
            for dfa_state, values in tables[index]:
                target = targets[dfa_state]
                merged = advanced.get(target)
                advanced[target] = values if merged is None else merged | values
            # spawn a thread for this position as a factor start
            spawned = frozenset((registers[first],))
            merged = advanced.get(start)
            advanced[start] = spawned if merged is None else merged | spawned
            # check acceptance: completed factors relate stored sources to
            # the current value of register j, over every accepting state
            # at once, so the message does not depend on the table's order
            current = registers[last]
            if is_eq:
                bad = [
                    repr(value)
                    for dfa_state, values in advanced.items()
                    if dfa_state in accepting
                    for value in values
                    if value != current
                ]
                if bad:
                    return self._fail(
                        "position %d: equality constraint %r expects %r, saw %r"
                        % (position, constraint, min(bad), current)
                    )
            else:
                for dfa_state, values in advanced.items():
                    if dfa_state in accepting and current in values:
                        return self._fail(
                            "position %d: inequality constraint %r violated by %r"
                            % (position, constraint, current)
                        )
            # drop threads parked in dead states (no accepting reachable),
            # counting the live ones on the way
            kept = []
            for dfa_state, values in advanced.items():
                if dfa_state not in dead:
                    kept.append((dfa_state, values))
                    live += len(values)
            tables[index] = tuple(kept)
        if live > self.peak_threads:
            self.peak_threads = live
        return None

    def feed_run(self, run) -> Optional[str]:
        """Consume a whole :class:`FiniteRun` (states + data only).

        Polls the ambient deadline once per position: runs can be
        arbitrarily long, and a whole-run replay inside a deadline scope
        (e.g. witness validation during an emptiness check) must stay
        interruptible.
        """
        for state, registers in zip(run.states, run.data):
            active = current_deadline()
            if active is not None:
                active.check("streaming.feed_run")
            message = self.feed(state, registers)
            if message is not None:
                return message
        return None


# ---------------------------------------------------------------------- #
# session snapshots
# ---------------------------------------------------------------------- #

#: Version tag carried by every snapshot; :meth:`SessionSnapshot.apply`
#: refuses to restore a snapshot from a different layout generation.
SNAPSHOT_VERSION = 1


def _canonical_threads(
    threads: Tuple[Tuple[Tuple[object, FrozenSet[Any]], ...], ...],
) -> Tuple[Tuple[Tuple[object, Tuple[Any, ...]], ...], ...]:
    """The live-thread tables in canonical (repr-sorted) tuple form.

    Sorting both the DFA states and the stored values makes equal
    checker states produce equal snapshots and the same pickle layout,
    whatever order :meth:`StreamingChecker.feed` built the tables in and
    whatever order the hash seed gives a frozenset.
    """
    return tuple(
        tuple(
            sorted(
                ((state, tuple(sorted(values, key=repr))) for state, values in table),
                key=lambda pair: repr(pair[0]),
            )
        )
        for table in threads
    )


@dataclass(frozen=True, eq=False, repr=False)
class SessionSnapshot:
    """A compact, picklable, version-tagged capture of a streaming session.

    Records only *run* state -- the specification and database stay with
    the checker, so snapshots are cheap to pickle and to retain in the
    multiplexer's durable store.  ``threads`` holds the checker's own
    immutable tables, per constraint a tuple of (DFA state, frozenset of
    stored values) pairs in the order :meth:`StreamingChecker.feed` built
    them: capture and :meth:`apply` share them, so both cost
    O(constraints).  The canonical form, with states and values sorted by
    ``repr``, is made only when it is needed: pickling writes it
    (``__getstate__``; ``__setstate__`` reads it back), and ``==``,
    ``hash`` and ``repr`` follow it, so equal run states give equal
    snapshots.  The fields are ``__slots__``, declared by hand because
    ``@dataclass(slots=True)`` needs Python 3.10: a snapshot has no
    ``__dict__``, and its pickle is the same field dict as before.
    """

    __slots__ = (
        "version",
        "k",
        "constraint_count",
        "position",
        "previous",
        "failed",
        "strict",
        "threads",
        "peak_threads",
    )

    version: int
    k: int
    constraint_count: int
    position: int
    previous: Optional[Tuple[object, Tuple[Any, ...]]]
    failed: Optional[str]
    strict: bool
    threads: Tuple[Tuple[Tuple[object, FrozenSet[Any]], ...], ...]
    peak_threads: int

    @classmethod
    def capture(cls, checker: StreamingChecker) -> "SessionSnapshot":
        """Snapshot *checker* (the engine behind ``StreamingChecker.snapshot``)."""
        # Fill the slots through their descriptors: the frozen dataclass's
        # generated __init__ sets each field through object.__setattr__, a
        # cost paid on every monitored event.
        (
            set_version,
            set_k,
            set_constraint_count,
            set_position,
            set_previous,
            set_failed,
            set_strict,
            set_threads,
            set_peak_threads,
        ) = _SLOT_SETTERS
        snapshot = object.__new__(cls)
        set_version(snapshot, SNAPSHOT_VERSION)
        set_k(snapshot, checker._k)
        set_constraint_count(snapshot, len(checker._threads))
        set_position(snapshot, checker._position)
        set_previous(snapshot, checker._previous)
        set_failed(snapshot, checker._failed)
        set_strict(snapshot, checker._strict)
        set_threads(snapshot, tuple(checker._threads))
        set_peak_threads(snapshot, checker.peak_threads)
        return snapshot

    def apply(self, checker: StreamingChecker) -> None:
        """Restore this snapshot into *checker* (``StreamingChecker.restore``)."""
        if self.version != SNAPSHOT_VERSION:
            raise SpecificationError(
                "session snapshot version %r is not supported (expected %d)"
                % (self.version, SNAPSHOT_VERSION)
            )
        if self.k != checker._k:
            raise SpecificationError(
                "session snapshot arity %d does not match the checker's "
                "automaton (k=%d)" % (self.k, checker._k)
            )
        if self.constraint_count != len(checker._threads):
            raise SpecificationError(
                "session snapshot carries %d constraint thread tables, the "
                "checker's specification has %d constraints"
                % (self.constraint_count, len(checker._threads))
            )
        checker._strict = self.strict
        checker._position = self.position
        checker._previous = self.previous
        checker._failed = self.failed
        checker._threads = list(self.threads)
        checker.peak_threads = self.peak_threads

    def fingerprint(self) -> Tuple[object, int, Optional[str], int]:
        """``(state, position, failed, peak_threads)`` -- the identity tests compare."""
        state = self.previous[0] if self.previous is not None else None
        return (state, self.position, self.failed, self.peak_threads)

    def __getstate__(self) -> Dict[str, Any]:
        """Every field in declaration order, ``threads`` in canonical form."""
        state = {name: getattr(self, name) for name in self.__slots__}
        state["threads"] = _canonical_threads(self.threads)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        state = dict(state)
        state["threads"] = tuple(
            tuple((dfa_state, frozenset(values)) for dfa_state, values in table)
            for table in state["threads"]
        )
        for name in self.__slots__:
            object.__setattr__(self, name, state[name])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self) -> int:
        return hash(tuple(self.__getstate__().values()))

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % item for item in self.__getstate__().items())
        return "%s(%s)" % (self.__class__.__qualname__, fields)


#: Each field's slot setter, in declaration order, for
#: :meth:`SessionSnapshot.capture`.
_SLOT_SETTERS = tuple(
    getattr(SessionSnapshot, name).__set__ for name in SessionSnapshot.__slots__
)
