"""Runs of register automata and their traces (Section 2).

Runs are infinite objects; the library represents them in two finite forms:

* :class:`FiniteRun` -- a prefix ``(d_0,q_0,delta_0) .. (d_{n-1},q_{n-1})``
  of a run, used for simulation, streaming checks and counterexamples;
* :class:`LassoRun` -- an ultimately periodic run (data and control both
  periodic), the witness shape produced by decision procedures.

Both expose the paper's three traces: register trace, control trace and
state trace.  Validity checking against an automaton and database, plus
bounded run search (:func:`find_lasso_run`, :func:`generate_finite_runs`),
live here too.

Completeness note for the searches: over a fixed database, guards only
compare register values for equality among themselves, with constants, and
with the active domain.  A pool consisting of ``adom(D)`` plus ``2k+1``
fresh values therefore realises every reachable equality pattern: at any
point at most ``k`` pool values are held in registers, so ``k+1`` unused
fresh values always remain to realise "new distinct value" demands.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.automata.graphs import cyclic_components, walk
from repro.automata.words import Lasso
from repro.db.database import Database
from repro.db.evaluation import some_guard_holds
from repro.foundations.domain import DataValue, FreshSupply
from repro.foundations.errors import SpecificationError
from repro.foundations.interning import register_clear_listener
from repro.foundations.memo import ValueCache
from repro.core.register_automaton import RegisterAutomaton, State, Transition


@dataclass(frozen=True)
class FiniteRun:
    """A finite prefix of a run.

    ``data[i]`` and ``states[i]`` describe position ``i``; ``guards[i]`` is
    the type fired from position ``i`` to ``i+1`` (so ``len(guards) ==
    len(states) - 1``).
    """

    data: Tuple[Tuple[DataValue, ...], ...]
    states: Tuple[State, ...]
    guards: Tuple

    def __post_init__(self) -> None:
        if len(self.data) != len(self.states):
            raise SpecificationError("data and states must have equal length")
        if len(self.guards) != max(len(self.states) - 1, 0):
            raise SpecificationError(
                "a finite run of length n needs exactly n-1 guards, got %d for n=%d"
                % (len(self.guards), len(self.states))
            )

    def __len__(self) -> int:
        return len(self.states)

    # traces ------------------------------------------------------------ #

    def register_trace(self) -> Tuple[Tuple[DataValue, ...], ...]:
        return self.data

    def state_trace(self) -> Tuple[State, ...]:
        return self.states

    def control_trace(self) -> Tuple[Tuple[State, object], ...]:
        """The ``(q_i, delta_i)`` pairs (one per position with a guard)."""
        return tuple(zip(self.states[:-1], self.guards))

    def project(self, m: int) -> "FiniteRun":
        """The run with register values restricted to registers ``1..m``.

        Only the data is projected; states and guards are left untouched
        (callers projecting automata use
        :func:`repro.logic.types.project_type_dataless` on the guards).
        """
        return FiniteRun(
            tuple(row[:m] for row in self.data), self.states, self.guards
        )

    def map_states(self, fn) -> "FiniteRun":
        """Relabel control states (e.g. undo a product construction)."""
        return FiniteRun(self.data, tuple(fn(s) for s in self.states), self.guards)

    def map_guards(self, fn) -> "FiniteRun":
        """Rewrite guards (e.g. restrict them after a register projection)."""
        return FiniteRun(self.data, self.states, tuple(fn(g) for g in self.guards))

    def is_valid(self, automaton: RegisterAutomaton, database: Database) -> bool:
        """Whether this is a genuine run prefix of *automaton* over *database*."""
        return validity_error(self, automaton, database) is None


@dataclass(frozen=True)
class LassoRun:
    """An ultimately periodic run ``prefix . loop^omega``.

    Positions ``0 .. loop_start-1`` form the prefix; positions
    ``loop_start .. n-1`` the loop.  ``guards`` has one entry per position:
    ``guards[i]`` is fired from position ``i`` to ``i+1``, and the final
    guard ``guards[n-1]`` wraps back to position ``loop_start`` (data
    included: the run repeats its loop data forever).
    """

    data: Tuple[Tuple[DataValue, ...], ...]
    states: Tuple[State, ...]
    guards: Tuple
    loop_start: int

    def __post_init__(self) -> None:
        n = len(self.states)
        if len(self.data) != n:
            raise SpecificationError("data and states must have equal length")
        if len(self.guards) != n:
            raise SpecificationError("a lasso run needs one guard per position")
        if not (0 <= self.loop_start < n):
            raise SpecificationError("loop_start out of range")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def loop_length(self) -> int:
        return len(self.states) - self.loop_start

    def successor(self, position: int) -> int:
        """The next position (wrapping the loop)."""
        nxt = position + 1
        return self.loop_start if nxt == len(self.states) else nxt

    def position_at(self, time: int) -> int:
        """The stored position representing absolute time *time*."""
        if time < len(self.states):
            return time
        return self.loop_start + (time - self.loop_start) % self.loop_length

    # traces ------------------------------------------------------------ #

    def register_trace(self) -> Lasso:
        return Lasso(self.data[: self.loop_start], self.data[self.loop_start :])

    def state_trace(self) -> Lasso:
        return Lasso(self.states[: self.loop_start], self.states[self.loop_start :])

    def control_trace(self) -> Lasso:
        pairs = tuple(zip(self.states, self.guards))
        return Lasso(pairs[: self.loop_start], pairs[self.loop_start :])

    def unfold(self, length: int) -> FiniteRun:
        """The :class:`FiniteRun` covering the first *length* positions."""
        data: List[Tuple[DataValue, ...]] = []
        states: List[State] = []
        guards: List = []
        for time in range(length):
            position = self.position_at(time)
            data.append(self.data[position])
            states.append(self.states[position])
            if time < length - 1:
                guards.append(self.guards[position])
        return FiniteRun(tuple(data), tuple(states), tuple(guards))

    def project(self, m: int) -> "LassoRun":
        """Register projection of the data onto registers ``1..m``."""
        return LassoRun(
            tuple(row[:m] for row in self.data), self.states, self.guards, self.loop_start
        )

    def map_states(self, fn) -> "LassoRun":
        """Relabel control states (e.g. undo a product construction)."""
        return LassoRun(
            self.data, tuple(fn(s) for s in self.states), self.guards, self.loop_start
        )

    def map_guards(self, fn) -> "LassoRun":
        """Rewrite guards (e.g. restrict them after a register projection)."""
        return LassoRun(
            self.data, self.states, tuple(fn(g) for g in self.guards), self.loop_start
        )

    def is_valid(self, automaton: RegisterAutomaton, database: Database) -> bool:
        """Whether this is a genuine (accepting) run of *automaton*."""
        return validity_error(self, automaton, database) is None


def validity_error(run, automaton: RegisterAutomaton, database: Database) -> Optional[str]:
    """Explain why *run* is not a run of *automaton* over *database*.

    Returns ``None`` for valid runs, otherwise a human-readable reason.
    For :class:`LassoRun` this includes the Buchi condition (an accepting
    state inside the loop) and the wrap-around step; for :class:`FiniteRun`
    only the prefix conditions are checked.
    """
    index = automaton.index
    n = len(run.states)
    if n == 0:
        return "empty run"
    if run.states[0] not in automaton.initial:
        return "state %r at position 0 is not initial" % (run.states[0],)
    for row in run.data:
        if len(row) != automaton.k:
            return "register tuple %r has arity %d, expected %d" % (
                row,
                len(row),
                automaton.k,
            )
    if isinstance(run, LassoRun):
        steps = [(i, run.successor(i)) for i in range(n)]
        if not any(
            run.states[i] in automaton.accepting for i in range(run.loop_start, n)
        ):
            return "no accepting state inside the loop (Buchi condition fails)"
    else:
        steps = [(i, i + 1) for i in range(n - 1)]
    for i, j in steps:
        guard = run.guards[i]
        if not any(
            t.target == run.states[j]
            for t in index.transitions_with_guard(run.states[i], guard)
        ):
            return "no transition (%r, %s, %r) at position %d" % (
                run.states[i],
                guard.pretty(),
                run.states[j],
                i,
            )
        if not some_guard_holds((guard,), database, run.data[i], run.data[j]):
            return "guard %s fails at position %d on %r -> %r" % (
                guard.pretty(),
                i,
                run.data[i],
                run.data[j],
            )
    return None


# ---------------------------------------------------------------------- #
# bounded run search
# ---------------------------------------------------------------------- #


def value_pool(
    automaton: RegisterAutomaton, database: Database, extra_fresh: int = None
) -> Tuple[DataValue, ...]:
    """The canonical search pool: active domain plus ``2k+1`` fresh values."""
    if extra_fresh is None:
        extra_fresh = 2 * automaton.k + 1
    adom = sorted(database.active_domain(), key=repr)
    supply = FreshSupply(used=adom)
    return tuple(adom) + tuple(supply.take_many(extra_fresh))


_GUARD_LEVELS = ValueCache("runs.guard_levels")


def _guard_levels(guard, k: int):
    """Literals grouped by the highest y-register they mention.

    ``levels[0]`` holds literals with no y-variables (checkable before any
    next-register value is chosen); ``levels[l]`` holds literals whose
    highest y-index is ``l`` (checkable once ``y_1 .. y_l`` are fixed).
    Cached per guard *value*: run search evaluates the same guards millions
    of times, and structurally equal guards share one entry.
    """
    from repro.logic.terms import register_index

    def compute() -> List[List]:
        levels: List[List] = [[] for _ in range(k + 1)]
        for literal in guard.literals:
            highest = 0
            for term in literal.terms:
                decomposed = register_index(term)
                if decomposed and decomposed[0] == "y":
                    highest = max(highest, decomposed[1])
            levels[highest].append(literal)
        return levels

    return _GUARD_LEVELS.lookup((guard, k), compute)


def _register_choices(
    guard, before: Tuple[DataValue, ...], pool: Sequence[DataValue], database: Database, k: int
) -> Iterator[Tuple[DataValue, ...]]:
    """All next register tuples over *pool* satisfying *guard* from *before*.

    Backtracking over registers with early guard filtering: after fixing
    ``y_1 .. y_l`` we check exactly the literals whose variables became
    determined at level ``l``.
    """
    from repro.db.evaluation import evaluate_literal, register_vars

    levels = _guard_levels(guard, k)
    y_variables = register_vars("y", k)
    valuation: Dict = dict(zip(register_vars("x", len(before)), before))

    def level_ok(level: int) -> bool:
        for literal in levels[level]:
            if not evaluate_literal(literal, database, valuation):
                return False
        return True

    if not level_ok(0):
        return

    partial: List[DataValue] = []

    def extend(level: int) -> Iterator[Tuple[DataValue, ...]]:
        if level > k:
            yield tuple(partial)
            return
        variable = y_variables[level - 1]
        for value in pool:
            valuation[variable] = value
            partial.append(value)
            if level_ok(level):
                yield from extend(level + 1)
            partial.pop()
        valuation.pop(variable, None)

    if k == 0:
        yield ()
        return
    yield from extend(1)


def initial_tuples(
    automaton: RegisterAutomaton, database: Database, pool: Sequence[DataValue]
) -> Iterator[Tuple[State, Tuple[DataValue, ...], Transition]]:
    """All (initial state, first tuple, first transition) combinations.

    The first register tuple must satisfy the x-part of some transition
    fired from an initial state.
    """
    k = automaton.k
    for state in sorted(automaton.initial, key=repr):
        for transition in automaton.transitions_from(state):
            # Evaluate the x-part as if choosing "next" values: rename
            # x_i -> y_i so _register_choices' y-backtracking applies.
            x_guard = transition.guard.x_part(k).rename(_x_to_y_mapping(k))
            seen: Set[Tuple[DataValue, ...]] = set()
            for first in _register_choices(
                x_guard,
                ("?",) * k,
                pool,
                database,
                k,
            ):
                if first not in seen:
                    seen.add(first)
                    yield state, first, transition


# Cached interned ``Var`` values: cleared with the intern tables, like
# the register_vars memos it is built from.
_X_TO_Y: Dict[int, Dict] = {}

register_clear_listener(_X_TO_Y.clear)


def _x_to_y_mapping(k: int) -> Dict:
    """The substitution ``x_i -> y_i`` (cached per register count)."""
    mapping = _X_TO_Y.get(k)
    if mapping is None:
        from repro.db.evaluation import register_vars

        mapping = _X_TO_Y[k] = dict(
            zip(register_vars("x", k), register_vars("y", k))
        )
    return mapping


def find_lasso_run(
    automaton: RegisterAutomaton,
    database: Database,
    pool: Sequence[DataValue] = None,
    max_configurations: int = 200000,
) -> Optional[LassoRun]:
    """Search for an accepting lasso run over *database*.

    Explores the configuration graph (state, register tuple) with values
    from *pool* (default: :func:`value_pool`).  Complete for that pool; by
    the pool-completeness argument in the module docstring, a run over the
    database exists iff one over the pool does.  Raises
    :class:`~repro.foundations.errors.SpecificationError` when more than
    *max_configurations* configurations are reachable.

    The loop starts at the first configuration, in breadth-first order
    from the initial ones, that is accepting and lies on a cycle; the
    prefix is its breadth-first access path and the loop the first cycle
    a breadth-first walk from it back to itself finds.  Transitions are
    tried in declaration order.

    Returns a :class:`LassoRun` or ``None``.
    """
    if pool is None:
        pool = value_pool(automaton, database)
    Config = Tuple[State, Tuple[DataValue, ...]]
    initial: List[Config] = list(
        dict.fromkeys((state, first) for state, first, _t in initial_tuples(automaton, database, pool))
    )
    targets: Dict[Config, List[Config]] = {}
    guards: Dict[Config, List] = {}

    def successors(config: Config) -> List[Config]:
        found = targets.get(config)
        if found is None:
            if len(targets) >= max_configurations:
                raise SpecificationError(
                    "configuration graph exceeds %d nodes; shrink the pool or database"
                    % max_configurations
                )
            state, registers = config
            found, fired = [], []
            for transition in automaton.transitions_from(state):
                for nxt in _register_choices(
                    transition.guard, registers, pool, database, automaton.k
                ):
                    found.append((transition.target, nxt))
                    fired.append(transition.guard)
            targets[config], guards[config] = found, fired
        return found

    def guard_between(config: Config, target: Config):
        return guards[config][targets[config].index(target)]

    accepting = automaton.accepting
    anchors = {
        config
        for component in cyclic_components(initial, successors)
        for config in component
        if config[0] in accepting
    }
    if not anchors:
        return None
    access, access_guards = walk(initial, anchors.__contains__, successors, guard_between)
    anchor = access[-1]
    cycle, cycle_guards = walk((anchor,), anchor.__eq__, successors, guard_between, nonempty=True)
    configs = access[:-1] + cycle[:-1]
    return LassoRun(
        data=tuple(c[1] for c in configs),
        states=tuple(c[0] for c in configs),
        guards=tuple(access_guards + cycle_guards),
        loop_start=len(access) - 1,
    )


def generate_finite_runs(
    automaton: RegisterAutomaton,
    database: Database,
    length: int,
    pool: Sequence[DataValue] = None,
    limit: int = None,
) -> Iterator[FiniteRun]:
    """Enumerate valid run prefixes of the given *length* (DFS order).

    Exhaustive over the pool; *limit* caps the number of yielded runs.
    """
    if length < 1:
        return
    if pool is None:
        pool = value_pool(automaton, database)
    produced = [0]

    def extend(
        data: List[Tuple[DataValue, ...]], states: List[State], guards: List
    ) -> Iterator[FiniteRun]:
        if limit is not None and produced[0] >= limit:
            return
        if len(states) == length:
            produced[0] += 1
            yield FiniteRun(tuple(data), tuple(states), tuple(guards))
            return
        for transition in automaton.transitions_from(states[-1]):
            for nxt in _register_choices(
                transition.guard, data[-1], pool, database, automaton.k
            ):
                yield from extend(
                    data + [nxt], states + [transition.target], guards + [transition.guard]
                )

    seen_starts: Set[Tuple[State, Tuple[DataValue, ...]]] = set()
    for state, first, _transition in initial_tuples(automaton, database, pool):
        if (state, first) in seen_starts:
            continue
        seen_starts.add((state, first))
        yield from extend([first], [state], [])
