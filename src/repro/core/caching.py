"""Lifetime-safe caching and indexing for the automata hot paths.

The streaming checker, the run searches and the projection pipeline all
memoize intermediate results (dead-state sets, transition lookups,
compiled constraint DFAs).  Before this module existed, each site rolled
its own dict -- two of them keyed by the object's ``id``,
which is unsound: CPython recycles the ids of garbage-collected objects,
so a cache entry for a dead DFA could be served for a brand-new one (the
flaky ``test_inequality_constraint_streamed`` failure).  This module
centralises the discipline:

* **value-keyed caches** (:class:`ValueCache`) for keys with structural
  equality (guards, state pairs, structural DFA fingerprints);
* **lifetime-bound caches** (:func:`cached_method`, the weak registries of
  :class:`AutomatonIndex` and :func:`dead_states`) where the cache entry
  cannot outlive the object it describes, because the object itself is the
  ``WeakKeyDictionary`` key -- never its ``id``;
* **observability** (:class:`CacheStats`) so benchmarks can report cache
  effectiveness (hits, misses, evictions, peak entries) alongside timings.

The hard rule enforced by CI: no cache in ``src/`` may key on object ids.

**Key discipline after the hash-consing kernel** (PR 3).  The logic values
that dominate cache keys -- ``SigmaType``, ``Literal``, terms -- are
interned (:mod:`repro.foundations.interning`) and carry their hash from
construction.  A ``ValueCache`` probe on such keys therefore costs an O(1)
cached-hash mix plus (on the usual path) a pointer-identity comparison:
value keying and identity keying have converged, without ever touching
``id()``.  Correctness never depends on identity: a key that is no longer
canonical (built before :func:`~repro.foundations.interning.clear_intern_tables`)
still hashes and compares structurally and hits the same entries.

Stats live in :mod:`repro.foundations.stats` and :class:`ValueCache` /
:func:`clear_value_caches` in :mod:`repro.foundations.memo` (so the logic
kernel below ``repro.core`` can use both without an import cycle); import
them from there.
"""

import weakref
from functools import wraps
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.foundations.stats import cache_stats

__all__ = [
    "cached_method",
    "AutomatonIndex",
    "dead_states",
]


def cached_method(name: Optional[str] = None, key: Optional[Callable] = None):
    """Memoize a method per instance, without pinning the instance.

    The memo lives in a ``WeakKeyDictionary`` keyed by the instance itself
    (so entries die with the instance and two instances never share
    verdicts) and, per instance, in a plain dict keyed by the argument
    tuple (or ``key(*args)`` when given).  Hit/miss counters are shared
    across instances under one stats name.
    """

    def decorate(fn):
        stats = cache_stats(name or "%s.%s" % (fn.__module__, fn.__qualname__))
        store: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

        @wraps(fn)
        def wrapper(self, *args):
            memo = store.get(self)
            if memo is None:
                memo = store[self] = {}
            cache_key = args if key is None else key(*args)
            if cache_key in memo:
                stats.hit()
                return memo[cache_key]
            stats.miss()
            value = fn(self, *args)
            memo[cache_key] = value
            stats.note_entries(len(memo))
            return value

        wrapper.__cache_stats__ = stats
        return wrapper

    return decorate


# ---------------------------------------------------------------------- #
# automaton indexing
# ---------------------------------------------------------------------- #


def _group(transitions: Tuple, key: Callable) -> Dict:
    table: Dict[object, List] = {}
    for transition in transitions:
        table.setdefault(key(transition), []).append(transition)
    return {k: tuple(ts) for k, ts in table.items()}


class AutomatonIndex:
    """Transition tables for one :class:`RegisterAutomaton`.

    Four groupings, each built lazily on first use (normalisation
    pipelines create many short-lived intermediate automata that only ever
    ask one kind of question):

    * ``transitions_from(source)`` -- the classic by-source grouping,
    * ``transitions_between(source, target)`` -- the (source, target) table
      the streaming validity check needs (it previously re-scanned the
      by-source list filtering on ``target`` at every fed position),
    * ``transitions_with_guard(source, guard)`` -- the grouping the
      ``SControl`` compilation filters by, and
    * ``guards_from(source)`` -- each source's distinct guards in
      first-occurrence order, which makes the state-driven questions
      (``guard_of_state``, ``is_state_driven``) lookups; the projections
      ask them once per state and transition.

    Indexes are cached per automaton *object* in a ``WeakKeyDictionary``
    (:meth:`of`), so they die with the automaton and can never be served
    for a different one.  The index itself holds only the transition
    tuple, not the automaton, so no reference cycle is created.
    """

    __slots__ = (
        "_transitions",
        "_by_source",
        "_by_source_target",
        "_by_source_guard",
        "_guards_by_source",
        "__weakref__",
    )

    _instances: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def __init__(self, transitions: Tuple):
        self._transitions = tuple(transitions)
        self._by_source: Optional[Dict] = None
        self._by_source_target: Optional[Dict] = None
        self._by_source_guard: Optional[Dict] = None
        self._guards_by_source: Optional[Dict] = None

    @classmethod
    def of(cls, automaton) -> "AutomatonIndex":
        """The index for *automaton*, built once per automaton object."""
        stats = cache_stats("core.automaton_index")
        index = cls._instances.get(automaton)
        if index is not None:
            stats.hit()
            return index
        stats.miss()
        index = cls(automaton.transitions)
        cls._instances[automaton] = index
        stats.note_entries(len(cls._instances))
        return index

    def transitions_from(self, source) -> Tuple:
        """All transitions whose source is *source*."""
        table = self._by_source
        if table is None:
            table = self._by_source = _group(self._transitions, lambda t: t.source)
        return table.get(source, ())

    def transitions_between(self, source, target) -> Tuple:
        """All transitions from *source* to *target*."""
        table = self._by_source_target
        if table is None:
            table = self._by_source_target = _group(
                self._transitions, lambda t: (t.source, t.target)
            )
        return table.get((source, target), ())

    def transitions_with_guard(self, source, guard) -> Tuple:
        """All transitions from *source* firing exactly *guard*."""
        table = self._by_source_guard
        if table is None:
            table = self._by_source_guard = _group(
                self._transitions, lambda t: (t.source, t.guard)
            )
        return table.get((source, guard), ())

    def _guard_table(self) -> Dict:
        table = self._guards_by_source
        if table is None:
            grouped: Dict[object, Dict] = {}
            for transition in self._transitions:
                grouped.setdefault(transition.source, {})[transition.guard] = None
            table = self._guards_by_source = {
                source: tuple(guards) for source, guards in grouped.items()
            }
        return table

    def guards_from(self, source) -> Tuple:
        """The distinct guards fired from *source*, in first-occurrence order."""
        return self._guard_table().get(source, ())

    def is_state_driven(self) -> bool:
        """Whether every source fires at most one distinct guard."""
        return all(len(guards) <= 1 for guards in self._guard_table().values())


# ---------------------------------------------------------------------- #
# per-DFA dead-state sets
# ---------------------------------------------------------------------- #


_DEAD_STATES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def dead_states(dfa) -> FrozenSet:
    """The states of *dfa* from which no accepting state is reachable.

    Computed for the whole DFA in **one backward BFS** from the accepting
    states over the reversed transition relation (the predecessor replaces
    a per-state forward search on every query).  Cached per DFA *object*
    in a ``WeakKeyDictionary`` -- the entry dies with the DFA, so a new
    DFA allocated at a recycled address starts from a clean slate.
    """
    stats = cache_stats("core.dead_states")
    cached = _DEAD_STATES.get(dfa)
    if cached is not None:
        stats.hit()
        return cached
    stats.miss()
    reverse: Dict[object, List] = {}
    for state in dfa.states:
        for symbol in dfa.alphabet:
            reverse.setdefault(dfa.delta(state, symbol), []).append(state)
    live = set(dfa.accepting)
    frontier = list(live)
    while frontier:
        node = frontier.pop()
        for predecessor in reverse.get(node, ()):
            if predecessor not in live:
                live.add(predecessor)
                frontier.append(predecessor)
    dead = frozenset(dfa.states - live)
    _DEAD_STATES[dfa] = dead
    stats.note_entries(len(_DEAD_STATES))
    return dead
