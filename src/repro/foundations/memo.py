"""Value-keyed memo tables, below the ``repro.core`` layer.

:class:`ValueCache` started life in :mod:`repro.core.caching`.  It moved
down here so the logic kernel -- which
``repro.core`` imports at module load -- can bound its own memo tables with
the same instrumented cache class without creating an import cycle.

The discipline is unchanged: keys compare by *value* (structural
equality), never by identity, and every instance is tracked weakly so
:func:`clear_value_caches` can reset the lot between ablation runs.
"""

import weakref
from typing import Callable, Dict, Hashable, List, Optional

from repro.foundations.stats import cache_stats

__all__ = ["ValueCache", "clear_value_caches"]


class ValueCache:
    """A memo table keyed by *values* (structural equality), never identity.

    Keys must be hashable and compare by content -- guards (``SigmaType``),
    tuples of states, structural DFA fingerprints.  An optional *maxsize*
    bounds the table with FIFO eviction (insertion order), which is enough
    for the streaming workloads where old guard shapes stop recurring.

    Every instance is tracked (weakly) so :func:`clear_value_caches` can
    reset the lot -- the ablation benchmarks flip interning on and off and
    must not let entries computed in one mode serve lookups in the other.
    """

    __slots__ = ("_data", "_maxsize", "stats", "__weakref__")

    _MISSING = object()
    _instances: List["weakref.ref"] = []

    def __init__(self, name: str, maxsize: Optional[int] = None):
        self._data: Dict[Hashable, object] = {}
        self._maxsize = maxsize
        self.stats = cache_stats(name)
        ValueCache._instances.append(weakref.ref(self))

    def lookup(self, key: Hashable, compute: Callable[[], object]) -> object:
        """The cached value for *key*, computing and storing it on a miss."""
        data = self._data
        value = data.get(key, self._MISSING)
        if value is not self._MISSING:
            self.stats.hit()
            return value
        self.stats.miss()
        value = compute()
        if self._maxsize is not None and len(data) >= self._maxsize:
            data.pop(next(iter(data)))
            self.stats.eviction()
        data[key] = value
        self.stats.note_entries(len(data))
        return value

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()


def clear_value_caches() -> None:
    """Empty every live :class:`ValueCache` (ablation/test isolation).

    Stats counters are deliberately left alone -- this resets *state*, not
    *observability*; pair with ``reset_cache_stats`` when both matter.
    """
    live: List["weakref.ref"] = []
    for ref in ValueCache._instances:
        cache = ref()
        if cache is not None:
            cache.clear()
            live.append(ref)
    ValueCache._instances[:] = live
