"""Hit/miss observability shared by every caching layer.

The library memoizes aggressively -- value caches in ``repro.core.caching``,
the intern tables of ``repro.foundations.interning``, per-type evaluation
memos in ``repro.db.evaluation``.  All of them report through the one
registry defined here, so benchmarks can print a single effectiveness table
regardless of which layer a cache lives in.

This module deliberately has **no** intra-package imports: it sits below
``repro.logic`` (whose interned constructors count their hits here) and
below ``repro.core`` (whose :mod:`~repro.core.caching` counts through
it), so it must not pull either in.
"""

from typing import Dict

__all__ = [
    "CacheStats",
    "cache_stats",
    "all_cache_stats",
    "reset_cache_stats",
]


class CacheStats:
    """Hit/miss/eviction counters for one named cache (or cache family).

    Stats objects are shared by *name* through :func:`cache_stats`, so
    short-lived cache instances (e.g. the per-call corridor cache of
    Theorem 24) accumulate into one series that benchmarks can report.
    """

    __slots__ = ("name", "hits", "misses", "evictions", "peak_entries")

    def __init__(self, name: str):
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.peak_entries = 0

    def hit(self) -> None:
        self.hits += 1

    def miss(self) -> None:
        self.misses += 1

    def eviction(self) -> None:
        self.evictions += 1

    def note_entries(self, count: int) -> None:
        """Record the current entry count; keeps the high-water mark."""
        if count > self.peak_entries:
            self.peak_entries = count

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup in [0, 1]; 0.0 before the first lookup."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = self.peak_entries = 0

    def snapshot(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "peak_entries": self.peak_entries,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return "CacheStats(%r, hits=%d, misses=%d, evictions=%d, peak=%d)" % (
            self.name,
            self.hits,
            self.misses,
            self.evictions,
            self.peak_entries,
        )


_REGISTRY: Dict[str, CacheStats] = {}  # mode-ok: plain counters, no interned values


def cache_stats(name: str) -> CacheStats:
    """The (singleton) stats object for the named cache; created on demand."""
    stats = _REGISTRY.get(name)
    if stats is None:
        stats = _REGISTRY[name] = CacheStats(name)
    return stats


def all_cache_stats() -> Dict[str, Dict[str, float]]:
    """Snapshots of every registered cache, keyed by cache name."""
    return {name: stats.snapshot() for name, stats in sorted(_REGISTRY.items())}


def reset_cache_stats() -> None:
    """Zero every registered counter (the caches themselves are untouched)."""
    for stats in _REGISTRY.values():
        stats.reset()
