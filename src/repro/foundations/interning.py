"""Hash-consing: weak intern tables behind the logic constructors.

Every hot path of the reproduction -- guard agreement, type completion, the
Lemma 21 trackers, the Theorem 9 emptiness search -- churns through terms,
literals and sigma-types that are structurally equal but freshly allocated.
Hash-consing (interning) makes the constructors themselves return a single
canonical instance per value, so:

* structural equality becomes (mostly) pointer identity,
* per-instance caches (``SigmaType.closure``, evaluation memos) are
  computed once per *value* instead of once per allocation,
* cache keys hash in O(1) because every interned value carries its hash.

The mechanics live in the :class:`Interned` metaclass.  A class using it
declares a classmethod ``__intern_key__`` with the same signature as its
constructor, returning a hashable canonical key; the metaclass consults a
per-class :class:`weakref.WeakValueDictionary` before running
``__init__``, so a *hit* allocates nothing at all.  Values are held weakly:
an interned value the program no longer references is collected normally
and its table entry disappears with it.

Interning is always on.  Consumers still keep *structural* equality
correct, because two equal values need not be the same object after
:func:`clear_intern_tables` (a value built before the clear is no longer
in any table); identity is an optimisation, never a requirement.
Unpickled values re-enter the tables on load via each class's
``__reduce__``, which routes through the interning constructor.

Thread note: table probes are dict operations protected by the GIL.  A
race between two threads constructing the same new value can at worst
produce one transient duplicate; ``setdefault`` ensures the table keeps a
single winner and equality remains correct either way.
"""

import weakref
from typing import Dict, List

from repro.foundations.stats import cache_stats

__all__ = [
    "Interned",
    "register_intern_table",
    "register_clear_listener",
    "intern_table_sizes",
    "clear_intern_tables",
]


#: Every class created through the metaclass, for table diagnostics.
_INTERNED_CLASSES: List[type] = []


class Interned(type):
    """Metaclass giving a class a constructor-level weak intern table.

    The class must define ``__intern_key__`` as a classmethod whose
    signature mirrors ``__init__`` and whose result is the hashable
    canonical key (canonical: two constructor calls that would produce
    equal instances must map to equal keys).  On a table hit the canonical
    instance is returned directly and ``__init__`` never runs.
    """

    def __new__(mcls, name, bases, namespace):
        cls = super().__new__(mcls, name, bases, namespace)
        cls.__intern_table__ = weakref.WeakValueDictionary()
        cls.__intern_stats__ = cache_stats("intern.%s" % name)
        _INTERNED_CLASSES.append(cls)
        return cls

    def __call__(cls, *args, **kwargs):
        key = cls.__intern_key__(*args, **kwargs)
        table = cls.__intern_table__
        obj = table.get(key)
        stats = cls.__intern_stats__
        if obj is not None:
            stats.hits += 1
            return obj
        stats.misses += 1
        obj = super().__call__(*args, **kwargs)
        canonical = table.setdefault(key, obj)
        stats.note_entries(len(table))
        return canonical


#: Hand-managed tables (classes whose keys need construction-time work,
#: e.g. ``SigmaType``) registered so diagnostics and tests see them too.
_EXTRA_TABLES: Dict[str, "weakref.WeakValueDictionary"] = {}  # mode-ok: weak tables of canonical values, cleared below

#: Callbacks to run whenever the tables are force-cleared.  Modules holding
#: caches of *interned values* register a clearing callback here -- a cache
#: entry built before a clear must never be served after it, or
#: identity-is-equality breaks.
_CLEAR_LISTENERS: List = []


def register_intern_table(name: str, table: "weakref.WeakValueDictionary") -> None:
    """Expose a hand-managed weak intern table to the diagnostics below."""
    _EXTRA_TABLES[name] = table


def register_clear_listener(listener) -> None:
    """Run *listener()* whenever :func:`clear_intern_tables` runs.

    That is the only place listeners fire: the cold-start benchmarks and
    the tests use it as the "reset all canonical values" hammer.
    Listeners must be idempotent and must not raise.
    """
    _CLEAR_LISTENERS.append(listener)


def intern_table_sizes() -> Dict[str, int]:
    """Current live-entry count per interned class (diagnostics only)."""
    sizes = {cls.__name__: len(cls.__intern_table__) for cls in _INTERNED_CLASSES}
    for name, table in _EXTRA_TABLES.items():
        sizes[name] = len(table)
    return sizes


def clear_intern_tables() -> None:
    """Drop every table entry (tests and cold-start benchmarks only).

    Live values stay valid, but they are no longer canonical: a value
    rebuilt after the clear is equal to the old one without being the same
    object.  The registered listeners fire too, because caches holding
    previously-canonical values would otherwise keep handing them out
    after the reset.
    """
    for cls in _INTERNED_CLASSES:
        cls.__intern_table__.clear()
    for table in _EXTRA_TABLES.values():
        table.clear()
    for listener in _CLEAR_LISTENERS:
        listener()
