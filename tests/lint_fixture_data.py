"""Fixture tree for the lint-engine golden tests.

``FIXTURES`` maps a relative path (under a ``fixtures/`` root a test
materialises in a tmp directory) to the source of one deliberately-bad
module.  There is one seeded violation per lint rule -- the eight legacy
rules (``ID001`` .. ``ORD001``) and the two new cross-file families
(``KNB00x`` / ``RSL00x``) -- plus the clean counterparts the exemption
comments demonstrate.

The contents are data, not code: nothing in this module is imported or
executed by the library.  Two golden files pin the linter's behaviour
over this tree:

* ``tests/goldens/lint_legacy_fixture.json`` -- the eight legacy rules'
  findings, generated with the *pre-refactor* ``tools/lint_repro.py``.
  The new engine must reproduce it byte for byte (the migration
  acceptance anchor).
* ``tests/goldens/lint_full_fixture.json`` -- the full new-engine
  output, all rules, pinning the JSON shape and the new families'
  findings going forward.

Regenerate the full golden (from the repo root, after a deliberate
rule change; the legacy golden is the pre-refactor anchor and is never
regenerated)::

    PYTHONPATH=src:. python tests/test_lint_engine.py --regen

Paths are chosen so the path-sensitive rules see the tree they expect:
``src/repro/core/...`` is the HC001 hot tree, anything under a ``repro``
directory is in scope for MC001/ORD001/KNB001, and module names
derived from the ``repro`` package root (``repro.core.streaming``) land
in the RSL long-running set.
"""

import textwrap

FIXTURES = {
    # -- legacy rules ------------------------------------------------- #
    "plain/bad_id.py": textwrap.dedent(
        """\
        _DEAD_CACHE = {}


        def dead_states(dfa):
            key = id(dfa)
            if key not in _DEAD_CACHE:
                _DEAD_CACHE[key] = list(dfa)
            return _DEAD_CACHE[key]
        """
    ),
    "plain/bad_default.py": textwrap.dedent(
        """\
        def collect(item, pool=[]):
            pool.append(item)
            return pool
        """
    ),
    "plain/bad_except.py": textwrap.dedent(
        """\
        def swallow(fn):
            try:
                return fn()
            except:
                return None
        """
    ),
    "plain/bad_env.py": textwrap.dedent(
        """\
        import os

        QUICK = os.environ.get("REPRO_BENCH_QUICK", "")


        def quick():
            return QUICK
        """
    ),
    "plain/bad_time.py": textwrap.dedent(
        """\
        import time


        def stamp():
            return time.time()
        """
    ),
    "src/repro/core/bad_hot.py": textwrap.dedent(
        """\
        def rebuild(guards, x):
            return [Literal(x) for _guard in guards]
        """
    ),
    "src/repro/logic/bad_modecache.py": textwrap.dedent(
        """\
        _TYPES = {}


        def lookup(key):
            if key not in _TYPES:
                _TYPES[key] = key
            return _TYPES[key]
        """
    ),
    "src/repro/logic/bad_order.py": textwrap.dedent(
        """\
        def render(items):
            out = []
            for item in set(items):
                out.append(item)
            return out
        """
    ),
    # -- KNB00x: knob registry discipline ------------------------------ #
    # Read at call time (so legacy ENV001 stays quiet) but bypassing
    # foundations.knobs: exactly the read KNB001 exists to catch.
    "src/repro/core/bad_knob.py": textwrap.dedent(
        """\
        import os


        def fancy_enabled():
            return os.environ.get("REPRO_FANCY", "") not in ("", "0")
        """
    ),
    # -- RSL00x: deadline-poll discipline ------------------------------ #
    # The module name resolves to repro.core.streaming -- a long-running
    # module -- and the loop drives an expensive callee that provably
    # never polls a deadline.
    "src/repro/core/streaming.py": textwrap.dedent(
        """\
        def feed_run(batch):
            return len(batch)


        def drain(batches):
            total = 0
            for batch in batches:
                total += feed_run(batch)
            return total
        """
    ),
    "src/repro/core/emptiness.py": textwrap.dedent(
        """\
        import time


        def wait_for(flag):
            while not flag.ready():
                time.sleep(0.05)
            return True
        """
    ),
}

#: The eight pre-refactor rule codes -- the identity-test selection.
LEGACY_CODES = (
    "ID001",
    "DEF001",
    "EXC001",
    "ENV001",
    "HC001",
    "TIME001",
    "MC001",
    "ORD001",
)
