"""Per-layer spans and counters, recorded from outside the library.

The tracer wraps each layer's public entry points: a module-level function
is rebound in every loaded module that holds it (so ``from x import f``
call sites are covered too), a method is replaced on its class.  Each
call records a span -- name, start, end, parent span and operation id --
and generator functions record one span per resumption, so a lazy
enumeration is charged to whoever resumes it.  A span's self time is its
duration minus the time of its child spans.

A target that a refactor renamed or deleted is listed under ``missing``
and otherwise ignored: it never fails the run and never touches an
end-to-end number.  Counters are read from the values the entry points
return (a counter whose value changed shape is listed as missing too),
and cache counters are deltas of the library's own registry.
"""

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: ``(span name, module, qualified name, home workload)``.  The home
#: workload is the one on which the span must record calls.
SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("buchi.BuchiAutomaton.iter_accepted_lassos", "repro.automata.buchi", "BuchiAutomaton.iter_accepted_lassos", "emptiness-random"),
    ("buchi.BuchiAutomaton.find_accepted_lasso", "repro.automata.buchi", "BuchiAutomaton.find_accepted_lasso", "ltl-verify"),
    ("buchi.BuchiAutomaton.intersect", "repro.automata.buchi", "BuchiAutomaton.intersect", "ltl-verify"),
    ("symkernel.build_kernel", "repro.core.symkernel", "build_kernel", "emptiness-random"),
    ("symkernel.CodedCandidateCheck.__call__", "repro.core.symkernel", "CodedCandidateCheck.__call__", "emptiness-random"),
    ("symkernel.SymbolicKernel.decode_lasso", "repro.core.symkernel", "SymbolicKernel.decode_lasso", "emptiness-random"),
    ("types.guard_completion_search", "repro.logic.types", "guard_completion_search", "role-views"),
    ("pruning.prune_extended", "repro.core.pruning", "prune_extended", "emptiness-random"),
    ("reduction.trim_extended", "repro.core.reduction", "trim_extended", "emptiness-random"),
    ("extended.eliminate_equality_constraints", "repro.core.extended", "eliminate_equality_constraints", "emptiness-random"),
    ("emptiness.check_emptiness", "repro.core.emptiness", "check_emptiness", "emptiness-random"),
    ("emptiness.trace_is_consistent", "repro.core.emptiness", "trace_is_consistent", "emptiness-random"),
    ("emptiness.trace_has_bounded_cliques", "repro.core.emptiness", "trace_has_bounded_cliques", "emptiness-random"),
    ("register_automaton.RegisterAutomaton.completed", "repro.core.register_automaton", "RegisterAutomaton.completed", "ltl-verify"),
    ("register_automaton.RegisterAutomaton.state_driven", "repro.core.register_automaton", "RegisterAutomaton.state_driven", "ltl-verify"),
    ("projection.project_register_automaton", "repro.core.projection", "project_register_automaton", "role-views"),
    ("projection.project_extended", "repro.core.projection", "project_extended", "role-views"),
    ("projection.lemma21_constraints", "repro.core.projection", "lemma21_constraints", "role-views"),
    ("projection.equality_tracker_dfa", "repro.core.projection", "equality_tracker_dfa", "role-views"),
    ("projection.inequality_tracker_dfa", "repro.core.projection", "inequality_tracker_dfa", "role-views"),
    ("nfa.Nfa.determinize", "repro.automata.nfa", "Nfa.determinize", "role-views"),
    ("dfa.Dfa.minimize", "repro.automata.dfa", "Dfa.minimize", "role-views"),
    ("theorem24.project_with_database", "repro.core.theorem24", "project_with_database", "role-views"),
    ("lr.is_lr_bounded", "repro.core.lr", "is_lr_bounded", "role-views"),
    ("views.role_view", "repro.workflows.views", "role_view", "role-views"),
    ("views.database_hidden_view", "repro.workflows.views", "database_hidden_view", "role-views"),
    ("verification.verify", "repro.core.verification", "verify", "ltl-verify"),
    ("translation.ltl_to_buchi", "repro.ltl.translation", "ltl_to_buchi", "ltl-verify"),
    ("symbolic.scontrol_buchi", "repro.core.symbolic", "scontrol_buchi", "ltl-verify"),
    ("monitor.MonitorMultiplexer.ingest", "repro.core.monitor", "MonitorMultiplexer.ingest", "monitor-churn"),
    ("monitor.MonitorMultiplexer.recover", "repro.core.monitor", "MonitorMultiplexer.recover", "monitor-churn"),
    ("streaming.StreamingChecker.feed", "repro.core.streaming", "StreamingChecker.feed", "monitor-churn"),
    ("streaming.StreamingChecker.restore", "repro.core.streaming", "StreamingChecker.restore", "monitor-churn"),
    ("streaming.StreamingChecker.snapshot", "repro.core.streaming", "StreamingChecker.snapshot", "monitor-churn"),
)

#: ``(counter name, unit)``, reported by every traced pass.
COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("emptiness.candidates_checked", "count"),
    ("emptiness.rs003_timeouts", "count"),
    ("emptiness.deadline_overshoot_ms_max", "ms"),
    ("projection.view_states", "count"),
    ("projection.tracker_dfa_states_max", "count"),
    ("verification.product_size_sum", "count"),
    ("monitor.snapshots_per_event", "ratio"),
    ("monitor.journal_len_peak", "count"),
    ("monitor.recover_ms_max", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("intern.SigmaType.misses", "count"),
)

_ABSENT = object()


def per_layer_metrics() -> List[Tuple[str, str]]:
    """``(metric name, unit)`` of everything a traced pass reports."""
    metrics = []
    for name, _module, _qualname, _home in SPANS:
        metrics.append((name + ".calls", "count"))
        metrics.append((name + ".self_ms", "ms"))
    metrics.extend(COUNTERS)
    return metrics


class Tracer:
    """Spans and counters for one traced pass; :meth:`install` to start."""

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.names = [span[0] for span in spans]
        self.calls = [0] * len(spans)
        self.self_s = [0.0] * len(spans)
        self.missing: List[str] = []
        self.counters: Dict[str, float] = {name: 0 for name, _unit in COUNTERS}
        #: the operation id stamped on every span; the harness sets it
        self.op = -1
        self._stack: List[list] = []  # [span index, span id, start, child seconds]
        self._next_id = 0
        self._columns = {
            "id": array("q"),
            "name": array("H"),
            "start": array("d"),
            "end": array("d"),
            "parent": array("q"),
            "op": array("q"),
        }
        self._patches: List[Tuple[object, str, object]] = []
        self._multiplexers: Dict[object, Tuple[int, int]] = {}
        self._cache_before: Optional[Tuple[int, int, int]] = None
        self._origin = 0.0

    # -- spans ---------------------------------------------------------- #

    def _enter(self, index: int) -> None:
        self._stack.append([index, self._next_id, perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self) -> float:
        end = perf_counter()
        index, span, start, child = self._stack.pop()
        seconds = end - start
        self.calls[index] += 1
        self.self_s[index] += seconds - child
        parent = -1
        if self._stack:
            caller = self._stack[-1]
            caller[3] += seconds
            parent = caller[1]
        columns = self._columns
        columns["id"].append(span)
        columns["name"].append(index)
        columns["start"].append(start)
        columns["end"].append(end)
        columns["parent"].append(parent)
        columns["op"].append(self.op)
        return seconds

    def _wrap(self, function, index: int):
        hook = HOOKS.get(self.names[index])
        tracer = self
        if inspect.isgeneratorfunction(function):

            @functools.wraps(function)
            def traced_generator(*args, **kwargs):
                inner = function(*args, **kwargs)

                def resumptions():
                    try:
                        while True:
                            tracer._enter(index)
                            try:
                                value = next(inner)
                            except StopIteration:
                                return
                            finally:
                                tracer._exit()
                            yield value
                    finally:
                        inner.close()

                return resumptions()

            return traced_generator

        @functools.wraps(function)
        def traced(*args, **kwargs):
            tracer._enter(index)
            try:
                result = function(*args, **kwargs)
            finally:
                seconds = tracer._exit()
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result, seconds)
                except Exception:  # a refactored result shape must not stop the pass
                    broken = "counters of " + tracer.names[index]
                    if broken not in tracer.missing:
                        tracer.missing.append(broken)
            return result

        return traced

    # -- installation --------------------------------------------------- #

    def _rebind(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, value)

    def install(self) -> "Tracer":
        """Wrap every target that resolves; list the others as missing."""
        self._cache_before = _cache_totals()
        self._origin = perf_counter()
        for index, (name, module_name, qualname, _home) in enumerate(self.spans):
            try:
                owner = importlib.import_module(module_name)
                *path, attribute = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attribute)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            if isinstance(owner, type):
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, index))
                elif callable(raw):
                    wrapped = self._wrap(raw, index)
                else:
                    self.missing.append(name)
                    continue
                self._rebind(owner, attribute, wrapped)
            elif callable(raw):
                wrapped = self._wrap(raw, index)
                for module in list(sys.modules.values()):
                    namespace = getattr(module, "__dict__", None)
                    if not isinstance(namespace, dict):
                        continue
                    for key, value in list(namespace.items()):
                        if value is raw:
                            self._rebind(module, key, wrapped)
            else:
                self.missing.append(name)
        return self

    def uninstall(self) -> None:
        """Put every rebound name back, newest first."""
        for owner, attribute, original in reversed(self._patches):
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches = []

    # -- results -------------------------------------------------------- #

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric by name (spans first, then counters)."""
        values: Dict[str, float] = {}
        for index, name in enumerate(self.names):
            values[name + ".calls"] = self.calls[index]
            values[name + ".self_ms"] = self.self_s[index] * 1000.0
        counters = dict(self.counters)
        snapshots = sum(taken for taken, _events in self._multiplexers.values())
        events = sum(events for _taken, events in self._multiplexers.values())
        counters["monitor.snapshots_per_event"] = snapshots / events if events else 0.0
        after = _cache_totals()
        if self._cache_before is not None and after is not None:
            hits, misses, sigma = (b - a for a, b in zip(self._cache_before, after))
            counters["cache.hits"] = hits
            counters["cache.misses"] = misses
            counters["intern.SigmaType.misses"] = sigma
        values.update(counters)
        return values

    def trace_document(self, workload: str, metrics: Dict[str, float]) -> dict:
        """The ``trace-<workload>.json`` body: spans, per-layer metrics, missing targets.

        ``spans`` is columnar: entry ``i`` of every column describes one
        span; ``name`` indexes ``span_names``, ``parent`` is a span ``id``
        (-1 at the top) and times are microseconds since :meth:`install`.
        """
        spans = {key: column.tolist() for key, column in self._columns.items()}
        for key in ("start", "end"):
            spans[key + "_us"] = [round((t - self._origin) * 1e6) for t in spans.pop(key)]
        return {
            "workload": workload,
            "span_names": self.names,
            "missing": self.missing,
            "metrics": metrics,
            "spans": spans,
        }


def _cache_totals() -> Optional[Tuple[int, int, int]]:
    """(hits, misses) over the non-intern caches, and SigmaType intern misses."""
    try:
        from repro.foundations.stats import all_cache_stats
    except ImportError:
        return None
    hits = misses = sigma = 0
    for name, snapshot in all_cache_stats().items():
        if name == "intern.SigmaType":
            sigma = snapshot["misses"]
        elif not name.startswith("intern."):
            hits += snapshot["hits"]
            misses += snapshot["misses"]
    return hits, misses, sigma


# ---------------------------------------------------------------------- #
# counters read from returned values
# ---------------------------------------------------------------------- #


def _raise_to(tracer: Tracer, counter: str, value: float) -> None:
    if value > tracer.counters[counter]:
        tracer.counters[counter] = value


def _emptiness(tracer, args, kwargs, result, seconds) -> None:
    tracer.counters["emptiness.candidates_checked"] += getattr(result, "candidates_checked", 0)
    status = getattr(getattr(result, "outcome", None), "status", None)
    if getattr(status, "name", None) == "TIMEOUT":
        tracer.counters["emptiness.rs003_timeouts"] += 1
    deadline = kwargs.get("deadline", args[4] if len(args) > 4 else None)
    if isinstance(deadline, (int, float)):
        _raise_to(tracer, "emptiness.deadline_overshoot_ms_max", seconds * 1000.0 - deadline)


def _view(tracer, args, kwargs, result, seconds) -> None:
    automaton = getattr(result, "automaton", None)
    tracer.counters["projection.view_states"] += len(getattr(automaton, "states", ()))


def _tracker(tracer, args, kwargs, result, seconds) -> None:
    _raise_to(tracer, "projection.tracker_dfa_states_max", result.size())


def _verification(tracer, args, kwargs, result, seconds) -> None:
    tracer.counters["verification.product_size_sum"] += getattr(result, "product_size", 0)


def _ingest(tracer, args, kwargs, result, seconds) -> None:
    stats = getattr(getattr(result, "outcome", None), "stats", {})
    _raise_to(tracer, "monitor.journal_len_peak", stats.get("journal_len", 0))
    tracer._multiplexers[args[0]] = (
        stats.get("snapshots_taken", 0),
        stats.get("events_applied", 0),
    )


def _recover(tracer, args, kwargs, result, seconds) -> None:
    _raise_to(tracer, "monitor.recover_ms_max", seconds * 1000.0)


HOOKS = {
    "emptiness.check_emptiness": _emptiness,
    "projection.project_register_automaton": _view,
    "projection.project_extended": _view,
    "projection.equality_tracker_dfa": _tracker,
    "projection.inequality_tracker_dfa": _tracker,
    "verification.verify": _verification,
    "monitor.MonitorMultiplexer.ingest": _ingest,
    "monitor.MonitorMultiplexer.recover": _recover,
}
