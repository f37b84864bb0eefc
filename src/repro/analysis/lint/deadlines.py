"""``RSL00x``: deadline-poll discipline in long-running modules.

The resilience layer (``docs/ROBUSTNESS.md``) is cooperative: a deadline
or cancellation only interrupts work at an explicit poll
(``current_deadline().check(site)``, ``Budget.charge()``,
``CancellationToken.check()``).  A loop that drives expensive work
without ever polling is therefore un-interruptible -- the budgeted run
keeps burning wall time after its deadline expired.  Two rules police
the modules where that matters:

* ``RSL001`` -- a loop in a long-running module whose body calls a
  known-expensive function but never polls, directly or through the
  (bounded, best-effort resolved) functions it calls.
* ``RSL002`` -- a loop that *sleeps* (``time.sleep``) without polling:
  a cancelled run keeps sleeping through its backoff.

Scope is deliberate, not global: only the modules named in
:data:`LONG_RUNNING_MODULES` (the enumeration/solver/streaming layers
that own documented checkpoint sites) are checked, and only loops whose
bodies provably drive :data:`EXPENSIVE_NAMES` work.  Everything
unresolvable stays quiet, and ``# deadline-ok: <why>`` on the loop line
is the audited escape hatch (e.g. a loop bounded by construction).
"""

import ast
from typing import Iterable, List, Sequence, Set, Tuple

from repro.analysis.lint.findings import Finding
from repro.analysis.lint.program import FunctionInfo, ModuleInfo, Program
from repro.analysis.lint.registry import LintRule, register_rule

__all__ = ["deadline_findings", "LONG_RUNNING_MODULES", "EXPENSIVE_NAMES"]

#: Dotted module names whose loops must stay interruptible: the layers
#: with documented checkpoint sites (emptiness.lasso, types.completions,
#: theorem24.literal_pair, buchi.*_round, buchi.anchor, buchi.extend,
#: buchi.product, lr.lasso, streaming.feed_run, monitor.ingest) plus the
#: dataflow solver and the shared graph searches (repro.automata.graphs,
#: whose callers poll a deadline or charge a budget inside ``successors``).
#: projection.register_pair is documented too, but repro.core.projection
#: is not listed yet.
LONG_RUNNING_MODULES = frozenset(
    {
        "repro.core.emptiness",
        "repro.core.lr",
        "repro.core.symkernel",
        "repro.core.theorem24",
        "repro.core.streaming",
        "repro.core.monitor",
        "repro.automata.buchi",
        "repro.automata.graphs",
        "repro.logic.types",
        "repro.analysis.dataflow.framework",
    }
)

#: Callee names that mark a loop body as driving expensive work.  Name
#: based (an ``obj.method(...)`` spelling matches on the attribute), so
#: the rule keeps working across import styles; tuned to the repo's
#: actual enumeration/solver entry points.
EXPENSIVE_NAMES = frozenset(
    {
        "check_emptiness",
        "find_accepted_lasso",
        "iter_accepted_lassos",
        "iter_lassos",
        "feed_run",
        "feed",
        "_apply_session",
        "complete_x_types",
        "completions",
        "normalise_automaton",
        "literal_pairs",
        "register_pairs",
        "candidate_check",
    }
)

#: A call to one of these names *is* a poll.
_POLL_NAMES = ("current_deadline", "deadline_scope", "budget_scope")

#: ``<obj>.check(...)`` / ``<obj>.charge(...)`` is a poll regardless of
#: the receiver -- Deadline, Budget scopes and CancellationToken all
#: spell it that way.
_POLL_ATTRS = ("check", "charge")

#: How far poll detection follows resolved callees out of the loop body.
_POLL_DEPTH = 3

_RSL001_MESSAGE = (
    "long-running loop drives expensive work (%s) but never polls a "
    "deadline: budgets and cancellation cannot interrupt it; call "
    "current_deadline().check(<site>) / Budget.charge() in the loop body "
    "or annotate the loop '# deadline-ok: <why>'"
)

_RSL002_MESSAGE = (
    "loop sleeps (time.sleep) without polling a deadline: a cancelled or "
    "deadline-expired run keeps sleeping through its backoff; poll "
    "current_deadline() / .check(...) before sleeping or annotate the "
    "loop '# deadline-ok: <why>'"
)


def _callee_name(node: ast.Call):
    callee = node.func
    if isinstance(callee, ast.Name):
        return callee.id
    if isinstance(callee, ast.Attribute):
        return callee.attr
    return None


def _body_calls(body: Sequence[ast.stmt]) -> Iterable[ast.Call]:
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Call):
                yield node


def _is_poll_call(node: ast.Call) -> bool:
    callee = node.func
    if isinstance(callee, ast.Name) and callee.id in _POLL_NAMES:
        return True
    if isinstance(callee, ast.Attribute):
        if callee.attr in _POLL_NAMES:
            return True
        if callee.attr in _POLL_ATTRS:
            return True
    return False


def _polls(
    program: Program,
    module: ModuleInfo,
    body: Sequence[ast.stmt],
    owner_class,
    depth: int,
    visited: Set[Tuple[str, str]],
) -> bool:
    """Whether the body (or a resolved callee, transitively) polls."""
    for call in _body_calls(body):
        if _is_poll_call(call):
            return True
    if depth <= 0:
        return False
    for call in _body_calls(body):
        for callee in program.resolve_callee(module, call.func, owner_class):
            if callee.key in visited:
                continue
            visited.add(callee.key)
            if _polls(
                program,
                callee.module,
                callee.node.body,
                callee.owner_class,
                depth - 1,
                visited,
            ):
                return True
    return False


def _is_sleep_call(module: ModuleInfo, node: ast.Call) -> bool:
    callee = node.func
    if (
        isinstance(callee, ast.Attribute)
        and callee.attr == "sleep"
        and isinstance(callee.value, ast.Name)
        and module.imports.get(callee.value.id) == "time"
    ):
        return True
    return isinstance(callee, ast.Name) and module.import_from.get(callee.id) == (
        "time",
        "sleep",
    )


def _loops(module: ModuleInfo):
    """Every ``for``/``while`` loop with its owning function (or ``None``).

    Dedup is positional (line, column) -- two distinct loops can never
    share a position, and object identity is banned as a key (ID001).
    """
    covered = set()
    for fn in module.iter_functions():
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                covered.add((node.lineno, node.col_offset))
                yield node, fn
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            if (node.lineno, node.col_offset) not in covered:
                yield node, None


def deadline_findings(program: Program) -> List[Finding]:
    """All ``RSL00x`` findings for *program*, computed once per run."""
    cached = program.cache.get("deadlines")
    if cached is not None:
        return cached
    findings: List[Finding] = []
    for module in program.modules:
        if module.name not in LONG_RUNNING_MODULES:
            continue
        for loop, fn in _loops(module):
            if "# deadline-ok:" in module.line(loop.lineno):
                continue
            body = list(loop.body) + list(loop.orelse)
            owner = fn.owner_class if fn is not None else None
            expensive = sorted(
                {
                    name
                    for name in (
                        _callee_name(call) for call in _body_calls(body)
                    )
                    if name in EXPENSIVE_NAMES
                }
            )
            sleeps = [
                call
                for call in _body_calls(body)
                if _is_sleep_call(module, call)
            ]
            if not expensive and not sleeps:
                continue
            if _polls(program, module, body, owner, _POLL_DEPTH, set()):
                continue
            if expensive:
                findings.append(
                    Finding(
                        module.path,
                        loop.lineno,
                        loop.col_offset,
                        "RSL001",
                        _RSL001_MESSAGE % ", ".join(expensive),
                    )
                )
            for call in sleeps:
                findings.append(
                    Finding(
                        module.path,
                        call.lineno,
                        call.col_offset,
                        "RSL002",
                        _RSL002_MESSAGE,
                    )
                )
    program.cache["deadlines"] = findings
    return findings


def _run_code(code: str):
    def run(program, context):
        return [f for f in deadline_findings(program) if f.code == code]

    return run


_RSL_RULES = (
    (
        "RSL001",
        "unpolled-expensive-loop",
        "loop in a long-running module drives expensive work without a "
        "deadline poll: deadlines/budgets/cancellation cannot interrupt it "
        "(exempt: `# deadline-ok:`)",
    ),
    (
        "RSL002",
        "unpolled-sleep-loop",
        "loop sleeps via `time.sleep` without polling a deadline: a "
        "cancelled run keeps sleeping through its backoff (exempt: "
        "`# deadline-ok:`)",
    ),
)

for _code, _name, _summary in _RSL_RULES:
    register_rule(LintRule(_code, _name, "program", _summary, _run_code(_code)))
