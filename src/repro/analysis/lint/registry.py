"""The lint-rule registry: pluggable rules in the ``AnalysisPass`` style.

Rules register globally (module import time) exactly like the analysis
passes in :mod:`repro.analysis.engine`; the engine iterates
:func:`all_rules` in deterministic code order, and the documentation
table in ``docs/ANALYSIS.md`` is generated from the same registry, so a
rule cannot exist without appearing in the docs (lint rule ``KNB003``
checks the reverse direction).

Three scopes, distinguished by what the ``run`` callable receives:

* ``"module"`` -- ``run(module, program, context)``: one file at a
  time, with the whole program available for context.  The eight legacy
  rules and ``KNB001`` live here.
* ``"program"`` -- ``run(program, context)``: cross-file rules whose
  findings still land *in* the linted files (``RSL00x``).
* ``"artifact"`` -- ``run(program, context)``: rules about artifacts
  *outside* the linted tree (CI workflow, generated docs tables --
  ``KNB002``/``KNB003``).  Skipped by single-source ``iter_findings``.

Every ``run`` yields :class:`~repro.analysis.lint.findings.Finding`
tuples; the engine owns ordering and deduplication.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

__all__ = ["LintRule", "register_rule", "lint_rule", "all_rules", "get_rule"]

_SCOPES = ("module", "program", "artifact")


@dataclass(frozen=True)
class LintRule:
    """One registered lint rule.

    ``summary`` is the one-line meaning used in the generated rule table
    (``docs/ANALYSIS.md``); keep it self-contained -- it is the only
    description most readers see.
    """

    code: str
    name: str
    scope: str
    summary: str
    run: Callable = field(repr=False, compare=False)

    def __post_init__(self):
        if self.scope not in _SCOPES:
            raise ValueError("unknown lint rule scope %r" % self.scope)


_REGISTRY: Dict[str, LintRule] = {}  # mode-ok: rule declarations, no interned values


def register_rule(rule: LintRule) -> LintRule:
    """Register *rule*; duplicate codes are a programming error."""
    existing = _REGISTRY.get(rule.code)
    if existing is not None:
        if existing is rule or existing == rule:
            return existing
        raise ValueError("lint rule %r is already registered" % rule.code)
    _REGISTRY[rule.code] = rule
    return rule


def lint_rule(code: str, name: str, scope: str, summary: str):
    """Decorator form: ``@lint_rule("RSL001", "unpolled-expensive-loop", ...)``."""

    def decorate(fn: Callable) -> Callable:
        register_rule(LintRule(code, name, scope, summary, fn))
        return fn

    return decorate


def all_rules() -> Tuple[LintRule, ...]:
    """Every registered rule, sorted by code (deterministic run order)."""
    return tuple(_REGISTRY[code] for code in sorted(_REGISTRY))


def get_rule(code: str) -> LintRule:
    return _REGISTRY[code]
