"""The whole-program lint engine (``python -m repro.analysis.lint``).

The project-specific static-analysis subsystem behind the CI lint job:
an import-graph + call-graph layer over every linted file
(:mod:`.program`), a pluggable rule registry in the style of the
:class:`~repro.analysis.engine.AnalysisPass` registry (:mod:`.registry`),
the eight legacy single-file rules ported byte-for-byte (:mod:`.legacy`),
and two cross-file rule families:

* ``KNB00x`` -- ``REPRO_*`` knob-registry discipline, CI ablation
  coverage and generated-docs drift (:mod:`.knob_rules`);
* ``RSL00x`` -- deadline-poll discipline in long-running loops
  (:mod:`.deadlines`).

``python -m repro.analysis.lint`` is the command-line entry point.
"""

from repro.analysis.lint.cli import main
from repro.analysis.lint.engine import (
    LintContext,
    iter_findings,
    lint_paths,
    load_program,
)
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.registry import LintRule, all_rules, get_rule, lint_rule

__all__ = [
    "Finding",
    "LintContext",
    "LintRule",
    "all_rules",
    "get_rule",
    "iter_findings",
    "lint_paths",
    "lint_rule",
    "load_program",
    "main",
]
