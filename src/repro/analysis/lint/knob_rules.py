"""``KNB00x``: knob-registry discipline.

Every ``REPRO_*`` environment knob is declared once in
:mod:`repro.foundations.knobs` and read through it at call time.  Three
rules keep the registry, the code, the CI workflow and the docs in
lockstep:

* ``KNB001`` (module scope) -- a literal ``REPRO_*`` name reaching
  ``os.environ`` / ``os.getenv`` anywhere in a ``repro`` package module
  other than the registry itself.  The legacy ``ENV001`` only polices
  *import-time* reads; ``KNB001`` closes the gap for call-time reads
  (and writes) that bypass the central parser and its junk-tolerance
  rules.
* ``KNB002`` (artifact scope) -- ablation coverage: every registered
  knob with ``ablation="ci"`` must be exercised by a leg of
  ``.github/workflows/ci.yml``; an ``ablation="none"`` opt-out must
  carry a reason; and every ``REPRO_*`` name the workflow references
  must be a registered knob (no ghost legs).  Skipped when the workflow
  file is absent (fixture trees, sliced checkouts).
* ``KNB003`` (artifact scope) -- generated-docs drift: the knob table
  in ``docs/ROBUSTNESS.md`` and the rule table in ``docs/ANALYSIS.md``
  are emitted from the registries (``python -m repro.analysis.lint
  --emit-docs``); a hand edit or a stale table is a finding.

The heavy lifting is in pure helpers (:func:`knob_access_findings`,
:func:`ablation_findings`) so tests can drive them with fixture
registries and workflow texts without touching the real files.
"""

import ast
import re
from typing import Callable, List, Optional, Sequence

from repro.analysis.lint.findings import Finding
from repro.analysis.lint.legacy import _in_repro_tree
from repro.analysis.lint.program import ModuleInfo
from repro.analysis.lint.registry import LintRule, register_rule

__all__ = ["knob_access_findings", "ablation_findings"]

#: The one module allowed to touch ``REPRO_*`` environment variables.
REGISTRY_MODULE = "repro.foundations.knobs"

_KNOB_TOKEN = re.compile(r"\bREPRO_[A-Z0-9_]+\b")

_KNB001_MESSAGE = (
    "direct environment access to %r bypasses the knob registry: declare "
    "the knob in repro.foundations.knobs and go through knobs.value(...), "
    "so parsing, ablation coverage and the generated docs stay centralised"
)


def _knob_literal(node: Optional[ast.expr]) -> Optional[str]:
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("REPRO_")
    ):
        return node.value
    return None


def _is_environ_expr(module: ModuleInfo, node: ast.expr) -> bool:
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and module.imports.get(node.value.id) == "os"
    ):
        return True
    return isinstance(node, ast.Name) and module.import_from.get(node.id) == (
        "os",
        "environ",
    )


def _is_getenv_callee(module: ModuleInfo, callee: ast.expr) -> bool:
    if (
        isinstance(callee, ast.Attribute)
        and callee.attr in ("getenv", "putenv")
        and isinstance(callee.value, ast.Name)
        and module.imports.get(callee.value.id) == "os"
    ):
        return True
    return isinstance(callee, ast.Name) and module.import_from.get(callee.id) in (
        ("os", "getenv"),
        ("os", "putenv"),
    )


def knob_access_findings(module: ModuleInfo) -> List[Finding]:
    """All ``KNB001`` findings for one module (pure; no context needed)."""
    if not _in_repro_tree(module.path) or module.name == REGISTRY_MODULE:
        return []
    findings: List[Finding] = []

    def report(node: ast.AST, name: str) -> None:
        findings.append(
            Finding(
                module.path,
                node.lineno,
                node.col_offset,
                "KNB001",
                _KNB001_MESSAGE % name,
            )
        )

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Subscript):
            name = _knob_literal(node.slice)
            if name is not None and _is_environ_expr(module, node.value):
                report(node, name)
        elif isinstance(node, ast.Call):
            callee = node.func
            first = _knob_literal(node.args[0]) if node.args else None
            if first is None:
                continue
            if _is_getenv_callee(module, callee):
                report(node, first)
            elif (
                isinstance(callee, ast.Attribute)
                and callee.attr in ("get", "setdefault", "pop")
                and _is_environ_expr(module, callee.value)
            ):
                report(node, first)
    return findings


# ---------------------------------------------------------------------- #
# KNB002: ablation coverage
# ---------------------------------------------------------------------- #


def ablation_findings(
    knob_list: Sequence,
    ci_text: str,
    ci_path: str,
    is_registered: Callable[[str], bool],
) -> List[Finding]:
    """The ``KNB002`` cross-check of a knob registry against a workflow.

    Pure: *knob_list* is any sequence of objects with ``name`` /
    ``ablation`` / ``ablation_reason`` attributes, *ci_text* the
    workflow file contents.  Order is deterministic (registry order,
    then sorted workflow tokens).
    """
    findings: List[Finding] = []
    for knob in knob_list:
        if knob.ablation == "ci":
            if knob.name not in ci_text:
                findings.append(
                    Finding(
                        ci_path,
                        0,
                        0,
                        "KNB002",
                        "registered knob %s declares ablation=\"ci\" but no "
                        "leg of the CI workflow references it: add an "
                        "ablation leg or declare ablation=\"none\" with a "
                        "reason" % knob.name,
                    )
                )
        elif knob.ablation == "none":
            if not knob.ablation_reason:
                findings.append(
                    Finding(
                        ci_path,
                        0,
                        0,
                        "KNB002",
                        "registered knob %s opts out of ablation coverage "
                        "(ablation=\"none\") without an ablation_reason"
                        % knob.name,
                    )
                )
        else:
            findings.append(
                Finding(
                    ci_path,
                    0,
                    0,
                    "KNB002",
                    "registered knob %s has unknown ablation kind %r "
                    "(expected \"ci\" or \"none\")" % (knob.name, knob.ablation),
                )
            )
    for token in sorted(set(_KNOB_TOKEN.findall(ci_text))):
        if not is_registered(token):
            findings.append(
                Finding(
                    ci_path,
                    0,
                    0,
                    "KNB002",
                    "CI workflow references %s but no such knob is declared "
                    "in repro.foundations.knobs: register it or remove the "
                    "leg" % token,
                )
            )
    return findings


def _run_knb002(program, context):
    ci_path = context.ci_path
    if ci_path is None or not ci_path.exists():
        return []
    from repro.foundations import knobs

    return ablation_findings(
        knobs.all_knobs(),
        ci_path.read_text(),
        str(ci_path),
        knobs.is_registered,
    )


# ---------------------------------------------------------------------- #
# KNB003: generated-docs drift
# ---------------------------------------------------------------------- #


def _run_knb003(program, context):
    from repro.analysis.lint import docs

    return docs.drift_findings(context)


# ---------------------------------------------------------------------- #
# registrations
# ---------------------------------------------------------------------- #


def _run_knb001(module, program, context):
    return knob_access_findings(module)


register_rule(
    LintRule(
        "KNB001",
        "unregistered-knob-access",
        "module",
        "literal `REPRO_*` access through `os.environ`/`os.getenv` outside "
        "`repro.foundations.knobs`: declare the knob and read it via "
        "`knobs.value(...)`",
        _run_knb001,
    )
)

register_rule(
    LintRule(
        "KNB002",
        "knob-ablation-coverage",
        "artifact",
        "registry/CI drift: a registered knob without its promised CI "
        "ablation leg, an opt-out without a reason, or a workflow "
        "referencing an undeclared `REPRO_*` name",
        _run_knb002,
    )
)

register_rule(
    LintRule(
        "KNB003",
        "generated-docs-drift",
        "artifact",
        "the generated knob/rule tables in `docs/ROBUSTNESS.md` / "
        "`docs/ANALYSIS.md` differ from the registries: run `python -m "
        "repro.analysis.lint --emit-docs`",
        _run_knb003,
    )
)
