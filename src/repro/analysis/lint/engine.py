"""The lint engine: file walking, parse-once program build, rule driving.

The output contract is the pre-refactor ``tools/lint_repro.py``'s, byte
for byte for the legacy rules (pinned by
``tests/goldens/lint_legacy_fixture.json``):

* paths are walked in argument order; a missing path is an inline
  ``SYN002`` finding; directories yield ``sorted(rglob("*.py"))`` minus
  ``__pycache__``;
* a file that does not parse is a single ``SYN001`` finding;
* per file, findings are sorted (the :class:`Finding` tuple order);
* findings from artifact rules (CI workflow, generated docs) are
  appended after all file findings, sorted.

On top of that, every file is parsed exactly once into the
:class:`~repro.analysis.lint.program.Program` the cross-file rules
share, and rules come from the registry
(:mod:`repro.analysis.lint.registry`) -- importing this module imports
every rule module, so the registry is complete by the time
:func:`lint_paths` runs.
"""

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from repro.analysis.lint.findings import Finding
from repro.analysis.lint.program import ModuleInfo, Program
from repro.analysis.lint.registry import all_rules

# Importing the rule modules populates the registry (side-effectful by
# design, exactly like repro.analysis registering its passes).
from repro.analysis.lint import legacy as _legacy  # noqa: F401
from repro.analysis.lint import knob_rules as _knob_rules  # noqa: F401
from repro.analysis.lint import deadlines as _deadlines  # noqa: F401

__all__ = ["LintContext", "iter_findings", "lint_paths", "load_program"]


@dataclass
class LintContext:
    """Where the artifact rules find their artifacts.

    Defaults resolve against the current working directory (the repo
    root in CI); a missing artifact makes its rule skip, so linting a
    fixture tree or a sliced checkout never fabricates findings.  Tests
    inject a context pointing at fixture artifacts.
    """

    root: Path = field(default_factory=lambda: Path("."))
    ci_path: Optional[Path] = None
    analysis_doc: Optional[Path] = None
    robustness_doc: Optional[Path] = None

    def __post_init__(self):
        self.root = Path(self.root)
        if self.ci_path is None:
            self.ci_path = self.root / ".github" / "workflows" / "ci.yml"
        if self.analysis_doc is None:
            self.analysis_doc = self.root / "docs" / "ANALYSIS.md"
        if self.robustness_doc is None:
            self.robustness_doc = self.root / "docs" / "ROBUSTNESS.md"


def _parse(source: str, path: str):
    """``(module, finding)``: exactly one of the two is ``None``."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as failure:
        return None, Finding(
            path, failure.lineno or 0, failure.offset or 0, "SYN001",
            "file does not parse: %s" % failure.msg,
        )
    return ModuleInfo(path, source, tree), None


def load_program(sources: Sequence) -> "tuple":
    """Parse ``(path, source)`` pairs once into a program.

    Returns ``(program, failures)`` with *failures* mapping path ->
    ``SYN001`` finding for files that did not parse.
    """
    modules: Dict[str, ModuleInfo] = {}
    failures: Dict[str, Finding] = {}
    for path, source in sources:
        if path in modules or path in failures:
            continue
        module, failure = _parse(source, path)
        if module is not None:
            modules[path] = module
        else:
            failures[path] = failure
    return Program(list(modules.values())), failures


def _run_rules(program: Program, context: LintContext, include_artifacts: bool):
    """``(buckets, extra)``: per-file findings and out-of-tree findings."""
    buckets: Dict[str, List[Finding]] = {m.path: [] for m in program.modules}
    extra: List[Finding] = []
    for rule in all_rules():
        if rule.scope == "module":
            for module in program.modules:
                buckets[module.path].extend(rule.run(module, program, context))
        else:
            if rule.scope == "artifact" and not include_artifacts:
                continue
            for finding in rule.run(program, context):
                if finding.path in buckets:
                    buckets[finding.path].append(finding)
                else:
                    extra.append(finding)
    return buckets, extra


def iter_findings(source: str, path: str = "<string>") -> Iterator[Finding]:
    """Lint one source text; syntax errors surface as a ``SYN001`` finding.

    Single-module program: the module- and program-scoped rules run
    (cross-file resolution simply finds fewer targets), artifact rules
    do not -- one source string has no CI workflow or docs tree.
    """
    module, failure = _parse(source, path)
    if failure is not None:
        yield failure
        return
    program = Program([module])
    context = LintContext()
    buckets, _extra = _run_rules(program, context, include_artifacts=False)
    yield from sorted(buckets[path])


def _python_files(root: Path) -> Iterator[Path]:
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" not in path.parts:
            yield path


def lint_paths(
    paths: Sequence[str], context: Optional[LintContext] = None
) -> List[Finding]:
    """All findings over the given files/directories, in path order."""
    if context is None:
        context = LintContext()
    slots: List = []
    ordered: List[str] = []
    for entry in paths:
        root = Path(entry)
        if not root.exists():
            slots.append(Finding(str(root), 0, 0, "SYN002", "path does not exist"))
            continue
        files = [str(path) for path in _python_files(root)]
        slots.append(files)
        ordered.extend(files)
    program, failures = load_program(
        (path, Path(path).read_text()) for path in ordered
    )
    buckets, extra = _run_rules(program, context, include_artifacts=True)
    findings: List[Finding] = []
    for slot in slots:
        if isinstance(slot, Finding):
            findings.append(slot)
            continue
        for path in slot:
            if path in failures:
                findings.append(failures[path])
            else:
                findings.extend(sorted(buckets[path]))
    findings.extend(sorted(extra))
    return findings
