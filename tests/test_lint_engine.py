"""Tests for the whole-program lint engine (``repro.analysis.lint``).

Two golden files pin the engine's output over the fixture tree in
:mod:`tests.lint_fixture_data`:

* ``tests/goldens/lint_legacy_fixture.json`` was generated with the
  **pre-refactor** ``tools/lint_repro.py`` and is the migration
  acceptance anchor: the new engine, selected down to the eight legacy
  codes, must reproduce it byte for byte.  It was regenerated once, when
  the ENV001 and MC001 messages stopped naming retired knobs and the
  retired interning mode; any other change to it is a regression.
* ``tests/goldens/lint_full_fixture.json`` is the full new-engine
  output (all rules) and pins the JSON shape and the new families'
  findings going forward.  After a *deliberate* rule change, regenerate
  it from the repo root with::

      PYTHONPATH=src:. python tests/test_lint_engine.py --regen

The rest of the module unit-tests the layers the goldens cannot reach
individually: the program model's cross-module resolution, the pure
rule helpers driven with fixture registries and workflow texts, the
knob registry's parsers and call-time semantics, and the generated-docs
round-trip (``--emit-docs``).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.lint import (
    LintContext,
    all_rules,
    get_rule,
    iter_findings,
    lint_paths,
    load_program,
    main,
)
from repro.analysis.lint import deadlines, docs, knob_rules
from repro.analysis.lint.program import ModuleInfo, Program, module_name_for
from repro.foundations import knobs
from tests.lint_fixture_data import FIXTURES, LEGACY_CODES

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens"
LEGACY_GOLDEN = GOLDENS / "lint_legacy_fixture.json"
FULL_GOLDEN = GOLDENS / "lint_full_fixture.json"


def materialise(root: Path) -> Path:
    """Write the fixture tree under ``root / "fixtures"``."""
    base = root / "fixtures"
    for relative, source in FIXTURES.items():
        target = base / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return base


def run_cli(args, tmp_path, monkeypatch, capsys):
    """Run the CLI from *tmp_path*; ``(exit status, stdout)``."""
    materialise(tmp_path)
    monkeypatch.chdir(tmp_path)
    status = main(args)
    return status, capsys.readouterr().out


def _module(path: str, source: str) -> ModuleInfo:
    return ModuleInfo(path, source, ast.parse(source))


def _program(files: dict) -> Program:
    program, failures = load_program(sorted(files.items()))
    assert not failures
    return program


# --------------------------------------------------------------------- #
# the goldens
# --------------------------------------------------------------------- #


class TestGoldens:
    def test_legacy_rules_byte_identical_to_prerefactor(
        self, tmp_path, monkeypatch, capsys
    ):
        """The migration acceptance anchor.

        The golden was produced by the monolithic pre-refactor
        ``tools/lint_repro.py``; the new registry-driven engine selected
        down to the eight legacy codes must emit the identical bytes.
        """
        status, out = run_cli(
            ["fixtures", "--format", "json", "--select", ",".join(LEGACY_CODES)],
            tmp_path,
            monkeypatch,
            capsys,
        )
        assert status == 1
        assert out == LEGACY_GOLDEN.read_text()

    def test_full_output_matches_golden(self, tmp_path, monkeypatch, capsys):
        status, out = run_cli(
            ["fixtures", "--format", "json"], tmp_path, monkeypatch, capsys
        )
        assert status == 1
        assert out == FULL_GOLDEN.read_text()

    def test_every_rule_family_fires_on_the_fixture_tree(self):
        """Each seeded violation is caught -- no rule is vacuous."""
        codes = {f["code"] for f in json.loads(FULL_GOLDEN.read_text())["findings"]}
        assert set(LEGACY_CODES) <= codes
        assert {"KNB001", "RSL001", "RSL002"} <= codes
        # Artifact rules need a CI workflow / docs tree; the fixture
        # tree has neither, so they must stay silent rather than guess.
        assert "KNB002" not in codes and "KNB003" not in codes

    def test_text_format_and_exit_codes(self, tmp_path, monkeypatch, capsys):
        status, out = run_cli(
            ["fixtures/plain/bad_time.py"], tmp_path, monkeypatch, capsys
        )
        assert status == 1
        assert out.splitlines()[0].startswith(
            "fixtures/plain/bad_time.py:5:11: TIME001 "
        )
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert main(["clean.py"]) == 0

    def test_missing_path_is_inline_syn002(self, tmp_path, monkeypatch, capsys):
        status, out = run_cli(
            ["no/such/dir", "fixtures/plain/bad_time.py"],
            tmp_path,
            monkeypatch,
            capsys,
        )
        assert status == 1
        lines = out.splitlines()
        assert lines[0] == "no/such/dir:0:0: SYN002 path does not exist"
        assert "TIME001" in lines[1]

    def test_select_and_ignore_filters(self, tmp_path, monkeypatch, capsys):
        status, out = run_cli(
            ["fixtures", "--select", "RSL002"], tmp_path, monkeypatch, capsys
        )
        assert status == 1
        assert [line.split()[1] for line in out.splitlines()] == ["RSL002"]
        monkeypatch.chdir(tmp_path)
        status = main(["fixtures", "--ignore", ",".join(LEGACY_CODES)])
        out = capsys.readouterr().out
        reported = {line.split()[1] for line in out.splitlines()}
        assert reported and not (reported & set(LEGACY_CODES))


# --------------------------------------------------------------------- #
# the program model
# --------------------------------------------------------------------- #


class TestProgramModel:
    def test_module_names_anchor_at_the_innermost_repro_dir(self):
        assert module_name_for("src/repro/core/streaming.py") == (
            "repro.core.streaming"
        )
        assert module_name_for("fixtures/src/repro/core/streaming.py") == (
            "repro.core.streaming"
        )
        assert module_name_for("src/repro/logic/__init__.py") == "repro.logic"
        assert module_name_for("tools/lint_repro.py") == "lint_repro"

    def test_callee_resolved_across_modules(self):
        """A call through a ``from x import f`` alias enters ``f``'s body."""
        program = _program(
            {
                "src/repro/core/caller.py": (
                    "from repro.core.callee import work\n"
                    "\n"
                    "def go(items):\n"
                    "    return [work(item) for item in items]\n"
                ),
                "src/repro/core/callee.py": "def work(item):\n    return item\n",
            }
        )
        caller = program.by_name["repro.core.caller"]
        call = next(
            node for node in ast.walk(caller.tree) if isinstance(node, ast.Call)
        )
        (callee,) = program.resolve_callee(caller, call.func)
        assert (callee.module.name, callee.qualname) == ("repro.core.callee", "work")

    def test_unparseable_file_is_a_syn001_failure(self):
        program, failures = load_program([("x.py", "def broken(:\n")])
        assert not program.modules
        assert failures["x.py"].code == "SYN001"

    def test_registry_is_complete_and_deterministic(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == sorted(codes)
        assert set(LEGACY_CODES) <= set(codes)
        assert get_rule("RSL001").scope == "program"
        assert get_rule("KNB002").scope == "artifact"
        assert get_rule("ID001").scope == "module"


# --------------------------------------------------------------------- #
# KNB00x: knob discipline
# --------------------------------------------------------------------- #


class TestKnobAccessRule:
    def _codes(self, source, path="src/repro/core/x.py"):
        return [
            f.code
            for f in knob_rules.knob_access_findings(_module(path, source))
        ]

    def test_environ_subscript_read_and_write(self):
        source = (
            "import os\n"
            "def f():\n"
            "    os.environ['REPRO_FANCY'] = '1'\n"
            "    return os.environ['REPRO_FANCY']\n"
        )
        assert self._codes(source) == ["KNB001", "KNB001"]

    def test_environ_get_and_os_getenv(self):
        source = (
            "import os\n"
            "from os import getenv\n"
            "def f():\n"
            "    a = os.environ.get('REPRO_FANCY', '')\n"
            "    b = os.getenv('REPRO_FANCY')\n"
            "    c = getenv('REPRO_FANCY')\n"
            "    return a, b, c\n"
        )
        assert self._codes(source) == ["KNB001", "KNB001", "KNB001"]

    def test_non_repro_names_are_fine(self):
        source = (
            "import os\n"
            "def f():\n"
            "    return os.environ.get('HOME', ''), os.environ['PATH']\n"
        )
        assert self._codes(source) == []

    def test_registry_module_itself_is_exempt(self):
        source = (
            "import os\n"
            "def f():\n"
            "    return os.environ.get('REPRO_FANCY')\n"
        )
        assert self._codes(source, "src/repro/foundations/knobs.py") == []

    def test_outside_the_repro_tree_is_out_of_scope(self):
        source = (
            "import os\n"
            "QUICK = os.environ.get('REPRO_BENCH_QUICK', '')\n"
        )
        assert self._codes(source, "benchmarks/_tables.py") == []


class TestAblationCoverage:
    @staticmethod
    def _knob(name, ablation="ci", reason=""):
        return SimpleNamespace(
            name=name, ablation=ablation, ablation_reason=reason
        )

    def _codes(self, knob_list, ci_text, registered=()):
        names = {k.name for k in knob_list} | set(registered)
        return [
            f.message
            for f in knob_rules.ablation_findings(
                knob_list, ci_text, "ci.yml", names.__contains__
            )
        ]

    def test_covered_ci_knob_is_clean(self):
        knob = self._knob("REPRO_DEADLINE_MS")
        assert self._codes([knob], "REPRO_DEADLINE_MS: 2") == []

    def test_uncovered_ci_knob_is_flagged(self):
        (message,) = self._codes([self._knob("REPRO_DEADLINE_MS")], "jobs: {}")
        assert "REPRO_DEADLINE_MS" in message and "no leg" in message

    def test_opt_out_requires_a_reason(self):
        knob = self._knob("REPRO_X", ablation="none")
        (message,) = self._codes([knob], "")
        assert "without an ablation_reason" in message
        knob = self._knob("REPRO_X", ablation="none", reason="harness only")
        assert self._codes([knob], "") == []

    def test_unknown_ablation_kind_is_flagged(self):
        (message,) = self._codes([self._knob("REPRO_X", ablation="maybe")], "")
        assert "unknown ablation kind" in message

    def test_ghost_leg_is_flagged(self):
        (message,) = self._codes([], "env:\n  REPRO_GHOST: 1\n")
        assert "REPRO_GHOST" in message and "no such knob" in message

    def test_real_registry_matches_real_workflow(self):
        """The live KNB002 contract: registry and ci.yml are in lockstep."""
        ci_path = REPO_ROOT / ".github" / "workflows" / "ci.yml"
        findings = knob_rules.ablation_findings(
            knobs.all_knobs(),
            ci_path.read_text(),
            str(ci_path),
            knobs.is_registered,
        )
        assert findings == []


class TestKnobRegistry:
    def test_values_are_read_at_call_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE_MS", "3")
        assert knobs.value("REPRO_DEADLINE_MS") == 3.0
        monkeypatch.setenv("REPRO_DEADLINE_MS", "250")
        assert knobs.value("REPRO_DEADLINE_MS") == 250.0
        monkeypatch.delenv("REPRO_DEADLINE_MS")
        assert knobs.value("REPRO_DEADLINE_MS") is None

    def test_parsers_absorb_junk(self, monkeypatch):
        for junk in ("nope", "-5", ""):
            monkeypatch.setenv("REPRO_DEADLINE_MS", junk)
            assert knobs.value("REPRO_DEADLINE_MS") is None

    def test_bench_quick_is_off_unless_set(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_QUICK", raising=False)
        assert knobs.value("REPRO_BENCH_QUICK") is False
        for spelling in ("", "0", "off"):
            monkeypatch.setenv("REPRO_BENCH_QUICK", spelling)
            assert knobs.value("REPRO_BENCH_QUICK") is False
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        assert knobs.value("REPRO_BENCH_QUICK") is True

    def test_redeclaring_identically_returns_the_original(self):
        existing = knobs.get_knob("REPRO_DEADLINE_MS")
        again = knobs.register_knob(
            knobs.Knob(
                name="REPRO_DEADLINE_MS",
                default=existing.default,
                parse=existing.parse,
                doc=existing.doc,
            )
        )
        assert again is existing

    def test_conflicting_redeclaration_raises(self):
        with pytest.raises(ValueError):
            knobs.register_knob(
                knobs.Knob(
                    name="REPRO_DEADLINE_MS",
                    default="something else",
                    parse=knobs.parse_optional_ms,
                    doc="a conflicting meaning",
                )
            )

    def test_every_declaration_is_documented_and_certifiable(self):
        declared = knobs.all_knobs()
        assert [k.name for k in declared] == sorted(k.name for k in declared)
        for knob in declared:
            assert knob.name.startswith("REPRO_")
            assert knob.default and knob.doc
            assert knob.ablation in ("ci", "none")
            if knob.ablation == "none":
                assert knob.ablation_reason


# --------------------------------------------------------------------- #
# RSL00x: deadline polling
# --------------------------------------------------------------------- #


class TestDeadlineRules:
    def _findings(self, files):
        return deadlines.deadline_findings(_program(files))

    def test_fixture_loops_are_flagged(self):
        findings = self._findings(
            {
                "src/repro/core/streaming.py": FIXTURES[
                    "src/repro/core/streaming.py"
                ],
                "src/repro/core/emptiness.py": FIXTURES[
                    "src/repro/core/emptiness.py"
                ],
            }
        )
        codes = {(f.path, f.code) for f in findings}
        assert codes == {
            ("src/repro/core/streaming.py", "RSL001"),
            ("src/repro/core/emptiness.py", "RSL002"),
        }

    def test_direct_poll_silences_the_loop(self):
        source = (
            "from repro.foundations.resilience import current_deadline\n"
            "\n"
            "def feed_run(batch):\n"
            "    return len(batch)\n"
            "\n"
            "def drain(batches):\n"
            "    total = 0\n"
            "    for batch in batches:\n"
            "        current_deadline().check('streaming.feed_run')\n"
            "        total += feed_run(batch)\n"
            "    return total\n"
        )
        assert self._findings({"src/repro/core/streaming.py": source}) == []

    def test_poll_through_a_resolved_callee_counts(self):
        """The poll may live inside the expensive function itself."""
        source = (
            "from repro.foundations.resilience import current_deadline\n"
            "\n"
            "def feed_run(batch):\n"
            "    current_deadline().check('streaming.feed_run')\n"
            "    return len(batch)\n"
            "\n"
            "def drain(batches):\n"
            "    total = 0\n"
            "    for batch in batches:\n"
            "        total += feed_run(batch)\n"
            "    return total\n"
        )
        assert self._findings({"src/repro/core/streaming.py": source}) == []

    def test_deadline_ok_annotation_is_honoured(self):
        source = (
            "def feed_run(batch):\n"
            "    return len(batch)\n"
            "\n"
            "def drain(batches):\n"
            "    total = 0\n"
            "    for batch in batches:  # deadline-ok: fixture, bounded by construction\n"
            "        total += feed_run(batch)\n"
            "    return total\n"
        )
        assert self._findings({"src/repro/core/streaming.py": source}) == []

    def test_only_long_running_modules_are_in_scope(self):
        source = FIXTURES["src/repro/core/streaming.py"]
        assert self._findings({"src/repro/core/quiet.py": source}) == []
        assert "repro.core.quiet" not in deadlines.LONG_RUNNING_MODULES

    def test_cheap_loops_stay_quiet_even_in_scope(self):
        source = (
            "def drain(batches):\n"
            "    total = 0\n"
            "    for batch in batches:\n"
            "        total += len(batch)\n"
            "    return total\n"
        )
        assert self._findings({"src/repro/core/streaming.py": source}) == []


# --------------------------------------------------------------------- #
# generated docs
# --------------------------------------------------------------------- #


class TestGeneratedDocs:
    def _context(self, tmp_path, analysis_text, robustness_text):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "ANALYSIS.md").write_text(analysis_text)
        (tmp_path / "docs" / "ROBUSTNESS.md").write_text(robustness_text)
        return LintContext(root=tmp_path)

    @staticmethod
    def _marked(begin, end, block=""):
        return "# Doc\n\n%s\n%s%s\n\ntail\n" % (begin, block, end)

    def test_stale_update_ok_round_trip(self, tmp_path):
        context = self._context(
            tmp_path,
            self._marked(docs.RULE_TABLE_BEGIN, docs.RULE_TABLE_END, "old\n"),
            self._marked(docs.KNOB_TABLE_BEGIN, docs.KNOB_TABLE_END, "old\n"),
        )
        statuses = [status for _path, status in docs.sync_docs(context, check=True)]
        assert statuses == ["stale", "stale"]
        statuses = [status for _path, status in docs.sync_docs(context)]
        assert statuses == ["updated", "updated"]
        statuses = [status for _path, status in docs.sync_docs(context, check=True)]
        assert statuses == ["ok", "ok"]
        text = (tmp_path / "docs" / "ANALYSIS.md").read_text()
        assert text.startswith("# Doc\n") and text.endswith("tail\n")
        assert "| `ID001` | module |" in text
        knob_text = (tmp_path / "docs" / "ROBUSTNESS.md").read_text()
        assert "| `REPRO_DEADLINE_MS` |" in knob_text

    def test_drift_findings_report_stale_and_missing_markers(self, tmp_path):
        context = self._context(
            tmp_path,
            "# Doc without markers\n",
            self._marked(docs.KNOB_TABLE_BEGIN, docs.KNOB_TABLE_END, "old\n"),
        )
        findings = docs.drift_findings(context)
        assert [f.code for f in findings] == ["KNB003", "KNB003"]
        assert "markers" in findings[0].message
        assert "stale" in findings[1].message

    def test_missing_files_are_skipped_not_fabricated(self, tmp_path):
        context = LintContext(root=tmp_path)
        assert docs.drift_findings(context) == []
        statuses = [status for _path, status in docs.sync_docs(context)]
        assert statuses == ["missing", "missing"]

    def test_checked_in_docs_are_current(self):
        """The live KNB003 contract: the repo's tables match the registries."""
        context = LintContext(root=REPO_ROOT)
        statuses = dict(docs.sync_docs(context, check=True))
        assert set(statuses.values()) == {"ok"}


# --------------------------------------------------------------------- #
# the real tree
# --------------------------------------------------------------------- #


class TestSelfClean:
    def test_whole_repository_lints_clean(self, monkeypatch):
        """The engine runs self-clean over everything CI lints."""
        monkeypatch.chdir(REPO_ROOT)
        findings = lint_paths(
            ["src", "benchmarks", "examples", "tests"],
            LintContext(root=REPO_ROOT),
        )
        assert findings == []


# --------------------------------------------------------------------- #
# golden regeneration (manual, deliberate)
# --------------------------------------------------------------------- #


def _regenerate_full_golden() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        materialise(Path(tmp))
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.analysis.lint",
                "fixtures",
                "--format",
                "json",
            ],
            cwd=tmp,
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
    FULL_GOLDEN.write_text(result.stdout)
    print("wrote %s (%d findings)" % (
        FULL_GOLDEN, json.loads(result.stdout)["count"]
    ))


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regenerate_full_golden()
    else:
        print(__doc__)
