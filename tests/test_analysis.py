"""Tests for the static-analysis layer (repro.analysis + repro.analysis.lint)."""

import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Dfa, Nfa, RegisterAutomaton, SigmaType, Signature, X, Y, eq, neq, rel
from repro.analysis import (
    Severity,
    analyze,
    is_clean,
    lint,
    passes_for,
    registered_passes,
)
from repro.analysis.cli import analyze_target, capture_instances, main as cli_main
from repro.analysis.dataflow import MAX_REGISTERS
from repro.foundations.diagnostics import Diagnostic, Report, error, info, warning
from repro.foundations.errors import SpecificationError
from repro.generators import random_register_automaton
from repro.workflows import Stage, WorkflowSpec

REPO_ROOT = Path(__file__).resolve().parent.parent


EMPTY = Signature.empty()


def ra(k, states, initial, accepting, transitions, signature=EMPTY):
    return RegisterAutomaton(k, signature, states, initial, accepting, transitions)


def example1():
    d1 = SigmaType([eq(X(1), X(2)), eq(X(2), Y(2))])
    d2 = SigmaType([eq(X(2), Y(2))])
    d3 = SigmaType([eq(X(2), Y(2)), eq(Y(1), Y(2))])
    return ra(
        2,
        {"q1", "q2"},
        {"q1"},
        {"q1"},
        [("q1", d1, "q2"), ("q2", d2, "q2"), ("q2", d3, "q1")],
    )


# --------------------------------------------------------------------- #
# diagnostics / report plumbing
# --------------------------------------------------------------------- #


class TestReport:
    def test_severity_rollups(self):
        report = Report("subject")
        report.extend([info("A1", "i"), warning("B1", "w"), error("C1", "e")])
        assert len(report.errors) == 1
        assert len(report.warnings) == 1
        assert len(report.infos) == 1
        assert not report.ok
        assert report.codes() == ("A1", "B1", "C1")

    def test_ok_means_no_errors(self):
        report = Report("s")
        report.add(warning("W1", "just a warning"))
        assert report.ok

    def test_render_mentions_code_and_summary(self):
        report = Report("thing")
        report.add(error("RA101", "boom", "somewhere"))
        rendered = report.render()
        assert "RA101" in rendered
        assert "1 error(s)" in rendered

    def test_render_clean(self):
        assert "clean" in Report("thing").render(min_severity=Severity.WARNING)

    def test_merge_prefixes_subject(self):
        inner = Report("obj#1")
        inner.add(error("E1", "bad", "state 'q'"))
        outer = Report("script")
        outer.merge(inner)
        assert outer.diagnostics[0].location == "obj#1: state 'q'"


class TestSpecificationErrorDiagnostics:
    """Construction-time validation and analysis share one codepath."""

    def test_unknown_initial_state_carries_diagnostic(self):
        with pytest.raises(SpecificationError) as caught:
            ra(1, {"a"}, {"zz"}, {"a"}, [])
        assert [d.code for d in caught.value.diagnostics] == ["RA001"]

    def test_unknown_accepting_state(self):
        with pytest.raises(SpecificationError) as caught:
            ra(1, {"a"}, {"a"}, {"zz"}, [])
        assert [d.code for d in caught.value.diagnostics] == ["RA002"]

    def test_unknown_transition_state(self):
        with pytest.raises(SpecificationError) as caught:
            ra(1, {"a"}, {"a"}, {"a"}, [("a", SigmaType(), "ghost")])
        assert "RA003" in [d.code for d in caught.value.diagnostics]

    def test_non_register_guard_variable(self):
        from repro.logic.terms import Var

        with pytest.raises(SpecificationError) as caught:
            ra(1, {"a"}, {"a"}, {"a"}, [("a", SigmaType([eq(Var("z1"), X(1))]), "a")])
        assert "RA004" in [d.code for d in caught.value.diagnostics]

    def test_register_index_beyond_k(self):
        with pytest.raises(SpecificationError) as caught:
            ra(1, {"a"}, {"a"}, {"a"}, [("a", SigmaType([eq(X(1), X(2))]), "a")])
        assert "RA004" in [d.code for d in caught.value.diagnostics]

    def test_undeclared_constant(self):
        from repro.logic.terms import Const

        with pytest.raises(SpecificationError) as caught:
            ra(1, {"a"}, {"a"}, {"a"}, [("a", SigmaType([eq(X(1), Const("c"))]), "a")])
        assert "RA005" in [d.code for d in caught.value.diagnostics]

    def test_unknown_relation(self):
        with pytest.raises(SpecificationError) as caught:
            ra(1, {"a"}, {"a"}, {"a"}, [("a", SigmaType([rel("P", X(1))]), "a")])
        assert "RA006" in [d.code for d in caught.value.diagnostics]

    def test_multiple_findings_all_reported(self):
        with pytest.raises(SpecificationError) as caught:
            ra(1, {"a"}, {"p"}, {"q"}, [])
        assert {d.code for d in caught.value.diagnostics} == {"RA001", "RA002"}

    def test_plain_message_error_still_works(self):
        failure = SpecificationError("just a message")
        assert failure.diagnostics == ()
        assert "just a message" in str(failure)


# --------------------------------------------------------------------- #
# register-automaton passes
# --------------------------------------------------------------------- #


class TestAutomatonPasses:
    def test_example1_is_error_free(self):
        report = analyze(example1())
        assert report.ok
        # ... but informatively not complete and not state-driven:
        assert "RA130" in report.codes()
        assert "RA140" in report.codes()

    def test_unsatisfiable_guard_detected(self):
        bad = SigmaType([eq(X(1), Y(1)), neq(X(1), Y(1))], check=False)
        automaton = ra(1, {"a"}, {"a"}, {"a"}, [("a", bad, "a")])
        report = analyze(automaton)
        assert not report.ok
        assert "RA101" in [d.code for d in report.errors]

    def test_unreachable_state(self):
        keep = SigmaType([eq(X(1), Y(1))])
        automaton = ra(
            1, {"a", "b"}, {"a"}, {"a"}, [("a", keep, "a"), ("b", keep, "a")]
        )
        report = analyze(automaton)
        codes = [d.code for d in report.warnings]
        assert "RA110" in codes

    def test_dead_state(self):
        keep = SigmaType([eq(X(1), Y(1))])
        # "b" is reachable but cannot reach the accepting state "a".
        automaton = ra(
            1, {"a", "b"}, {"a"}, {"a"}, [("a", keep, "a"), ("a", keep, "b")]
        )
        report = analyze(automaton)
        assert any(
            d.code == "RA111" and "'b'" in d.location for d in report.warnings
        )

    def test_empty_acceptance_set(self):
        keep = SigmaType([eq(X(1), Y(1))])
        automaton = ra(1, {"a"}, {"a"}, set(), [("a", keep, "a")])
        report = analyze(automaton)
        assert "RA112" in [d.code for d in report.warnings]

    def test_unreachable_acceptance(self):
        keep = SigmaType([eq(X(1), Y(1))])
        automaton = ra(
            1, {"a", "b"}, {"a"}, {"b"}, [("a", keep, "a"), ("b", keep, "b")]
        )
        report = analyze(automaton)
        assert "RA112" in [d.code for d in report.warnings]

    def test_dead_register(self):
        keep1 = SigmaType([eq(X(1), Y(1))])
        automaton = ra(3, {"a"}, {"a"}, {"a"}, [("a", keep1, "a")])
        report = analyze(automaton)
        dead = [d for d in report.warnings if d.code == "RA120"]
        assert len(dead) == 2  # registers 2 and 3
        assert "register 2" in dead[0].message

    def test_nondeterministic_targets(self):
        keep = SigmaType([eq(X(1), Y(1))])
        automaton = ra(
            1, {"a", "b"}, {"a"}, {"a"},
            [("a", keep, "a"), ("a", keep, "b"), ("b", keep, "a")],
        )
        report = analyze(automaton)
        assert "RA141" in report.codes()

    def test_completed_is_certified_complete(self):
        completed = example1().completed()
        report = analyze(completed)
        assert "RA130" not in report.codes()
        assert "RA131" not in report.codes()

    def test_state_driven_is_certified_deterministic(self):
        converted = example1().state_driven()
        report = analyze(converted)
        assert "RA140" not in report.codes()

    def test_completeness_cap_bails_out(self):
        signature = Signature(relations={"R": 8})  # 4 terms^8 >> the cap
        guard = SigmaType([rel("R", *[X(1)] * 8)])
        automaton = ra(2, {"a"}, {"a"}, {"a"}, [("a", guard, "a")], signature)
        report = analyze(automaton)
        assert "RA139" in report.codes()
        assert "RA130" not in report.codes()


# --------------------------------------------------------------------- #
# guard passes
# --------------------------------------------------------------------- #


class TestGuardPasses:
    def test_satisfiable_guard_clean(self):
        guard = SigmaType([eq(X(1), Y(1)), neq(X(1), X(2))])
        assert analyze(guard).ok

    def test_unsatisfiable_guard(self):
        guard = SigmaType([eq(X(1), Y(1)), neq(X(1), Y(1))], check=False)
        report = analyze(guard)
        assert [d.code for d in report.errors] == ["GT001"]

    def test_redundant_literal(self):
        guard = SigmaType([eq(X(1), X(2)), eq(X(2), Y(1)), eq(X(1), Y(1))])
        report = analyze(guard)
        assert "GT002" in report.codes()

    def test_non_register_variable(self):
        from repro.logic.terms import Var

        guard = SigmaType([eq(Var("z9"), Var("z8"))])
        report = analyze(guard)
        assert "GT003" in report.codes()


# --------------------------------------------------------------------- #
# workflow passes
# --------------------------------------------------------------------- #


def _spec(rules=(), attributes=("a", "b"), distinct=False, extra_stages=()):
    stages = [Stage("start"), Stage("loop", recurring=True)] + list(extra_stages)
    spec = WorkflowSpec(
        attributes=list(attributes), stages=stages, distinct_attributes=distinct
    )
    spec.rule("start", "loop").keep("a")
    spec.rule("loop", "loop").keep("a")
    for build in rules:
        build(spec)
    return spec


class TestWorkflowPasses:
    def test_clean_spec(self):
        report = analyze(_spec())
        assert report.ok
        assert not report.warnings

    def test_unknown_attribute(self):
        spec = _spec(rules=[lambda s: s.rule("loop", "loop").keep("ghost")])
        report = analyze(spec)
        assert "WF001" in [d.code for d in report.errors]

    def test_unknown_relation(self):
        spec = _spec(rules=[lambda s: s.rule("loop", "loop").lookup("Nope", "a", "b")])
        report = analyze(spec)
        assert "WF002" in [d.code for d in report.errors]

    def test_contradictory_rule(self):
        def build(s):
            s.rule("loop", "loop").equal("a", "b").distinct("a", "b")

        report = analyze(_spec(rules=[build]))
        assert "WF003" in [d.code for d in report.errors]

    def test_rule_contradicts_distinct_attributes(self):
        def build(s):
            s.rule("loop", "loop").equal("a", "b")

        report = analyze(_spec(rules=[build], distinct=True))
        assert "WF003" in [d.code for d in report.errors]

    def test_unreachable_stage(self):
        report = analyze(_spec(extra_stages=[Stage("island")]))
        assert any(
            d.code == "WF010" and "island" in d.location for d in report.warnings
        )

    def test_dead_end_stage(self):
        def build(s):
            s.rule("start", "cul-de-sac")

        report = analyze(_spec(rules=[build], extra_stages=[Stage("cul-de-sac")]))
        assert "WF012" in [d.code for d in report.warnings]

    def test_unreachable_recurring_stage_is_vacuous(self):
        stages = [Stage("start"), Stage("loop", recurring=True)]
        spec = WorkflowSpec(attributes=["a"], stages=stages)
        spec.rule("start", "start").keep("a")  # never reaches "loop"
        report = analyze(spec)
        assert "WF011" in [d.code for d in report.warnings]

    def test_manuscript_review_workflow_is_error_free(self):
        from repro.workflows import manuscript_review_workflow

        report = analyze(manuscript_review_workflow())
        assert report.ok, report.render()
        assert not report.warnings


# --------------------------------------------------------------------- #
# finite-automaton passes
# --------------------------------------------------------------------- #


def _dfa(accepting):
    return Dfa(
        states={0, 1},
        alphabet={"a"},
        transitions={(0, "a"): 1, (1, "a"): 1},
        initial=0,
        accepting=accepting,
    )


class TestFinitePasses:
    def test_live_dfa_clean(self):
        assert not analyze(_dfa({1})).codes()

    def test_dead_state_and_empty_language(self):
        report = analyze(_dfa(set()))
        assert "FA002" in report.codes()
        assert "FA003" in report.codes()

    def test_unreachable_dfa_state(self):
        dfa = Dfa(
            states={0, 1, 2},
            alphabet={"a"},
            transitions={(0, "a"): 1, (1, "a"): 1, (2, "a"): 1},
            initial=0,
            accepting={1},
        )
        report = analyze(dfa)
        assert "FA001" in report.codes()

    def test_nfa_unreachable_and_empty(self):
        nfa = Nfa({0: {"a": {0}}, 5: {"a": {6}}}, initial={0}, accepting={6})
        report = analyze(nfa)
        assert "NF001" in report.codes()
        assert "NF002" in report.codes()

    def test_nfa_live_clean(self):
        nfa = Nfa({0: {"a": {1}}}, initial={0}, accepting={1})
        assert not analyze(nfa).codes()


# --------------------------------------------------------------------- #
# the engine itself
# --------------------------------------------------------------------- #


class TestEngine:
    def test_passes_selected_by_type(self):
        names = {p.name for p in passes_for(example1())}
        assert "structure" in names
        assert "dfa-liveness" not in names

    def test_only_filter(self):
        report = analyze(example1(), only=["completeness"])
        assert set(report.codes()) <= {"RA130", "RA131", "RA139"}

    def test_crashing_pass_becomes_finding(self):
        from repro.analysis.engine import _FunctionPass

        def explode(obj):
            raise RuntimeError("kaboom")

        bad_pass = _FunctionPass(explode, "explode", object, ())
        report = analyze(example1(), passes=[bad_pass])
        assert [d.code for d in report.errors] == ["XX000"]
        assert "kaboom" in report.errors[0].message

    def test_is_clean(self):
        assert is_clean(example1())
        bad = SigmaType([eq(X(1), Y(1)), neq(X(1), Y(1))], check=False)
        assert not is_clean(ra(1, {"a"}, {"a"}, {"a"}, [("a", bad, "a")]))

    def test_registry_covers_documented_targets(self):
        targets = {p.target for p in registered_passes()}
        assert {RegisterAutomaton, SigmaType, WorkflowSpec, Dfa, Nfa} <= targets


# --------------------------------------------------------------------- #
# property tests: normal forms are certified by the passes
# --------------------------------------------------------------------- #


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=2))
def test_completed_automata_pass_completeness(seed, k):
    rng = random.Random(seed)
    automaton = random_register_automaton(rng, k=k, n_states=3, n_transitions=4)
    report = analyze(automaton.equality_completed(), only=["completeness", "guard-sat"])
    assert report.ok, report.render()
    assert "RA130" not in report.codes()


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=2))
def test_fully_completed_automata_pass_completeness(seed, k):
    """``completed()`` parity with the ``equality_completed()`` test above.

    On a relation-free signature the two coincide semantically, but they
    run different code paths (``completions`` with the full relation map
    vs the empty one); both must be certified RA130-clean.
    """
    rng = random.Random(seed)
    automaton = random_register_automaton(rng, k=k, n_states=3, n_transitions=4)
    report = analyze(automaton.completed(), only=["completeness", "guard-sat"])
    assert report.ok, report.render()
    assert "RA130" not in report.codes()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
def test_state_driven_automata_pass_determinism(seed, k):
    rng = random.Random(seed)
    automaton = random_register_automaton(rng, k=k, n_states=3, n_transitions=5)
    report = analyze(automaton.state_driven(), only=["determinism", "guard-sat"])
    assert report.ok, report.render()
    assert "RA140" not in report.codes()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_automata_never_error(seed):
    """Generator outputs are valid by construction: no ERROR diagnostics."""
    rng = random.Random(seed)
    automaton = random_register_automaton(rng, k=2, n_states=4, n_transitions=6)
    report = analyze(automaton)
    assert report.ok, report.render()


# --------------------------------------------------------------------- #
# the CLI
# --------------------------------------------------------------------- #

CLEAN_SCRIPT = textwrap.dedent(
    """
    from repro import RegisterAutomaton, SigmaType, Signature, X, Y, eq

    keep = SigmaType([eq(X(1), Y(1))])
    RegisterAutomaton(1, Signature.empty(), {"a"}, {"a"}, {"a"}, [("a", keep, "a")])
    """
)

BROKEN_SCRIPT = textwrap.dedent(
    """
    from repro import RegisterAutomaton, SigmaType, Signature, X, Y, eq, neq

    bad = SigmaType([eq(X(1), Y(1)), neq(X(1), Y(1))], check=False)
    RegisterAutomaton(1, Signature.empty(), {"a"}, {"a"}, {"a"}, [("a", bad, "a")])
    """
)

CRASHING_SCRIPT = "raise ValueError('no automata today')\n"


class TestCli:
    def test_clean_script_exits_zero(self, tmp_path, capsys):
        script = tmp_path / "clean.py"
        script.write_text(CLEAN_SCRIPT)
        assert cli_main([str(script)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_broken_corpus_exits_nonzero_and_names_the_code(self, tmp_path, capsys):
        script = tmp_path / "broken.py"
        script.write_text(BROKEN_SCRIPT)
        assert cli_main([str(script)]) == 1
        out = capsys.readouterr().out
        assert "RA101" in out
        assert "unsatisfiable" in out

    def test_crashing_script_is_reported(self, tmp_path, capsys):
        script = tmp_path / "crash.py"
        script.write_text(CRASHING_SCRIPT)
        assert cli_main([str(script)]) == 1
        assert "XX001" in capsys.readouterr().out

    def test_strict_turns_warnings_into_failures(self, tmp_path):
        script = tmp_path / "warned.py"
        script.write_text(
            textwrap.dedent(
                """
                from repro import RegisterAutomaton, SigmaType, Signature, X, Y, eq

                keep = SigmaType([eq(X(1), Y(1))])
                RegisterAutomaton(
                    2, Signature.empty(), {"a"}, {"a"}, {"a"}, [("a", keep, "a")]
                )  # register 2 dead -> RA120 warning
                """
            )
        )
        assert cli_main([str(script)]) == 0
        assert cli_main(["--strict", str(script)]) == 1

    def test_capture_restores_init(self, tmp_path):
        original = RegisterAutomaton.__init__
        with capture_instances() as captured:
            example1()
        assert RegisterAutomaton.__init__ is original
        assert len(captured) == 1
        # constructing after the context does not append
        example1()
        assert len(captured) == 1

    def test_analyze_target_counts_subjects(self, tmp_path):
        script = tmp_path / "two.py"
        script.write_text(CLEAN_SCRIPT + CLEAN_SCRIPT.replace("import", "import  "))
        report = analyze_target(str(script))
        assert report.subject == str(script)

    def test_examples_analyze_clean_in_subprocess(self):
        """The acceptance gate: the CLI exits 0 on a real example script."""
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(REPO_ROOT / "examples" / "quickstart.py")],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        import json

        script = tmp_path / "broken.py"
        script.write_text(BROKEN_SCRIPT)
        assert cli_main(["--format", "json", str(script)]) == 1
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["reports"]
        assert entry["target"] == str(script)
        assert not entry["ok"]
        assert entry["counts"]["error"] >= 1
        codes = {d["code"] for d in entry["diagnostics"]}
        assert "RA101" in codes
        by_code = {d["code"]: d for d in entry["diagnostics"]}
        assert by_code["RA101"]["severity"] == "error"
        assert by_code["RA101"]["source"]  # the pass that produced it

    def test_json_format_clean_script(self, tmp_path, capsys):
        import json

        script = tmp_path / "clean.py"
        script.write_text(CLEAN_SCRIPT)
        assert cli_main(["--format", "json", str(script)]) == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["reports"]
        assert entry["ok"]


# --------------------------------------------------------------------- #
# the AST repo linter
# --------------------------------------------------------------------- #

ID_CACHE_FIXTURE = textwrap.dedent(
    """
    _DEAD_CACHE = {}

    def dead_states(dfa):
        key = id(dfa)  # the historical bug: ids are recycled
        if key not in _DEAD_CACHE:
            _DEAD_CACHE[key] = compute(dfa)
        return _DEAD_CACHE[key]
    """
)


class TestLintRepro:
    def test_reproduces_the_id_cache_finding(self):
        findings = list(lint.iter_findings(ID_CACHE_FIXTURE, "fixture.py"))
        assert [f.code for f in findings] == ["ID001"]
        assert findings[0].line == 5

    def test_grep_false_positives_are_not_flagged(self):
        source = textwrap.dedent(
            """
            # id( in a comment is fine
            text = "id(obj) in a string is fine"
            def guard_id(x):  # a function merely *named* ...id is fine
                return x
            def shadowing(id):
                return id(3)  # calls the parameter, not the builtin
            """
        )
        assert list(lint.iter_findings(source, "ok.py")) == []

    def test_mutable_default_argument(self):
        source = "def f(pool=[], table={}, items=set(), ok=None):\n    pass\n"
        codes = [f.code for f in lint.iter_findings(source, "x.py")]
        assert codes == ["DEF001", "DEF001", "DEF001"]

    def test_keyword_only_mutable_default(self):
        source = "def f(*, pool=[]):\n    pass\n"
        codes = [f.code for f in lint.iter_findings(source, "x.py")]
        assert codes == ["DEF001"]

    def test_naked_except(self):
        source = "try:\n    pass\nexcept:\n    pass\n"
        codes = [f.code for f in lint.iter_findings(source, "x.py")]
        assert codes == ["EXC001"]

    def test_typed_except_ok(self):
        source = "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert list(lint.iter_findings(source, "x.py")) == []

    def test_syntax_error_is_a_finding(self):
        codes = [f.code for f in lint.iter_findings("def broken(:\n", "x.py")]
        assert codes == ["SYN001"]

    def test_hot_construction_flagged_in_core(self):
        source = "def f(x):\n    return SigmaType([Literal(x)])\n"
        codes = [
            f.code
            for f in lint.iter_findings(source, "src/repro/core/hot.py")
        ]
        assert codes == ["HC001", "HC001"]

    def test_hot_construction_ignored_outside_core(self):
        source = "def f(x):\n    return SigmaType([Literal(x)])\n"
        for path in ("src/repro/logic/types.py", "tests/test_logic.py"):
            assert list(lint.iter_findings(source, path)) == []

    def test_src_tree_is_clean(self):
        findings = lint.lint_paths([str(REPO_ROOT / "src")])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_tools_examples_benchmarks_clean(self):
        findings = lint.lint_paths(
            [str(REPO_ROOT / d) for d in ("examples", "benchmarks")]
        )
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_cli_exit_codes(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(ID_CACHE_FIXTURE)
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint.main([str(clean)]) == 0
        assert lint.main([str(dirty)]) == 1


class TestEnv001:
    """ENV001: environment reads at import time."""

    def _codes(self, source):
        return [f.code for f in lint.iter_findings(source, "x.py")]

    def test_module_level_environ_get(self):
        source = 'import os\nQUICK = os.environ.get("REPRO_BENCH_QUICK", "")\n'
        assert self._codes(source) == ["ENV001"]

    def test_module_level_getenv(self):
        source = 'import os\nWORKERS = os.getenv("REPRO_WORKERS")\n'
        assert self._codes(source) == ["ENV001"]

    def test_aliased_import_tracked(self):
        source = 'import os as operating\nX = operating.environ["HOME"]\n'
        assert self._codes(source) == ["ENV001"]

    def test_from_import_alias_tracked(self):
        source = 'from os import environ as env\nX = env.get("HOME")\n'
        assert self._codes(source) == ["ENV001"]

    def test_from_import_getenv(self):
        source = 'from os import getenv\nX = getenv("HOME")\n'
        assert self._codes(source) == ["ENV001"]

    def test_read_inside_function_is_fine(self):
        source = textwrap.dedent(
            """
            import os

            def worker_count():
                return os.environ.get("REPRO_WORKERS", "")
            """
        )
        assert self._codes(source) == []

    def test_default_argument_is_import_time(self):
        source = textwrap.dedent(
            """
            import os

            def f(workers=os.environ.get("REPRO_WORKERS")):
                return workers
            """
        )
        assert self._codes(source) == ["ENV001"]

    def test_class_body_is_import_time(self):
        source = textwrap.dedent(
            """
            import os

            class Config:
                workers = os.environ.get("REPRO_WORKERS")
            """
        )
        assert self._codes(source) == ["ENV001"]

    def test_lambda_body_is_call_time(self):
        source = 'import os\nreader = lambda: os.environ.get("REPRO_WORKERS")\n'
        assert self._codes(source) == []

    def test_method_body_is_call_time(self):
        source = textwrap.dedent(
            """
            import os

            class Config:
                def workers(self):
                    return os.environ.get("REPRO_WORKERS")
            """
        )
        assert self._codes(source) == []

    def test_unrelated_environ_attribute_not_flagged(self):
        source = "X = settings.environ\n"
        assert self._codes(source) == []


class TestTime001:
    """TIME001: wall-clock time.time() for durations/deadlines."""

    def _codes(self, source):
        return [f.code for f in lint.iter_findings(source, "x.py")]

    def test_time_time_flagged(self):
        source = "import time\ndef f():\n    return time.time()\n"
        assert self._codes(source) == ["TIME001"]

    def test_module_level_time_time_flagged(self):
        source = "import time\nSTART = time.time()\n"
        assert self._codes(source) == ["TIME001"]

    def test_aliased_module_tracked(self):
        source = "import time as clock\ndef f():\n    return clock.time()\n"
        assert self._codes(source) == ["TIME001"]

    def test_from_import_tracked(self):
        source = "from time import time\ndef f():\n    return time()\n"
        assert self._codes(source) == ["TIME001"]

    def test_from_import_alias_tracked(self):
        source = "from time import time as now\ndef f():\n    return now()\n"
        assert self._codes(source) == ["TIME001"]

    def test_monotonic_and_perf_counter_ok(self):
        source = (
            "import time\n"
            "def f():\n"
            "    return time.monotonic() + time.perf_counter()\n"
        )
        assert self._codes(source) == []

    def test_unrelated_time_attribute_not_flagged(self):
        source = "def f(stamp):\n    return stamp.time()\n"
        assert self._codes(source) == []


class TestMc001:
    """MC001: module-level dict caches that ignore the interning mode."""

    def _codes(self, source, path="src/repro/logic/example.py"):
        return [f.code for f in lint.iter_findings(source, path)]

    MUTATING_CACHE = textwrap.dedent(
        """
        _CACHE = {}

        def lookup(key):
            if key not in _CACHE:
                _CACHE[key] = compute(key)
            return _CACHE[key]
        """
    )

    def test_unregistered_cache_flagged(self):
        findings = list(
            lint.iter_findings(self.MUTATING_CACHE, "src/repro/logic/x.py")
        )
        assert [f.code for f in findings] == ["MC001"]
        assert "_CACHE" in findings[0].message

    def test_setdefault_counts_as_mutation(self):
        source = "_MEMO = {}\n\ndef f(k):\n    return _MEMO.setdefault(k, [])\n"
        assert self._codes(source) == ["MC001"]

    def test_mode_listener_registration_exempts(self):
        source = self.MUTATING_CACHE + (
            "\nregister_clear_listener(_CACHE.clear)\n"
        )
        assert self._codes(source) == []

    def test_mode_ok_marker_exempts(self):
        source = self.MUTATING_CACHE.replace(
            "_CACHE = {}", "_CACHE = {}  # mode-ok: pure integer tables"
        )
        assert self._codes(source) == []

    def test_read_only_table_not_flagged(self):
        source = '_NAMES = {1: "one"}\n\ndef f(k):\n    return _NAMES[k]\n'
        assert self._codes(source) == []

    def test_module_level_population_not_flagged(self):
        # Filled at import time, read-only afterwards: no mode hazard the
        # rule can see (values predate any flip a test could perform).
        source = "_T = {}\nfor i in range(3):\n    _T[i] = i\n"
        assert self._codes(source) == []

    def test_outside_repro_tree_ignored(self):
        assert self._codes(self.MUTATING_CACHE, path="tests/test_x.py") == []
        assert self._codes(self.MUTATING_CACHE, path="tools/helper.py") == []


# --------------------------------------------------------------------- #
# dataflow passes (DF0xx)
# --------------------------------------------------------------------- #


def _infeasible_automaton():
    """q1 forces x1 = x2; the x1 != x2 edge out of q1 can never fire."""
    force = SigmaType([eq(X(1), X(2)), eq(X(1), Y(1)), eq(X(2), Y(2))])
    keep = SigmaType([eq(X(1), Y(1)), eq(X(2), Y(2))])
    split = SigmaType([neq(X(1), X(2)), eq(X(1), Y(1)), eq(X(2), Y(2))])
    return ra(
        2,
        {"q0", "q1", "q2", "q3"},
        {"q0"},
        {"q2"},
        [
            ("q0", force, "q1"),
            ("q1", keep, "q2"),
            ("q1", split, "q3"),
            ("q3", keep, "q3"),
        ],
    )


class TestDataflowPasses:
    def test_infeasible_transition_reported_with_proof(self):
        report = analyze(_infeasible_automaton(), only=["dataflow-feasibility"])
        findings = [d for d in report.warnings if d.code == "DF001"]
        assert len(findings) == 1
        finding = findings[0]
        assert "q1" in finding.location and "q3" in finding.location
        assert finding.source == "dataflow-feasibility"
        proof = finding.data["proof"]
        assert proof["reachable_source_types"] == proof["refuted_types"]
        assert finding.data["witness_to_source"]  # a concrete path to q1

    def test_abstractly_unreachable_state_reported(self):
        report = analyze(_infeasible_automaton(), only=["dataflow-feasibility"])
        unreachable = [d for d in report.warnings if d.code == "DF002"]
        assert len(unreachable) == 1
        assert "q3" in unreachable[0].location

    def test_forced_aliasing_reported(self):
        report = analyze(_infeasible_automaton(), only=["dataflow-constancy"])
        aliased = [d for d in report.infos if d.code == "DF004"]
        assert {d.location for d in aliased} >= {"state 'q1'"}
        by_state = {d.location: d for d in aliased}
        assert [1, 2] in [list(p) for p in by_state["state 'q1'"].data["pairs"]]

    def test_feasible_automaton_is_df_clean(self):
        report = analyze(example1(), only=["dataflow-feasibility"])
        assert not [d for d in report.diagnostics if d.code in ("DF001", "DF002")]

    def test_over_budget_automaton_reports_df005(self):
        # k = 13 exceeds MAX_REGISTERS even for the antichain domain:
        # the analysis declines, honestly.
        k = MAX_REGISTERS + 1
        literals = [eq(X(i), Y(i)) for i in range(1, k + 1)]
        automaton = ra(k, {"a"}, {"a"}, {"a"}, [("a", SigmaType(literals), "a")])
        report = analyze(automaton, only=["dataflow-feasibility"])
        assert "DF005" in report.codes()
        assert not [d for d in report.diagnostics if d.code in ("DF001", "DF002")]

    def test_graph_unreachable_state_left_to_ra110(self):
        keep = SigmaType([eq(X(1), Y(1))])
        automaton = ra(
            1, {"a", "island"}, {"a"}, {"a"},
            [("a", keep, "a"), ("island", keep, "island")],
        )
        report = analyze(automaton, only=["dataflow-feasibility"])
        assert "DF002" not in report.codes()
