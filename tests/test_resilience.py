"""The resilient execution layer: deadlines, budgets, faults, recovery.

Three layers under test:

* the vocabulary (``repro.foundations.resilience``): monotonic deadlines
  with ambient scoping, hierarchical budgets, cancellation tokens,
  outcome taxonomy, and the structured RS00x event log;
* the fault harness (``repro.foundations.faults``): ``REPRO_FAULTS``
  parsing, per-site occurrence counters, call-time re-parsing, and the
  agreement of the documented sites with the code and the CI plans;
* deadline-aware procedures: ``check_emptiness`` returning honest
  ``TIMEOUT`` outcomes, the Buchi enumeration, guard completion,
  Theorem 24 and streaming checkpoints, the budgeted dataflow analysis,
  and the CLI's partial-report interrupt path.

A hypothesis property pins the acceptance contract: deadline-expired
emptiness outcomes are UNKNOWN-monotone (a longer deadline never flips a
definite verdict).
"""

import ast
import os
import random
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Budget,
    CancellationToken,
    Deadline,
    DeadlineExceeded,
    ExtendedAutomaton,
    GlobalConstraint,
    LtlFoSentence,
    Outcome,
    OutcomeStatus,
    RegisterAutomaton,
    SigmaType,
    Signature,
    StreamingChecker,
    X,
    Y,
    check_emptiness,
    eq,
    project_with_database,
    verify,
)
from repro.analysis.cli import main as cli_main
from repro.analysis.dataflow import (
    DEFAULT_EDGE_BUDGET,
    MAX_REGISTERS,
    analyze_reachable_types,
    reachable_types_outcome,
)
from repro.automata.regex import concat, literal, plus
from repro.core.runs import FiniteRun
from repro.db.database import Database
from repro.foundations.faults import (
    FaultInjected,
    fault,
    fault_hits,
    parse_fault_plan,
    reset_faults,
)
from repro.foundations.resilience import (
    OperationCancelled,
    current_deadline,
    deadline_scope,
    drain_events,
    recent_events,
)
from repro.generators import random_extended_automaton
from repro.logic.formulas import atom_eq
from repro.ltl import Globally, Prop


# --------------------------------------------------------------------- #
# fixtures and helpers
# --------------------------------------------------------------------- #


def _example23(constrained=True):
    """The Example 2/3 automaton (with the q1 q2+ q1 inequality factor)."""
    d1 = SigmaType([eq(X(1), X(2)), eq(X(2), Y(2))])
    d2 = SigmaType([eq(X(2), Y(2))])
    d3 = SigmaType([eq(X(2), Y(2)), eq(Y(1), Y(2))])
    automaton = RegisterAutomaton(
        2,
        Signature.empty(),
        {"q1", "q2"},
        {"q1"},
        {"q1"},
        [("q1", d1, "q2"), ("q2", d2, "q2"), ("q2", d3, "q1")],
    )
    constraints = []
    if constrained:
        factor = concat(literal("q1"), plus(literal("q2")), literal("q1"))
        constraints = [GlobalConstraint("neq", 1, 1, factor)]
    return ExtendedAutomaton(automaton, constraints)


def _all_distinct():
    """Example 7: one register, every value distinct from every other."""
    automaton = RegisterAutomaton(
        1, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", SigmaType(), "q")]
    )
    factor = concat(literal("q"), plus(literal("q")))
    return ExtendedAutomaton(automaton, [GlobalConstraint("neq", 1, 1, factor)])


def _fingerprint(result):
    witness = result.witness
    return (
        result.empty,
        result.exact,
        result.candidates_checked,
        result.max_prefix,
        result.max_cycle,
        None if witness is None else witness.trace,
    )


@pytest.fixture(autouse=True)
def _clean_harness(monkeypatch):
    """Every test starts with no faults and no events."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_DEADLINE_MS", raising=False)
    reset_faults()
    drain_events()
    yield
    reset_faults()
    drain_events()


# --------------------------------------------------------------------- #
# Deadline
# --------------------------------------------------------------------- #


class TestDeadline:
    def test_generous_deadline_does_not_expire(self):
        deadline = Deadline(3600)
        assert not deadline.expired()
        deadline.check("unit")  # must not raise
        assert deadline.remaining() > 3000
        assert deadline.budget_ms == pytest.approx(3_600_000)

    def test_zero_deadline_expires_immediately(self):
        deadline = Deadline(0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded):
            deadline.check("unit")

    def test_check_message_names_the_site(self):
        with pytest.raises(DeadlineExceeded, match="lasso-loop"):
            Deadline(0).check("lasso-loop")

    def test_from_env_parsing(self, monkeypatch):
        for raw, expected in [
            ("", None),
            ("   ", None),
            ("junk", None),
            ("-5", None),
            ("250", 250.0),
            ("0", 0.0),
        ]:
            monkeypatch.setenv("REPRO_DEADLINE_MS", raw)
            deadline = Deadline.from_env()
            if expected is None:
                assert deadline is None
            else:
                assert deadline.budget_ms == pytest.approx(expected)
        monkeypatch.delenv("REPRO_DEADLINE_MS")
        assert Deadline.from_env() is None

    def test_resolve(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEADLINE_MS", raising=False)
        assert Deadline.resolve(None) is None
        monkeypatch.setenv("REPRO_DEADLINE_MS", "100")
        assert Deadline.resolve(None).budget_ms == pytest.approx(100.0)
        existing = Deadline(5)
        assert Deadline.resolve(existing) is existing
        assert Deadline.resolve(0).expired()
        assert Deadline.resolve(60_000).budget_ms == pytest.approx(60_000)
        # negative means "no deadline", matching from_env -- never an
        # instantly-expired one
        assert Deadline.resolve(-5) is None
        assert Deadline.resolve(-0.1) is None

    def test_ambient_scope_nesting(self):
        assert current_deadline() is None
        outer, inner = Deadline(100), Deadline(50)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(None):  # no-op scope keeps the outer visible
                assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_scope_pops_on_exception(self):
        with pytest.raises(RuntimeError):
            with deadline_scope(Deadline(100)):
                raise RuntimeError("boom")
        assert current_deadline() is None


# --------------------------------------------------------------------- #
# Budget
# --------------------------------------------------------------------- #


class TestBudget:
    def test_unlimited_budget_never_exhausts(self):
        budget = Budget("root")
        assert budget.charge(10_000)
        assert not budget.exhausted
        assert budget.remaining() is None

    def test_limit_is_exceeded_not_reached(self):
        budget = Budget("edges", 3)
        for _ in range(3):
            assert budget.charge()  # spending up to the limit is fine
        assert not budget.exhausted
        assert not budget.charge()  # the 4th unit tips it over
        assert budget.exhausted
        assert budget.spent == 4
        assert budget.remaining() == 0

    def test_child_charges_ancestors(self):
        root = Budget("root", 10)
        child = root.scope("child")
        child.charge(4)
        assert root.spent == 4
        assert child.spent == 4

    def test_exhausted_ancestor_stops_child(self):
        root = Budget("root", 2)
        child = root.scope("child", 100)
        assert child.charge(2)
        assert not child.charge()  # root is over, child's own limit is not
        assert child.exhausted

    def test_sibling_scopes_share_the_root(self):
        root = Budget("dataflow", 5)
        left, right = root.scope("left"), root.scope("right")
        left.charge(3)
        right.charge(3)
        assert root.spent == 6
        assert root.exhausted

    def test_snapshot_is_json_ready(self):
        import json

        root = Budget("dataflow")
        root.scope("registers", 6).charge(2)
        root.scope("edges", 100).charge(7)
        snapshot = root.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["spent"] == 9
        children = {c["name"]: c for c in snapshot["children"]}
        assert children["registers"]["spent"] == 2
        assert children["edges"]["limit"] == 100


# --------------------------------------------------------------------- #
# CancellationToken and Outcome
# --------------------------------------------------------------------- #


class TestTokenAndOutcome:
    def test_token_fires_once_and_keeps_reason(self):
        token = CancellationToken()
        token.check("anywhere")  # live: no raise
        token.cancel("shutdown requested")
        token.cancel("second reason ignored")
        assert token.cancelled
        with pytest.raises(OperationCancelled, match="shutdown requested"):
            token.check("loop")

    def test_outcome_constructors(self):
        done = Outcome.complete(42, items=3)
        assert done.ok and done.value == 42 and done.stats == {"items": 3}
        late = Outcome.timeout(candidates_checked=7)
        assert not late.ok
        assert late.status is OutcomeStatus.TIMEOUT
        assert late.as_dict() == {
            "status": "timeout",
            "stats": {"candidates_checked": 7},
        }
        assert Outcome.degraded(reason="edge-budget").status is OutcomeStatus.DEGRADED
        assert Outcome.cancelled().status is OutcomeStatus.CANCELLED


# --------------------------------------------------------------------- #
# the fault harness
# --------------------------------------------------------------------- #


class TestFaultPlan:
    def test_parse_single_entry(self):
        plan = parse_fault_plan("monitor.ingest:crash:1")
        assert plan.fire("monitor.ingest") == "crash"
        assert plan.fire("monitor.ingest") is None  # nth=1 only

    def test_parse_range_and_star(self):
        plan = parse_fault_plan("a:raise:2-3,b:deadline:*")
        assert [plan.fire("a") for _ in range(4)] == [None, "raise", "raise", None]
        assert [plan.fire("b") for _ in range(3)] == ["deadline"] * 3

    def test_default_selector_is_every_hit(self):
        plan = parse_fault_plan("site:raise")
        assert [plan.fire("site") for _ in range(2)] == ["raise", "raise"]

    def test_counters_are_per_site(self):
        plan = parse_fault_plan("a:raise:2")
        assert plan.fire("b") is None  # unrelated site still counts its own
        assert plan.fire("a") is None
        assert plan.fire("a") == "raise"
        assert plan.hits("a") == 2 and plan.hits("b") == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "justasite",
            "a:b:c:d",
            ":kind:1",
            "site::1",
            # well-formed plans that could never inject anything
            "monitor.ingest:crash:0",
            "monitor.ingest:crash:5-2",
            "monitor.ingest:crsh:1",
            "emptiness.lasso:deadlne:1",
        ],
    )
    def test_malformed_plans_fail_loudly(self, bad):
        with pytest.raises(ValueError):
            parse_fault_plan(bad)

    def test_env_plan_reparses_on_change(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "site:raise:2")
        assert fault("site") is None
        assert fault("site") == "raise"
        # changing the knob resets occurrence numbering
        monkeypatch.setenv("REPRO_FAULTS", "site:raise:1")
        assert fault("site") == "raise"
        monkeypatch.delenv("REPRO_FAULTS")
        assert fault("site") is None
        assert fault_hits("site") == 0


REPO_ROOT = Path(__file__).resolve().parent.parent


def _source_fault_sites():
    """Every ``fault("<literal>")`` site under ``src/repro`` (AST scan)."""
    sites = set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "fault"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                sites.add(node.args[0].value)
    return sites


def _documented_fault_kinds():
    """Site -> kinds, from the table in ROBUSTNESS.md "Fault injection"."""
    text = (REPO_ROOT / "docs" / "ROBUSTNESS.md").read_text()
    section = text.split("\n## Fault injection\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and re.fullmatch(r"`[\w.]+`", cells[0]):
            table[cells[0].strip("`")] = set(re.findall(r"`(\w+)`", cells[1]))
    return table


class TestFaultSiteInventory:
    """The documented fault sites, the code and the CI plans agree.

    A CI plan naming a site the code no longer polls, or a kind the site
    does not honour, injects nothing and passes vacuously.
    """

    def test_documented_sites_are_the_sites_in_the_code(self):
        assert _source_fault_sites() == set(_documented_fault_kinds())

    def test_every_ci_plan_entry_names_a_documented_site_and_kind(self):
        table = _documented_fault_kinds()
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        plans = re.findall(r"REPRO_FAULTS=(\S+)", workflow)
        assert plans
        for plan in plans:
            for spec in parse_fault_plan(plan).specs:
                assert spec.site in table, (plan, spec.site)
                assert spec.kind in table[spec.site], (plan, spec.kind)


# --------------------------------------------------------------------- #
# emptiness deadlines
# --------------------------------------------------------------------- #


class TestEmptinessDeadline:
    def test_expired_deadline_returns_timeout_outcome(self):
        result = check_emptiness(_example23(), deadline=0)
        assert result.verdict == "unknown"
        assert result.outcome is not None
        assert result.outcome.status is OutcomeStatus.TIMEOUT
        assert result.empty and not result.exact  # same epistemic state as a bound
        assert result.outcome.stats["candidates_checked"] == result.candidates_checked
        events = recent_events("RS003")
        assert len(events) == 1

    def test_env_knob_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE_MS", "0")
        result = check_emptiness(_example23(constrained=False))
        assert result.verdict == "unknown"
        monkeypatch.delenv("REPRO_DEADLINE_MS")
        # same call, knob unset: the definite answer comes back
        assert check_emptiness(_example23(constrained=False)).verdict == "nonempty"

    def test_generous_deadline_matches_no_deadline(self):
        bare = _fingerprint(check_emptiness(_example23(), max_prefix=2, max_cycle=4))
        timed = check_emptiness(
            _example23(), max_prefix=2, max_cycle=4, deadline=Deadline(3600)
        )
        assert _fingerprint(timed) == bare
        assert timed.outcome is None  # completed: no degradation to report

    def test_fault_forced_expiry_is_deterministic(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "emptiness.lasso:deadline:2")
        first = check_emptiness(_example23(), max_prefix=2, max_cycle=4)
        reset_faults()
        second = check_emptiness(_example23(), max_prefix=2, max_cycle=4)
        assert first.verdict == second.verdict == "unknown"
        assert first.candidates_checked == second.candidates_checked == 1
        assert first.outcome.stats == second.outcome.stats

    def test_cancellation_token_produces_cancelled_outcome(self):
        token = CancellationToken()
        token.cancel("user hit stop")
        result = check_emptiness(_example23(), cancel=token)
        assert result.verdict == "unknown"
        assert result.outcome.status is OutcomeStatus.CANCELLED

    def test_interrupt_fault_propagates_keyboard_interrupt(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "emptiness.lasso:interrupt:1")
        with pytest.raises(KeyboardInterrupt):
            check_emptiness(_example23())

    def test_lasso_fault_fires_in_both_searches(self, monkeypatch):
        """``check_emptiness`` and ``verify`` run the one candidate loop.

        ``verify`` takes no deadline, so an injected failure there leaves
        as an exception instead of an outcome.
        """
        extended = _all_distinct()
        sentence = LtlFoSentence(
            skeleton=Globally(Prop("stay")),
            propositions={"stay": atom_eq(X(1), Y(1))},
        )
        monkeypatch.setenv("REPRO_FAULTS", "emptiness.lasso:raise:1")
        with pytest.raises(FaultInjected):
            check_emptiness(extended)
        reset_faults()
        with pytest.raises(FaultInjected):
            verify(extended, sentence)
        monkeypatch.delenv("REPRO_FAULTS")
        reset_faults()
        result = verify(extended, sentence)
        assert not result.holds and result.candidates_checked >= 1

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        cutoff=st.integers(min_value=1, max_value=6),
    )
    def test_unknown_monotone(self, seed, cutoff):
        """A truncated run either says UNKNOWN or agrees with the full run."""
        extended = random_extended_automaton(
            random.Random(seed),
            k=2,
            n_states=3,
            n_transitions=4,
            n_constraints=2,
            equality_fraction=0.0,
        )
        try:
            os.environ["REPRO_FAULTS"] = "emptiness.lasso:deadline:%d" % cutoff
            reset_faults()
            truncated = check_emptiness(extended, max_prefix=1, max_cycle=3)
        finally:
            os.environ.pop("REPRO_FAULTS", None)
            reset_faults()
        full = check_emptiness(extended, max_prefix=1, max_cycle=3)
        if truncated.verdict != "unknown":
            # the cutoff never fired or fired after the answer: verdicts agree
            assert truncated.verdict == full.verdict
        assert truncated.candidates_checked <= full.candidates_checked or (
            full.verdict == "nonempty"
        )

# --------------------------------------------------------------------- #
# deadline checkpoints in the deep layers
# --------------------------------------------------------------------- #


class TestDeepCheckpoints:
    def test_buchi_enumeration_honours_explicit_deadline(self):
        from repro.core.symbolic import scontrol_buchi

        buchi = scontrol_buchi(_example23(constrained=False).automaton)
        with pytest.raises(DeadlineExceeded):
            list(buchi.iter_accepted_lassos(3, 2, deadline=Deadline(0)))
        # and the ambient deadline works without the parameter
        with deadline_scope(Deadline(0)):
            with pytest.raises(DeadlineExceeded):
                list(buchi.iter_accepted_lassos(3, 2))

    def test_buchi_enumeration_polls_inside_a_round(self):
        """No stretch of path extension runs more than 256 edge expansions unpolled."""
        from repro.automata.buchi import BuchiAutomaton

        class CountingNarrow:
            steps = 0

            def empty(self):
                return ()

            def step(self, filter_state, symbol):
                self.steps += 1
                return filter_state

        class RecordingDeadline:
            def __init__(self, narrow):
                self.narrow = narrow
                self.polls = []

            def check(self, site=""):
                self.polls.append(self.narrow.steps)

        states = range(6)
        complete = BuchiAutomaton({q: {"a": set(states)} for q in states}, states, states)
        narrow = CountingNarrow()
        deadline = RecordingDeadline(narrow)
        lassos = list(complete.iter_accepted_lassos(5, 1, narrow=narrow, deadline=deadline))
        assert lassos
        gaps = [after - before for before, after in zip(deadline.polls, deadline.polls[1:])]
        assert max(gaps) <= 256
        assert narrow.steps > 256 * 10  # the last cycle round alone runs 1,296 steps

    def test_product_search_polls_between_pair_expansions(self):
        """No stretch of the pair search runs more than 256 pair expansions unpolled."""
        from repro.automata.buchi import BuchiAutomaton, BuchiProduct

        # Each ring state reads its own symbol, and the product reads each
        # symbol's letter once: the letter reads count the pair expansions.
        letters_read = []

        def letter_of(symbol):
            letters_read.append(symbol)
            return "x"

        class RecordingDeadline:
            def __init__(self):
                self.polls = []

            def check(self, site=""):
                self.polls.append((site, len(letters_read)))

        length = 1200
        ring = BuchiAutomaton({q: {q: {(q + 1) % length}} for q in range(length)}, {0}, set())
        every_letter = BuchiAutomaton({0: {"x": {0}}}, {0}, {0})
        deadline = RecordingDeadline()
        with deadline_scope(deadline):
            # No left state accepts: the search expands every pair.
            assert BuchiProduct(ring, every_letter, letter_of).find_accepted_lasso() is None
        assert len(letters_read) == length
        assert {site for site, _count in deadline.polls} == {"buchi.product"}
        counts = [0] + [count for _site, count in deadline.polls] + [length]
        assert max(after - before for before, after in zip(counts, counts[1:])) <= 256

    def test_lr_polls_once_per_candidate_lasso(self, example1_automaton):
        """``lr.lasso`` fires once per distinct candidate, before its windows."""
        from unittest import mock

        from repro import project_register_automaton
        from repro.core import lr
        from repro.core.extended import normalize_control
        from repro.core.symbolic import scontrol_buchi

        view = project_register_automaton(example1_automaton, 1)
        buchi = scontrol_buchi(normalize_control(view).automaton)
        lassos = list(buchi.iter_accepted_lassos(4, 1))
        distinct = list(dict.fromkeys(lassos))
        assert len(distinct) < len(lassos)  # the enumeration repeats some
        events = []

        class RecordingDeadline:
            def check(self, site=""):
                if site == "lr.lasso":
                    events.append(site)

        window_inconsistent = lr._window_inconsistent

        def recording(extended, trace, loops):
            events.append(trace)
            return window_inconsistent(extended, trace, loops)

        expected = [event for lasso in distinct for event in ("lr.lasso", lasso)]
        with mock.patch.object(lr, "_window_inconsistent", recording):
            with deadline_scope(RecordingDeadline()):
                assert lr.is_lr_bounded(view)
                assert events == expected
                events.clear()
                lr.lr_bound_estimate(view)
                assert events == expected

    def test_projections_poll_once_per_pair(self, example1_automaton, example23_automaton):
        """``projection.register_pair`` per kept register pair (Theorems 13
        and 24), ``theorem24.literal_pair`` per (negative, positive) pair."""
        from repro import project_register_automaton
        from repro.core.pruning import prune_infeasible
        from repro.core.theorem24 import _literal_occurrences, _normalize_db

        sites = []

        class RecordingDeadline:
            def check(self, site=""):
                sites.append(site)

        with deadline_scope(RecordingDeadline()):
            project_with_database(example23_automaton, 2)
        occurrences = _literal_occurrences(
            _normalize_db(prune_infeasible(example23_automaton))
        )
        negatives = sum(1 for occurrence in occurrences if not occurrence[1])
        positives = len(occurrences) - negatives
        assert negatives and positives
        assert sites.count("projection.register_pair") == 4
        assert sites.count("theorem24.literal_pair") == negatives * positives
        sites.clear()
        with deadline_scope(RecordingDeadline()):
            project_register_automaton(example1_automaton, 1)
        assert sites.count("projection.register_pair") == 1

    def test_completions_interruptible_and_memo_unpoisoned(self):
        relations = {"R": 1}
        variables = (X(1), X(2))
        base = SigmaType([eq(X(1), X(1))])
        with deadline_scope(Deadline(0)):
            with pytest.raises(DeadlineExceeded):
                list(base.completions(relations, variables))
        # The aborted enumeration must not have seeded the memo: a fresh
        # call enumerates the full set, matching a structurally disjoint
        # twin with the same combinatorics.
        survived = list(base.completions(relations, variables))
        twin = SigmaType([eq(Y(1), Y(1))]).completions(relations, (Y(1), Y(2)))
        assert len(survived) == len(list(twin))
        assert len(survived) > 0

    def test_theorem24_interruptible(self, example23_automaton):
        with deadline_scope(Deadline(0)):
            with pytest.raises(DeadlineExceeded):
                project_with_database(example23_automaton, 1)

    def test_streaming_feed_run_interruptible(self):
        extended = _example23(constrained=False)
        checker = StreamingChecker(
            extended, Database(Signature.empty()), strict=False
        )
        run = FiniteRun((("a", "a"),), ("q1",), ())
        with deadline_scope(Deadline(0)):
            with pytest.raises(DeadlineExceeded):
                checker.feed_run(run)


# --------------------------------------------------------------------- #
# budgeted dataflow
# --------------------------------------------------------------------- #


def _tiny_automaton(k=2):
    guard = SigmaType([eq(X(1), Y(1))])
    return RegisterAutomaton(
        k,
        Signature.empty(),
        {"a", "b"},
        {"a"},
        {"b"},
        [("a", guard, "b"), ("b", guard, "a")],
    )


class TestDataflowBudget:
    def test_register_cap_degrades_with_snapshot(self):
        wide = _tiny_automaton(k=MAX_REGISTERS + 1)
        outcome = reachable_types_outcome(wide)
        assert outcome.status is OutcomeStatus.DEGRADED
        assert outcome.value is None
        assert outcome.stats["reason"] == "register-cap"
        children = {c["name"]: c for c in outcome.stats["budget"]["children"]}
        assert children["registers"]["spent"] == MAX_REGISTERS + 1
        assert children["registers"]["exhausted"]
        assert analyze_reachable_types(wide) is None  # wrapper contract intact
        events = recent_events("RS004")
        assert events and events[-1].data["reason"] == "register-cap"

    def test_edge_budget_degrades_exactly_like_the_int_cap(self):
        automaton = _tiny_automaton()
        full = reachable_types_outcome(automaton, DEFAULT_EDGE_BUDGET)
        assert full.ok
        evaluations = full.value.edge_evaluations
        assert evaluations > 0
        # budget == actual effort: completes (the cap is exceeded, not reached)
        assert reachable_types_outcome(automaton, evaluations).ok
        # one unit less: degrades, and the snapshot shows where it stopped
        starved = reachable_types_outcome(automaton, evaluations - 1)
        assert starved.status is OutcomeStatus.DEGRADED
        assert starved.stats["reason"] == "edge-budget"
        children = {c["name"]: c for c in starved.stats["budget"]["children"]}
        assert children["edges"]["spent"] == evaluations
        assert analyze_reachable_types(automaton, evaluations - 1) is None

    def test_df005_diagnostic_carries_budget_data(self):
        from repro.analysis.passes_dataflow import dataflow_feasibility_pass

        findings = list(dataflow_feasibility_pass.run(_tiny_automaton(k=MAX_REGISTERS + 1)))
        assert [f.code for f in findings] == ["DF005"]
        assert findings[0].data["reason"] == "register-cap"
        assert findings[0].data["budget"]["children"]


# --------------------------------------------------------------------- #
# CLI interrupt
# --------------------------------------------------------------------- #


class TestCliInterrupt:
    def test_interrupt_yields_partial_report_and_130(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        interrupted = tmp_path / "interrupted.py"
        interrupted.write_text("raise KeyboardInterrupt\n")
        never = tmp_path / "never.py"
        never.write_text("x = 2\n")
        code = cli_main([str(good), str(interrupted), str(never)])
        assert code == 130
        output = capsys.readouterr().out
        assert "XX002" in output

    def test_interrupt_during_render_still_partial(
        self, tmp_path, capsys, monkeypatch
    ):
        """A Ctrl-C landing in report rendering (after analysis finished)
        must still produce the XX002 partial report and exit 130, not a
        traceback."""
        from repro.foundations.diagnostics import Report

        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        original = Report.render
        fired = []

        def interrupting_render(self, **kwargs):
            if not fired:
                fired.append(True)
                raise KeyboardInterrupt
            return original(self, **kwargs)

        monkeypatch.setattr(Report, "render", interrupting_render)
        code = cli_main([str(good)])
        assert code == 130
        assert "XX002" in capsys.readouterr().out

    def test_interrupt_json_payload_is_partial(self, tmp_path, capsys):
        import json

        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        interrupted = tmp_path / "interrupted.py"
        interrupted.write_text("raise KeyboardInterrupt\n")
        never = tmp_path / "never.py"
        never.write_text("x = 2\n")
        code = cli_main(
            ["--format", "json", str(good), str(interrupted), str(never)]
        )
        assert code == 130
        payload = json.loads(capsys.readouterr().out)
        targets = [entry["target"] for entry in payload["reports"]]
        assert str(never) not in targets  # analysis stopped at the interrupt
        flat = json.dumps(payload)
        assert "XX002" in flat
