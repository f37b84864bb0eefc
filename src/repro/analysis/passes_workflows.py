"""Analysis passes over :class:`~repro.workflows.spec.WorkflowSpec`.

* ``WF001`` -- a rule condition references an undeclared attribute;
* ``WF002`` -- a rule looks up an unknown relation (or wrong arity);
* ``WF003`` -- a rule's ``equal``/``distinct`` conditions are contradictory
  (on their own, or against ``distinct_attributes``): the rule can never
  fire;
* ``WF010`` -- a stage is unreachable from the initial stages;
* ``WF011`` -- no recurring stage is reachable: the Buchi condition is
  unsatisfiable and the compiled workflow accepts nothing;
* ``WF012`` -- a reachable stage has no outgoing rule, so every run
  entering it halts (runs are infinite in the formal model).
"""

from typing import Dict, Iterator, List, Set

from repro.foundations.diagnostics import Diagnostic, error, warning
from repro.foundations.errors import InconsistentTypeError, SpecificationError
from repro.logic.literals import neq
from repro.logic.terms import X, Y
from repro.workflows.spec import TransitionRule, WorkflowSpec

from repro.analysis.engine import analysis_pass


def _rule_references(rule: TransitionRule) -> List[str]:
    """Every attribute reference (``"a"`` / ``"a'"``) a rule mentions."""
    references: List[str] = []
    for condition in rule.conditions:
        kind = condition[0]
        if kind == "keep":
            references.append(condition[1])
        elif kind in ("eq", "neq"):
            references.extend(condition[1:3])
        elif kind == "rel":
            references.extend(condition[2])
    return references


def _rule_location(rule: TransitionRule) -> str:
    return "rule %s -> %s" % (rule.source, rule.target)


@analysis_pass("workflow-rules", WorkflowSpec, codes=("WF001", "WF002", "WF003"))
def workflow_rules_pass(spec: WorkflowSpec) -> Iterator[Diagnostic]:
    attributes = set(spec.attributes)
    distinctness = []
    if spec.distinct_attributes:
        count = len(spec.attributes)
        for a in range(1, count + 1):
            for b in range(a + 1, count + 1):
                distinctness.append(neq(X(a), X(b)))
                distinctness.append(neq(Y(a), Y(b)))
    for rule in spec.rules:
        location = _rule_location(rule)
        unknown = sorted(
            {
                reference
                for reference in _rule_references(rule)
                if reference.rstrip("'") not in attributes
            }
        )
        for reference in unknown:
            yield error(
                "WF001", "condition references unknown attribute %r" % reference, location
            )
        if unknown:
            continue  # the rule cannot compile; deeper checks would just re-fail
        try:
            guard = spec.compile_rule(rule)
        except InconsistentTypeError as failure:
            yield error("WF003", "conditions are contradictory: %s" % failure, location)
            continue
        except SpecificationError as failure:
            yield error("WF002", str(failure), location)
            continue
        if distinctness:
            try:
                guard.with_literals(distinctness)
            except InconsistentTypeError:
                yield error(
                    "WF003",
                    "conditions contradict distinct_attributes "
                    "(two attributes are forced equal)",
                    location,
                )


def _reachable_stages(spec: WorkflowSpec) -> Set[str]:
    successors: Dict[str, List[str]] = {}
    for rule in spec.rules:
        successors.setdefault(rule.source, []).append(rule.target)
    seen: Set[str] = set(spec.initial_stages)
    frontier = list(seen)
    while frontier:
        stage = frontier.pop()
        for target in successors.get(stage, ()):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


@analysis_pass("workflow-liveness", WorkflowSpec, codes=("WF010", "WF011", "WF012"))
def workflow_liveness_pass(spec: WorkflowSpec) -> Iterator[Diagnostic]:
    reachable = _reachable_stages(spec)
    with_outgoing = {rule.source for rule in spec.rules}
    for stage in spec.stages:
        if stage.name not in reachable:
            yield warning(
                "WF010",
                "stage is unreachable from the initial stage(s)",
                "stage %r" % stage.name,
            )
        elif stage.name not in with_outgoing:
            yield warning(
                "WF012",
                "reachable stage has no outgoing rule; runs entering it "
                "halt (the formal model requires infinite runs)",
                "stage %r" % stage.name,
            )
    if not any(stage.recurring and stage.name in reachable for stage in spec.stages):
        yield warning(
            "WF011",
            "no recurring stage is reachable: the Buchi condition is "
            "unsatisfiable, the compiled workflow accepts nothing",
        )
