"""Declarative workflow specifications compiled to register automata.

A :class:`WorkflowSpec` models the paper's workflow picture: a record of
named *attributes* (compiled to registers) evolves through *stages*
(compiled to control states) under *transition rules* whose conditions are
(in)equalities among current/next attribute values and (negated) lookups in
database relations.

The compilation is direct: attribute names map to register indices in
declaration order, each rule's conditions become one sigma-type, and the
Buchi condition is "some recurring stage is visited infinitely often".
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.db.schema import Signature
from repro.foundations.errors import InconsistentTypeError, SpecificationError
from repro.logic.literals import Literal, eq, neq, rel
from repro.logic.terms import Term, X, Y
from repro.logic.types import SigmaType
from repro.core.register_automaton import RegisterAutomaton, Transition


@dataclass(frozen=True)
class Stage:
    """A workflow stage (control state).

    ``recurring`` marks stages the workflow may dwell in forever (they
    become Buchi-accepting); every workflow needs at least one.
    """

    name: str
    recurring: bool = False


@dataclass
class TransitionRule:
    """One workflow step: ``source -> target`` under declarative conditions.

    Conditions are built with the fluent methods and reference attributes
    as ``name`` (current value) or ``name'`` (next value, trailing
    apostrophe) -- e.g. ``keep("paper")`` abbreviates ``paper' = paper``.
    """

    source: str
    target: str
    conditions: List[Literal] = field(default_factory=list)

    # fluent condition builders ----------------------------------------- #

    def keep(self, *attributes: str) -> "TransitionRule":
        """The named attributes keep their value across the step."""
        for attribute in attributes:
            self.conditions.append(("keep", attribute))
        return self

    def equal(self, left: str, right: str) -> "TransitionRule":
        """Attribute references are equal (``"a"`` now, ``"a'"`` next)."""
        self.conditions.append(("eq", left, right))
        return self

    def distinct(self, left: str, right: str) -> "TransitionRule":
        """Attribute references are distinct."""
        self.conditions.append(("neq", left, right))
        return self

    def lookup(self, relation: str, *attributes: str) -> "TransitionRule":
        """The tuple of attribute references is in the database relation."""
        self.conditions.append(("rel", relation, attributes))
        return self

    def changed(self, attribute: str) -> "TransitionRule":
        """The attribute takes a different value at the next step."""
        self.conditions.append(("neq", attribute, attribute + "'"))
        return self


class WorkflowSpec:
    """A declarative data-driven workflow.

    Parameters
    ----------
    attributes:
        Ordered attribute names; their order fixes the register layout
        (attribute ``i`` lives in register ``i+1``), which matters for
        views: hidden attributes must be listed last, or use
        :func:`repro.workflows.views.role_view`, which reorders for you.
    stages:
        The workflow stages; the first listed is the initial stage by
        default (override with ``initial``).
    signature:
        The database schema the rules may query (default: none).

    Examples
    --------
    >>> spec = WorkflowSpec(
    ...     attributes=["paper", "referee"],
    ...     stages=[Stage("submitted"), Stage("reviewed", recurring=True)],
    ... )
    >>> spec.rule("submitted", "reviewed").keep("paper")  # doctest: +ELLIPSIS
    <repro.workflows.spec.TransitionRule object at ...>
    >>> spec.compile().k
    2
    """

    def __init__(
        self,
        attributes: Sequence[str],
        stages: Sequence[Stage],
        signature: Signature = None,
        initial: Iterable[str] = None,
        distinct_attributes: bool = False,
    ):
        if len(set(attributes)) != len(attributes):
            raise SpecificationError("duplicate attribute names")
        self._attributes = list(attributes)
        self._stages = {stage.name: stage for stage in stages}
        if len(self._stages) != len(stages):
            raise SpecificationError("duplicate stage names")
        if not any(stage.recurring for stage in stages):
            raise SpecificationError(
                "at least one stage must be recurring (the Buchi condition)"
            )
        self._signature = signature or Signature.empty()
        self._initial = list(initial) if initial else [stages[0].name]
        for name in self._initial:
            if name not in self._stages:
                raise SpecificationError("unknown initial stage %r" % name)
        self._distinct_attributes = distinct_attributes
        self._rules: List[TransitionRule] = []

    @property
    def attributes(self) -> List[str]:
        return list(self._attributes)

    @property
    def signature(self) -> Signature:
        return self._signature

    @property
    def stages(self) -> List[Stage]:
        """The stages, in declaration order."""
        return list(self._stages.values())

    @property
    def initial_stages(self) -> List[str]:
        """The names of the initial stages."""
        return list(self._initial)

    @property
    def rules(self) -> List[TransitionRule]:
        """The transition rules, in declaration order."""
        return list(self._rules)

    def rule(self, source: str, target: str) -> TransitionRule:
        """Start a new transition rule (returned for fluent condition calls)."""
        for name in (source, target):
            if name not in self._stages:
                raise SpecificationError("unknown stage %r" % name)
        rule = TransitionRule(source, target)
        self._rules.append(rule)
        return rule

    @property
    def distinct_attributes(self) -> bool:
        """Whether every guard carries pairwise attribute disequalities."""
        return self._distinct_attributes

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #

    def compile_rule(self, rule: TransitionRule) -> SigmaType:
        """The guard *rule* compiles to, before distinctness literals.

        Raises :class:`SpecificationError` on unknown attributes or
        relations and :class:`InconsistentTypeError` on contradictory
        conditions -- the granularity the analysis passes report at.
        """
        return self._compile_rule(rule)

    def register_of(self, attribute: str) -> int:
        """The register index (1-based) holding *attribute*."""
        try:
            return self._attributes.index(attribute) + 1
        except ValueError:
            raise SpecificationError("unknown attribute %r" % attribute)

    def _reference(self, reference: str) -> Term:
        """``"a"`` -> x-register of a; ``"a'"`` -> y-register of a."""
        if reference.endswith("'"):
            return Y(self.register_of(reference[:-1]))
        return X(self.register_of(reference))

    def _compile_rule(self, rule: TransitionRule) -> SigmaType:
        literals: List[Literal] = []
        for condition in rule.conditions:
            kind = condition[0]
            if kind == "keep":
                attribute = condition[1]
                literals.append(
                    eq(X(self.register_of(attribute)), Y(self.register_of(attribute)))
                )
            elif kind == "eq":
                literals.append(eq(self._reference(condition[1]), self._reference(condition[2])))
            elif kind == "neq":
                literals.append(neq(self._reference(condition[1]), self._reference(condition[2])))
            elif kind == "rel":
                relation, attributes = condition[1], condition[2]
                literal = rel(relation, *(self._reference(a) for a in attributes))
                self._signature.validate_atom(literal.atom)
                literals.append(literal)
            else:
                raise SpecificationError("unknown condition kind %r" % (kind,))
        return SigmaType(literals)

    def _distinctness_literals(self) -> List[Literal]:
        """Pairwise disequalities among attributes, now and next.

        With ``distinct_attributes=True`` every guard carries these; besides
        modelling identifier-like attributes, they settle most variable
        pairs up front, which keeps the completion step of the view
        constructions (Theorem 13 / 24) from blowing up exponentially.
        """
        literals: List[Literal] = []
        count = len(self._attributes)
        for a in range(1, count + 1):
            for b in range(a + 1, count + 1):
                literals.append(neq(X(a), X(b)))
                literals.append(neq(Y(a), Y(b)))
        return literals

    def compile(self) -> RegisterAutomaton:
        """The register automaton implementing this workflow."""
        extra = self._distinctness_literals() if self._distinct_attributes else []
        transitions = []
        for rule in self._rules:
            guard = self._compile_rule(rule)
            if extra:
                try:
                    guard = guard.with_literals(extra)
                except (InconsistentTypeError, SpecificationError) as error:
                    # Only the expected spec-level failures are converted to
                    # a diagnostic; programming errors (AttributeError from
                    # a typo'd field, etc.) propagate as the bugs they are.
                    raise SpecificationError(
                        "rule %s -> %s contradicts distinct_attributes: %s"
                        % (rule.source, rule.target, error)
                    )
            transitions.append(Transition(rule.source, guard, rule.target))
        accepting = {name for name, stage in self._stages.items() if stage.recurring}
        return RegisterAutomaton(
            k=len(self._attributes),
            signature=self._signature,
            states=set(self._stages),
            initial=set(self._initial),
            accepting=accepting,
            transitions=transitions,
        )

    def reordered(self, attribute_order: Sequence[str]) -> "WorkflowSpec":
        """The same workflow with attributes re-declared in the given order.

        Projections always keep a register *prefix*, so views reorder the
        attributes to push the hidden ones to the back.
        """
        if sorted(attribute_order) != sorted(self._attributes):
            raise SpecificationError("attribute_order must be a permutation")
        clone = WorkflowSpec(
            attributes=attribute_order,
            stages=list(self._stages.values()),
            signature=self._signature,
            initial=self._initial,
            distinct_attributes=self._distinct_attributes,
        )
        clone._rules = self._rules  # rules reference attributes by name
        return clone
