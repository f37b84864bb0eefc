"""repro: projection views of register automata.

A faithful, executable reproduction of *Projection Views of Register
Automata* (Segoufin & Vianu, PODS 2020).  See ``README.md`` for the tour
and ``DESIGN.md`` for the theorem-to-module map.

Quick start::

    from repro import (
        RegisterAutomaton, ExtendedAutomaton, GlobalConstraint,
        Signature, SigmaType, X, Y, eq, neq,
        project_register_automaton, check_emptiness, verify,
    )
"""

from repro.automata import BuchiAutomaton, Dfa, Lasso, Nfa, parse_regex
from repro.core.emptiness import EmptinessResult, check_emptiness, has_run
from repro.core.enhanced import (
    EnhancedAutomaton,
    FinitenessConstraint,
    PairSelector,
    TupleInequalityConstraint,
)
from repro.core.extended import (
    ExtendedAutomaton,
    GlobalConstraint,
    eliminate_equality_constraints,
)
from repro.core.lr import (
    is_lr_bounded,
    lr_bound_estimate,
    lr_cover_profile,
    synthesize_register_automaton,
)
from repro.core.projection import (
    equality_tracker_dfa,
    inequality_tracker_dfa,
    project_extended,
    project_register_automaton,
)
from repro.core.pruning import prune_extended, prune_infeasible
from repro.core.register_automaton import RegisterAutomaton, Transition
from repro.core.runs import FiniteRun, LassoRun, find_lasso_run, generate_finite_runs
from repro.core.monitor import IngestReport, MonitorMultiplexer, SessionSnapshot
from repro.core.streaming import StreamingChecker, StreamingViolation
from repro.core.symbolic import (
    is_symbolic_control_trace,
    realize_control_trace,
    scontrol_buchi,
    state_trace_buchi,
)
from repro.core.theorem24 import project_with_database
from repro.core.verification import VerificationResult, run_satisfies, verify
from repro.db import Database, Signature
from repro.foundations.resilience import (
    Budget,
    CancellationToken,
    Deadline,
    DeadlineExceeded,
    Outcome,
    OutcomeStatus,
)
from repro.logic import SigmaType, Var, X, Y, eq, neq, nrel, rel
from repro.ltl import LtlFoSentence
from repro.workflows import (
    Stage,
    WorkflowSpec,
    database_hidden_view,
    manuscript_review_workflow,
    role_view,
)

__version__ = "1.0.0"

__all__ = [
    # logic / db
    "SigmaType", "Var", "X", "Y", "eq", "neq", "rel", "nrel",
    "Signature", "Database",
    # automata substrate
    "Lasso", "Nfa", "Dfa", "BuchiAutomaton", "parse_regex",
    # core model
    "RegisterAutomaton", "Transition", "FiniteRun", "LassoRun",
    "find_lasso_run", "generate_finite_runs",
    "StreamingChecker", "StreamingViolation",
    "MonitorMultiplexer", "SessionSnapshot", "IngestReport",
    "ExtendedAutomaton", "GlobalConstraint", "eliminate_equality_constraints",
    "EnhancedAutomaton", "TupleInequalityConstraint", "FinitenessConstraint",
    "PairSelector",
    # symbolic traces
    "scontrol_buchi", "state_trace_buchi", "is_symbolic_control_trace",
    "realize_control_trace",
    # decisions
    "check_emptiness", "has_run", "EmptinessResult",
    "verify", "run_satisfies", "VerificationResult",
    # resilience (deadlines, budgets, outcomes -- docs/ROBUSTNESS.md)
    "Deadline", "DeadlineExceeded", "Budget", "CancellationToken",
    "Outcome", "OutcomeStatus",
    # dataflow-proved pruning
    "prune_infeasible", "prune_extended",
    # projections
    "project_register_automaton", "project_extended", "project_with_database",
    "equality_tracker_dfa", "inequality_tracker_dfa",
    # LR / Theorem 19
    "is_lr_bounded", "lr_bound_estimate", "lr_cover_profile",
    "synthesize_register_automaton",
    # LTL-FO
    "LtlFoSentence",
    # workflows
    "WorkflowSpec", "Stage", "role_view", "database_hidden_view",
    "manuscript_review_workflow",
]
