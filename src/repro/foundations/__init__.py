"""Foundational utilities shared by every layer of the library.

The paper fixes an infinite data domain ``D`` (Section 2).  We model data
values as arbitrary hashable Python objects and provide a :class:`FreshSupply`
that hands out values guaranteed not to collide with any value seen so far --
this realises the standing assumption that *"for every run there are
infinitely many values in D that do not occur in it"*.
"""

from repro.foundations.diagnostics import Diagnostic, Report, Severity, merge_reports
from repro.foundations.domain import DataValue, FreshSupply, is_data_value
from repro.foundations.errors import (
    EvaluationError,
    InconsistentTypeError,
    ReproError,
    SpecificationError,
)
from repro.foundations.faults import FaultInjected, FaultPlan, fault, parse_fault_plan, reset_faults
from repro.foundations.interning import (
    Interned,
    clear_intern_tables,
    intern_table_sizes,
)
from repro.foundations.resilience import (
    Budget,
    CancellationToken,
    Deadline,
    DeadlineExceeded,
    OperationCancelled,
    Outcome,
    OutcomeStatus,
    current_deadline,
    deadline_scope,
    drain_events,
    recent_events,
    record_event,
)
from repro.foundations.stats import (
    CacheStats,
    all_cache_stats,
    cache_stats,
    reset_cache_stats,
)

__all__ = [
    "DataValue",
    "FreshSupply",
    "is_data_value",
    "ReproError",
    "SpecificationError",
    "InconsistentTypeError",
    "EvaluationError",
    "Severity",
    "Diagnostic",
    "Report",
    "merge_reports",
    "Interned",
    "intern_table_sizes",
    "clear_intern_tables",
    "CacheStats",
    "cache_stats",
    "all_cache_stats",
    "reset_cache_stats",
    "Deadline",
    "DeadlineExceeded",
    "OperationCancelled",
    "Budget",
    "CancellationToken",
    "Outcome",
    "OutcomeStatus",
    "current_deadline",
    "deadline_scope",
    "record_event",
    "recent_events",
    "drain_events",
    "FaultInjected",
    "FaultPlan",
    "fault",
    "parse_fault_plan",
    "reset_faults",
]
