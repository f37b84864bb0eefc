"""Symbolic control traces and their realisation (Section 2 end, Theorem 9).

``SControl(A)`` -- the symbolic control traces of a register automaton --
is the omega-regular language of ``(state, type)`` sequences satisfying:

(i)   the first state is initial and some accepting state recurs,
(ii)  consecutive pairs are connected by transitions of ``A``,
(iii) consecutive types agree on the common registers.

:func:`scontrol_buchi` compiles this into a Buchi automaton.  The deep
result ([19], re-proved as stage 1 of Theorem 9) is ``Control(A) =
SControl(A)``: every symbolic trace is realised by a concrete finite
database and run.  :func:`realize_control_trace` implements the witness
construction for lasso-shaped traces.

Realisation strategy (in place of the paper's guarded-logic chase).  The
paper proves existence of a finite witness database via the finite model
property of the guarded sentence ``Psi_A``; for lasso traces we can build
the witness directly.  Unfold the lasso's loop ``m`` times and close it
into a ring: a :class:`~repro.core.tracewindow.TraceWindow` whose last
position's ``y`` terms name the loop start.  The window takes the
equality closure of the guards' equality literals over (position,
register) nodes, gives each class a distinct value and emits a fact for
every positive relational literal.  The construction fails only
through *spurious identifications* -- distinct classes of the infinite
unfolding that collide modulo ``m`` periods -- and enlarging ``m`` separates
them: a class spanning more than one period is carried through registers,
hence shift-periodic with period at most ``k`` loop lengths, so ``m =
lcm(1..k)`` already avoids all collisions.  We search ``m`` by iterative
deepening and verify the produced run explicitly, so a returned witness is
always genuine.
"""

from math import gcd
from typing import Dict, List, Optional, Tuple

from repro.automata.buchi import BuchiAutomaton
from repro.automata.words import Lasso
from repro.db.database import Database
from repro.foundations.errors import ReproError, SpecificationError
from repro.logic.types import agree
from repro.core.caching import AutomatonIndex
from repro.core.register_automaton import RegisterAutomaton
from repro.core.runs import LassoRun, validity_error
from repro.core.tracewindow import TraceWindow


def control_pairs(automaton: RegisterAutomaton) -> List[Tuple]:
    """The (state, guard) pairs occurring as transition sources."""
    seen = dict.fromkeys((t.source, t.guard) for t in automaton.transitions)
    return list(seen)


def scontrol_buchi(automaton: RegisterAutomaton) -> BuchiAutomaton:
    """The Buchi automaton accepting ``SControl(A)``.

    Symbols and states are both ``(state, guard)`` pairs: the automaton is
    in pair ``P`` at position ``n`` exactly when the trace letter there is
    ``P``, so each transition is labelled by its source pair.
    """
    pairs = control_pairs(automaton)
    pair_set = set(pairs)
    k = automaton.k
    transitions: Dict[Tuple, Dict[Tuple, set]] = {}
    index = AutomatonIndex.of(automaton)
    pairs_by_state: Dict[object, List[Tuple]] = {}
    for pair in pairs:
        pairs_by_state.setdefault(pair[0], []).append(pair)

    for source_state, guard in pairs:
        for transition in index.transitions_with_guard(source_state, guard):
            for next_pair in pairs_by_state.get(transition.target, ()):
                if not agree(guard, next_pair[1], k):
                    continue
                transitions.setdefault((source_state, guard), {}).setdefault(
                    (source_state, guard), set()
                ).add(next_pair)
    initial = {pair for pair in pair_set if pair[0] in automaton.initial}
    accepting = {pair for pair in pair_set if pair[0] in automaton.accepting}
    return BuchiAutomaton(transitions, initial, accepting)


def state_trace_buchi(automaton: RegisterAutomaton) -> BuchiAutomaton:
    """The Buchi automaton for ``State(A)`` (the homomorphic image).

    For complete automata this equals the paper's omega-regular ``State(A)``
    by [19]; in general it is the image of ``SControl(A)``.
    """
    return scontrol_buchi(automaton).map_symbols(lambda pair: pair[0])


def is_symbolic_control_trace(automaton: RegisterAutomaton, trace: Lasso) -> bool:
    """Membership of a lasso in ``SControl(A)``."""
    return scontrol_buchi(automaton).accepts(trace)


def _lcm_up_to(k: int) -> int:
    value = 1
    for i in range(2, max(k, 1) + 1):
        value = value * i // gcd(value, i)
    return value


class RealizationFailure(ReproError):
    """No data-periodic realisation found within the unfolding budget."""


def realize_control_trace(
    automaton: RegisterAutomaton,
    trace: Lasso,
    max_unfoldings: int = None,
    check_membership: bool = True,
) -> Tuple[Database, LassoRun]:
    """Realise a symbolic lasso trace by a finite database and lasso run.

    This is the constructive content of ``Control(A) = SControl(A)``:
    given ``trace`` in ``SControl(A)``, build ``(D, rho)`` with ``rho`` a
    run of ``A`` over ``D`` whose control trace is ``trace``.

    Raises :class:`SpecificationError` if the trace is not symbolic, and
    :class:`RealizationFailure` if no data-periodic witness is found within
    the unfolding budget.  For *complete* automata the analysis in the
    module docstring rules failures out; with incomplete guards a
    symbolic trace can hide a global (dis)equality clash and be genuinely
    unrealisable, in which case the failure is the correct verdict.
    """
    if check_membership and not is_symbolic_control_trace(automaton, trace):
        raise SpecificationError("the given lasso is not in SControl(A)")
    k = automaton.k
    budget = max_unfoldings
    if budget is None:
        budget = max(4, 2 * _lcm_up_to(k))
    candidates = sorted(set(range(1, min(budget, 6) + 1)) | {_lcm_up_to(k), budget})
    for unfoldings in candidates:
        if unfoldings > budget:
            continue
        witness = _try_realize(automaton, trace, unfoldings)
        if witness is not None:
            database, run = witness
            error = validity_error(run, automaton, database)
            if error is not None:
                raise AssertionError("internal realisation bug: %s" % error)
            return database, run
    raise RealizationFailure(
        "no data-periodic witness within %d loop unfoldings for %r" % (budget, trace)
    )


def _try_realize(
    automaton: RegisterAutomaton, trace: Lasso, unfoldings: int
) -> Optional[Tuple[Database, LassoRun]]:
    """The ring of *trace* with its loop unfolded *unfoldings* times, realised.

    ``None`` when the ring identifies a disequal pair or clashes a
    positive and a negative relational literal.
    """
    loop_start = len(trace.prefix)
    window = TraceWindow(
        trace,
        automaton.k,
        loop_start + unfoldings * len(trace.period),
        loop_start=loop_start,
    )
    realisation = window.realize(automaton.signature)
    if realisation is None:
        return None
    database, run = realisation
    return database, LassoRun(run.data, run.states, tuple(window.guards), loop_start)


def control_equals_scontrol_on_samples(
    automaton: RegisterAutomaton, max_prefix: int = 2, max_cycle: int = 4, limit: int = 25
) -> bool:
    """Empirically confirm ``Control(A) = SControl(A)`` on sampled lassos.

    Enumerates accepted lassos of ``SControl(A)`` within the bounds and
    realises each; returns ``True`` when every sample is realisable.  Used
    by tests and by the E3 benchmark.

    The theorem (and hence this check) applies to *complete* automata: with
    incomplete guards a locally-agreeing trace can hide a global equality/
    disequality clash and have no run, so the automaton is completed first.
    """
    if not automaton.is_complete():
        automaton = automaton.completed()
    buchi = scontrol_buchi(automaton)
    count = 0
    seen = set()
    for lasso in buchi.iter_accepted_lassos(max_cycle, max_prefix):
        if lasso in seen:
            continue
        seen.add(lasso)
        realize_control_trace(automaton, lasso, check_membership=False)
        count += 1
        if count >= limit:
            break
    return True
