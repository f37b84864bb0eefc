"""LTL-FO verification of (extended) register automata (Theorem 12).

``A |= forall z . phi_f`` holds when every run of ``A`` on every database
satisfies the LTL-FO sentence under every valuation of the global variables
``z``.  The decision procedure follows the paper:

1. **global-variable elimination** -- each ``z`` variable becomes an extra
   register that is propagated unchanged through every transition, so each
   run carries a candidate valuation;
2. the control is normalised (complete + state-driven) so each position's
   complete type settles the truth of every proposition
   (:func:`repro.ltl.ltlfo.evaluate_formula_under_type`);
3. the negated property is translated to a Buchi automaton
   (:func:`repro.ltl.translation.ltl_to_buchi`) and intersected with the
   ``SControl`` automaton, whose letters are mapped to truth assignments;
4. an accepted lasso of the product is a *symbolic* counterexample; it is
   a genuine one iff it is realisable (consistency + bounded cliques,
   exactly as in :mod:`repro.core.emptiness`).  Without global constraints
   every symbolic trace is realisable and the procedure is exact Buchi
   emptiness; with constraints, candidate counterexamples are enumerated
   under bounds and the "verified" verdict records the bound.

Concrete-run checking (:func:`run_satisfies`) is also provided: it
evaluates the sentence semantically on a lasso run over a database, serving
as the ground-truth oracle in tests and benchmarks.
"""

from dataclasses import dataclass
from itertools import product as cartesian_product
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.automata.buchi import BuchiAutomaton
from repro.automata.words import Lasso
from repro.db.database import Database
from repro.db.evaluation import evaluate_formula, transition_valuation
from repro.foundations.domain import FreshSupply
from repro.foundations.errors import SpecificationError
from repro.logic.literals import eq as lit_eq
from repro.logic.terms import Var, X, Y
from repro.logic.types import SigmaType
from repro.ltl.ltlfo import LtlFoSentence, proposition_assignment
from repro.ltl.syntax import Not_, satisfies
from repro.ltl.translation import ltl_to_buchi
from repro.foundations.memo import ValueCache
from repro.core.emptiness import (
    EmptinessWitness,
    _normalize_for_analysis,
    trace_has_bounded_cliques,
    trace_is_consistent,
)
from repro.core.extended import ExtendedAutomaton
from repro.core.pruning import build_narrowing, prune_extended
from repro.core.register_automaton import RegisterAutomaton, Transition
from repro.core.runs import LassoRun
from repro.core.symbolic import scontrol_buchi


def add_global_registers(
    extended: ExtendedAutomaton, global_vars: Sequence[Var]
) -> Tuple[ExtendedAutomaton, Dict[Var, int]]:
    """Eliminate LTL-FO global variables by frozen extra registers.

    Returns the augmented automaton and the mapping from each global
    variable to the register index now holding its value.  The new
    registers are propagated unchanged (``x_r = y_r`` in every guard), so
    each run fixes one valuation; universality over valuations becomes
    universality over runs.
    """
    if not global_vars:
        return extended, {}
    automaton = extended.automaton
    k = automaton.k
    mapping = {var: k + offset for offset, var in enumerate(global_vars, start=1)}
    freeze = [lit_eq(X(index), Y(index)) for index in mapping.values()]
    transitions = [
        Transition(t.source, t.guard.with_literals(freeze), t.target)
        for t in automaton.transitions
    ]
    augmented = RegisterAutomaton(
        k + len(global_vars),
        automaton.signature,
        automaton.states,
        automaton.initial,
        automaton.accepting,
        transitions,
    )
    return ExtendedAutomaton(augmented, extended.constraints), mapping


def _rewrite_sentence(sentence: LtlFoSentence, mapping: Dict[Var, int]) -> LtlFoSentence:
    """Rewrite global variables as their register x-variables."""
    if not mapping:
        return sentence
    from repro.logic.formulas import And, AtomFormula, FalseFormula, Not, Or, TrueFormula
    from repro.logic.literals import EqAtom, RelAtom

    def sub_term(term):
        if isinstance(term, Var) and term in mapping:
            return X(mapping[term])
        return term

    def sub(formula):
        if isinstance(formula, (TrueFormula, FalseFormula)):
            return formula
        if isinstance(formula, AtomFormula):
            atom = formula.atom
            if isinstance(atom, EqAtom):
                return AtomFormula(EqAtom(sub_term(atom.left), sub_term(atom.right)))
            return AtomFormula(RelAtom(atom.relation, tuple(sub_term(t) for t in atom.args)))
        if isinstance(formula, Not):
            return Not(sub(formula.operand))
        if isinstance(formula, And):
            return And(tuple(sub(op) for op in formula.operands))
        if isinstance(formula, Or):
            return Or(tuple(sub(op) for op in formula.operands))
        raise SpecificationError("unknown formula node %r" % (formula,))

    return LtlFoSentence(
        skeleton=sentence.skeleton,
        propositions={name: sub(f) for name, f in sentence.propositions.items()},
        global_vars=(),
    )


@dataclass
class VerificationResult:
    """Outcome of :func:`verify`.

    ``holds`` is the verdict; ``exact`` records whether it is unconditional
    (see the module docstring); ``counterexample`` is an
    :class:`EmptinessWitness` for the violating trace when ``holds`` is
    ``False``.
    """

    holds: bool
    exact: bool
    counterexample: Optional[EmptinessWitness] = None
    product_size: int = 0
    candidates_checked: int = 0


def verify(
    extended: ExtendedAutomaton,
    sentence: LtlFoSentence,
    max_prefix: int = 2,
    max_cycle: int = 6,
    max_candidates: int = 5000,
) -> VerificationResult:
    """Decide ``A |= sentence`` (Theorem 12).

    Accepts a plain :class:`RegisterAutomaton` wrapped in an
    :class:`ExtendedAutomaton` with no constraints (then the answer is
    exact) or a genuinely extended automaton (then a "verified" answer is
    certified up to the enumeration bounds; counterexamples are always
    exact).
    """
    augmented, mapping = add_global_registers(extended, sentence.global_vars)
    grounded = _rewrite_sentence(sentence, mapping)
    # Sound: pruning preserves the valid-run set exactly, hence the set of
    # genuine counterexamples.
    augmented = prune_extended(augmented)
    normalised = _normalize_for_analysis(augmented)
    automaton = normalised.automaton

    trace_buchi = scontrol_buchi(automaton)
    negated, _props = ltl_to_buchi(Not_(grounded.skeleton))

    # Lift the property automaton to read (state, guard) letters directly.
    # Local to this call: the assignments depend on *grounded*.
    assignment_cache = ValueCache("verification.assignment")

    def assignment(pair) -> FrozenSet[str]:
        guard = pair[1]
        return assignment_cache.lookup(
            guard, lambda: proposition_assignment(grounded, guard)
        )

    letters = {pair for pair in trace_buchi.symbols()}
    lifted_transitions: Dict = {}
    for state in negated.states():
        for letter in letters:
            targets = negated.successors(state, assignment(letter))
            if targets:
                lifted_transitions.setdefault(state, {})[letter] = set(targets)
    lifted = BuchiAutomaton(lifted_transitions, negated.initial, negated.accepting)

    product = trace_buchi.intersect(lifted)
    size = product.size()

    if not normalised.constraints:
        lasso = product.find_accepted_lasso()
        if lasso is None:
            return VerificationResult(holds=True, exact=True, product_size=size)
        witness = EmptinessWitness(lasso, normalised, extended, extended.k)
        return VerificationResult(
            holds=False, exact=True, counterexample=witness, product_size=size,
            candidates_checked=1,
        )

    checked = 0
    seen: Set[Lasso] = set()
    # The same subsumption-backed frontier the emptiness check threads
    # through its enumeration: product letters are (state, guard) symbols
    # of the normalised control, exactly what the filter expects.  It only
    # skips candidates trace_is_consistent would reject, so the verdict
    # and the winning counterexample are unchanged.
    narrow = build_narrowing(normalised)
    for lasso in product.iter_accepted_lassos(max_cycle, max_prefix, narrow=narrow):
        if lasso in seen:
            continue
        seen.add(lasso)
        checked += 1
        if checked > max_candidates:
            break
        if not trace_is_consistent(normalised, lasso):
            continue
        if not trace_has_bounded_cliques(normalised, lasso):
            continue
        witness = EmptinessWitness(lasso, normalised, extended, extended.k)
        return VerificationResult(
            holds=False,
            exact=True,
            counterexample=witness,
            product_size=size,
            candidates_checked=checked,
        )
    exact = product.find_accepted_lasso() is None
    return VerificationResult(
        holds=True, exact=exact, product_size=size, candidates_checked=checked
    )


# ---------------------------------------------------------------------- #
# concrete-run semantics (ground truth)
# ---------------------------------------------------------------------- #


def run_satisfies(
    sentence: LtlFoSentence, run: LassoRun, database: Database
) -> bool:
    """Semantic satisfaction of an LTL-FO sentence by a concrete lasso run.

    Evaluates each proposition at each position from the actual data values
    and the database, then checks the LTL skeleton with the lasso oracle.
    Global variables are universally quantified; because the run and the
    database contain finitely many values, it suffices to check valuations
    drawn from the active domain, the run's values, and one fresh value
    (two indistinguishable fresh values behave identically).
    """
    relevant: Set = set(database.active_domain())
    for row in run.data:
        relevant.update(row)
    supply = FreshSupply(used=relevant)
    candidates = sorted(relevant, key=repr) + [supply.take()]

    def position_assignment(position: int, valuation: Dict[Var, object]) -> FrozenSet[str]:
        nxt = run.successor(position)
        base = transition_valuation(run.data[position], run.data[nxt], dict(valuation))
        return frozenset(
            name
            for name, formula in sentence.propositions.items()
            if evaluate_formula(formula, database, base)
        )

    n = len(run.states)
    for values in cartesian_product(candidates, repeat=len(sentence.global_vars)):
        valuation = dict(zip(sentence.global_vars, values))
        letters = [position_assignment(p, valuation) for p in range(n)]
        word = Lasso(tuple(letters[: run.loop_start]), tuple(letters[run.loop_start :]))
        if not satisfies(word, sentence.skeleton):
            return False
    return True
