"""LTL-FO verification of (extended) register automata (Theorem 12).

``A |= forall z . phi_f`` holds when every run of ``A`` on every database
satisfies the LTL-FO sentence under every valuation of the global variables
``z``.  The decision procedure follows the paper:

1. **global-variable elimination** -- each ``z`` variable becomes an extra
   register that is propagated unchanged through every transition, so each
   run carries a candidate valuation;
2. the control is normalised (complete + state-driven) so each position's
   complete type settles the truth of every proposition.  ``verify``
   takes the same normal form ``check_emptiness`` does
   (:func:`repro.core.emptiness.normal_control`): on the coded kernel
   (:mod:`repro.core.symkernel`) the types are partition codes and a
   symbol's letter costs one bit test per atom
   (:func:`repro.ltl.ltlfo.code_assignment`); the literal
   ``completed()`` / ``state_driven()`` control, with
   :func:`repro.ltl.ltlfo.evaluate_formula_under_type`, serves the inputs
   the kernel declines and the sentences whose atoms no code settles.
   Both complete each transition over its scoped vocabulary, so an atom
   may read only the registers before Proposition 6
   (:func:`repro.ltl.ltlfo.check_registers` raises ``EvaluationError``
   on any other, before either runs);
3. the negated property is translated to a Buchi automaton
   (:func:`repro.ltl.translation.ltl_to_buchi`, once per skeleton, with
   its search tables) and composed with the ``SControl`` automaton into a
   :class:`~repro.automata.buchi.BuchiProduct`: a control symbol moves the
   property automaton on its letter, the truth assignment its type
   settles, read once per symbol;
4. an accepted lasso of the product is a *symbolic* counterexample; it is
   a genuine one iff it is realisable (consistency + bounded cliques).
   The search is Theorem 9's own, :func:`repro.core.emptiness.search_candidates`,
   run on the product.  Without global constraints every symbolic trace
   is realisable and the procedure is exact Buchi emptiness, decided on
   the fly over (control, property) pairs under generalised acceptance:
   no product is built.  With constraints, candidate counterexamples are
   enumerated under bounds on the flagged product, and "verified" is
   exact when the product accepts no lasso at all and otherwise records
   the bound.  Only the winning counterexample is decoded into
   ``(state, guard)`` pairs.

Concrete-run checking (:func:`run_satisfies`) is also provided: it
evaluates the sentence semantically on a lasso run over a database, serving
as the ground-truth oracle in tests and benchmarks.
"""

from dataclasses import dataclass
from itertools import product as cartesian_product
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from repro.automata.buchi import BuchiAutomaton, BuchiProduct
from repro.automata.words import Lasso
from repro.db.database import Database
from repro.db.evaluation import evaluate_formula, transition_valuation
from repro.foundations.domain import FreshSupply
from repro.foundations.errors import SpecificationError
from repro.logic.literals import eq as lit_eq
from repro.logic.terms import Var, X, Y
from repro.logic.types import SigmaType
from repro.ltl.ltlfo import (
    LtlFoSentence,
    check_registers,
    code_assignment,
    proposition_assignment,
)
from repro.ltl.syntax import Not_, satisfies
from repro.ltl.translation import ltl_to_buchi
from repro.foundations.memo import ValueCache
from repro.core.emptiness import (
    EmptinessWitness,
    LiteralControl,
    normal_control,
    search_candidates,
)
from repro.core.extended import ExtendedAutomaton, eliminate_equality_constraints
from repro.core.register_automaton import RegisterAutomaton, Transition
from repro.core.runs import LassoRun
from repro.core.symkernel import SymbolicKernel

#: The negated property automaton of each skeleton seen lately.  A
#: workload verifies many automata against a handful of skeletons, and the
#: tableau translation is exponential in the formula.
_NEGATED_PROPERTIES = ValueCache("verification.negated_property", maxsize=64)


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
    ``False``.  ``product_size`` counts what the search explored: without
    global constraints the (control, property) pairs the on-the-fly search
    visited before it stopped, with them the states of the flagged product
    the bounded enumeration walks.
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
    exact when the product accepts no lasso, and otherwise certified up
    to the enumeration bounds; counterexamples are always exact).
    """
    augmented, mapping = add_global_registers(extended, sentence.global_vars)
    grounded = _rewrite_sentence(sentence, mapping)
    without_eq, kept = eliminate_equality_constraints(augmented)
    letter_of_code = code_assignment(grounded, without_eq.automaton.k)
    # Proposition 6 appends its bookkeeping registers after the kept ones,
    # and the normal form scopes them out where no guard mentions them: no
    # property may read them.  A sentence the codes settle reads registers
    # 1..k only, so with nothing appended there is nothing to check.
    if letter_of_code is None or kept < without_eq.automaton.k:
        check_registers(grounded, kept)
    # A sentence no partition code settles is evaluated on literal types.
    control = (
        normal_control(without_eq, kept)
        if letter_of_code is not None
        else LiteralControl(without_eq, kept)
    )
    # A symbol's letter is the truth assignment its complete type settles.
    if isinstance(control, SymbolicKernel):
        def letter_of(symbol) -> FrozenSet[str]:
            return letter_of_code(control.code_of(symbol))
    else:
        def letter_of(pair) -> FrozenSet[str]:
            return proposition_assignment(grounded, pair[1])

    product = BuchiProduct(control.buchi, _negated_property(grounded.skeleton), letter_of)
    # The emptiness search itself: product symbols are the control's symbols,
    # so the control's narrowing and realisability check apply unchanged.
    lasso, exact, checked = search_candidates(
        control, product, bool(without_eq.constraints), max_prefix, max_cycle, max_candidates
    )
    size = product.size()
    if lasso is None:
        return VerificationResult(
            holds=True, exact=exact, product_size=size, candidates_checked=checked
        )
    witness = EmptinessWitness(
        control.decode_lasso(lasso), control.normalised, extended, extended.k
    )
    return VerificationResult(
        holds=False,
        exact=True,
        counterexample=witness,
        product_size=size,
        candidates_checked=checked,
    )


def _negated_property(skeleton) -> BuchiAutomaton:
    """The Buchi automaton of ``not skeleton``, translated once per skeleton.

    The automaton keeps the search tables :class:`BuchiProduct` reads, so
    they too are built once per skeleton.
    """
    return _NEGATED_PROPERTIES.lookup(skeleton, lambda: ltl_to_buchi(Not_(skeleton))[0])


# ---------------------------------------------------------------------- #
# concrete-run semantics (ground truth)
# ---------------------------------------------------------------------- #


def run_satisfies(
    sentence: LtlFoSentence, run: LassoRun, database: Database
) -> bool:
    """Semantic satisfaction of an LTL-FO sentence by a concrete lasso run.

    Evaluates each proposition at each position from the actual data values
    and the database, then checks the LTL skeleton with the lasso oracle.
    Global variables are universally quantified.  The run and the database
    hold finitely many values, and values outside them are interchangeable:
    a valuation of ``m`` global variables uses at most ``m`` such values,
    and only their equalities among themselves matter.  So it suffices to
    check valuations drawn from the active domain, the run's values and
    ``m`` fresh values, one per global variable.
    """
    relevant: Set = set(database.active_domain())
    for row in run.data:
        relevant.update(row)
    supply = FreshSupply(used=relevant)
    candidates = sorted(relevant, key=repr) + [supply.take() for _ in sentence.global_vars]

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
