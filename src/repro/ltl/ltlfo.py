"""LTL-FO: temporal properties of runs (Definition 11).

An LTL-FO sentence is ``forall z . phi_f`` where ``phi`` is an LTL skeleton
over propositions ``P`` and ``f`` maps each proposition to a quantifier-free
FO formula over the register variables ``x1..xk`` (current position),
``y1..yk`` (next position) and the global variables ``z``.

Two evaluation modes are provided:

* **concrete** -- against a run prefix and a database
  (:meth:`LtlFoSentence.holds_on_prefix` is in
  :mod:`repro.core.verification`, which owns run objects);
* **symbolic** -- against a *complete* control trace: a complete type
  settles every atom over ``x``, ``y`` and the constants, so each
  proposition's truth at a position is determined
  (:func:`evaluate_formula_under_type`).  This is the observation the paper
  uses to reduce Theorem 12 to omega-automata emptiness.  When the type
  is a partition code of the coded kernel, :func:`code_assignment` reads
  the letter off the code's bits instead.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.db.schema import Signature
from repro.foundations.errors import EvaluationError, SpecificationError
from repro.logic.formulas import And, AtomFormula, FalseFormula, Formula, Not, Or, TrueFormula
from repro.logic.literals import EqAtom, Literal, RelAtom
from repro.logic.terms import Const, Term, Var, register_index
from repro.logic.types import SigmaType, pair_bit
from repro.ltl.syntax import LtlFormula


@dataclass(frozen=True)
class LtlFoSentence:
    """``forall z . phi_f``: an LTL skeleton plus its proposition mapping.

    Parameters
    ----------
    skeleton:
        The LTL formula over abstract propositions.
    propositions:
        Mapping from proposition name to its quantifier-free FO definition.
    global_vars:
        The universally quantified global variables ``z`` (may be empty).

    Examples
    --------
    "Whenever register 1 equals register 2, eventually register 1 is z":

    >>> from repro.ltl import Globally, Eventually, Prop
    >>> from repro.logic.formulas import atom_eq
    >>> from repro.logic.terms import X, Var
    >>> sentence = LtlFoSentence(
    ...     skeleton=Globally(Prop("eq12")),
    ...     propositions={"eq12": atom_eq(X(1), X(2))},
    ... )
    """

    skeleton: LtlFormula
    propositions: Dict[str, Formula] = field(default_factory=dict)
    global_vars: Tuple[Var, ...] = ()

    def __post_init__(self) -> None:
        used = self.skeleton.propositions()
        missing = used - set(self.propositions)
        if missing:
            raise SpecificationError(
                "propositions without an FO definition: %s" % sorted(missing)
            )
        for name, formula in self.propositions.items():
            for term in formula.free_terms():
                if not isinstance(term, Var):
                    continue
                if register_index(term) is None and term not in self.global_vars:
                    raise SpecificationError(
                        "proposition %r uses variable %r which is neither a "
                        "register variable nor a declared global" % (name, term)
                    )

    def has_globals(self) -> bool:
        return bool(self.global_vars)


def evaluate_formula_under_type(formula: Formula, delta: SigmaType) -> bool:
    """Truth of a quantifier-free formula under a *complete* type.

    In a complete control trace, the type at each position settles every
    atom over ``x``, ``y`` and the constants; this evaluates an arbitrary
    boolean combination under that settled valuation.  Raises
    :class:`EvaluationError` when the type leaves some atom open (i.e. the
    type is not complete enough for the formula).
    """
    if isinstance(formula, TrueFormula):
        return True
    if isinstance(formula, FalseFormula):
        return False
    if isinstance(formula, AtomFormula):
        positive = Literal(formula.atom, True)
        if delta.entails(positive):
            return True
        if delta.entails(positive.negate()):
            return False
        raise EvaluationError(
            "atom %r is not settled by the type %s (type not complete?)"
            % (formula.atom, delta.pretty())
        )
    if isinstance(formula, Not):
        return not evaluate_formula_under_type(formula.operand, delta)
    if isinstance(formula, And):
        return all(evaluate_formula_under_type(op, delta) for op in formula.operands)
    if isinstance(formula, Or):
        return any(evaluate_formula_under_type(op, delta) for op in formula.operands)
    raise EvaluationError("unknown formula kind %r" % (formula,))


def proposition_assignment(
    sentence: LtlFoSentence, delta: SigmaType
) -> FrozenSet[str]:
    """The truth assignment induced by a complete type at a position.

    Returns the set of proposition names whose FO definition is entailed by
    *delta* -- the letter the control trace feeds to the property automaton.
    """
    return frozenset(
        name
        for name, formula in sentence.propositions.items()
        if evaluate_formula_under_type(formula, delta)
    )


def _atoms(formula: Formula):
    """The atoms of a quantifier-free formula, left to right."""
    if isinstance(formula, AtomFormula):
        yield formula.atom
    elif isinstance(formula, Not):
        yield from _atoms(formula.operand)
    elif isinstance(formula, (And, Or)):
        for operand in formula.operands:
            yield from _atoms(operand)


def check_registers(sentence: LtlFoSentence, k: int) -> None:
    """Raise :class:`EvaluationError` when an atom reads a register beyond *k*.

    No complete type over registers ``1..k`` settles such an atom (``t =
    t`` aside, which every type entails).  ``verify`` checks against the
    register count before Proposition 6: the registers it adds carry the
    elimination's bookkeeping, not data a property may read.
    """
    for formula in sentence.propositions.values():
        for atom in _atoms(formula):
            if isinstance(atom, EqAtom) and atom.left == atom.right:
                continue
            for term in atom.terms:
                index = register_index(term)
                if index is not None and index[1] > k:
                    raise EvaluationError(
                        "atom %r is not settled by any complete type: register %d "
                        "is beyond k=%d" % (atom, index[1], k)
                    )


def check_signature(sentence: LtlFoSentence, signature: Signature) -> None:
    """Raise :class:`EvaluationError` when an atom names a relation or a
    constant outside *signature*.

    No complete type over *signature* settles such an atom, so ``verify``
    refuses the sentence before building a normal form.
    """
    for formula in sentence.propositions.values():
        for atom in _atoms(formula):
            if isinstance(atom, RelAtom) and atom.relation not in signature.relations:
                raise EvaluationError(
                    "atom %r names relation %r, which is not in the signature"
                    % (atom, atom.relation)
                )
            for term in atom.terms:
                if isinstance(term, Const) and term.name not in signature.constants:
                    raise EvaluationError(
                        "atom %r names constant %r, which is not in the signature"
                        % (atom, term.name)
                    )


def code_assignment(
    sentence: LtlFoSentence, k: int
) -> Optional[Callable[[int], FrozenSet[str]]]:
    """:func:`proposition_assignment` over completion codes, or ``None``.

    A completion code (:func:`repro.logic.types.guard_completion_search`
    over ``x1..xk, y1..yk``) is a set partition of the ``2k`` variables,
    so the complete type it stands for entails ``u = v`` exactly when the
    pair's bit is set and ``u != v`` otherwise: one bit test per atom.
    ``t = t`` holds under every type.  Returns ``None`` when some other
    atom is not an equality of two register variables of ``1..k`` -- a
    relation, a constant, a register beyond ``k`` -- which only a literal
    type can settle (or refuse to, with :class:`EvaluationError`).
    """
    width = 2 * k

    def position(term: Term) -> Optional[int]:
        index = register_index(term)
        if index is None or not 1 <= index[1] <= k:
            return None
        return index[1] if index[0] == "x" else k + index[1]

    def compile_formula(formula: Formula) -> Optional[Callable[[int], bool]]:
        if isinstance(formula, TrueFormula):
            return lambda code: True
        if isinstance(formula, FalseFormula):
            return lambda code: False
        if isinstance(formula, AtomFormula):
            atom = formula.atom
            if not isinstance(atom, EqAtom):
                return None
            if atom.left == atom.right:
                return lambda code: True  # every type entails t = t
            left, right = position(atom.left), position(atom.right)
            if left is None or right is None:
                return None
            bit = pair_bit(left, right, width)
            return lambda code: bool(code >> bit & 1)
        if isinstance(formula, Not):
            operand = compile_formula(formula.operand)
            return None if operand is None else lambda code: not operand(code)
        if isinstance(formula, (And, Or)):
            operands = [compile_formula(op) for op in formula.operands]
            if None in operands:
                return None
            combine = all if isinstance(formula, And) else any
            return lambda code: combine(op(code) for op in operands)
        return None

    tests = [(name, compile_formula(f)) for name, f in sentence.propositions.items()]
    if any(test is None for _name, test in tests):
        return None
    return lambda code: frozenset(name for name, test in tests if test(code))
