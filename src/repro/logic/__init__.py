"""Quantifier-free logic: terms, literals and sigma-types (Section 2).

The paper's transition guards are *types*: satisfiable quantifier-free
conjunctions of literals over the register variables ``x1..xk`` (values
before the transition), ``y1..yk`` (values after) and the constants of the
signature.  This subpackage provides:

* :mod:`repro.logic.terms` -- variables and constants, with the ``x``/``y``
  register-variable conventions,
* :mod:`repro.logic.literals` -- equality and relational atoms/literals,
* :mod:`repro.logic.closure` -- union-find based equality closure used for
  satisfiability and entailment,
* :mod:`repro.logic.types` -- :class:`SigmaType` with satisfiability,
  restriction, renaming, completion and agreement checking,
* :mod:`repro.logic.formulas` -- general quantifier-free formulas (used by
  LTL-FO propositions).
"""

from repro.logic.closure import EqualityClosure, UnionFind
from repro.logic.formulas import And, AtomFormula, FalseFormula, Formula, Not, Or, TrueFormula
from repro.logic.literals import Atom, EqAtom, Literal, RelAtom, eq, neq, rel, nrel
from repro.logic.terms import Const, Term, Var, X, Y, register_index, x_vars, y_vars
from repro.logic.types import SigmaType, agree, equality_type

__all__ = [
    "Term",
    "Var",
    "Const",
    "X",
    "Y",
    "x_vars",
    "y_vars",
    "register_index",
    "Atom",
    "EqAtom",
    "RelAtom",
    "Literal",
    "eq",
    "neq",
    "rel",
    "nrel",
    "UnionFind",
    "EqualityClosure",
    "SigmaType",
    "equality_type",
    "agree",
    "Formula",
    "AtomFormula",
    "And",
    "Or",
    "Not",
    "TrueFormula",
    "FalseFormula",
]
