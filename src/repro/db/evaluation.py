"""Evaluation of quantifier-free formulas and types over a database.

Given a database ``D``, a quantifier-free formula ``phi(x)`` and a valuation
``a`` for the free variables, this module decides ``D |= phi(a)``
(Section 2).  Types are evaluated as conjunctions of literals; constants are
resolved through the database's constant map.
"""

from typing import Dict, Mapping

from repro.foundations.domain import DataValue
from repro.foundations.errors import EvaluationError
from repro.foundations.interning import register_clear_listener
from repro.db.database import Database
from repro.logic.formulas import And, AtomFormula, FalseFormula, Formula, Not, Or, TrueFormula
from repro.logic.literals import EqAtom, Literal, RelAtom
from repro.logic.terms import Const, Term, Var, x_vars, y_vars
from repro.logic.types import SigmaType

#: A valuation assigns data values to variables.
Valuation = Mapping[Var, DataValue]


def resolve_term(term: Term, database: Database, valuation: Valuation) -> DataValue:
    """The data value denoted by *term* under the database and valuation."""
    if isinstance(term, Const):
        return database.constant_value(term.name)
    if term in valuation:
        return valuation[term]
    raise EvaluationError("no value for variable %r in the valuation" % term)


def evaluate_atom(atom, database: Database, valuation: Valuation) -> bool:
    """Truth of an atom under the database and valuation."""
    if isinstance(atom, EqAtom):
        return resolve_term(atom.left, database, valuation) == resolve_term(
            atom.right, database, valuation
        )
    if isinstance(atom, RelAtom):
        database.signature.validate_atom(atom)
        row = tuple(resolve_term(t, database, valuation) for t in atom.args)
        return database.holds(atom.relation, row)
    raise EvaluationError("unknown atom kind %r" % (atom,))


def evaluate_literal(literal: Literal, database: Database, valuation: Valuation) -> bool:
    """Truth of a literal under the database and valuation."""
    value = evaluate_atom(literal.atom, database, valuation)
    return value if literal.positive else not value


# Memoization of equality-type evaluation.  A type with no relational
# literals and no constants is a pure equality constraint on its variables:
# its truth depends only on *which variable values coincide*, not on the
# database or the values themselves.  Such evaluations are therefore cached
# per type under the valuation's equality pattern -- the tuple mapping each
# variable (in a fixed order, the "shape") to the first-occurrence index of
# its value.  Both the shape and the pattern memo live on the type instance
# itself (``SigmaType`` carries ``__dict__`` precisely for such caches, cf.
# ``closure``), so the hot path never hashes or compares whole types and
# entries die with the type.  With hash-consing the instance *is* the
# value: every construction of a structurally equal guard returns the same
# canonical object, so this per-instance memo silently became a per-value
# memo shared across all construction sites.  Stats are imported lazily:
# ``repro.core`` transitively imports this module, so a top-level import
# would be circular.
_EVAL_STATS = None


def _eval_stats():
    global _EVAL_STATS
    if _EVAL_STATS is None:
        from repro.foundations.stats import cache_stats

        _EVAL_STATS = cache_stats("db.evaluate_type")
    return _EVAL_STATS


def _guard_shape(delta: SigmaType):
    """The ordered variable tuple of a database-free type, else ``None``."""
    try:
        return delta.__dict__["_evaluation_shape"]
    except KeyError:
        if delta.constants or not delta.is_equality_type():
            shape = None
        else:
            shape = tuple(sorted(delta.variables, key=repr))
        delta.__dict__["_evaluation_shape"] = shape
        return shape


def evaluate_type(delta: SigmaType, database: Database, valuation: Valuation) -> bool:
    """Whether ``D |= delta(valuation)``: all literals hold."""
    shape = _guard_shape(delta)
    if shape is not None:
        try:
            values = [valuation[variable] for variable in shape]
        except KeyError:
            pass  # incomplete valuation: the direct path raises the right error
        else:
            first: Dict = {}
            pattern = tuple(first.setdefault(v, len(first)) for v in values)
            memo = delta.__dict__.get("_evaluation_memo")
            if memo is None:
                memo = delta.__dict__["_evaluation_memo"] = {}
            stats = _eval_stats()
            if pattern in memo:
                stats.hit()
                return memo[pattern]
            stats.miss()
            result = all(
                evaluate_literal(l, database, valuation) for l in delta.literals
            )
            memo[pattern] = result
            stats.note_entries(len(memo))
            return result
    return all(evaluate_literal(l, database, valuation) for l in delta.literals)


def evaluate_formula(formula: Formula, database: Database, valuation: Valuation) -> bool:
    """Truth of a quantifier-free formula under the database and valuation."""
    if isinstance(formula, TrueFormula):
        return True
    if isinstance(formula, FalseFormula):
        return False
    if isinstance(formula, AtomFormula):
        return evaluate_atom(formula.atom, database, valuation)
    if isinstance(formula, Not):
        return not evaluate_formula(formula.operand, database, valuation)
    if isinstance(formula, And):
        return all(evaluate_formula(op, database, valuation) for op in formula.operands)
    if isinstance(formula, Or):
        return any(evaluate_formula(op, database, valuation) for op in formula.operands)
    raise EvaluationError("unknown formula kind %r" % (formula,))


# Register-variable tuples by arity.  ``transition_valuation`` runs once
# per streamed/searched position; building ``Var("x%d" % i)`` there cost a
# string format plus an intern probe per register.  The tuples are tiny and
# the set of arities tinier, so a plain dict memo is the right shape.  The
# cached ``Var`` instances are interned values, so clearing the intern
# tables clears the memos (identity-is-equality would otherwise break
# across the clear).
_X_VARS: Dict[int, tuple] = {}
_Y_VARS: Dict[int, tuple] = {}

register_clear_listener(_X_VARS.clear)
register_clear_listener(_Y_VARS.clear)


def register_vars(kind: str, count: int) -> tuple:
    """The cached tuple ``(x1..x_count)`` or ``(y1..y_count)``."""
    memo = _X_VARS if kind == "x" else _Y_VARS
    found = memo.get(count)
    if found is None:
        found = memo[count] = x_vars(count) if kind == "x" else y_vars(count)
    return found


def transition_valuation(
    before: tuple, after: tuple, extra: Dict[Var, DataValue] = None
) -> Dict[Var, DataValue]:
    """The valuation sending ``x_i -> before[i-1]`` and ``y_i -> after[i-1]``.

    This is how transition guards are evaluated: *before* holds the register
    contents at the current position, *after* at the next one.  *extra* may
    supply values for additional variables (e.g. LTL-FO globals).
    """
    valuation: Dict[Var, DataValue] = dict(
        zip(register_vars("x", len(before)), before)
    )
    valuation.update(zip(register_vars("y", len(after)), after))
    if extra:
        valuation.update(extra)
    return valuation
