"""Finite and omega-automata: the regular-language substrate.

Every use of MSO in the paper is over omega-strings, where MSO definability
coincides with omega-regularity (Buchi's theorem, [7] in the paper), so the
library works directly with automata:

* :mod:`repro.automata.words` -- ultimately periodic omega-words (lassos),
  the finite representation of the infinite runs and traces,
* :mod:`repro.automata.regex` -- regular-expression combinators (and a small
  parser) over arbitrary hashable alphabets; the paper's global constraints
  ``e=_{ij}`` / ``e!=_{ij}`` are such regexes over the state set Q,
* :mod:`repro.automata.nfa` / :mod:`repro.automata.dfa` -- classical
  finite-word automata with determinisation, minimisation, products,
  complement and equivalence checking,
* :mod:`repro.automata.buchi` -- nondeterministic Buchi automata with lasso
  membership, emptiness (with lasso witness extraction), intersection
  (flagged, or searched on the fly by :class:`BuchiProduct`), union, and
  degeneralisation of generalized Buchi acceptance.
"""

from repro.automata.buchi import BuchiAutomaton, BuchiProduct, GeneralizedBuchiAutomaton
from repro.automata.dfa import Dfa
from repro.automata.nfa import Nfa
from repro.automata.regex import (
    Concat,
    EmptyLanguage,
    Epsilon,
    Regex,
    Star,
    Symbol,
    Union,
    concat,
    literal,
    parse_regex,
    plus,
    star,
    union,
)
from repro.automata.words import Lasso

__all__ = [
    "Lasso",
    "Regex",
    "EmptyLanguage",
    "Epsilon",
    "Symbol",
    "Concat",
    "Union",
    "Star",
    "literal",
    "concat",
    "union",
    "star",
    "plus",
    "parse_regex",
    "Nfa",
    "Dfa",
    "BuchiAutomaton",
    "BuchiProduct",
    "GeneralizedBuchiAutomaton",
]
