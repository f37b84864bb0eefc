"""Inputs of the pipeline benchmark: paper instances and seeded families.

Every function here depends only on its arguments, so one seed always
yields the same inputs.  The random families are *presentations of a
fixed base corpus*: the base automata come from fixed family seeds, and
``--seed`` draws a random isomorphic copy of each -- renamed states,
permuted registers, shuffled transitions, with constraints and formula
atoms renamed to match.  Every search in the library is ordered by
``repr``, so each seed hands the program genuinely different inputs
(other search orders, other witnesses), while the difficulty of the
corpus stays fixed.  Fresh draws of these heavy-tailed families moved
throughput and tail latency by more from seed to seed than any useful
regression bound (README.md gives the measurements).

The families are generators: the workloads build each input just before
its timed call, so set-up does not grow with the amount of work.
"""

import random
from typing import Dict, Iterator, List, Tuple

from repro.automata.regex import concat, literal, plus, star
from repro.core.extended import ExtendedAutomaton, GlobalConstraint
from repro.core.register_automaton import RegisterAutomaton, Transition
from repro.db.schema import Signature
from repro.generators.automata import random_constraint_regex, random_register_automaton
from repro.logic.formulas import atom_eq
from repro.logic.literals import eq, nrel, rel
from repro.logic.terms import X, Y
from repro.logic.types import SigmaType
from repro.ltl import Eventually, Globally, Prop
from repro.ltl.ltlfo import LtlFoSentence
from repro.ltl.syntax import Not_, Or_


# ---------------------------------------------------------------------- #
# the paper's worked examples
# ---------------------------------------------------------------------- #


def example1() -> RegisterAutomaton:
    """Example 1: two registers, no database."""
    d1 = SigmaType([eq(X(1), X(2)), eq(X(2), Y(2))])
    d2 = SigmaType([eq(X(2), Y(2))])
    d3 = SigmaType([eq(X(2), Y(2)), eq(Y(1), Y(2))])
    return RegisterAutomaton(
        2,
        Signature.empty(),
        {"q1", "q2"},
        {"q1"},
        {"q1"},
        [("q1", d1, "q2"), ("q2", d2, "q2"), ("q2", d3, "q1")],
    )


def example7() -> ExtendedAutomaton:
    """Example 7: one register, all values pairwise distinct."""
    base = RegisterAutomaton(
        1, Signature.empty(), {"q"}, {"q"}, {"q"}, [("q", SigmaType(), "q")]
    )
    return ExtendedAutomaton(
        base, [GlobalConstraint("neq", 1, 1, concat(literal("q"), plus(literal("q"))))]
    )


def example8(p_only: bool = False) -> ExtendedAutomaton:
    """Example 8 (unary P, p-blocks distinct); *p_only* keeps just ``p^omega``."""
    signature = Signature(relations={"P": 1})
    guard = SigmaType([rel("P", X(1))])
    if p_only:
        base = RegisterAutomaton(1, signature, {"p"}, {"p"}, {"p"}, [("p", guard, "p")])
    else:
        base = RegisterAutomaton(
            1,
            signature,
            {"p", "q"},
            {"p"},
            {"p", "q"},
            [("p", guard, "p"), ("p", guard, "q"), ("q", guard, "q"), ("q", guard, "p")],
        )
    p_block = concat(literal("p"), star(literal("p")), literal("p"))
    return ExtendedAutomaton(base, [GlobalConstraint("neq", 1, 1, p_block)])


def example23(ternary: bool = False) -> RegisterAutomaton:
    """Example 23: alternating E-membership; *ternary* uses the ternary E variant."""
    signature = Signature(relations={"E": 3 if ternary else 2, "U": 1})
    if ternary:
        edge = (X(1), X(2), Y(1))
    else:
        edge = (X(2), X(1))
    delta = SigmaType([eq(X(2), Y(2)), rel("U", X(1)), rel("E", *edge)])
    delta_neg = SigmaType([eq(X(2), Y(2)), rel("U", X(1)), nrel("E", *edge)])
    return RegisterAutomaton(
        2, signature, {"p", "q"}, {"p"}, {"p"}, [("p", delta, "q"), ("q", delta_neg, "p")]
    )


def paper_emptiness_instances() -> List[Tuple[str, ExtendedAutomaton, str]]:
    """``(name, automaton, hand-known verdict)`` for the emptiness workload.

    Example 8 restricted to ``p^omega`` is empty, but no finite bound
    certifies it, so the library answers ``empty=True, exact=False``; the
    oracle accepts any answer with ``empty`` set there.
    """
    return [
        ("example7", example7(), "nonempty"),
        ("example8", example8(), "nonempty"),
        ("example8-p-only", example8(p_only=True), "empty"),
        ("example1", ExtendedAutomaton(example1(), []), "nonempty"),
    ]


# ---------------------------------------------------------------------- #
# presentations of a fixed base corpus
# ---------------------------------------------------------------------- #


class Presentation:
    """A random isomorphic renaming: states, registers, transition order."""

    def __init__(self, automaton: RegisterAutomaton, rng: random.Random):
        k = automaton.k
        order = list(range(1, k + 1))
        rng.shuffle(order)
        #: original register -> its register in the copy
        self.registers: Dict[int, int] = dict(zip(range(1, k + 1), order))
        terms = {X(i): X(j) for i, j in self.registers.items()}
        terms.update({Y(i): Y(j) for i, j in self.registers.items()})
        originals = sorted(automaton.states)
        names = rng.sample(range(10 * len(originals) + 10), len(originals))
        states = {state: "q%d" % name for state, name in zip(originals, names)}
        #: the renamed states, listed in the order of the original names
        self.ordered_states = [states[state] for state in originals]
        transitions = [
            Transition(states[t.source], t.guard.rename(terms), states[t.target])
            for t in automaton.transitions
        ]
        rng.shuffle(transitions)
        self.automaton = RegisterAutomaton(
            k,
            automaton.signature,
            self.ordered_states,
            {states[state] for state in automaton.initial},
            {states[state] for state in automaton.accepting},
            transitions,
        )


def _base_rng(family: str, index: int) -> random.Random:
    return random.Random("%s:base:%d" % (family, index))


def _with_inequalities(
    base_rng: random.Random, shown: Presentation, count: int
) -> ExtendedAutomaton:
    """*shown* with *count* random ``neq`` constraints drawn from *base_rng*.

    The constraints are drawn over the renamed states in original-name
    order, so every seed sees the same constraints up to renaming.
    """
    k = shown.automaton.k
    constraints = []
    for _ in range(count):
        i, j = base_rng.randrange(1, k + 1), base_rng.randrange(1, k + 1)
        expression = random_constraint_regex(base_rng, shown.ordered_states)
        constraints.append(
            GlobalConstraint("neq", shown.registers[i], shown.registers[j], expression)
        )
    return ExtendedAutomaton(shown.automaton, constraints)


def emptiness_corpus(seed: int, count: int) -> Iterator[ExtendedAutomaton]:
    """Random extended automata with 0-2 ``neq`` constraints, presented by *seed*.

    ``k`` is 1 or 2 (weights 1:2), 2-3 states, ``n + 0..3`` transitions.
    Equality constraints are left out: Prop 6 makes even tiny instances
    intractable, which would put every draw on the deadline.
    """
    rng = random.Random("emptiness-random:%d" % seed)
    for index in range(count):
        base_rng = _base_rng("emptiness-random", index)
        k = base_rng.choice((1, 2, 2))
        n_states = base_rng.randint(2, 3)
        base = random_register_automaton(
            base_rng, k=k, n_states=n_states, n_transitions=n_states + base_rng.randint(0, 3)
        )
        yield _with_inequalities(base_rng, Presentation(base, rng), base_rng.randint(0, 2))


def projection_ra_corpus(seed: int, count: int) -> Iterator[RegisterAutomaton]:
    """Random k=2 register automata (2 states, 3 transitions), presented by *seed*."""
    rng = random.Random("role-views:ra:%d" % seed)
    for index in range(count):
        base = random_register_automaton(
            _base_rng("role-views-ra", index), k=2, n_states=2, n_transitions=3
        )
        yield Presentation(base, rng).automaton


def projection_extended_corpus(seed: int, count: int) -> Iterator[ExtendedAutomaton]:
    """Random k=2 extended automata with one ``neq`` constraint, presented by *seed*."""
    rng = random.Random("role-views:ext:%d" % seed)
    for index in range(count):
        base_rng = _base_rng("role-views-ext", index)
        base = random_register_automaton(base_rng, k=2, n_states=2, n_transitions=3)
        yield _with_inequalities(base_rng, Presentation(base, rng), 1)


#: LTL templates over propositions p and q, in the order the corpus cycles.
LTL_TEMPLATES = (
    ("F p", lambda p, q: Eventually(p)),
    ("G p", lambda p, q: Globally(p)),
    ("G(p -> F q)", lambda p, q: Globally(Or_(Not_(p), Eventually(q)))),
    ("GF p", lambda p, q: Globally(Eventually(p))),
    ("FG p", lambda p, q: Eventually(Globally(p))),
    ("G(p -> FG q)", lambda p, q: Globally(Or_(Not_(p), Eventually(Globally(q))))),
)


def ltl_corpus(seed: int, count: int) -> Iterator[Tuple[str, ExtendedAutomaton, LtlFoSentence]]:
    """``(template, automaton, sentence)`` triples, presented by *seed*.

    Instance ``i`` uses template ``i mod 6`` and ``k = (1, 2, 2)[(i // 6)
    mod 3]``, so every template meets every register count; 2-4 states,
    3-6 transitions.  Atoms are ``x_a = x_b`` or ``x_a = y_b``, negated
    with probability 0.3.
    """
    rng = random.Random("ltl-verify:%d" % seed)
    for index in range(count):
        base_rng = _base_rng("ltl-verify", index)
        k = (1, 2, 2)[(index // len(LTL_TEMPLATES)) % 3]
        base = random_register_automaton(
            base_rng, k=k, n_states=base_rng.randint(2, 4), n_transitions=base_rng.randint(3, 6)
        )
        shown = Presentation(base, rng)

        def atom():
            a, b = base_rng.randint(1, k), base_rng.randint(1, k)
            right = Y if base_rng.random() < 0.5 else X
            formula = atom_eq(X(shown.registers[a]), right(shown.registers[b]))
            return ~formula if base_rng.random() < 0.3 else formula

        name, template = LTL_TEMPLATES[index % len(LTL_TEMPLATES)]
        sentence = LtlFoSentence(
            skeleton=template(Prop("p"), Prop("q")),
            propositions={"p": atom(), "q": atom()},
        )
        yield name, ExtendedAutomaton(shown.automaton, []), sentence
