"""Tests for the TraceWindow analysis (classes, G_w, G^w_h, realisation)."""

import pytest

from repro import (
    ExtendedAutomaton,
    GlobalConstraint,
    RegisterAutomaton,
    SigmaType,
    Signature,
    X,
    Y,
    eq,
    neq,
    rel,
)
from repro.automata import Lasso
from repro.automata.regex import concat, literal, plus, star
from repro.core.tracewindow import TraceWindow
from repro.logic.terms import Const
from tests.helpers import cut_graph

EMPTY = SigmaType()


@pytest.fixture
def carry_trace():
    """1 register, value carried forever: one big class."""
    keep = SigmaType([eq(X(1), Y(1))])
    return Lasso((), (("q", keep),)), keep


@pytest.fixture
def fresh_trace():
    """1 register, value changes at every step: all classes distinct."""
    change = SigmaType([neq(X(1), Y(1))])
    return Lasso((), (("q", change),)), change


class TestClasses:
    def test_carried_value_single_class(self, carry_trace):
        trace, _keep = carry_trace
        window = TraceWindow(trace, 1, length=5)
        assert window.same_class((0, 1), (4, 1))

    def test_fresh_values_distinct_classes(self, fresh_trace):
        trace, _change = fresh_trace
        window = TraceWindow(trace, 1, length=5)
        assert not window.same_class((0, 1), (1, 1))
        assert len({window.class_of(i, 1) for i in range(5)}) == 5

    def test_no_ring_artifacts(self, fresh_trace):
        """The window is an unfolding, not a ring: no wrap identification."""
        trace, _change = fresh_trace
        window = TraceWindow(trace, 1, length=3)
        assert window.conflict() is None


class TestInequalityEdges:
    def test_local_edges(self, fresh_trace):
        trace, _change = fresh_trace
        window = TraceWindow(trace, 1, length=4)
        assert len(window.inequality_edges()) == 3  # adjacent pairs

    def test_global_constraint_edges(self):
        constraint = GlobalConstraint(
            "neq", 1, 1, concat(literal("q"), plus(literal("q")))
        )
        trace = Lasso((), (("q", EMPTY),))
        window = TraceWindow(
            trace,
            1,
            length=4,
            inequality_constraints=[constraint],
            states=frozenset({"q"}),
        )
        # all pairs distinct: 6 edges among 4 singleton classes
        assert len(window.inequality_edges()) == 6

    def test_conflict_detection(self):
        """A global inequality against a carried value conflicts."""
        keep = SigmaType([eq(X(1), Y(1))])
        constraint = GlobalConstraint(
            "neq", 1, 1, concat(literal("q"), plus(literal("q")))
        )
        trace = Lasso((), (("q", keep),))
        window = TraceWindow(
            trace,
            1,
            length=4,
            inequality_constraints=[constraint],
            states=frozenset({"q"}),
        )
        assert window.conflict() is not None

    def test_equality_constraints_merge_classes(self):
        constraint = GlobalConstraint(
            "eq", 1, 1, concat(literal("q"), plus(literal("q")))
        )
        trace = Lasso((), (("q", EMPTY),))
        window = TraceWindow(
            trace,
            1,
            length=4,
            equality_constraints=[constraint],
            states=frozenset({"q"}),
        )
        assert window.same_class((0, 1), (3, 1))


class TestAdomAndGraph:
    @pytest.fixture
    def db_trace(self):
        guard = SigmaType([rel("P", X(1)), neq(X(1), Y(1))])
        return Lasso((), (("p", guard),))

    def test_adom_classes(self, db_trace):
        window = TraceWindow(db_trace, 1, length=4)
        assert len(window.adom_classes()) == 4

    def test_constraint_graph_growth(self, db_trace):
        """All-distinct adom values: G_w clique grows with the window --
        the Example 8 signature of unrealisability."""
        constraint = GlobalConstraint(
            "neq", 1, 1, concat(literal("p"), plus(literal("p")))
        )
        small = TraceWindow(
            db_trace, 1, length=3,
            inequality_constraints=[constraint], states=frozenset({"p"}),
        )
        large = TraceWindow(
            db_trace, 1, length=6,
            inequality_constraints=[constraint], states=frozenset({"p"}),
        )
        from repro.core.emptiness import clique_number

        assert clique_number(*small.constraint_graph()) < clique_number(
            *large.constraint_graph()
        )

    def test_no_database_no_vertices(self, fresh_trace):
        trace, _ = fresh_trace
        window = TraceWindow(trace, 1, length=4)
        vertices, edges = window.constraint_graph()
        assert vertices == [] and edges == set()


class TestCutGraphs:
    def test_single_crossing_edge(self, fresh_trace):
        """x1 != y1 yields exactly one crossing edge at each interior cut."""
        trace, _ = fresh_trace
        window = TraceWindow(trace, 1, length=6)
        # the final position may extend beyond the window (treated as
        # straddling with the default margin), so stop one cut early
        for h in range(4):
            left, right, edges = cut_graph(window, h)
            assert len(edges) == 1

    def test_straddling_classes_excluded(self, carry_trace):
        trace, _ = carry_trace
        window = TraceWindow(trace, 1, length=6)
        left, right, edges = cut_graph(window, 2)
        # the single carried class straddles every cut: no vertices remain
        assert left == [] or right == []
        assert edges == set()

    def test_sweep_files_each_edge_under_its_cuts(self):
        """``cut_edges`` equals the one-cut reference at every cut, including
        pairs that name the right-hand class first (here ``x1 != c`` against
        the constant's class, which ends at position 0)."""
        c = Const("c")
        first = SigmaType([eq(X(1), c), neq(X(1), Y(1))])
        rest = SigmaType([neq(X(1), c), neq(X(1), Y(1))])
        window = TraceWindow(Lasso((("p", first),), (("q", rest),)), 1, length=8)
        cuts = window.cut_edges()
        assert len(cuts) == 6
        assert cuts == [cut_graph(window, h)[2] for h in range(len(cuts))]
        # the constant's class {x1@0, c} meets every class right of cut 0
        assert len(cuts[0]) == 6


class TestRealization:
    def test_realize_fresh(self, fresh_trace):
        trace, _ = fresh_trace
        window = TraceWindow(trace, 1, length=5)
        database, run = window.realize(Signature.empty())
        assert len({row[0] for row in run.data}) == 5

    def test_realize_carry(self, carry_trace):
        trace, _ = carry_trace
        window = TraceWindow(trace, 1, length=5)
        _database, run = window.realize(Signature.empty())
        assert len({row[0] for row in run.data}) == 1

    def test_realize_with_database_facts(self):
        signature = Signature(relations={"P": 1})
        guard = SigmaType([rel("P", X(1)), eq(X(1), Y(1))])
        trace = Lasso((), (("p", guard),))
        window = TraceWindow(trace, 1, length=4)
        database, run = window.realize(signature)
        assert database.size() >= 1
        value = run.data[0][0]
        assert database.holds("P", (value,))

    def test_realize_conflict_returns_none(self):
        keep = SigmaType([eq(X(1), Y(1))])
        constraint = GlobalConstraint(
            "neq", 1, 1, concat(literal("q"), plus(literal("q")))
        )
        trace = Lasso((), (("q", keep),))
        window = TraceWindow(
            trace, 1, length=4,
            inequality_constraints=[constraint], states=frozenset({"q"}),
        )
        assert window.realize(Signature.empty()) is None

    def test_positive_negative_clash_returns_none(self):
        from repro import nrel

        signature = Signature(relations={"P": 1})
        asserts = SigmaType([rel("P", X(1)), eq(X(1), Y(1))])
        denies = SigmaType([nrel("P", X(1)), eq(X(1), Y(1))])
        trace = Lasso((), (("a", asserts), ("b", denies)))
        window = TraceWindow(trace, 1, length=4)
        assert window.realize(signature) is None

    def test_ring_wraps_the_last_y_side_to_the_loop_start(self):
        # Two registers swap their values on every loop step.
        change = SigmaType([neq(X(1), Y(1)), neq(X(2), Y(2))])
        swap = SigmaType([eq(X(1), Y(2)), eq(X(2), Y(1))])
        trace = Lasso((("p", change),), (("q", swap),))
        # Unfolded once, the last step's y side names the loop start: the
        # swap then equates the two registers there.
        ring = TraceWindow(trace, 2, length=2, loop_start=1)
        assert ring.same_class((1, 1), (1, 2))
        _database, run = ring.realize(Signature.empty())
        assert run.data == (("w0", "w1"), ("w2", "w2"))
        # Unfolded twice, the swap closes up without identifying them.
        ring = TraceWindow(trace, 2, length=3, loop_start=1)
        assert ring.same_class((1, 1), (2, 2)) and not ring.same_class((1, 1), (1, 2))
        # Without loop_start the window stays open.
        assert not TraceWindow(trace, 2, length=2).same_class((1, 1), (1, 2))
        # A loop step x1 != y1 contradicts the wrap of a one-position ring.
        ring = TraceWindow(Lasso((), (("q", change),)), 2, length=1, loop_start=0)
        assert ring.realize(Signature.empty()) is None
