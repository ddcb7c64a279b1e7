"""Range trees and the cut-query oracle vs brute force."""

import numpy as np
import pytest

from repro.graphs import random_connected_graph
from repro.pram import Ledger
from repro.primitives import postorder, root_tree, spanning_forest_graph
from repro.rangesearch import CutOracle, NaiveCutOracle
from repro.trees import binarize_parent

from tests.conftest import make_graph, make_rooted
from tests.reference_rangetree import RangeTree1D, RangeTree2D


class TestRangeTree1D:
    @pytest.mark.parametrize("branching", [2, 3, 5, 16])
    def test_matches_brute_force(self, branching):
        rng = np.random.default_rng(branching)
        for _ in range(15):
            n = int(rng.integers(0, 70))
            keys = rng.integers(0, 25, n)
            w = rng.random(n)
            t = RangeTree1D(keys, w, branching=branching)
            for _ in range(8):
                lo, hi = sorted(rng.integers(-3, 28, 2))
                expect = w[(keys >= lo) & (keys <= hi)].sum()
                assert t.query_value_range(int(lo), int(hi)) == pytest.approx(expect)

    def test_empty_interval(self):
        t = RangeTree1D(np.array([1, 2, 3]), np.ones(3))
        assert t.query_value_range(5, 2) == 0.0

    def test_index_range(self):
        t = RangeTree1D(np.array([3, 1, 2]), np.array([30.0, 10.0, 20.0]))
        assert t.query_index_range(0, 2) == 30.0  # sorted: keys 1,2

    def test_rejects_bad_branching(self):
        with pytest.raises(ValueError):
            RangeTree1D(np.array([1]), np.array([1.0]), branching=1)

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            RangeTree1D(np.array([1, 2]), np.array([1.0]))

    def test_stats_count_visits(self):
        t = RangeTree1D(np.arange(64), np.ones(64))
        t.query_value_range(5, 40)
        assert t.stats.queries == 1
        assert t.stats.nodes_visited > 0

    def test_larger_branching_visits_fewer_levels(self):
        """The Lemma 4.24 tradeoff: higher degree -> shallower tree."""
        keys = np.arange(4096)
        w = np.ones(4096)
        t2 = RangeTree1D(keys, w, branching=2)
        t16 = RangeTree1D(keys, w, branching=16)
        assert t16._depth < t2._depth

    def test_ledger_charged_per_query(self):
        led = Ledger()
        t = RangeTree1D(np.arange(32), np.ones(32))
        t.query_value_range(3, 29, ledger=led)
        assert led.work >= 1 and led.depth >= 1


class TestRangeTree2D:
    @pytest.mark.parametrize("branching", [2, 3, 7])
    def test_matches_brute_force(self, branching):
        rng = np.random.default_rng(100 + branching)
        for _ in range(12):
            n = int(rng.integers(0, 90))
            xs = rng.integers(0, 30, n)
            ys = rng.integers(0, 30, n)
            w = rng.random(n)
            t = RangeTree2D(xs, ys, w, branching=branching)
            for _ in range(8):
                x1, x2 = sorted(rng.integers(-2, 33, 2))
                y1, y2 = sorted(rng.integers(-2, 33, 2))
                expect = w[(xs >= x1) & (xs <= x2) & (ys >= y1) & (ys <= y2)].sum()
                got = t.query(int(x1), int(x2), int(y1), int(y2))
                assert got == pytest.approx(expect)

    def test_duplicate_coordinates(self):
        xs = np.array([5, 5, 5, 5])
        ys = np.array([1, 1, 2, 2])
        w = np.array([1.0, 2.0, 3.0, 4.0])
        t = RangeTree2D(xs, ys, w)
        assert t.query(5, 5, 1, 1) == 3.0
        assert t.query(5, 5, 1, 2) == 10.0

    def test_empty_rectangle(self):
        t = RangeTree2D(np.array([1]), np.array([1]), np.array([1.0]))
        assert t.query(2, 1, 0, 9) == 0.0

    def test_visit_counters(self):
        t = RangeTree2D(np.arange(128), np.arange(128), np.ones(128))
        before = t.total_nodes_visited
        t.query(10, 100, 0, 127)
        assert t.total_nodes_visited > before
        assert t.stats.queries == 1


class TestCutOracleVsNaive:
    def _pair(self, n, seed, branching=2):
        g = make_graph(n, 3 * n, seed, max_weight=6)
        _, rt = make_rooted(g)
        return g, rt, CutOracle(g, rt, branching=branching), NaiveCutOracle(g, rt)

    @pytest.mark.parametrize("branching", [2, 4])
    def test_cost(self, branching):
        g, rt, oracle, naive = self._pair(50, 1, branching)
        for u in range(1, rt.n):
            if rt.parent[u] < 0:
                continue
            assert oracle.cost(u) == pytest.approx(naive.cost(u))

    def test_cut_all_relationships(self):
        g, rt, oracle, naive = self._pair(40, 2)
        rng = np.random.default_rng(0)
        for _ in range(120):
            u, v = (int(x) for x in rng.integers(0, rt.n, 2))
            if rt.parent[u] < 0 or rt.parent[v] < 0:
                continue
            assert oracle.cut(u, v) == pytest.approx(naive.cut(u, v))

    def test_cross_cost_disjoint(self):
        g, rt, oracle, naive = self._pair(40, 3)
        rng = np.random.default_rng(1)
        found = 0
        for _ in range(300):
            u, v = (int(x) for x in rng.integers(0, rt.n, 2))
            if rt.parent[u] < 0 or rt.parent[v] < 0:
                continue
            if rt.is_ancestor(u, v) or rt.is_ancestor(v, u):
                continue
            assert oracle.cross_cost(u, v) == pytest.approx(naive.cross_cost(u, v))
            found += 1
        assert found > 20

    def test_down_cost_nested(self):
        g, rt, oracle, naive = self._pair(40, 4)
        rng = np.random.default_rng(2)
        found = 0
        for _ in range(400):
            u, v = (int(x) for x in rng.integers(0, rt.n, 2))
            if rt.parent[u] < 0 or rt.parent[v] < 0 or u == v:
                continue
            if rt.is_ancestor(v, u):
                assert oracle.down_cost(u, v) == pytest.approx(naive.down_cost(u, v))
                found += 1
        assert found > 10

    def test_cut_side_mask_consistent(self):
        g, rt, oracle, _ = self._pair(45, 5)
        rng = np.random.default_rng(3)
        for _ in range(60):
            u, v = (int(x) for x in rng.integers(0, rt.n, 2))
            if rt.parent[u] < 0 or rt.parent[v] < 0:
                continue
            side = oracle.cut_side_mask(u, v)
            if not side.any() or side.all():
                continue
            assert g.cut_value(side) == pytest.approx(oracle.cut(u, v))

    def test_one_respecting_side_mask(self):
        g, rt, oracle, _ = self._pair(30, 6)
        for u in range(g.n):
            if rt.parent[u] < 0:
                continue
            side = oracle.cut_side_mask(u)
            assert g.cut_value(side) == pytest.approx(oracle.cost(u))

    def test_cost_cached(self):
        g, rt, oracle, _ = self._pair(25, 7)
        u = int(rt.tree_edges()[0])
        a = oracle.cost(u)
        q_before = oracle.points.stats.queries
        assert oracle.cost(u) == a
        assert oracle.points.stats.queries == q_before  # cache hit

    def test_query_depth_positive(self):
        _, _, oracle, _ = self._pair(20, 8)
        assert oracle.query_depth >= 2


class TestInterestPredicates:
    """Definition 4.7 checked against direct mass computations."""

    def _mass_cross(self, g, rt, u, v):
        naive = NaiveCutOracle(g, rt)
        if rt.is_ancestor(v, u):
            return naive.cost(u) - naive.down_cost(u, v)
        return naive.cross_cost(u, v)

    def test_cross_interest_definition(self):
        g = make_graph(35, 120, 11, max_weight=5)
        _, rt = make_rooted(g)
        oracle = CutOracle(g, rt)
        naive = NaiveCutOracle(g, rt)
        rng = np.random.default_rng(4)
        for _ in range(150):
            u, v = (int(x) for x in rng.integers(0, rt.n, 2))
            if rt.parent[u] < 0 or rt.parent[v] < 0 or u == v:
                continue
            if rt.is_ancestor(u, v):
                assert not oracle.cross_interested(u, v)
                continue
            expect = naive.cost(u) < 2 * self._mass_cross(g, rt, u, v)
            assert oracle.cross_interested(u, v) == expect

    def test_down_interest_definition(self):
        g = make_graph(35, 120, 12, max_weight=5)
        _, rt = make_rooted(g)
        oracle = CutOracle(g, rt)
        naive = NaiveCutOracle(g, rt)
        rng = np.random.default_rng(5)
        for _ in range(300):
            u, v = (int(x) for x in rng.integers(0, rt.n, 2))
            if rt.parent[u] < 0 or rt.parent[v] < 0 or u == v:
                continue
            if not rt.is_ancestor(u, v):
                assert not oracle.down_interested(u, v)
            else:
                expect = naive.cost(u) < 2 * naive.down_cost(v, u)
                assert oracle.down_interested(u, v) == expect

    def test_claim_4_8_contiguity(self):
        """Cross-interested edges of e form one root-descending path."""
        g = make_graph(30, 100, 13, max_weight=4)
        _, rt = make_rooted(g)
        oracle = CutOracle(g, rt)
        kids = rt.children_lists()
        for u in range(rt.n):
            if rt.parent[u] < 0:
                continue
            members = [
                x
                for x in range(rt.n)
                if rt.parent[x] >= 0 and oracle.cross_interested(u, x)
            ]
            # each member's parent chain up to root must be all members
            mset = set(members)
            for x in members:
                p = int(rt.parent[x])
                while rt.parent[p] >= 0:
                    assert p in mset, (u, x, p)
                    p = int(rt.parent[p])
            # at most one member per sibling group on the path
            for x in members:
                siblings = [s for s in kids[int(rt.parent[x])] if s in mset]
                assert len(siblings) == 1
