"""The 2-respecting minimum cut (Theorem 4.2) vs exhaustive search."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graphs import Graph, cycle_graph, random_connected_graph
from repro.pram import NULL_LEDGER, Ledger
from repro.primitives import postorder, root_tree, spanning_forest_graph
from repro.trees import binarize_parent
from repro.tworespect import (
    brute_force_two_respecting,
    collect_interest_tuples,
    find_interest_terminals,
    group_interested_pairs,
    two_respecting_min_cut,
)

from tests.conftest import assert_valid_cut, make_graph


def tree_of(g, root=0):
    ids, _ = spanning_forest_graph(g)
    return root_tree(g.n, g.u[ids], g.v[ids], root)


def binarized(parent):
    return postorder(binarize_parent(parent).parent)


class TestCorrectness:
    @pytest.mark.parametrize("decomposition", ["heavy", "bough"])
    def test_matches_brute_force_random(self, decomposition):
        rng = np.random.default_rng(17)
        for trial in range(12):
            n = int(rng.integers(4, 55))
            g = random_connected_graph(
                n, int(n * rng.uniform(1.2, 4)), rng=rng, max_weight=6
            )
            parent = tree_of(g)
            res = two_respecting_min_cut(g, parent, decomposition=decomposition)
            bval, _, _ = brute_force_two_respecting(g, binarized(parent))
            assert res.value == pytest.approx(bval)
            assert_valid_cut(g, res.value, res.side)

    def test_unweighted_ties(self):
        rng = np.random.default_rng(23)
        for trial in range(8):
            n = int(rng.integers(4, 45))
            g = random_connected_graph(n, n * 3, rng=rng, max_weight=1)
            parent = tree_of(g, root=int(rng.integers(0, n)))
            res = two_respecting_min_cut(g, parent)
            bval, _, _ = brute_force_two_respecting(g, binarized(parent))
            assert res.value == pytest.approx(bval)

    @pytest.mark.parametrize("branching", [2, 3, 8])
    def test_branching_invariant(self, branching):
        g = make_graph(40, 140, 31, max_weight=5)
        parent = tree_of(g)
        res = two_respecting_min_cut(g, parent, branching=branching)
        bval, _, _ = brute_force_two_respecting(g, binarized(parent))
        assert res.value == pytest.approx(bval)

    def test_cycle_with_its_path_tree(self):
        """Cycle + Hamiltonian-path tree: every adjacent pair cuts 2."""
        g = cycle_graph(12)
        parent = np.arange(-1, 11, dtype=np.int64)
        res = two_respecting_min_cut(g, parent)
        assert res.value == pytest.approx(2.0)

    def test_star_graph(self):
        """Star: min cut isolates a leaf; tree is the star itself."""
        edges = [(0, i, float(i)) for i in range(1, 8)]
        g = Graph.from_edges(8, edges)
        parent = np.zeros(8, dtype=np.int64)
        parent[0] = -1
        res = two_respecting_min_cut(g, parent)
        assert res.value == pytest.approx(1.0)

    def test_witness_edges_reported(self):
        g = make_graph(25, 70, 37)
        res = two_respecting_min_cut(g, tree_of(g))
        assert res.witness_edges is not None
        u, v = res.witness_edges
        assert u >= 0 and v >= 0


class TestValidation:
    def test_rejects_wrong_tree_length(self):
        g = make_graph(10, 25, 41)
        with pytest.raises(GraphFormatError):
            two_respecting_min_cut(g, np.zeros(5, dtype=np.int64))

    def test_rejects_tiny_graph(self):
        g = Graph.from_edges(1, [])
        with pytest.raises(GraphFormatError):
            two_respecting_min_cut(g, np.array([-1]))


class TestStatsAndAccounting:
    def test_stats_present(self):
        g = make_graph(40, 160, 43)
        res = two_respecting_min_cut(g, tree_of(g))
        assert res.stats["num_paths"] >= 1
        assert res.stats["oracle_queries"] > 0
        assert res.stats["tree_size_binarized"] >= g.n

    def test_interest_tuples_near_linear(self):
        """Claim 4.15 / Section 4.1.3: O(n log n) interest tuples."""
        g = make_graph(150, 600, 47)
        res = two_respecting_min_cut(g, tree_of(g))
        n = res.stats["tree_size_binarized"]
        assert res.stats["num_interest_tuples"] <= 4 * n * np.log2(n)

    def test_ledger_depth_polylog(self):
        g = make_graph(120, 500, 53)
        led = Ledger()
        two_respecting_min_cut(g, tree_of(g), ledger=led)
        # Theorem 4.2: O(log^2 n) depth; generous constant for the model
        assert led.depth <= 40 * np.log2(g.n) ** 2
        assert led.work > 0

    def test_phases_recorded(self):
        g = make_graph(30, 90, 59)
        led = Ledger()
        two_respecting_min_cut(g, tree_of(g), ledger=led)
        for phase in ("oracle-build", "single-path", "path-pairs", "interest-terminals"):
            assert phase in led.phases


class TestInterestPipeline:
    def test_terminals_inside_tree(self):
        from repro.rangesearch import CutOracle
        from repro.trees import centroid_decomposition

        g = make_graph(35, 120, 61)
        rt = binarized(tree_of(g))
        oracle = CutOracle(g, rt)
        cd = centroid_decomposition(rt)
        [(c_e, d_e)] = find_interest_terminals([oracle], [cd], [NULL_LEDGER])
        for u in range(rt.n):
            if rt.parent[u] < 0:
                assert c_e[u] == -1 and d_e[u] == -1
            else:
                assert 0 <= c_e[u] < rt.n
                # d_e lies inside e's own subtree
                assert rt.is_ancestor(u, int(d_e[u]))

    def test_terminals_match_brute_force(self):
        """The centroid-guided search (Claim 4.13) must return exactly
        the deepest cross-/down-interested node found by scanning every
        vertex — Claim 4.8 guarantees the scan's members form a chain."""
        from repro.rangesearch import CutOracle
        from repro.trees import centroid_decomposition

        rng = np.random.default_rng(67)
        for trial in range(4):
            g = make_graph(int(rng.integers(8, 45)), 130, trial + 70, max_weight=5)
            rt = binarized(tree_of(g))
            oracle = CutOracle(g, rt)
            cd = centroid_decomposition(rt)
            [(c_e, d_e)] = find_interest_terminals([oracle], [cd], [NULL_LEDGER])
            for u in range(rt.n):
                if rt.parent[u] < 0:
                    continue
                cross = [
                    x
                    for x in range(rt.n)
                    if rt.parent[x] >= 0 and oracle.cross_interested(u, x)
                ]
                expect_c = max(cross, key=lambda x: rt.depth[x], default=rt.root)
                assert c_e[u] == expect_c, (trial, u)
                down = [
                    x
                    for x in range(rt.n)
                    if rt.parent[x] >= 0 and oracle.down_interested(u, x)
                ]
                expect_d = max(down, key=lambda x: rt.depth[x], default=u)
                assert d_e[u] == expect_d, (trial, u)

    def test_tuples_group_mutually(self):
        tuples = [(1, 2, 10), (2, 1, 20), (1, 3, 11), (2, 1, 21)]
        pairs = group_interested_pairs(tuples)
        assert (1, 2) in pairs
        r, s = pairs[(1, 2)]
        assert r == [10] and sorted(s) == [20, 21]
        assert (1, 3) not in pairs  # no reverse direction

    def test_group_empty(self):
        assert group_interested_pairs([]) == {}
