"""Parallel primitives: DSU, sorting, spanning forest, MST, Euler tour,
binomial sampling."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graphs import Graph, random_connected_graph
from repro.pram import Ledger
from repro.primitives import (
    DisjointSets,
    capped_binomial,
    binomial_layer_counts,
    minimum_spanning_forest,
    parallel_argsort,
    parallel_sort_ranks,
    postorder,
    root_tree,
    spanning_forest,
    spanning_forest_graph,
    tree_depths,
)


class TestDSU:
    def test_union_find(self):
        d = DisjointSets(5)
        assert d.union(0, 1)
        assert not d.union(1, 0)
        assert d.find(0) == d.find(1)
        assert d.find(2) != d.find(0)

    def test_labels_fully_compressed(self):
        d = DisjointSets(6)
        for a, b in [(0, 1), (1, 2), (3, 4)]:
            d.union(a, b)
        lab = d.labels()
        assert lab[0] == lab[1] == lab[2]
        assert lab[3] == lab[4]
        assert lab[5] == 5

    def test_union_by_size(self):
        d = DisjointSets(4)
        d.union(0, 1)
        d.union(0, 2)
        d.union(3, 0)  # size-1 root merges under size-3 root
        assert d.find(3) == d.find(0)


class TestSort:
    def test_argsort_stable(self):
        keys = np.array([2, 1, 2, 0])
        order = parallel_argsort(keys)
        assert order.tolist() == [3, 1, 0, 2]

    def test_ranks_are_permutation(self):
        ranks = parallel_sort_ranks(np.array([5.0, 5.0, 1.0]))
        assert sorted(ranks.tolist()) == [0, 1, 2]
        assert ranks[2] == 0  # smallest key gets rank 0

    def test_charges_linear_work(self):
        led = Ledger()
        parallel_argsort(np.arange(64), ledger=led)
        assert led.work == 64
        assert led.depth == 6


class TestSpanningForest:
    def test_tree_on_connected(self):
        g = random_connected_graph(60, 200, rng=1)
        ids, labels = spanning_forest_graph(g)
        assert ids.shape[0] == g.n - 1
        assert len(np.unique(labels)) == 1

    def test_forest_on_disconnected(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        ids, labels = spanning_forest(g.n, g.u, g.v)
        assert ids.shape[0] == 3
        assert len(np.unique(labels)) == 3

    def test_forest_is_acyclic_and_spanning(self):
        g = random_connected_graph(40, 150, rng=2)
        ids, _ = spanning_forest_graph(g)
        sub = g.subgraph_edges(ids)
        assert sub.is_connected()

    def test_empty_edges(self):
        ids, labels = spanning_forest(4, np.empty(0, np.int64), np.empty(0, np.int64))
        assert ids.size == 0
        assert labels.tolist() == [0, 1, 2, 3]

    def test_rounds_charged(self):
        led = Ledger()
        g = random_connected_graph(100, 300, rng=3)
        spanning_forest_graph(g, ledger=led)
        assert led.work > 0
        # Boruvka: at most ceil(log2 n) rounds, each O(log n) depth
        assert led.depth <= (np.log2(100) + 1) ** 2 + 10


class TestMST:
    def test_matches_networkx(self):
        import networkx as nx

        for seed in range(5):
            g = random_connected_graph(50, 180, rng=seed, max_weight=9)
            ids, _ = minimum_spanning_forest(g.n, g.u, g.v, g.w)
            expect = nx.minimum_spanning_tree(g.to_networkx()).size(weight="weight")
            assert g.w[ids].sum() == pytest.approx(expect)

    def test_deterministic_tie_break(self):
        g = random_connected_graph(30, 120, rng=4, max_weight=1)
        a, _ = minimum_spanning_forest(g.n, g.u, g.v, g.w)
        b, _ = minimum_spanning_forest(g.n, g.u, g.v, g.w)
        assert a.tolist() == b.tolist()

    def test_respects_keys_not_weights(self):
        g = Graph.from_edges(3, [(0, 1, 10.0), (1, 2, 10.0), (0, 2, 10.0)])
        keys = np.array([5.0, 1.0, 0.5])
        ids, _ = minimum_spanning_forest(g.n, g.u, g.v, keys)
        assert sorted(ids.tolist()) == [1, 2]

    def test_hooking_matches_dsu_merges(self):
        """Borůvka's merge by min-label hooking chooses the forest the
        per-winner DisjointSets merge chose, with the same label classes
        and the same charges."""
        from repro.pram.combinators import log2ceil
        from repro.primitives import boruvka_forest_from_ranks

        def dsu_boruvka(n, u, v, rank, ledger):
            labels = np.arange(n, dtype=np.int64)
            if u.shape[0] == 0 or n == 0:
                return np.empty(0, np.int64), labels
            dsu = DisjointSets(n)
            by_rank = np.empty(u.shape[0], dtype=np.int64)
            by_rank[rank] = np.arange(u.shape[0])
            live = np.arange(u.shape[0])
            chosen = []
            top = np.iinfo(np.int64).max
            while live.size:
                lu, lv = labels[u[live]], labels[v[live]]
                cross = lu != lv
                live = live[cross]
                if live.size == 0:
                    break
                best = np.full(n, top, dtype=np.int64)
                np.minimum.at(best, lu[cross], rank[live])
                np.minimum.at(best, lv[cross], rank[live])
                winners = np.unique(best[best != top])
                for rk in winners:
                    e = int(by_rank[rk])
                    if dsu.union(int(u[e]), int(v[e])):
                        chosen.append(e)
                labels = dsu.labels()
                ledger.charge(
                    work=float(live.size + n + winners.size),
                    depth=float(log2ceil(max(n, 2)) + 1),
                )
            return np.asarray(sorted(chosen), dtype=np.int64), labels

        rng = np.random.default_rng(21)
        for _ in range(120):
            n = int(rng.integers(1, 150))
            m = int(rng.integers(0, 4 * n + 1))
            u = rng.integers(0, n, m)
            v = rng.integers(0, n, m)  # self-loops and parallel edges too
            rank = rng.permutation(m).astype(np.int64)
            got_led, want_led = Ledger(), Ledger()
            ids, labels = boruvka_forest_from_ranks(n, u, v, rank, ledger=got_led)
            want_ids, want_labels = dsu_boruvka(n, u, v, rank, want_led)
            assert np.array_equal(ids, want_ids)
            assert np.array_equal(
                labels[:, None] == labels[None, :],
                want_labels[:, None] == want_labels[None, :],
            )
            assert (got_led.work, got_led.depth) == (want_led.work, want_led.depth)


class TestEuler:
    def test_root_tree_orients_away_from_root(self):
        g = random_connected_graph(30, 29, rng=5)  # a tree
        ids, _ = spanning_forest_graph(g)
        parent = root_tree(g.n, g.u[ids], g.v[ids], root=7)
        assert parent[7] == -1
        assert (parent >= 0).sum() == g.n - 1

    def test_root_tree_rejects_wrong_edge_count(self):
        with pytest.raises(GraphFormatError):
            root_tree(3, np.array([0]), np.array([1]), 0)

    def test_root_tree_rejects_disconnected(self):
        with pytest.raises(GraphFormatError):
            root_tree(4, np.array([0, 2]), np.array([1, 3]), 0)

    def test_postorder_contract(self):
        """start(u) = post(u) - size(u) + 1 and subtree = contiguous range."""
        g = random_connected_graph(80, 240, rng=6)
        ids, _ = spanning_forest_graph(g)
        parent = root_tree(g.n, g.u[ids], g.v[ids], 0)
        rt = postorder(parent)
        assert rt.post[rt.root] == g.n - 1
        assert rt.size[rt.root] == g.n
        for u in range(g.n):
            s, p = int(rt.start(u)), int(rt.post[u])
            members = set(rt.order[s : p + 1].tolist())
            # verify by parent walk
            for x in range(g.n):
                walk = x
                inside = False
                while walk != -1:
                    if walk == u:
                        inside = True
                        break
                    walk = int(parent[walk])
                assert inside == (x in members)

    def test_is_ancestor(self):
        parent = np.array([-1, 0, 1, 1, 0])
        rt = postorder(parent)
        assert rt.is_ancestor(0, 3)
        assert rt.is_ancestor(1, 2)
        assert not rt.is_ancestor(4, 1)
        assert rt.is_ancestor(2, 2)

    def test_depths(self):
        parent = np.array([-1, 0, 1, 2])
        assert tree_depths(parent).tolist() == [0, 1, 2, 3]

    def test_postorder_rejects_multiple_roots(self):
        with pytest.raises(GraphFormatError):
            postorder(np.array([-1, -1, 0]))

    def test_postorder_rejects_cycle(self):
        with pytest.raises(GraphFormatError):
            postorder(np.array([-1, 2, 1]))

    def test_tree_edges_and_children(self):
        parent = np.array([-1, 0, 0, 1])
        rt = postorder(parent)
        assert sorted(rt.tree_edges().tolist()) == [1, 2, 3]
        assert rt.children_lists()[0] == [1, 2]


class TestBinomial:
    def test_capped_binomial_bounds(self, rng):
        trials = np.array([100, 5, 0, 1000])
        x = capped_binomial(trials, 0.5, cap=10, rng=rng)
        assert (x <= 10).all()
        assert (x >= 0).all()
        assert x[2] == 0

    def test_capped_binomial_p_zero_one(self, rng):
        trials = np.array([7, 3])
        assert capped_binomial(trials, 0.0, 5, rng).tolist() == [0, 0]
        assert capped_binomial(trials, 1.0, 5, rng).tolist() == [5, 3]

    def test_capped_binomial_validates(self, rng):
        with pytest.raises(ValueError):
            capped_binomial(np.array([1]), 2.0, 5, rng)
        with pytest.raises(ValueError):
            capped_binomial(np.array([1]), 0.5, -1, rng)

    def test_capped_binomial_mean(self):
        rng = np.random.default_rng(0)
        trials = np.full(4000, 20)
        x = capped_binomial(trials, 0.5, cap=50, rng=rng)  # cap inactive
        assert abs(x.mean() - 10.0) < 0.3

    def test_layer_counts_halve_in_expectation(self):
        rng = np.random.default_rng(1)
        counts = np.full(3000, 100)
        x = binomial_layer_counts(counts, rng)
        assert abs(x.mean() - 50.0) < 1.0
        assert (x <= counts).all()

    def test_layer_counts_charges_live_copies(self):
        led = Ledger()
        rng = np.random.default_rng(2)
        binomial_layer_counts(np.array([10, 20]), rng, ledger=led)
        assert led.work == 30
