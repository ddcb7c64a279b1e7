"""Application workflows (repro.apps) and the 2-out baseline."""

import numpy as np
import pytest

from repro.apps import (
    ClusteringParams,
    ReliabilityReport,
    induced_subgraph,
    min_cut_clusters,
    reinforce,
    weakest_partition,
)
from repro.arena.solvers import stoer_wagner, two_out_contraction_min_cut
from repro.errors import GraphFormatError
from repro.graphs import (
    Graph,
    community_graph,
    random_connected_graph,
    reliability_network,
)


class TestInducedSubgraph:
    def test_basic(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
        sub = induced_subgraph(g, np.array([1, 2]))
        assert sub.n == 2
        assert sub.m == 1
        assert sub.w[0] == 2.0

    def test_empty_selection(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert induced_subgraph(g, np.array([], dtype=np.int64)).n == 0

    def test_preserves_weights(self):
        g = random_connected_graph(20, 60, rng=1, max_weight=5)
        sub = induced_subgraph(g, np.arange(20))
        assert sub.total_weight == pytest.approx(g.total_weight)


class TestClustering:
    def test_recovers_planted_communities(self):
        sizes = (14, 12, 16)
        g = community_graph(sizes, intra_degree=8, inter_edges=2, rng=5)
        parts = min_cut_clusters(g, rng=np.random.default_rng(0))
        assert sorted(len(p) for p in parts) == sorted(sizes)
        # parts form a partition
        allv = np.concatenate(parts)
        assert sorted(allv.tolist()) == list(range(g.n))

    def test_dense_graph_stays_whole(self):
        from repro.graphs import complete_graph

        g = complete_graph(16)
        parts = min_cut_clusters(g, rng=np.random.default_rng(1))
        assert len(parts) == 1

    def test_disconnected_splits_by_component(self):
        g = Graph.from_edges(8, [(i, i + 1, 1.0) for i in (0, 1, 2)] + [(i, i + 1, 1.0) for i in (4, 5, 6)])
        parts = min_cut_clusters(
            g, params=ClusteringParams(min_size=1), rng=np.random.default_rng(2)
        )
        part_sets = [set(p.tolist()) for p in parts]
        assert not any({0, 4} <= s for s in part_sets)  # never merged

    def test_min_size_respected(self):
        g = community_graph((10, 10), rng=3)
        parts = min_cut_clusters(
            g, params=ClusteringParams(min_size=15), rng=np.random.default_rng(3)
        )
        assert len(parts) == 1  # any split would violate min_size

    def test_empty_graph(self):
        assert min_cut_clusters(Graph.empty(0)) == []


class TestReliability:
    def test_weakest_partition_matches_min_cut(self):
        net = reliability_network(20, 6, rng=4)
        rep = weakest_partition(net, rng=np.random.default_rng(0))
        assert rep.cut_value == pytest.approx(stoer_wagner(net).value)
        assert rep.isolated.shape[0] <= net.n // 2
        assert rep.crossing_edges.shape[0] >= 1

    def test_reinforce_monotone(self):
        net = reliability_network(22, 7, rng=5)
        reports = reinforce(net, rounds=3, rng=np.random.default_rng(1))
        vals = [r.cut_value for r in reports]
        assert all(vals[i + 1] >= vals[i] - 1e-9 for i in range(len(vals) - 1))

    def test_reinforce_validates(self):
        net = reliability_network(15, 4, rng=6)
        with pytest.raises(ValueError):
            reinforce(net, rounds=0)
        with pytest.raises(ValueError):
            reinforce(net, rounds=1, factor=1.0)


class TestTwoOutContraction:
    def _simple(self, n, m, seed):
        g = random_connected_graph(n, m, rng=seed, max_weight=1)
        return g.with_weights(np.ones(g.m))

    def test_exact_whp_on_corpus(self):
        hits = 0
        for t in range(8):
            g = self._simple(40, 130, t)
            res = two_out_contraction_min_cut(g, rng=np.random.default_rng(t + 50))
            sw = stoer_wagner(g)
            assert res.value >= sw.value - 1e-9
            assert g.cut_value(res.side) == pytest.approx(res.value)
            hits += abs(res.value - sw.value) < 1e-9
        assert hits >= 7

    def test_rejects_weighted(self):
        g = random_connected_graph(10, 30, rng=1, max_weight=5)
        with pytest.raises(GraphFormatError):
            two_out_contraction_min_cut(g)

    def test_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert two_out_contraction_min_cut(g).value == 0.0

    def test_min_degree_cut_found(self):
        """Star graph: min cut is any leaf's single edge."""
        g = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
        res = two_out_contraction_min_cut(g, rng=np.random.default_rng(2))
        assert res.value == pytest.approx(1.0)


class TestEngineMigrationIdentity:
    """The apps now route through repro.engine.CutEngine; these tests pin
    their outputs to the pre-migration direct-minimum_cut recursions."""

    def _legacy_clusters(self, graph, params, rng, ledger=None):
        # the pre-migration body of min_cut_clusters, verbatim
        from repro.core.mincut import minimum_cut
        from repro.pram.ledger import NULL_LEDGER

        ledger = ledger if ledger is not None else NULL_LEDGER
        if graph.n == 0:
            return []

        def split(vertices):
            if vertices.shape[0] < 2 * params.min_size:
                return [vertices]
            sub = induced_subgraph(graph, vertices)
            k, labels = sub.connected_components()
            if k > 1:
                parts = []
                for c in range(k):
                    parts.extend(split(vertices[labels == c]))
                return parts
            res = minimum_cut(sub, rng=rng, ledger=ledger)
            smaller = min(int(res.side.sum()), sub.n - int(res.side.sum()))
            if smaller < params.min_size:
                return [vertices]
            if res.value / smaller > params.max_cut_per_vertex:
                return [vertices]
            return split(vertices[res.side]) + split(vertices[~res.side])

        parts = split(np.arange(graph.n, dtype=np.int64))
        parts = [np.sort(p) for p in parts]
        parts.sort(key=lambda p: int(p[0]))
        return parts

    def test_clusters_identical_to_premigration(self):
        g = community_graph((10, 12, 9), intra_degree=7, inter_edges=2, rng=11)
        params = ClusteringParams()
        got = min_cut_clusters(g, params, rng=np.random.default_rng(7))
        want = self._legacy_clusters(g, params, np.random.default_rng(7))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_clusters_ledger_identical_to_premigration(self):
        from repro.pram.ledger import Ledger

        g = community_graph((8, 9), intra_degree=6, inter_edges=2, rng=3)
        led_new, led_old = Ledger(), Ledger()
        min_cut_clusters(g, rng=np.random.default_rng(5), ledger=led_new)
        self._legacy_clusters(
            g, ClusteringParams(), np.random.default_rng(5), ledger=led_old
        )
        assert (led_new.work, led_new.depth) == (led_old.work, led_old.depth)

    def test_weakest_partition_identical_to_premigration(self):
        from repro.core.mincut import minimum_cut

        g = reliability_network(16, 6, rng=9)
        rep = weakest_partition(g, rng=np.random.default_rng(2))
        res = minimum_cut(g, rng=np.random.default_rng(2))
        assert rep.cut_value == res.value
        side = res.side if res.side.sum() * 2 <= g.n else ~res.side
        assert np.array_equal(rep.isolated, np.flatnonzero(side))
        assert np.array_equal(rep.crossing_edges, g.cut_edges(res.side))

    def test_reinforce_identical_to_premigration(self):
        from repro.core.mincut import minimum_cut

        g = reliability_network(14, 5, rng=4)
        got = reinforce(g, rounds=3, rng=np.random.default_rng(8))

        rng = np.random.default_rng(8)
        current = g
        want = []
        for _ in range(3):
            res = minimum_cut(current, rng=rng)
            side = res.side if res.side.sum() * 2 <= current.n else ~res.side
            want.append(
                ReliabilityReport(
                    cut_value=res.value,
                    isolated=np.flatnonzero(side),
                    crossing_edges=current.cut_edges(res.side),
                )
            )
            w = current.w.copy()
            w[want[-1].crossing_edges] *= 2.0
            current = current.with_weights(w)

        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.cut_value == b.cut_value
            assert np.array_equal(a.isolated, b.isolated)
            assert np.array_equal(a.crossing_edges, b.crossing_edges)

    def test_reinforce_requery_matches_ground_truth(self):
        # the fast path reuses packed trees across rounds; every round's
        # report must still be the true minimum cut of that round's graph
        g = reliability_network(12, 4, rng=6)
        reports = reinforce(g, rounds=4, rng=np.random.default_rng(1), requery=True)
        w = np.array(g.w, copy=True)
        for rep in reports:
            truth = stoer_wagner(g.with_weights(w, drop_zero=False))
            assert rep.cut_value == pytest.approx(truth.value)
            w[rep.crossing_edges] *= 2.0
        values = [r.cut_value for r in reports]
        assert values == sorted(values)


class TestEvolvingApps:
    """``monitor`` and ``evolving_clusters`` over mutation batches."""

    def test_monitor_events_match_cold_cuts(self):
        from repro.apps import monitor
        from repro.core.mincut import minimum_cut

        g = random_connected_graph(24, 80, rng=5, max_weight=6)
        batches = [
            {"add_edges": [(0, 13, 2.0), (4, 21, 1.0)]},
            {"remove_edges": [3, 17]},
            {"reweight": {0: 9.0, 5: 1.0}},
        ]
        events = monitor(g, batches, rng=np.random.default_rng(2))
        assert [ev.step for ev in events] == [0, 1, 2, 3]
        assert events[0].verified is None
        assert events[0].report.cut_value == minimum_cut(
            g, rng=np.random.default_rng(0)
        ).value
        for ev in events[1:]:
            assert ev.verified is True
            cold = minimum_cut(ev.graph, rng=np.random.default_rng(0))
            assert ev.report.cut_value == cold.value

    def test_evolving_clusters_step0_is_a_plain_clustering(self):
        from repro.apps import evolving_clusters

        g = community_graph((10, 10, 10), rng=1)
        steps = evolving_clusters(g, [], seed=4)
        assert len(steps) == 1 and steps[0].step == 0 and steps[0].drift == 0.0
        want = min_cut_clusters(g, rng=np.random.default_rng(4))
        assert len(steps[0].clusters) == len(want)
        for a, b in zip(steps[0].clusters, want):
            assert np.array_equal(a, b)

    def test_restated_weight_replays_cached_artifacts(self):
        from repro.apps import evolving_clusters
        from repro.obs import CounterRegistry, counting_scope

        g = community_graph((10, 10, 10), rng=1)
        reg = CounterRegistry()
        with counting_scope(reg):
            steps = evolving_clusters(g, [{"reweight": {0: float(g.w[0])}}], seed=0)
        assert [s.step for s in steps] == [0, 1]
        assert steps[1].drift == 0.0
        assert len(steps[1].clusters) == len(steps[0].clusters)
        for a, b in zip(steps[1].clusters, steps[0].clusters):
            assert np.array_equal(a, b)
        assert reg.get("engine.cache_hits") > 0
