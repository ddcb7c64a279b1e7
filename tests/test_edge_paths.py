"""Edge paths and less-travelled branches across modules."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graphs import Graph, planted_cut_graph, random_connected_graph
from repro.graphs.validate import brute_force_min_cut, side_from_vertices, validate_cut
from repro.pram import Ledger, parallel_map
from repro.rangesearch import CutOracle
from repro.sparsify import HierarchyParams

from tests.conftest import make_graph, make_rooted
from tests.reference_monge import triangle_minimum
from tests.reference_rangetree import RangeTree1D


class TestExecutor:
    def test_single_item_sequential(self):
        assert parallel_map(lambda x: x + 1, [41]) == [42]

    def test_empty(self):
        assert parallel_map(lambda x: x, []) == []

    def test_order_preserved(self):
        out = parallel_map(lambda x: x * x, list(range(20)), max_workers=4)
        assert out == [x * x for x in range(20)]

    def test_single_worker_fallback(self):
        assert parallel_map(lambda x: -x, [1, 2, 3], max_workers=1) == [-1, -2, -3]


class TestValidateHelpers:
    def test_side_from_vertices(self):
        side = side_from_vertices(5, [1, 3])
        assert side.tolist() == [False, True, False, True, False]

    def test_validate_cut_accepts(self):
        g = make_graph(10, 30, 1)
        side = np.zeros(10, dtype=bool)
        side[0] = True
        validate_cut(g, side, g.cut_value(side))

    def test_validate_cut_rejects_wrong_value(self):
        g = make_graph(10, 30, 2)
        side = np.zeros(10, dtype=bool)
        side[0] = True
        with pytest.raises(AssertionError):
            validate_cut(g, side, g.cut_value(side) + 1.0)

    def test_validate_cut_rejects_trivial_side(self):
        g = make_graph(6, 14, 3)
        with pytest.raises(GraphFormatError):
            validate_cut(g, np.zeros(6, dtype=bool), 0.0)

    def test_brute_force_limits(self):
        with pytest.raises(ValueError):
            brute_force_min_cut(make_graph(21, 60, 4))
        with pytest.raises(GraphFormatError):
            brute_force_min_cut(Graph.empty(1))

    def test_brute_force_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        val, side = brute_force_min_cut(g)
        assert val == 0.0
        assert 0 < side.sum() < 4


class TestOracleGuards:
    def test_graph_larger_than_tree_rejected(self):
        g = make_graph(20, 50, 5)
        _, rt = make_rooted(make_graph(10, 25, 6))
        with pytest.raises(ValueError):
            CutOracle(g, rt)

    def test_triangle_non_inverse_mode(self, rng):
        """inverse=False treats blocks as Monge directly."""
        density = rng.random((10, 10))
        m = rng.random(10)[:, None] + rng.random(10)[None, :] - density.cumsum(0).cumsum(1)
        val, a, b = triangle_minimum(range(10), lambda i, j: m[i, j], inverse=False)
        brute = min(m[i, j] for i in range(10) for j in range(i + 1, 10))
        assert val == pytest.approx(brute)


class TestRangeTreeClamping:
    def test_index_range_clamps(self):
        t = RangeTree1D(np.arange(5), np.ones(5))
        assert t.query_index_range(-3, 99) == pytest.approx(5.0)
        assert t.query_index_range(4, 2) == 0.0

    def test_all_equal_keys(self):
        t = RangeTree1D(np.full(16, 7), np.ones(16), branching=4)
        assert t.query_value_range(7, 7) == pytest.approx(16.0)
        assert t.query_value_range(6, 6) == 0.0


class TestLedgerMisc:
    def test_absorb_merges_phases(self):
        a, b = Ledger(), Ledger()
        with b.phase("x"):
            b.charge(5, 2)
        a.absorb_parallel(b)
        assert a.phases["x"].work == 5

    def test_phase_record_repr(self):
        led = Ledger()
        with led.phase("p"):
            led.charge(1, 1)
        assert "p" in repr(led.phases["p"])


class TestHierarchyParams:
    def test_paper_scale_windows(self):
        p = HierarchyParams(scale=1.0)
        lo, hi = p.window(1024)
        assert lo == pytest.approx(750.0)
        assert hi == pytest.approx(1250.0)
        assert p.cert_k(1024) == 2000
        assert p.cert_edge_budget(1024) == 4000

    def test_scaled_windows_keep_ratio(self):
        p1 = HierarchyParams(scale=1.0)
        p2 = HierarchyParams(scale=0.02)
        lo1, hi1 = p1.window(256)
        lo2, hi2 = p2.window(256)
        assert hi1 / lo1 == pytest.approx(hi2 / lo2)


class TestScaleValidation:
    def test_planted_cut_at_scale(self):
        """n = 1200, far beyond brute-force reach.  Unit-weight clusters
        with a 0.5-weight planted bridge make the planted cut *provably*
        unique: any other bipartition must cut at least one unit edge."""
        from repro.core import minimum_cut

        g = planted_cut_graph(
            600, 600, 0.5, inside_degree=10, rng=11, max_weight=1, cut_edges=1
        )
        res = minimum_cut(g, rng=np.random.default_rng(0))
        assert res.value == pytest.approx(0.5)
        side_sizes = sorted([int(res.side.sum()), g.n - int(res.side.sum())])
        assert side_sizes == [600, 600]
