"""Graph container (repro.graphs.graph)."""

import numpy as np
import pytest

from repro.errors import GraphFormatError, IntegerWeightsRequired
from repro.graphs import Graph
from repro.graphs.graph import component_labels


def small():
    return Graph.from_edges(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.0), (0, 3, 4.0)])


class TestConstruction:
    def test_from_edges_weighted(self):
        g = small()
        assert g.n == 4 and g.m == 4
        assert g.total_weight == 10.0

    def test_from_edges_unweighted(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.w.tolist() == [1.0, 1.0]

    def test_empty(self):
        g = Graph.empty(5)
        assert g.n == 5 and g.m == 0

    def test_no_edges_iterable(self):
        g = Graph.from_edges(2, [])
        assert g.m == 0

    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(2, [(0, 0, 1.0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(2, [(0, 2, 1.0)])

    def test_rejects_negative_vertex(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(2, [(-1, 1, 1.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(2, [(0, 1, 0.0)])

    def test_rejects_nan_weight(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(2, [(0, 1, float("nan"))])

    def test_rejects_length_mismatch(self):
        with pytest.raises(GraphFormatError):
            Graph(2, np.array([0]), np.array([1, 0]))

    def test_non_contiguous_arrays_normalized(self):
        u = np.arange(10, dtype=np.int64)[::2]  # strided view
        v = np.arange(1, 11, dtype=np.int64)[::2]
        w = np.linspace(1, 2, 10)[::2]
        g = Graph(12, u, v, w)
        for col in (g.u, g.v, g.w):
            assert col.flags.c_contiguous
        assert g.u.tolist() == [0, 2, 4, 6, 8]
        assert g.w.tolist() == w.tolist()

    def test_wrong_dtype_arrays_converted(self):
        g = Graph(
            3,
            np.array([0, 1], dtype=np.int32),
            np.array([1, 2], dtype=np.uint16),
            np.array([1.5, 2.5], dtype=np.float32),
        )
        assert g.u.dtype == np.int64 and g.v.dtype == np.int64
        assert g.w.dtype == np.float64
        assert g.w.tolist() == [1.5, 2.5]

    def test_contiguous_input_not_copied(self):
        u = np.array([0, 1], dtype=np.int64)
        v = np.array([1, 2], dtype=np.int64)
        w = np.array([1.0, 2.0], dtype=np.float64)
        g = Graph(3, u, v, w)
        assert g.u is u and g.v is v and g.w is w

    def test_nbytes(self):
        g = small()
        assert g.nbytes == 24 * g.m

    def test_parallel_edges_allowed(self):
        g = Graph.from_edges(2, [(0, 1, 1.0), (0, 1, 2.0)])
        assert g.m == 2


class TestQueries:
    def test_weighted_degrees(self):
        g = small()
        assert g.weighted_degrees.tolist() == [6.0, 5.0, 4.0, 5.0]

    def test_neighbors(self):
        g = small()
        nbrs, eids = g.neighbors(1)
        assert sorted(nbrs.tolist()) == [0, 2]
        assert sorted(g.w[eids].tolist()) == [2.0, 3.0]

    def test_incidence_covers_each_edge_twice(self):
        g = small()
        offsets, nbr, eid = g.incidence
        assert nbr.shape[0] == 2 * g.m
        counts = np.bincount(eid, minlength=g.m)
        assert (counts == 2).all()

    def test_connected_components_connected(self):
        k, labels = small().connected_components()
        assert k == 1
        assert len(set(labels.tolist())) == 1

    def test_connected_components_split(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        k, labels = g.connected_components()
        assert k == 2
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_is_connected_empty_graph(self):
        assert not Graph.empty(3).is_connected()
        assert Graph.empty(1).is_connected()


def bfs_components(n, u, v):
    """Pure-Python reference: BFS from each unvisited vertex in index
    order, so components are numbered by their smallest vertex."""
    adj = [[] for _ in range(n)]
    for a, b in zip(u.tolist(), v.tolist()):
        adj[a].append(b)
        adj[b].append(a)
    labels = [-1] * n
    k = 0
    for s in range(n):
        if labels[s] >= 0:
            continue
        labels[s] = k
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if labels[y] < 0:
                        labels[y] = k
                        nxt.append(y)
            frontier = nxt
        k += 1
    return k, np.array(labels, dtype=np.int64)


class TestComponentKernel:
    """``component_labels`` (the numpy hooking kernel behind
    ``Graph.connected_components``) against the BFS reference."""

    def check(self, n, u, v):
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        k, labels = component_labels(n, u, v)
        want_k, want = bfs_components(n, u, v)
        assert k == want_k
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, want)
        return labels

    @pytest.mark.parametrize("seed", range(40))
    def test_random_multigraphs(self, seed):
        # sparse enough to be disconnected, with isolated vertices and
        # (from the small vertex range) repeated parallel edges
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        m = int(rng.integers(0, n + n // 2))
        u = rng.integers(0, n, m)
        v = (u + rng.integers(1, n, m)) % n
        dup = rng.integers(0, max(m, 1), m // 4)
        self.check(n, np.concatenate([u, u[dup]]), np.concatenate([v, v[dup]]))

    def test_no_edges_and_single_vertex(self):
        empty = np.empty(0, np.int64)
        np.testing.assert_array_equal(self.check(5, empty, empty), np.arange(5))
        np.testing.assert_array_equal(self.check(1, empty, empty), [0])
        assert component_labels(0, empty, empty)[0] == 0

    @pytest.mark.parametrize("reverse", [False, True])
    def test_long_path(self, reverse):
        n = 5000
        perm = np.random.default_rng(1).permutation(n)
        u, v = perm[:-1], perm[1:]
        if reverse:
            u, v = v[::-1], u[::-1]
        assert (self.check(n, u, v) == 0).all()

    def test_star_centered_on_largest_vertex(self):
        n = 3000
        leaves = np.arange(n - 1)
        labels = self.check(n + 1, leaves, np.full(n - 1, n - 1))
        assert (labels[:n] == 0).all() and labels[n] == 1  # n is isolated

    def test_numbered_by_smallest_vertex(self):
        # components {0, 4}, {1, 3, 5}, {2}: ids follow 0 < 1 < 2
        g = Graph.from_edges(6, [(5, 3), (4, 0), (3, 1)])
        k, labels = g.connected_components()
        assert k == 3
        assert labels.tolist() == [0, 1, 2, 1, 0, 1]


class TestTransformations:
    def test_with_weights_drops_zeros(self):
        g = small()
        g2 = g.with_weights(np.array([1.0, 0.0, 2.0, 0.0]))
        assert g2.m == 2
        assert g2.total_weight == 3.0

    def test_with_weights_length_check(self):
        with pytest.raises(GraphFormatError):
            small().with_weights(np.array([1.0]))

    def test_subgraph_edges_mask(self):
        g = small()
        g2 = g.subgraph_edges(np.array([True, False, True, False]))
        assert g2.m == 2

    def test_coalesced_merges_parallel(self):
        g = Graph.from_edges(3, [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0)])
        g2 = g.coalesced()
        assert g2.m == 2
        assert g2.total_weight == 4.0

    def test_coalesced_idempotent_on_simple(self):
        g = small()
        assert g.coalesced().m == g.m

    def test_require_integer_weights_ok(self):
        g = small()
        w = g.require_integer_weights()
        assert w.dtype == np.int64

    def test_require_integer_weights_rejects_floats(self):
        g = Graph.from_edges(2, [(0, 1, 1.5)])
        with pytest.raises(IntegerWeightsRequired):
            g.require_integer_weights()

    def test_integerized_identity_on_ints(self):
        g = small()
        g2, scale = g.integerized()
        assert g2 is g and scale == 1.0

    def test_integerized_scales_floats(self):
        g = Graph.from_edges(3, [(0, 1, 0.5), (1, 2, 1.25)])
        g2, scale = g.integerized()
        assert scale == pytest.approx(2000.0)
        assert g2.w.tolist() == [1000.0, 2500.0]
        g2.require_integer_weights()  # must not raise

    def test_integerized_relative_error_bounded(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0.1, 9.0, 20)
        g = Graph(21, np.arange(20), np.arange(1, 21), w)
        g2, scale = g.integerized()
        assert np.allclose(g2.w / scale, g.w, rtol=2e-3)

    def test_contract_roundtrip_total_weight(self):
        g = small()
        q, dense = g.contract(np.array([0, 1, 0, 1]))
        # classes {0,2} | {1,3}: all four edges cross (the 4-cycle is
        # bipartite under this colouring), coalescing into one superedge
        assert q.n == 2
        assert q.m == 1
        assert q.total_weight == pytest.approx(10.0)


class TestCuts:
    def test_cut_value(self):
        g = small()
        side = np.array([True, True, False, False])
        # crossing: (1,2) w3 and (0,3) w4
        assert g.cut_value(side) == 7.0

    def test_cut_edges(self):
        g = small()
        side = np.array([True, False, False, False])
        assert sorted(g.cut_edges(side).tolist()) == [0, 3]

    def test_cut_value_shape_check(self):
        with pytest.raises(GraphFormatError):
            small().cut_value(np.array([True]))


class TestInterop:
    def test_networkx_roundtrip(self):
        g = small()
        g2 = Graph.from_networkx(g.to_networkx())
        assert g2.n == g.n
        assert g2.total_weight == pytest.approx(g.total_weight)

    def test_equality_and_hash(self):
        assert small() == small()
        assert hash(small()) == hash(small())

    def test_edges_iterator(self):
        assert list(small().edges())[0] == (0, 1, 2.0)
