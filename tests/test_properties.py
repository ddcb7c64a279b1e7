"""Property-based tests (hypothesis) over the core data structures and
algorithm invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import Graph
from repro.pram import Ledger, preduce, pscan_exclusive
from repro.primitives import minimum_spanning_forest, postorder, root_tree, spanning_forest
from repro.rangesearch import CutOracle, NaiveCutOracle
from repro.trees import binarize_parent
from repro.tworespect import brute_force_two_respecting, two_respecting_min_cut

from tests.reference_monge import check_monge, smawk_row_minima, triangle_minimum
from tests.reference_rangetree import RangeTree1D, RangeTree2D

SETTINGS = dict(
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def connected_graphs(draw, max_n=18, max_weight=5):
    """Small connected weighted graphs: random tree + extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    parent_choices = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    extra_count = draw(st.integers(0, 2 * n))
    edges = [(i, parent_choices[i - 1]) for i in range(1, n)]
    for _ in range(extra_count):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        if a != b:
            edges.append((a, b))
    weights = [draw(st.integers(1, max_weight)) for _ in edges]
    u = np.array([e[0] for e in edges], dtype=np.int64)
    v = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array(weights, dtype=np.float64)
    return Graph(n, u, v, w, validate=False)


@st.composite
def weighted_points_1d(draw):
    n = draw(st.integers(0, 40))
    keys = [draw(st.integers(-10, 10)) for _ in range(n)]
    ws = [draw(st.floats(0.1, 10.0, allow_nan=False)) for _ in range(n)]
    return np.array(keys), np.array(ws)


class TestRangeTreeProperties:
    @given(data=weighted_points_1d(), b=st.integers(2, 6),
           lo=st.integers(-12, 12), hi=st.integers(-12, 12))
    @settings(**SETTINGS)
    def test_1d_matches_mask_sum(self, data, b, lo, hi):
        keys, ws = data
        t = RangeTree1D(keys, ws, branching=b)
        expect = ws[(keys >= lo) & (keys <= hi)].sum() if len(keys) else 0.0
        assert abs(t.query_value_range(lo, hi) - expect) < 1e-9

    @given(data=weighted_points_1d(), b=st.integers(2, 5),
           data2=weighted_points_1d(),
           rect=st.tuples(st.integers(-12, 12), st.integers(-12, 12),
                          st.integers(-12, 12), st.integers(-12, 12)))
    @settings(**SETTINGS)
    def test_2d_matches_mask_sum(self, data, b, data2, rect):
        xs, ws = data
        ys = np.resize(data2[0], xs.shape) if xs.size else xs
        x1, x2, y1, y2 = rect
        t = RangeTree2D(xs, ys, ws, branching=b)
        if xs.size:
            mask = (xs >= x1) & (xs <= x2) & (ys >= y1) & (ys <= y2)
            expect = ws[mask].sum()
        else:
            expect = 0.0
        assert abs(t.query(x1, x2, y1, y2) - expect) < 1e-9


class TestGraphProperties:
    @given(g=connected_graphs())
    @settings(**SETTINGS)
    def test_cut_value_symmetric_in_side(self, g):
        rng = np.random.default_rng(0)
        side = rng.random(g.n) < 0.5
        assert g.cut_value(side) == g.cut_value(~side)

    @given(g=connected_graphs())
    @settings(**SETTINGS)
    def test_coalesce_preserves_cut_values(self, g):
        g2 = g.coalesced()
        rng = np.random.default_rng(1)
        for _ in range(5):
            side = rng.random(g.n) < 0.5
            assert abs(g.cut_value(side) - g2.cut_value(side)) < 1e-9

    @given(g=connected_graphs())
    @settings(**SETTINGS)
    def test_spanning_forest_spans(self, g):
        ids, labels = spanning_forest(g.n, g.u, g.v)
        assert ids.shape[0] == g.n - 1
        assert len(np.unique(labels)) == 1

    @given(g=connected_graphs())
    @settings(**SETTINGS)
    def test_mst_weight_minimal_vs_networkx(self, g):
        import networkx as nx

        ids, _ = minimum_spanning_forest(g.n, g.u, g.v, g.w)
        # parallel edges: MST uses the lightest copy, so aggregate by min
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        for a, b, w in g.edges():
            if nxg.has_edge(a, b):
                nxg[a][b]["weight"] = min(nxg[a][b]["weight"], w)
            else:
                nxg.add_edge(a, b, weight=w)
        expect = nx.minimum_spanning_tree(nxg).size(weight="weight")
        assert abs(g.w[ids].sum() - expect) < 1e-6


class TestOracleProperties:
    @given(g=connected_graphs(max_n=14))
    @settings(**SETTINGS)
    def test_oracle_cut_matches_naive_everywhere(self, g):
        ids, _ = spanning_forest(g.n, g.u, g.v)
        parent = root_tree(g.n, g.u[ids], g.v[ids], 0)
        rt = postorder(binarize_parent(parent).parent)
        oracle = CutOracle(g, rt)
        naive = NaiveCutOracle(g, rt)
        for u in range(rt.n):
            if rt.parent[u] < 0:
                continue
            for v in range(u, rt.n):
                if rt.parent[v] < 0:
                    continue
                assert abs(oracle.cut(u, v) - naive.cut(u, v)) < 1e-9

    @given(g=connected_graphs(max_n=12))
    @settings(**SETTINGS)
    def test_two_respecting_equals_brute_force(self, g):
        ids, _ = spanning_forest(g.n, g.u, g.v)
        parent = root_tree(g.n, g.u[ids], g.v[ids], 0)
        res = two_respecting_min_cut(g, parent)
        rt = postorder(binarize_parent(parent).parent)
        bval, _, _ = brute_force_two_respecting(g, rt)
        assert abs(res.value - bval) < 1e-9
        assert abs(g.cut_value(res.side) - res.value) < 1e-9


class TestMongeProperties:
    @given(
        nr=st.integers(1, 8),
        nc=st.integers(1, 8),
        seed=st.integers(0, 10_000),
    )
    @settings(**SETTINGS)
    def test_smawk_row_minima(self, nr, nc, seed):
        rng = np.random.default_rng(seed)
        density = rng.integers(0, 3, (nr, nc)).astype(float)
        m = (
            rng.integers(0, 4, nr)[:, None]
            + rng.integers(0, 4, nc)[None, :]
            - density.cumsum(0).cumsum(1)
        )
        check_monge(m)
        res = smawk_row_minima(range(nr), range(nc), lambda i, j: m[i, j])
        for i in range(nr):
            assert abs(res[i][0] - m[i].min()) < 1e-12

    @given(n=st.integers(2, 12), seed=st.integers(0, 10_000))
    @settings(**SETTINGS)
    def test_triangle_minimum(self, n, seed):
        rng = np.random.default_rng(seed)
        density = rng.random((n, n))
        m = -(rng.random(n)[:, None] + rng.random(n)[None, :] - density.cumsum(0).cumsum(1))
        val, a, b = triangle_minimum(range(n), lambda i, j: m[i, j])
        brute = min(m[i, j] for i in range(n) for j in range(i + 1, n))
        assert abs(val - brute) < 1e-12


class TestSparsifyProperties:
    @given(g=connected_graphs(max_n=14, max_weight=4), k=st.integers(1, 8))
    @settings(**SETTINGS)
    def test_certificate_weight_bound_and_cut_preservation(self, g, k):
        from repro.sparsify import connectivity_certificate

        cert = connectivity_certificate(g, k)
        assert cert.total_weight <= k * (g.n - 1) + 1e-9
        # probe random bipartitions; cuts <= k must be preserved exactly
        rng = np.random.default_rng(int(g.total_weight) + k)
        for _ in range(6):
            side = rng.random(g.n) < 0.5
            if not side.any() or side.all():
                continue
            val = g.cut_value(side)
            if val <= k:
                assert abs(cert.cut_value(side) - val) < 1e-9

    @given(g=connected_graphs(max_n=10, max_weight=60), seed=st.integers(0, 1000))
    @settings(**SETTINGS)
    def test_hierarchy_nesting_invariants(self, g, seed):
        from repro.sparsify import HierarchyParams, build_truncated_hierarchy

        h = build_truncated_hierarchy(
            g,
            params=HierarchyParams(scale=0.05),
            rng=np.random.default_rng(seed),
        )
        h.validate()  # nesting + exclusivity + alignment

    @given(g=connected_graphs(max_n=12, max_weight=5), seed=st.integers(0, 1000))
    @settings(**SETTINGS)
    def test_skeleton_connected_and_capped(self, g, seed):
        from repro.arena.solvers import stoer_wagner
        from repro.sparsify import build_skeleton

        lam = stoer_wagner(g).value
        skel = build_skeleton(g, lam / 2, rng=np.random.default_rng(seed))
        assert skel.skeleton.w.max(initial=0) <= skel.cap
        if skel.p >= 1.0:
            assert skel.skeleton.is_connected()


class TestCombinatorProperties:
    @given(xs=st.lists(st.integers(-100, 100), max_size=50))
    @settings(**SETTINGS)
    def test_preduce_equals_sum(self, xs):
        assert preduce(lambda a, b: a + b, xs, 0) == sum(xs)

    @given(xs=st.lists(st.floats(0, 100, allow_nan=False), max_size=50))
    @settings(**SETTINGS)
    def test_pscan_matches_cumsum(self, xs):
        arr = np.array(xs)
        out = pscan_exclusive(arr)
        expect = np.concatenate([[0.0], np.cumsum(arr)[:-1]]) if len(xs) else arr
        assert np.allclose(out, expect)
