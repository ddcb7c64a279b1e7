"""The Section 3 approximation algorithm (Theorem 3.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx import approximate_minimum_cut, layer_min_cuts, locate_skeleton_layer
from repro.arena.solvers import stoer_wagner
from repro.errors import GraphFormatError
from repro.graphs import Graph, random_connected_graph
from repro.graphs.generators import barbell_graph, grid_graph
from repro.pram import Ledger
from repro.sparsify import (
    HierarchyParams,
    build_certificate_hierarchy,
    build_truncated_hierarchy,
)


def solver(g):
    return stoer_wagner(g).value


def params():
    return HierarchyParams(scale=0.02)


class CountingSolver:
    def __init__(self):
        self.calls = 0

    def __call__(self, g):
        self.calls += 1
        return stoer_wagner(g).value


def certificates(g, p, seed):
    h = build_truncated_hierarchy(g, params=p, rng=np.random.default_rng(seed))
    return build_certificate_hierarchy(h)


class TestApproximation:
    def test_bracket_contains_lambda_small_weights(self):
        """With small total weight the hierarchy has few layers and layer
        0 certificates capture lambda exactly."""
        rng = np.random.default_rng(1)
        for trial in range(6):
            g = random_connected_graph(20, 70, rng=rng, max_weight=3)
            lam = stoer_wagner(g).value
            res = approximate_minimum_cut(
                g, params=params(), rng=np.random.default_rng(trial), solver=solver
            )
            assert res.low - 1e-9 <= lam <= res.high * 1.35 + 1e-9, (
                trial, lam, res,
            )

    def test_heavy_weights_constant_factor(self):
        """With heavy weights the estimate comes from a sampled layer and
        must stay within a constant factor of lambda."""
        rng = np.random.default_rng(2)
        misses = 0
        for trial in range(8):
            g = random_connected_graph(16, 56, rng=rng, max_weight=1)
            g = g.with_weights(g.w * float(rng.integers(200, 2000)))
            lam = stoer_wagner(g).value
            res = approximate_minimum_cut(
                g, params=params(), rng=np.random.default_rng(trial + 50), solver=solver
            )
            ratio = res.estimate / lam
            if not (1 / 4 <= ratio <= 4):
                misses += 1
        assert misses <= 1  # concentration at toy scale is loose but real

    def test_estimate_scales_with_layer(self):
        g = random_connected_graph(16, 60, rng=3, max_weight=1)
        g = g.with_weights(g.w * 600.0)
        res = approximate_minimum_cut(
            g, params=params(), rng=np.random.default_rng(0), solver=solver
        )
        assert res.skeleton_layer >= 1
        assert res.estimate == pytest.approx(
            res.layer_cuts[res.skeleton_layer] * 2 ** res.skeleton_layer
        )

    def test_disconnected_returns_zero(self):
        g = Graph.from_edges(4, [(0, 1, 2.0), (2, 3, 2.0)])
        res = approximate_minimum_cut(g, rng=np.random.default_rng(0), solver=solver)
        assert res.estimate == 0.0

    def test_rejects_tiny(self):
        with pytest.raises(GraphFormatError):
            approximate_minimum_cut(Graph.empty(1), solver=solver)

    def test_stats_and_ledger(self):
        g = random_connected_graph(18, 60, rng=4, max_weight=2)
        led = Ledger()
        counting = CountingSolver()
        res = approximate_minimum_cut(
            g, params=params(), rng=np.random.default_rng(1), solver=counting, ledger=led
        )
        assert "hierarchy_depth" in res.stats
        assert res.stats["layers_solved"] == counting.calls > 0
        assert led.work > 0
        assert {"hierarchy", "certificates", "layer-cuts"} <= set(led.phases)

    def test_float_weights_transparently_scaled(self):
        rng = np.random.default_rng(9)
        g = random_connected_graph(18, 60, rng=rng, max_weight=1)
        g = g.with_weights(rng.uniform(0.5, 2.5, g.m))
        lam = stoer_wagner(g).value
        res = approximate_minimum_cut(
            g, params=params(), rng=np.random.default_rng(0), solver=solver
        )
        assert res.stats["weight_scale"] > 1.0
        assert 0.2 <= res.estimate / lam <= 5.0

    def test_repeats_reduces_spread(self):
        """The paper's (1+eps)-refinement remark: median of independent
        hierarchies shrinks the sampling spread (not the quantisation
        bias) — measured as std of log-estimates over reruns."""
        rng = np.random.default_rng(0)
        g = random_connected_graph(16, 56, rng=rng, max_weight=1)
        g = g.with_weights(g.w * 700.0)
        singles, medians = [], []
        for t in range(8):
            r1 = approximate_minimum_cut(
                g, params=params(), rng=np.random.default_rng(100 + t), solver=solver
            )
            r5 = approximate_minimum_cut(
                g,
                params=params(),
                rng=np.random.default_rng(200 + t),
                solver=solver,
                repeats=5,
            )
            singles.append(np.log(max(r1.estimate, 1e-9)))
            medians.append(np.log(max(r5.estimate, 1e-9)))
            assert r5.stats["repeats"] == 5.0
            assert "estimate_spread" in r5.stats
        assert np.std(medians) < np.std(singles)

    def test_repeats_sum_layers_solved(self):
        g = random_connected_graph(18, 60, rng=4, max_weight=2)
        counting = CountingSolver()
        res = approximate_minimum_cut(
            g, params=params(), rng=np.random.default_rng(1), solver=counting, repeats=3
        )
        assert res.stats["layers_solved"] == counting.calls >= 3

    def test_repeats_validation(self):
        g = random_connected_graph(10, 30, rng=1, max_weight=2)
        with pytest.raises(ValueError):
            approximate_minimum_cut(g, solver=solver, repeats=0)

    def test_default_solver_runs(self):
        g = random_connected_graph(20, 66, rng=5, max_weight=2)
        res = approximate_minimum_cut(g, params=params(), rng=np.random.default_rng(2))
        lam = stoer_wagner(g).value
        assert res.estimate >= 0
        assert res.low <= lam * 2.5  # sanity of the bracket shape

    def test_nested_layer_solves_charge_identical_work_per_seed(self):
        # n > 64 routes the layer certificates through the exact
        # pipeline (not Stoer-Wagner); its generator derives from the
        # layer graph, so the same seed charges the same work every run
        import repro

        g = random_connected_graph(70, 300, rng=3, max_weight=5)
        charges = []
        for _ in range(2):
            led = Ledger()
            res = repro.minimum_cut(g, rng=np.random.default_rng(1), ledger=led)
            charges.append((res.value, led.work, led.depth))
        assert charges[0] == charges[1]


class TestBelowWindowExit:
    """Every cumulative certificate is a subgraph of layer 0's, so its
    min-cut is at most layer 0's minimum weighted degree; below the
    window that locates layer 0 without solving layers 1..d-1."""

    GRAPHS = {
        "random": lambda: random_connected_graph(100, 2000, rng=11, max_weight=8),
        "grid": lambda: grid_graph(14, 14, rng=13, max_weight=8),
        "barbell": lambda: barbell_graph(12, bridge_weight=2.0),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_exit_solves_layer_zero_only_and_matches_full_scan(self, name):
        g = self.GRAPHS[name]()
        p = HierarchyParams()
        lo, _ = p.window(g.n)
        certs = certificates(g, p, seed=5)
        assert certs.depth > 1
        assert certs.cumulative(0).weighted_degrees.min() < lo
        full = layer_min_cuts(certs, solver)
        s = locate_skeleton_layer(full, g.n, p)

        counting = CountingSolver()
        res = approximate_minimum_cut(
            g, params=p, rng=np.random.default_rng(5), solver=counting, trace=True
        )
        assert counting.calls == 1
        assert res.stats["layers_solved"] == 1.0
        # counts solver calls, not the placeholder entries of a full scan
        assert res.report.counters["approx.layers_cut"] == 1.0
        assert res.layer_cuts == {0: full[0]}
        assert res.skeleton_layer == s == 0
        assert res.estimate == full[s] * 2**s

    def test_exit_charges_one_reduction(self):
        # the counting solver charges nothing, so layer-cuts holds only
        # the degree reduction over layer 0: work m, depth log2ceil(n)
        g = self.GRAPHS["grid"]()
        p = HierarchyParams()
        g0 = certificates(g, p, seed=5).cumulative(0)
        led = Ledger()
        counting = CountingSolver()
        approximate_minimum_cut(
            g, params=p, rng=np.random.default_rng(5), solver=counting, ledger=led
        )
        assert counting.calls == 1
        rec = led.phases["layer-cuts"]
        assert (rec.work, rec.depth) == (g0.m, 8)  # log2ceil(196) == 8

    def test_heavy_weights_keep_the_stop_below_scan(self):
        g = random_connected_graph(16, 60, rng=3, max_weight=1)
        g = g.with_weights(g.w * 600.0)
        p = params()
        lo, _ = p.window(g.n)
        certs = certificates(g, p, seed=0)
        assert certs.cumulative(0).weighted_degrees.min() >= lo
        scan = CountingSolver()
        cuts = layer_min_cuts(
            certs, scan, stop_below=p.scale * p.below_low * p.log_n(g.n)
        )
        counting = CountingSolver()
        led = Ledger()
        res = approximate_minimum_cut(
            g, params=p, rng=np.random.default_rng(0), solver=counting, ledger=led,
            trace=True,
        )
        assert counting.calls == scan.calls > 1
        # the scan charges nothing with this solver: the reduction is all
        rec = led.phases["layer-cuts"]
        assert (rec.work, rec.depth) == (certs.cumulative(0).m, 4)  # log2ceil(16)
        assert res.stats["layers_solved"] == float(scan.calls)
        assert res.report.counters["approx.layers_cut"] == float(scan.calls)
        assert len(cuts) > scan.calls  # placeholders and stop_below fills
        assert res.layer_cuts == cuts
        assert res.skeleton_layer == locate_skeleton_layer(cuts, g.n, p) >= 1


class TestLocateLayer:
    def _params(self):
        return HierarchyParams(scale=1.0)  # windows in plain log-units

    def test_layer_inside_window(self):
        p = self._params()
        n = 256
        lo, hi = p.window(n)
        cuts = {0: 10 * hi, 1: 3 * hi, 2: (lo + hi) / 2, 3: lo / 4}
        assert locate_skeleton_layer(cuts, n, p) == 2

    def test_fallback_boundary(self):
        p = self._params()
        n = 256
        lo, hi = p.window(n)
        cuts = {0: 10 * hi, 1: 3 * hi, 2: lo / 3}
        s = locate_skeleton_layer(cuts, n, p)
        assert s in (1, 2)

    def test_prefers_centre(self):
        p = self._params()
        n = 256
        lo, hi = p.window(n)
        centre = (lo + hi) / 2
        cuts = {0: hi, 1: centre, 2: lo}
        assert locate_skeleton_layer(cuts, n, p) == 1

    def test_all_zero(self):
        p = self._params()
        assert locate_skeleton_layer({0: 0.0, 1: 0.0}, 64, p) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 1 << 20),
        fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
        top=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_every_layer_below_window_locates_layer_zero(self, n, fracs, top):
        # the contract the below-window exit relies on: non-increasing
        # layer values with v_0 < lo locate layer 0, and so does {0: v_0}
        p = self._params()
        lo, _ = p.window(n)
        v0 = top * lo
        values = np.minimum.accumulate([v0] + [f * v0 for f in fracs])
        cuts = {i: float(v) for i, v in enumerate(values)}
        assert locate_skeleton_layer(cuts, n, p) == 0
        assert locate_skeleton_layer({0: v0}, n, p) == 0
