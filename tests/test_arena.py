"""The solver arena: registry, contenders, baselines (repro.arena)."""

import warnings

import numpy as np
import pytest

import repro
from repro.arena import (
    ArenaResult,
    Contender,
    contender_names,
    get_contender,
    register,
)
from repro.arena.registry import _REGISTRY
from repro.arena.solvers import (
    matula_approx,
    stoer_wagner,
    viecut_minimum_cut,
)
from repro.errors import InvalidParameterError
from repro.graphs import Graph, barbell_graph, planted_cut_graph, random_connected_graph

from tests.conftest import assert_valid_cut

EXPECTED_CONTENDERS = {
    "approx-s3",
    "karger-stein",
    "matula",
    "paper",
    "resilient",
    "stoer-wagner",
    "two-out",
    "viecut-reduce",
}


def unweighted_simple(n, p, rng):
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    u = np.concatenate([iu[keep], np.arange(n)])
    v = np.concatenate([iv[keep], (np.arange(n) + 1) % n])
    pairs = np.unique(np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1), axis=0)
    return Graph(n, pairs[:, 0], pairs[:, 1], np.ones(pairs.shape[0]))


class TestRegistry:
    def test_builtin_roster(self):
        assert EXPECTED_CONTENDERS <= set(contender_names())

    def test_get_contender_instantiates(self):
        c = get_contender("stoer-wagner")
        assert isinstance(c, Contender)
        assert c.name == "stoer-wagner" and c.kind == "exact"

    def test_unknown_name_is_typed_error(self):
        with pytest.raises(InvalidParameterError, match="unknown contender"):
            get_contender("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(InvalidParameterError, match="already registered"):

            @register
            class Dupe(Contender):
                name = "stoer-wagner"

    def test_custom_registration(self):
        @register(name="test-custom")
        class Custom(Contender):
            name = "test-custom"
            kind = "exact"

            def _run(self, graph, *, seed, budget, ledger):
                return 1.0, None, {}

        try:
            assert get_contender("test-custom").solve(
                Graph.from_edges(2, [(0, 1)])
            ).value == 1.0
        finally:
            del _REGISTRY["test-custom"]

    def test_top_level_reexports(self):
        assert repro.get_contender is get_contender
        assert repro.ArenaResult is ArenaResult


class TestArenaResult:
    def test_kind_validated(self):
        with pytest.raises(ValueError, match="kind"):
            ArenaResult(contender="x", kind="magic", value=1.0, side=None,
                        wall_s=0.0, work=0.0, depth=0.0, seed=0, n=2, m=1)

    def test_stats_read_only(self):
        g = random_connected_graph(10, 25, rng=0, max_weight=3)
        res = get_contender("stoer-wagner").solve(g)
        with pytest.raises(TypeError):
            res.stats["x"] = 1.0

    def test_to_json_reduces_side(self):
        g = random_connected_graph(10, 25, rng=0, max_weight=3)
        res = get_contender("stoer-wagner").solve(g, seed=5)
        d = res.to_json()
        assert sum(d["side_sizes"]) == g.n
        assert d["seed"] == 5 and d["n"] == g.n and d["m"] == g.m
        import json

        json.dumps(d)  # JSON-safe end to end


class TestContendersAgree:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_contenders_match_stoer_wagner(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(
            int(rng.integers(8, 30)), int(rng.integers(20, 80)),
            rng=rng, max_weight=5,
        )
        truth = stoer_wagner(g).value
        for name in ("paper", "resilient", "viecut-reduce"):
            res = get_contender(name).solve(g, seed=seed)
            assert res.value == truth, name
            assert_valid_cut(g, res.value, res.side)

    def test_montecarlo_never_undershoots(self):
        g = random_connected_graph(15, 45, rng=3, max_weight=4)
        truth = stoer_wagner(g).value
        res = get_contender("karger-stein").solve(g, seed=1)
        assert res.value >= truth - 1e-9
        assert_valid_cut(g, res.value, res.side)

    def test_two_out_supports_only_unweighted(self):
        weighted = random_connected_graph(12, 30, rng=4, max_weight=5)
        c = get_contender("two-out")
        assert not c.supports(weighted)
        simple = unweighted_simple(20, 0.3, np.random.default_rng(2))
        assert c.supports(simple)
        res = c.solve(simple, seed=0)
        assert res.value >= stoer_wagner(simple).value - 1e-9

    def test_approx_bracket_contains_truth(self):
        g = random_connected_graph(20, 60, rng=6, max_weight=4)
        truth = stoer_wagner(g).value
        for name in ("matula", "approx-s3"):
            res = get_contender(name).solve(g, seed=0)
            assert res.kind == "approx"
            assert res.lower_bound <= truth + 1e-9, name
            assert truth - 1e-9 <= res.value <= res.claimed_ratio * truth + 1e-9, name

    def test_deterministic_given_seed(self):
        g = random_connected_graph(14, 40, rng=8, max_weight=4)
        for name in ("karger-stein", "paper", "matula"):
            a = get_contender(name).solve(g, seed=42)
            b = get_contender(name).solve(g, seed=42)
            assert a.value == b.value, name

    def test_ledger_charges_recorded(self):
        g = random_connected_graph(12, 30, rng=9, max_weight=3)
        res = get_contender("stoer-wagner").solve(g)
        assert res.work > 0 and res.depth > 0 and res.wall_s >= 0


class TestViecutReductions:
    @pytest.mark.parametrize("seed", range(6))
    def test_exact_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(
            int(rng.integers(6, 40)), int(rng.integers(10, 120)),
            rng=rng, max_weight=6,
        )
        res = viecut_minimum_cut(g)
        assert res.value == pytest.approx(stoer_wagner(g).value)
        assert_valid_cut(g, res.value, res.side)

    def test_barbell(self):
        g = barbell_graph(20, 1.0)
        res = viecut_minimum_cut(g)
        assert res.value == pytest.approx(1.0)

    def test_degree_one_rule_collapses_path(self):
        # a path is all degree-one endpoints: kernelization alone
        # solves it (kernel collapses, answer = lightest edge)
        w = [5.0, 2.0, 7.0, 3.0, 9.0]
        g = Graph.from_edges(6, [(i, i + 1, w[i]) for i in range(5)])
        res = viecut_minimum_cut(g)
        assert res.value == pytest.approx(2.0)
        assert res.stats["kernel_n"] <= 2

    def test_heavy_edge_rule_shrinks_kernel(self):
        # cycle of weight-5 edges (min degree cut = 10) plus one
        # weight-100 chord: the chord is heavier than the candidate,
        # so its endpoints contract before Stoer-Wagner runs
        n = 12
        edges = [(i, (i + 1) % n, 5.0) for i in range(n)] + [(0, 6, 100.0)]
        g = Graph.from_edges(n, edges)
        res = viecut_minimum_cut(g)
        assert res.value == pytest.approx(stoer_wagner(g).value)
        assert res.stats["kernel_n"] < n

    def test_planted_cut_found(self):
        g = planted_cut_graph(30, 30, 2.0, cut_edges=2, rng=1)
        res = viecut_minimum_cut(g)
        assert res.value == pytest.approx(2.0)

    def test_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert viecut_minimum_cut(g).value == 0.0


class TestMatula:
    @pytest.mark.parametrize("seed", range(4))
    def test_ratio_certified(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(
            int(rng.integers(8, 35)), int(rng.integers(15, 100)),
            rng=rng, max_weight=5,
        )
        truth = stoer_wagner(g).value
        res = matula_approx(g, epsilon=0.5)
        ratio = res.stats["ratio"]
        assert ratio == pytest.approx(2.5)  # cap never binds uncapped
        assert truth - 1e-9 <= res.value <= ratio * truth + 1e-9
        assert_valid_cut(g, res.value, res.side)

    def test_cap_inflates_ratio_honestly(self):
        # heavy weights force k_exact >> 1; a 1-round cap must be
        # reported in the certified ratio, not hidden
        g = random_connected_graph(20, 100, rng=5, max_weight=50)
        res = matula_approx(g, epsilon=0.5, max_certificate_rounds=1)
        truth = stoer_wagner(g).value
        assert res.value <= res.stats["ratio"] * truth + 1e-9
        assert res.value >= truth - 1e-9

    def test_rejects_bad_params(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            matula_approx(g, epsilon=0.0)
        with pytest.raises(ValueError):
            matula_approx(g, max_certificate_rounds=0)


class TestContractionParity:
    """Both contraction solvers number supervertices through
    ``Graph.connected_components``-style labels (smallest vertex first),
    so the degree-cut tie-break and the kernel's Stoer-Wagner run see
    the same vertex order on every release; pinned on an input that
    contracts more than once."""

    def test_matula_and_viecut_sides_pinned(self):
        g = planted_cut_graph(30, 30, 2.0, cut_edges=3, rng=3)
        approx = matula_approx(g, epsilon=0.5)
        assert approx.value == 2.0
        assert approx.stats["iterations"] == 3.0
        assert np.flatnonzero(approx.side).tolist() == list(range(30))
        exact = viecut_minimum_cut(g)
        assert exact.value == 2.0
        assert exact.stats["reduction_rounds"] == 3.0
        assert exact.stats["kernel_n"] == 57.0
        assert np.flatnonzero(exact.side).tolist() == list(range(30, 60))


class TestDeprecationShims:
    """The solver shims in repro.baselines are gone; what stays there
    (the GG18 stand-in and the cost models) imports without warnings."""

    def test_gg18_and_models_not_deprecated(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.baselines import gg18_two_respecting, work_here  # noqa: F401
