"""The staged CutEngine: parity with the one-shot pipeline, artifact
caching, batch fan-out, and weight-only updates.

The headline suite is the parity matrix: across executor backends ×
tracing, :func:`repro.minimum_cut` and a cold ``CutEngine.min_cut()``
must both be bit-identical — value, side bytes, stats dict, ledger
work/depth, and per-phase records — to the straight-through stage chain
in ``tests/reference_pipeline.py`` with the same inputs.
"""

import math

import numpy as np
import pytest

import repro
from repro.approx import approximate_minimum_cut
from repro.arena.solvers import stoer_wagner
from repro.engine import (
    ArtifactCache,
    CutEngine,
    PackedForest,
    TreeIndex,
    combine_fingerprint,
    graph_fingerprint,
    service,
)
from repro.engine.stages import approximate_stage
from repro.errors import InvalidParameterError
from repro.graphs import Graph, random_connected_graph
from repro.graphs.generators import grid_graph
from repro.obs import CounterRegistry, counting_scope
from repro.packing.karger import build_cut_skeleton
from repro.params import CutPipelineParams
from repro.pram.executor import force_executor, shutdown_shared_pools
from repro.pram.ledger import Ledger

from tests.reference_pipeline import reference_minimum_cut


@pytest.fixture
def graph():
    return random_connected_graph(48, 150, rng=12, max_weight=5)


def _phases(ledger):
    return {n: (p.work, p.depth) for n, p in ledger._phases.items()}


def _assert_same_result(a, b):
    assert a.value == b.value
    assert np.array_equal(np.asarray(a.side), np.asarray(b.side))
    assert dict(a.stats) == dict(b.stats)


def _assert_matches_reference(res, ledger, ref, ref_ledger):
    _assert_same_result(res, ref)
    assert res.side.tobytes() == ref.side.tobytes()
    assert res.witness_edges == ref.witness_edges
    assert (ledger.work, ledger.depth) == (ref_ledger.work, ref_ledger.depth)
    assert _phases(ledger) == _phases(ref_ledger)


class TestColdParity:
    """``minimum_cut`` ≡ cold ``CutEngine`` ≡ the straight-through
    reference chain of ``tests/reference_pipeline.py``, bit for bit."""

    @pytest.mark.parametrize("backend", ["sync", "process"])
    @pytest.mark.parametrize("trace", [False, True])
    def test_matrix(self, graph, backend, trace):
        led_ref = Ledger()
        ref = reference_minimum_cut(graph, rng=np.random.default_rng(21), ledger=led_ref)
        with force_executor(backend):
            led_direct = Ledger()
            direct = repro.minimum_cut(
                graph,
                rng=np.random.default_rng(21),
                ledger=led_direct,
                trace=trace,
            )
            led_engine = Ledger()
            engine = CutEngine(graph, seed=21, ledger=led_engine)
            via_engine = engine.min_cut(trace=trace)
        _assert_matches_reference(direct, led_direct, ref, led_ref)
        _assert_matches_reference(via_engine, led_engine, ref, led_ref)
        if trace:
            assert direct.report is not None
            assert via_engine.report is not None

    def test_shared_rng_matches_seed(self, graph):
        # passing rng= consumes the stream exactly like the reference does
        streams = [np.random.default_rng(5) for _ in range(3)]
        ref = reference_minimum_cut(graph, rng=streams[0])
        direct = repro.minimum_cut(graph, rng=streams[1])
        via = CutEngine(graph, rng=streams[2]).min_cut()
        _assert_same_result(ref, direct)
        _assert_same_result(ref, via)
        assert len({s.random() for s in streams}) == 1

    @pytest.mark.parametrize(
        "knobs",
        [
            {"max_trees": None, "decomposition": "bough"},
            {"epsilon": 0.3},
            {"packing_iterations": 12},
            {"approx_value": 10.0},
        ],
    )
    def test_knob_parity(self, graph, knobs):
        pipeline_knobs = {k: v for k, v in knobs.items() if k != "approx_value"}
        led_ref = Ledger()
        ref = reference_minimum_cut(
            graph,
            repro.CutPipelineParams(**pipeline_knobs),
            rng=np.random.default_rng(3),
            approx_value=knobs.get("approx_value"),
            ledger=led_ref,
        )
        led_direct, led_engine = Ledger(), Ledger()
        direct = repro.minimum_cut(
            graph, rng=np.random.default_rng(3), ledger=led_direct, **knobs
        )
        via = CutEngine(graph, seed=3, ledger=led_engine, **knobs).min_cut()
        _assert_matches_reference(direct, led_direct, ref, led_ref)
        _assert_matches_reference(via, led_engine, ref, led_ref)

    def test_pipeline_bundle_and_conflicts(self, graph):
        pp = repro.CutPipelineParams(decomposition="bough")
        via = CutEngine(graph, seed=3, pipeline=pp).min_cut()
        direct = repro.minimum_cut(graph, rng=np.random.default_rng(3), pipeline=pp)
        _assert_same_result(direct, via)
        with pytest.raises(InvalidParameterError, match="not both"):
            CutEngine(graph, pipeline=pp, decomposition="heavy" if False else "bough")
        with pytest.raises(InvalidParameterError, match="not both"):
            CutEngine(graph, seed=1, rng=np.random.default_rng(1))

    def test_degenerate_inputs(self):
        two = Graph.from_edges(2, [(0, 1, 3.5)])
        assert CutEngine(two, seed=0).min_cut().value == 3.5
        disconnected = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        res = CutEngine(disconnected, seed=0).min_cut()
        assert res.value == 0.0
        from repro.errors import GraphFormatError

        with pytest.raises(GraphFormatError):
            CutEngine(Graph.empty(1), seed=0).min_cut()


class TestWarmCache:
    def test_second_query_is_a_charge_free_memo_hit(self, graph):
        led = Ledger()
        engine = CutEngine(graph, seed=8, ledger=led)
        first = engine.min_cut()
        phases_before = _phases(led)
        work_before, depth_before = led.work, led.depth
        second = engine.min_cut()
        _assert_same_result(first, second)
        assert first.side.tobytes() == second.side.tobytes()
        # served from the result memo: not even the search is charged
        assert _phases(led) == phases_before
        assert (led.work, led.depth) == (work_before, depth_before)

    def test_invalidated_memo_charges_only_the_search(self, graph):
        led = Ledger()
        engine = CutEngine(graph, seed=8, ledger=led)
        first = engine.min_cut()
        snap = led.snapshot()
        phases_before = _phases(led)
        assert engine.cache.invalidate("result") == 1
        second = engine.min_cut()
        _assert_same_result(first, second)
        dw, _ = led.since(snap)
        phases_after = _phases(led)
        for ph in ("approximate", "skeleton", "greedy-packing"):
            assert phases_after[ph] == phases_before[ph], ph
        # all new work sits under the per-query search phase
        search_delta = (
            phases_after["two-respecting"][0] - phases_before["two-respecting"][0]
        )
        assert dw == pytest.approx(search_delta)
        assert dw > 0

    def test_memo_hit_parks_the_generator_like_a_search(self, graph):
        # a batch leaves the live generator at the forest's recorded
        # position; the next min_cut must park it at the index's whether
        # the memo answers it or a search does, or the following rebase
        # would bind a different epoch
        def engine_after(memo_hit):
            engine = CutEngine(graph, seed=6)
            engine.min_cut()
            engine.min_cut_batch([1])
            if not memo_hit:
                engine.cache.invalidate("result")
            engine.min_cut()
            return engine

        hit, searched = engine_after(True), engine_after(False)
        never = CutEngine(graph, seed=6)
        never.min_cut()
        assert hit._rng.bit_generator.state == searched._rng.bit_generator.state
        assert hit._rng.bit_generator.state == never._rng.bit_generator.state
        results = [e.rebase().min_cut() for e in (hit, searched, never)]
        heads = {e.fingerprint_chain()["result"]["fingerprint"] for e in (hit, searched, never)}
        assert len(heads) == 1
        for other in results[1:]:
            _assert_same_result(results[0], other)

    def test_warm_prebuilds_artifacts(self, graph):
        cache = ArtifactCache()
        engine = CutEngine(graph, seed=4, cache=cache).warm()
        assert len(cache) == 4  # validate, approximate, forest, index
        led = Ledger()
        engine.ledger = led
        engine.min_cut()
        assert "approximate" not in _phases(led)

    def test_cache_counters(self, graph):
        reg = CounterRegistry()
        with counting_scope(reg):
            engine = CutEngine(graph, seed=4)
            engine.min_cut()
            engine.min_cut()
        assert reg.get("engine.queries") == 2.0
        assert reg.get("engine.stage_runs") == 4.0
        # cold: four stage builds (the forest build re-reads the
        # approximation) plus the result memo's miss; warm: validate,
        # approximate, index and the memo all hit
        assert reg.get("engine.cache_misses") == 5.0
        assert reg.get("engine.cache_hits") == 5.0

    def test_distinct_seeds_do_not_share_artifacts(self, graph):
        cache = ArtifactCache()
        a = CutEngine(graph, seed=1, cache=cache).min_cut()
        b = CutEngine(graph, seed=2, cache=cache).min_cut()
        assert len(cache) >= 7  # only the validate artifact is shared
        assert a.value == b.value  # both exact w.h.p.

    def test_param_change_invalidates_deterministically(self, graph):
        cache = ArtifactCache()
        CutEngine(graph, seed=1, cache=cache).min_cut()
        n = len(cache)
        # a query-stage knob (max_trees) misses only the index stage —
        # plus the result memo that rides on the index fingerprint
        CutEngine(graph, seed=1, max_trees=4, cache=cache).min_cut()
        assert len(cache) == n + 2


class TestArtifactCacheBounds:
    def test_lru_entry_bound(self):
        cache = ArtifactCache(max_entries=2)
        for i in range(4):
            cache.put("s", str(i), TreeIndex(str(i)))
        assert len(cache) == 2
        assert ("s", "3") in cache and ("s", "2") in cache
        assert cache.stats["evictions"] == 2

    def test_byte_bound_keeps_latest(self, graph):
        engine = CutEngine(graph, seed=0)
        engine.warm()
        forest = engine.cache.get("forest", engine._fp_forest)
        assert isinstance(forest, PackedForest)
        small = ArtifactCache(max_bytes=max(1, forest.nbytes // 2))
        small.put("forest", "a", forest)
        # an artifact larger than the whole budget is stored alone
        assert ("forest", "a") in small
        small.put("forest", "b", forest)
        assert ("forest", "b") in small and ("forest", "a") not in small

    def test_invalidate(self, graph):
        engine = CutEngine(graph, seed=0).warm()
        assert engine.cache.invalidate("index") == 1
        assert engine.cache.invalidate() == 3
        assert len(engine.cache) == 0
        # next query rebuilds everything
        assert engine.min_cut().value > 0

    def test_validates_bounds(self):
        with pytest.raises(InvalidParameterError):
            ArtifactCache(max_entries=0)
        with pytest.raises(InvalidParameterError):
            ArtifactCache(max_bytes=0)

    def test_fingerprints_change_with_inputs(self, graph):
        fp = graph_fingerprint(graph)
        w = graph.w.copy()
        w[0] += 1.0
        assert graph_fingerprint(graph.with_weights(w)) != fp
        assert combine_fingerprint("a", 1) != combine_fingerprint("a", 2)


class TestBatch:
    @pytest.mark.parametrize("backend", ["sync", "process"])
    def test_batch_values_exact(self, graph, backend):
        truth = repro.minimum_cut(graph, rng=np.random.default_rng(0)).value
        with force_executor(backend):
            results = CutEngine(graph, seed=0).min_cut_batch(range(6))
        assert len(results) == 6
        for r in results:
            assert r.value == pytest.approx(truth)

    @pytest.mark.parametrize("trace", [False, True])
    def test_batch_parity_and_ledger_process_vs_sync(self, trace):
        # values, side masks, stats and the absorbed ledger work/depth
        # are bit-identical on both backends
        g = random_connected_graph(50, 350, rng=19, max_weight=6)

        def run(backend):
            led = Ledger()
            with force_executor(backend):
                res = CutEngine(g, seed=0, ledger=led).min_cut_batch(
                    [1, 2, 3], trace=trace
                )
            shutdown_shared_pools()
            return (
                [(r.value, np.asarray(r.side).tobytes(), dict(r.stats)) for r in res],
                (led.work, led.depth),
                _phases(led),
            )

        assert run("process") == run("sync")

    def test_batch_preprocesses_once(self, graph):
        # batch of 8: approximate/skeleton/greedy-packing phase charges
        # equal a single cold run's — preprocessing ran exactly once
        led_single = Ledger()
        repro.minimum_cut(graph, rng=np.random.default_rng(13), ledger=led_single)
        single = _phases(led_single)

        led_batch = Ledger()
        CutEngine(graph, seed=13, ledger=led_batch).min_cut_batch(range(8))
        batch = _phases(led_batch)
        for ph in ("approximate", "skeleton", "greedy-packing"):
            assert batch[ph] == single[ph], ph

    def test_warm_batch_charges_no_preprocessing(self, graph):
        led = Ledger()
        engine = CutEngine(graph, seed=13, ledger=led).warm()
        before = _phases(led)
        engine.min_cut_batch(range(8))
        after = _phases(led)
        for ph in ("approximate", "skeleton", "greedy-packing"):
            assert after[ph] == before[ph], ph
        # and the searches were absorbed as one parallel round:
        # depth grows by a max, work by a sum
        assert led.work > sum(w for w, _ in before.values())

    def test_batch_deterministic_per_seed(self, graph):
        a = CutEngine(graph, seed=2).min_cut_batch([5, 6])
        b = CutEngine(graph, seed=2).min_cut_batch([5, 6])
        for x, y in zip(a, b):
            _assert_same_result(x, y)

    def test_empty_batch(self, graph):
        assert CutEngine(graph, seed=0).min_cut_batch([]) == []

    def test_batch_on_disconnected_graph(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        results = CutEngine(g, seed=0).min_cut_batch(range(3))
        assert [r.value for r in results] == [0.0, 0.0, 0.0]

    def test_batch_trace_attaches_report(self, graph):
        results = CutEngine(graph, seed=0).min_cut_batch([1, 2], trace=True)
        assert all(r.report is not None for r in results)


def _reweight(engine, weights):
    # the historical weight-only contract tests, spelled through the
    # engine's one mutation surface (an infinite MAX_STALENESS matches
    # the old weight-only semantics: only the coverage trigger can rebase)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(service, "MAX_STALENESS", math.inf)
        return engine.update(reweight=weights).result


class TestReweight:
    def test_requery_shim_is_gone(self, graph):
        # the one-release deprecation runway expired with the durable
        # state release; the spelling now fails loudly
        assert not hasattr(CutEngine(graph, seed=7), "requery")

    def test_scaled_weights_track_value(self, graph):
        from repro.arena.solvers import stoer_wagner

        engine = CutEngine(graph, seed=7)
        engine.min_cut()
        w = graph.w * 1.25
        res = _reweight(engine, w)
        assert dict(res.stats)["update"] == 1.0
        truth = stoer_wagner(graph.with_weights(w, drop_zero=False))
        assert res.value == pytest.approx(truth.value)

    def test_sparse_update_spelling(self, graph):
        engine = CutEngine(graph, seed=7)
        base = engine.min_cut()
        res = _reweight(engine, {0: float(graph.w[0])})  # no-op update
        assert res.value == pytest.approx(base.value)

    def test_reweight_reuses_packed_trees(self, graph):
        led = Ledger()
        engine = CutEngine(graph, seed=7, ledger=led)
        engine.min_cut()
        before = _phases(led)
        _reweight(engine, graph.w * 1.01)
        after = _phases(led)
        for ph in ("approximate", "skeleton", "greedy-packing"):
            assert after[ph] == before[ph], ph

    def test_large_perturbation_rebases(self, graph):
        from repro.arena.solvers import stoer_wagner

        reg = CounterRegistry()
        engine = CutEngine(graph, seed=7)
        engine.min_cut()
        w = graph.w * 100.0
        with counting_scope(reg):
            res = _reweight(engine, w)
        assert reg.get("engine.rebases") == 1.0
        assert dict(res.stats)["rebased"] == 1.0
        truth = stoer_wagner(graph.with_weights(w, drop_zero=False))
        assert res.value == pytest.approx(truth.value)

    def test_zero_weight_rejected(self, graph):
        # the Graph contract (positive weights) covers reweighting too;
        # edge removal is remove_edges, not a zero weight
        from repro.errors import GraphFormatError

        engine = CutEngine(graph, seed=7)
        engine.min_cut()
        w = graph.w.copy()
        w[0] = 0.0
        with pytest.raises(GraphFormatError):
            _reweight(engine, w)


class TestReweightNoop:
    """An all-zero-delta perturbation is a pure cache hit: no search, no
    ledger charge, and no rebase-threshold accounting drift."""

    def test_zero_delta_is_pure_cache_hit(self, graph):
        reg = CounterRegistry()
        led = Ledger()
        engine = CutEngine(graph, seed=7, ledger=led)
        base = engine.min_cut()
        before = _phases(led)
        work_before, depth_before = led.work, led.depth
        with counting_scope(reg):
            res_empty = _reweight(engine, {})  # empty sparse mapping
            res_same = _reweight(engine, graph.w.copy())  # identical full vector
            # a threshold this tight would force a rebase on any result
            # that actually re-ran the threshold accounting
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(service, "REBASE_THRESHOLD", 1e-9)
                res_tight = _reweight(engine, {})
        for res in (res_empty, res_same, res_tight):
            assert res.value == base.value
            assert dict(res.stats)["update"] == 1.0
            assert "rebased" not in dict(res.stats)
        assert reg.get("engine.update_noops") == 3.0
        assert reg.get("engine.rebases") == 0.0
        # nothing was recomputed: the ledger did not move at all
        assert _phases(led) == before
        assert (led.work, led.depth) == (work_before, depth_before)

    def test_noop_before_any_query_still_answers(self, graph):
        # no memoized result yet: the no-op path falls back to min_cut()
        engine = CutEngine(graph, seed=7)
        res = _reweight(engine, {})
        assert dict(res.stats)["update"] == 1.0
        assert res.value == CutEngine(graph, seed=7).min_cut().value


class TestMemoAfterUpdate:
    """The memo holds what min_cut returns; update() decorates only its
    own UpdateResult."""

    @pytest.mark.parametrize(
        "rebases, mutation",
        [
            (False, lambda g: {"add_edges": [(0, 9, 2.0)]}),
            (True, lambda g: {"reweight": g.w * 2.0}),  # staleness trigger
        ],
    )
    def test_min_cut_after_update_is_undecorated(self, graph, rebases, mutation):
        engine = CutEngine(graph, seed=7)
        engine.min_cut()
        upd = engine.update(**mutation(graph))
        assert upd.rebased is rebases
        assert dict(upd.result.stats)["update"] == 1.0
        res = engine.min_cut()
        assert "update" not in dict(res.stats)
        assert "rebased" not in dict(res.stats)
        assert res.value == upd.value
        assert res.value == CutEngine(engine.graph, seed=7).min_cut().value
        # the certificate stays with the memoized answer, so a no-op
        # update still reports it
        assert res.verification is upd.verification
        noop = engine.update(reweight={})
        assert noop.noop and noop.verification is upd.verification


class TestArtifactCacheThreadSafety:
    def test_concurrent_hammer_keeps_invariants(self):
        import threading

        cache = ArtifactCache(max_entries=8, max_bytes=1 << 16)
        stop = threading.Event()
        errors = []

        def worker(wid):
            rng = np.random.default_rng(wid)
            try:
                for _ in range(500):
                    key = int(rng.integers(0, 32))
                    stage = ("forest", "index")[key % 2]
                    fp = f"fp{key}"
                    roll = rng.random()
                    if roll < 0.55:
                        cache.put(stage, fp, np.zeros(int(rng.integers(1, 64))))
                    elif roll < 0.90:
                        got = cache.get(stage, fp)
                        if got is not None:
                            assert isinstance(got, np.ndarray)
                    elif roll < 0.95:
                        assert (stage, fp) in cache or True  # __contains__ race-free
                    else:
                        cache.invalidate(stage if key % 3 else None)
                    assert len(cache) <= cache.max_entries
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
                stop.set()

        threads = [
            threading.Thread(target=worker, args=(w,), name=f"hammer-{w}")
            for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        assert len(cache) <= cache.max_entries
        assert 0 <= cache.current_bytes <= cache.max_bytes


class TestApproximateSkip:
    """``approximate_stage`` returns the minimum weighted degree delta,
    without running Section 3, when delta puts the skeleton at p = 1
    for any estimate <= delta and lies below the separation window."""

    @staticmethod
    def _grid():
        return grid_graph(14, 14, rng=13, max_weight=3)

    def test_skip_returns_delta_and_draws_nothing(self):
        g = self._grid()
        delta = float(g.weighted_degrees.min())
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        reg, led = CounterRegistry(), Ledger()
        with counting_scope(reg):
            value, skipped = approximate_stage(g, CutPipelineParams(), rng, led)
        assert (value, skipped) == (delta, True)
        assert rng.bit_generator.state == before
        assert reg.get("approx.skipped") == 1.0
        assert reg.get("approx.layers_cut") == 0.0
        # only the reduction is charged: work m, depth log2ceil(196) == 8
        (rec,) = led.phases.values()
        assert (rec.name, rec.work, rec.depth) == ("approximate", g.m, 8)

    @pytest.mark.parametrize(
        "params",
        [
            # the window's low edge 0.005 * 75 * log2(196) = 2.86 <= delta
            {"hierarchy": repro.HierarchyParams(scale=0.005)},
            # 2 * 0.2 * ln(196) = 2.11 < delta: a Section 3 estimate
            # near delta would sample at p < 1
            {"skeleton": repro.SkeletonParams(sample_constant=0.2)},
        ],
        ids=["window", "sampling"],
    )
    def test_either_condition_failing_runs_section_3(self, params):
        g = self._grid()
        assert g.weighted_degrees.min() == 3.0
        pipeline = CutPipelineParams(**params)
        reg = CounterRegistry()
        with counting_scope(reg):
            value, skipped = approximate_stage(
                g, pipeline, np.random.default_rng(5), Ledger()
            )
        assert not skipped
        assert reg.get("approx.skipped") == 0.0
        assert reg.get("approx.layers_cut") >= 1.0
        full = approximate_minimum_cut(
            g,
            params=pipeline.hierarchy or repro.HierarchyParams(),
            rng=np.random.default_rng(5),
        )
        assert value == max(full.estimate, 1e-12)

    def test_real_weights_compare_the_window_in_integer_units(self):
        # Section 3 scales real weights so the lightest edge is 1000
        # units: delta is far above the window there, so no skip
        g = self._grid()
        g = g.with_weights(g.w * 0.37)
        _, skipped = approximate_stage(
            g, CutPipelineParams(), np.random.default_rng(5), Ledger()
        )
        assert not skipped

    @pytest.mark.parametrize("seed", [0, 5])
    def test_skipped_skeleton_is_the_unskipped_one(self, seed):
        # p = 1 on both paths: the weight-capped graph, bit for bit
        g = self._grid()
        value, skipped = approximate_stage(
            g, CutPipelineParams(), np.random.default_rng(seed), Ledger()
        )
        assert skipped
        full = approximate_minimum_cut(g, rng=np.random.default_rng(seed))
        assert full.estimate <= value
        a = build_cut_skeleton(g, value / 2.0, rng=np.random.default_rng(seed))
        b = build_cut_skeleton(g, full.estimate / 2.0, rng=np.random.default_rng(seed))
        assert a.p == b.p == 1.0
        assert a.cap == b.cap
        for col in ("u", "v", "w"):
            x, y = getattr(a.skeleton, col), getattr(b.skeleton, col)
            assert x.tobytes() == y.tobytes()

    def test_cut_reports_the_skip(self):
        g = self._grid()
        reg = CounterRegistry()
        with counting_scope(reg):
            res = repro.minimum_cut(g, rng=np.random.default_rng(0))
        assert res.value == stoer_wagner(g).value
        assert res.stats["approx_skipped"] == 1.0
        assert res.stats["lambda_underestimate"] == 1.5
        assert reg.get("approx.skipped") == 1.0

    def test_sample_constant_keys_the_approximate_artifact(self):
        # the skip reads the sampling constant, so engines sharing a
        # cache must not share an approximate artifact across it
        cache = ArtifactCache()
        g = self._grid()
        a = CutEngine(g, seed=0, cache=cache).min_cut()
        b = CutEngine(
            g,
            seed=0,
            cache=cache,
            skeleton_params=repro.SkeletonParams(sample_constant=0.2),
        ).min_cut()
        assert a.stats["approx_skipped"] == 1.0
        assert b.stats["approx_skipped"] == 0.0
