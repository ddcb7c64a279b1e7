"""The zero-copy shared-memory backend: arena lifecycle, codec round
trips, executor parity, artifact publication, fault injection, and the
zero-leak contract.

The pivotal invariants:

* the ``shm`` backend is **bit-identical** to sync — cut values, stats,
  and ledger work/depth charges — traced and untraced;
* no run leaves a live segment behind: not after a clean shutdown, not
  after an injected segment loss, not after a worker dies mid-dispatch.
"""

import os
import signal

import numpy as np
import pytest

from repro.engine import CutEngine
from repro.engine.artifacts import PackedForest, TreeIndex
from repro.graphs import random_connected_graph
from repro.kernels.flat2d import FlatRangeTree2D
from repro.pram import Ledger, force_executor, parallel_map, prewarm_executor
from repro.pram.executor import shutdown_shared_pools
from repro.resilience.faults import (
    SITE_SHM_SEGMENT_LOST,
    Fault,
    FaultPlan,
    canonical_plans,
    inject,
)
from repro.resilience.supervisor import Supervisor, supervised_scope
from repro.shm import (
    ShmArena,
    ShmRef,
    ShmSegmentLost,
    arena,
    decode_object,
    encode_object,
    fetch_object,
    live_segments,
    plan_shards,
    publish_object,
    release_object,
    sharded_query_many,
    shm_available,
    shutdown_arena,
)
from repro.shm.arena import _aligned
from repro.shm.codec import _MIN_EXTERN_BYTES
from repro.tworespect import two_respecting_min_cut

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="no usable POSIX shared memory on this host"
)

SEED = 19


def _make_graph(n=60, m=400, seed=SEED):
    return random_connected_graph(n, m, rng=seed, max_weight=6)


def _spanning_parent(g):
    from repro.primitives import root_tree, spanning_forest_graph

    ids, _ = spanning_forest_graph(g)
    return root_tree(g.n, g.u[ids], g.v[ids], 0)


# module-level so the process/shm backends can pickle them
def _scale(context, x):
    return context["factor"] * x


def _die(context, x):
    os.kill(os.getpid(), signal.SIGKILL)


def _search_seed(context, seed):
    graph, parent, branching = context
    led = Ledger()
    res = two_respecting_min_cut(graph, parent, branching=branching, ledger=led)
    return res.value, dict(res.stats), led.work, led.depth


def teardown_module():
    shutdown_shared_pools()
    shutdown_arena()


# ---------------------------------------------------------------------------
# arena lifecycle
# ---------------------------------------------------------------------------
class TestArena:
    def test_publish_retain_release_refcount(self):
        with ShmArena() as a:
            name, nbytes = a.publish("k", b"payload", [memoryview(b"x" * 100)])
            assert nbytes >= 100
            assert a.live() == (name,)
            again = a.retain("k")
            assert again == (name, nbytes)
            a.release("k")
            assert a.live() == (name,)  # one ref still held
            a.release("k")
            assert a.live() == ()

    def test_republish_same_key_reuses_segment(self):
        with ShmArena() as a:
            name, _ = a.publish("k", b"p", [])
            name2, _ = a.publish("k", b"DIFFERENT", [])
            assert name2 == name  # content ignored: key is the identity
            assert len(a.live()) == 1

    def test_retain_unknown_key_is_none(self):
        with ShmArena() as a:
            assert a.retain("ghost") is None
            a.release("ghost")  # releasing an unknown key is a no-op

    def test_discard_ignores_refcount(self):
        with ShmArena() as a:
            a.publish("k", b"p", [])
            a.retain("k")
            a.discard("k")
            assert a.live() == ()
            assert a.retain("k") is None  # a retry must republish

    def test_shutdown_unlinks_everything(self):
        a = ShmArena()
        a.publish("k1", b"p", [])
        a.publish("k2", b"q", [memoryview(b"y" * 5000)])
        a.shutdown()
        assert a.live() == ()
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            a.publish("k3", b"r", [])

    def test_block_alignment(self):
        # every block payload starts at a multiple of 64 bytes, so int64
        # and float64 frombuffer views are always aligned
        assert _aligned(1) == 64
        assert _aligned(64) == 64
        assert _aligned(65) == 128
        from repro.shm.arena import attach_segment, detach_all

        with ShmArena() as a:
            blocks_in = [memoryview(b"a" * 7), memoryview(b"b" * 200)]
            name, _ = a.publish("k", b"pp", blocks_in)
            payload, blocks, fresh = attach_segment(name)
            assert fresh
            assert payload == b"pp"
            assert [bytes(b) for b in blocks] == [b"a" * 7, b"b" * 200]
            detach_all()

    def test_default_arena_live_segments(self):
        shutdown_arena()
        assert live_segments() == ()
        arena().publish("probe", b"x", [])
        assert len(live_segments()) == 1
        shutdown_arena()
        assert live_segments() == ()


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------
class TestCodec:
    def test_round_trip_externalizes_large_arrays(self):
        big = np.arange(4096, dtype=np.float64)
        small = np.arange(4, dtype=np.int64)
        obj = {"big": big, "small": small, "tag": "t"}
        payload, blocks = encode_object(obj)
        assert len(blocks) == 1  # only the large array left the pickle
        assert len(payload) < big.nbytes
        back = decode_object(payload, blocks)
        np.testing.assert_array_equal(back["big"], big)
        np.testing.assert_array_equal(back["small"], small)
        assert back["tag"] == "t"
        # zero-copy views are read-only: the published object is immutable
        assert not back["big"].flags.writeable
        assert back["small"].flags.writeable  # inline arrays stay private

    def test_threshold_boundary(self):
        under = np.zeros(_MIN_EXTERN_BYTES // 8 - 1, dtype=np.float64)
        over = np.zeros(_MIN_EXTERN_BYTES // 8, dtype=np.float64)
        assert len(encode_object(under)[1]) == 0
        assert len(encode_object(over)[1]) == 1

    def test_publish_fetch_release(self):
        shutdown_arena()
        obj = {"xs": np.arange(1000, dtype=np.int64)}
        ref = publish_object("codec-test", obj)
        assert isinstance(ref, ShmRef)
        assert len(live_segments()) == 1
        got, _fresh = fetch_object(ref)
        np.testing.assert_array_equal(got["xs"], obj["xs"])
        release_object(ref)
        shutdown_arena()
        assert live_segments() == ()

    def test_keyless_publish_dedups_by_content(self):
        shutdown_arena()
        obj = {"xs": np.arange(1000, dtype=np.int64)}
        r1 = publish_object(None, obj)
        r2 = publish_object(None, {"xs": np.arange(1000, dtype=np.int64)})
        assert r1.key.startswith("sha256:")
        assert r2.segment == r1.segment  # same bytes, same segment
        assert len(live_segments()) == 1
        release_object(r1)
        release_object(r2)
        assert live_segments() == ()

    def test_fetch_lost_segment_raises(self):
        shutdown_arena()
        from repro.shm.codec import forget_object

        ref = publish_object("doomed", {"xs": np.arange(1000)})
        arena().discard("doomed")
        forget_object(ref.segment)
        from repro.shm.arena import detach_all

        detach_all()
        with pytest.raises(ShmSegmentLost):
            fetch_object(ref)


# ---------------------------------------------------------------------------
# executor backend parity
# ---------------------------------------------------------------------------
class TestExecutorParity:
    def teardown_method(self):
        shutdown_shared_pools()
        assert live_segments() == ()

    def test_context_broadcast_matches_sync(self):
        items = list(range(12))
        ctx = {"factor": 3}
        with force_executor("sync"):
            want = parallel_map(_scale, items, context=ctx)
        with force_executor("shm"):
            got = parallel_map(_scale, items, 4, context=ctx, context_key="scale3")
        assert got == want

    @pytest.mark.parametrize("trace", [False, True])
    def test_search_parity_vs_sync(self, trace):
        """The gate invariant: shm produces bit-identical values, stats,
        and ledger charges to sync, traced and untraced."""
        from repro import obs

        g = _make_graph()
        parent = _spanning_parent(g)
        ctx = (g, parent, 2)
        seeds = [0, 1, 2, 3]

        def run(backend):
            with force_executor(backend):
                if trace:
                    tracer = obs.Tracer(ledger=Ledger())
                    with tracer.activate():
                        out = parallel_map(
                            _search_seed, seeds, 4,
                            context=ctx, context_key="parity",
                        )
                    tracer.finish()
                    return out
                return parallel_map(
                    _search_seed, seeds, 4,
                    context=ctx, context_key="parity",
                )

        assert run("shm") == run("sync")

    def test_engine_batch_parity_and_ledger(self):
        g = _make_graph(50, 350)
        seeds = [1, 2, 3]

        def run(backend):
            led = Ledger()
            eng = CutEngine(g, seed=0, ledger=led)
            with force_executor(backend):
                res = eng.min_cut_batch(seeds)
            return [(r.value, dict(r.stats)) for r in res], (led.work, led.depth)

        assert run("shm") == run("sync")

    def test_publication_reused_across_calls(self):
        from repro.obs.counters import CounterRegistry, counting_scope

        ctx = {"factor": 2}
        reg = CounterRegistry()
        with counting_scope(reg), force_executor("shm"):
            parallel_map(_scale, [1, 2], 2, context=ctx, context_key="reuse-k")
            parallel_map(_scale, [3, 4], 2, context=ctx, context_key="reuse-k")
        counts = reg.snapshot()
        assert counts.get("shm.segments_published") == 1.0

    def test_prewarm_returns_backend(self):
        with force_executor("shm"):
            assert prewarm_executor(max_workers=2) == "shm"


# ---------------------------------------------------------------------------
# engine artifacts
# ---------------------------------------------------------------------------
class TestArtifactPublication:
    def teardown_method(self):
        shutdown_shared_pools()
        shutdown_arena()

    def test_to_shm_from_shm_round_trip(self):
        g = _make_graph(40, 250)
        eng = CutEngine(g, seed=0)
        eng.min_cut()
        forest = eng._forest(Ledger())
        index = eng._indexed(Ledger())
        ref_f, ref_i = forest.to_shm(), index.to_shm()
        assert len(live_segments()) == 2
        back_f = PackedForest.from_shm(ref_f)
        back_i = TreeIndex.from_shm(ref_i)
        assert back_f.fingerprint == forest.fingerprint
        assert back_i.num_trees == index.num_trees
        for a, b in zip(back_i.tree_parents, index.tree_parents):
            np.testing.assert_array_equal(a, b)
        release_object(ref_f)
        release_object(ref_i)
        assert live_segments() == ()

    def test_republish_reuses_segment(self):
        g = _make_graph(40, 250)
        eng = CutEngine(g, seed=0)
        eng.min_cut()
        forest = eng._forest(Ledger())
        r1 = forest.to_shm()
        r2 = forest.to_shm()
        assert r2.segment == r1.segment
        assert len(live_segments()) == 1
        release_object(r1)
        release_object(r2)
        assert live_segments() == ()

    def test_from_shm_type_mismatch(self):
        g = _make_graph(40, 250)
        eng = CutEngine(g, seed=0)
        eng.min_cut()
        forest = eng._forest(Ledger())
        ref = forest.to_shm()
        with pytest.raises(TypeError):
            TreeIndex.from_shm(ref)
        release_object(ref)


# ---------------------------------------------------------------------------
# sharded flat2d queries
# ---------------------------------------------------------------------------
class TestShardedQueries:
    def teardown_method(self):
        shutdown_shared_pools()
        assert live_segments() == ()

    def test_plan_shards_covers_and_floors(self):
        assert plan_shards(0, 4) == []
        assert plan_shards(100, 4) == [(0, 100)]  # below the 256 floor
        ranges = plan_shards(1000, 3)
        assert ranges[0][0] == 0 and ranges[-1][1] == 1000
        assert all(hi - lo >= 256 for lo, hi in ranges)
        joined = [x for lo, hi in ranges for x in range(lo, hi)]
        assert joined == list(range(1000))

    def test_sharded_matches_whole_batch(self):
        rng = np.random.default_rng(5)
        n = 400
        xs = rng.integers(0, 1000, n)
        ys = rng.integers(0, 1000, n)
        ws = rng.random(n)
        tree = FlatRangeTree2D(xs, ys, ws)
        q = 1200
        x1 = rng.integers(0, 500, q)
        x2 = x1 + rng.integers(0, 500, q)
        y1 = rng.integers(0, 500, q)
        y2 = y1 + rng.integers(0, 500, q)
        want = tree.query_many(x1, x2, y1, y2)
        for backend in ("sync", "thread", "shm"):
            with force_executor(backend):
                got = sharded_query_many(
                    tree, x1, x2, y1, y2, shards=4, max_workers=4,
                    context_key=f"shard-{backend}",
                )
            for w, g in zip(want, got):
                np.testing.assert_array_equal(w, g)


# ---------------------------------------------------------------------------
# fault injection + leaks
# ---------------------------------------------------------------------------
class TestFaultsAndLeaks:
    def teardown_method(self):
        shutdown_shared_pools()
        shutdown_arena()

    def test_segment_lost_without_retry_raises(self):
        plan = FaultPlan([Fault(SITE_SHM_SEGMENT_LOST, index=0)])
        with force_executor("shm"), inject(plan):
            with pytest.raises(ShmSegmentLost):
                parallel_map(_scale, [1, 2], 2,
                             context={"factor": 2}, context_key="lost-a")
        assert plan.exhausted
        assert live_segments() == ()  # the lost segment was discarded

    def test_segment_lost_retry_republishes(self):
        plan = FaultPlan([Fault(SITE_SHM_SEGMENT_LOST, index=0)])
        with force_executor("shm"), inject(plan):
            out = parallel_map(_scale, [1, 2], 2, retries=1,
                               context={"factor": 2}, context_key="lost-b")
        assert out == [2, 4]
        assert plan.exhausted

    def test_canonical_plan_fires(self):
        plan = canonical_plans(seed=0)["shm_segment_lost"]
        with force_executor("shm"), inject(plan):
            out = parallel_map(_scale, [1, 2], 2, retries=1,
                               context={"factor": 3}, context_key="lost-c")
        assert out == [3, 6]
        assert plan.fired == [(SITE_SHM_SEGMENT_LOST, 0)]

    def test_supervisor_degrades_shm_to_process(self):
        from tests.test_supervisor import FakeClock

        sup = Supervisor(clock=FakeClock(), jitter=0.0)
        plan = FaultPlan([Fault(SITE_SHM_SEGMENT_LOST, index=0)])
        with force_executor("shm"), supervised_scope(sup), inject(plan):
            out = parallel_map(_scale, [1, 2], 2, retries=1,
                               context={"factor": 2}, context_key="lost-d")
        assert out == [2, 4]
        assert sup.health["shm"].failures == 1
        assert [(e.backend_from, e.backend_to) for e in sup.events] == [
            ("shm", "process")
        ]

    def test_no_leak_after_clean_shutdown(self):
        with force_executor("shm"):
            parallel_map(_scale, list(range(6)), 2,
                         context={"factor": 5}, context_key="leak-a")
        assert len(live_segments()) == 1  # cached for reuse while pools live
        shutdown_shared_pools()
        assert live_segments() == ()

    def test_no_leak_after_worker_death(self):
        """A SIGKILLed worker breaks the pool mid-dispatch; the parent
        still owns every segment and tears them all down."""
        from concurrent.futures import BrokenExecutor

        from repro.errors import BranchErrors

        with force_executor("shm"):
            with pytest.raises((BrokenExecutor, BranchErrors, OSError)):
                parallel_map(_die, [1, 2], 2,
                             context={"factor": 1}, context_key="leak-b")
            # recovery on a fresh dispatch still works
            out = parallel_map(_scale, [7], 2,
                               context={"factor": 2}, context_key="leak-b2")
        assert out == [14]
        shutdown_shared_pools()
        assert live_segments() == ()

    def test_segments_freed_when_lru_cap_overflows(self):
        import repro.pram.executor as ex

        with force_executor("shm"):
            for i in range(ex._SHM_REF_CAP + 3):
                parallel_map(_scale, [i], 2,
                             context={"factor": i}, context_key=f"lru-{i}")
            assert len(live_segments()) <= ex._SHM_REF_CAP
        shutdown_shared_pools()
        assert live_segments() == ()
