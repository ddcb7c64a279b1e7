"""The mutation surface: deltas, ``CutEngine.update``, epochs, rebase
triggers, and the serve-layer ``update``/``graph_info`` ops.

The headline suite is the randomized parity property: for sequences of
50 mixed add/remove/reweight updates, every post-update ``update()``
answer must be bit-identical in value to a cold engine built on the
mutated graph, and must carry a passing exactness certificate — across
executor backends and with a ``delta.force_rebase`` fault injected
mid-sequence.
"""

import math

import numpy as np
import pytest

import repro
from repro.engine import CutEngine, DeltaLog, GraphDelta, UpdateResult, as_delta
from repro.engine import service
from repro.engine.deltas import random_delta
from repro.errors import GraphFormatError
from repro.graphs import Graph, random_connected_graph
from repro.obs import CounterRegistry, counting_scope
from repro.pram.executor import force_executor
from repro.pram.ledger import Ledger
from repro.resilience.faults import SITE_DELTA_FORCE_REBASE, Fault, FaultPlan, inject


@pytest.fixture
def graph():
    return random_connected_graph(24, 60, rng=5, max_weight=5)


def _cold_value(graph):
    return CutEngine(graph, seed=0).min_cut().value


# ---------------------------------------------------------------------------
# delta primitives
# ---------------------------------------------------------------------------
class TestAsDelta:
    def test_mutation_order_reweight_remove_append(self, graph):
        delta = as_delta(
            graph,
            add_edges=[(0, 7, 2.5)],
            remove_edges=[3],
            reweight={1: 9.0},
        )
        out = delta.apply(graph)
        assert out.m == graph.m  # one removed, one appended
        assert out.w[1] == 9.0  # reweight lands before the removal shift
        # survivors keep their relative order; the addition is appended
        keep = np.ones(graph.m, dtype=bool)
        keep[3] = False
        assert np.array_equal(out.u[: graph.m - 1], graph.u[keep])
        assert (int(out.u[-1]), int(out.v[-1]), float(out.w[-1])) == (0, 7, 2.5)

    def test_restated_weight_is_noop(self, graph):
        assert as_delta(graph, reweight={0: float(graph.w[0])}).is_noop
        assert as_delta(graph, reweight=graph.w.copy()).is_noop
        assert as_delta(graph).is_noop

    def test_weight_delta_tracks_all_three_mutations(self, graph):
        delta = as_delta(
            graph,
            add_edges=[(0, 1, 4.0)],
            remove_edges=[2],
            reweight={5: float(graph.w[5]) + 1.5},
        )
        expected = 4.0 + float(graph.w[2]) + 1.5
        assert delta.weight_delta == pytest.approx(expected)
        counts = delta.counts()
        assert (counts["added"], counts["removed"], counts["reweighted"]) == (1, 1, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"add_edges": [(0, 0, 1.0)]},  # self-loop
            {"add_edges": [(0, 99, 1.0)]},  # endpoint out of range
            {"add_edges": [(0, 1, 0.0)]},  # nonpositive weight
            {"add_edges": [(0, 1, float("nan"))]},  # nonfinite weight
            {"remove_edges": [999]},  # edge index out of range
            {"reweight": {0: -1.0}},  # nonpositive reweight
            {"reweight": [1.0, 2.0]},  # full-vector shape mismatch
        ],
    )
    def test_malformed_mutations_rejected(self, graph, kwargs):
        with pytest.raises(GraphFormatError):
            as_delta(graph, **kwargs)

    def test_fingerprint_distinguishes_deltas(self, graph):
        a = as_delta(graph, reweight={0: 7.0})
        b = as_delta(graph, reweight={0: 8.0})
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == as_delta(graph, reweight={0: 7.0}).fingerprint()


class TestDeltaLog:
    def test_chain_and_staleness_ratio(self, graph):
        log = DeltaLog("base-fp", graph.total_weight)
        assert len(log) == 0 and log.staleness_ratio() == 0.0
        d = as_delta(graph, reweight={0: float(graph.w[0]) + 2.0})
        fp1 = log.append(d)
        fp2 = log.append(as_delta(graph, add_edges=[(0, 3, 1.0)]))
        assert fp1 != fp2 and len(log) == 2
        assert log.staleness_ratio() == pytest.approx(3.0 / graph.total_weight)


# ---------------------------------------------------------------------------
# the parity property: update() ≡ cold rebuild, every step
# ---------------------------------------------------------------------------
class TestUpdateParity:
    # the 50-step sequences pay a full cold rebuild per step as the
    # oracle; a smaller graph keeps the property suite fast without
    # weakening the per-step bit-identical demand
    @pytest.fixture
    def graph(self):
        return random_connected_graph(14, 34, rng=9, max_weight=4)

    def _run_sequence(self, graph, steps, seed, fault_at=None, oracle=None):
        """Drive ``steps`` random updates; return the value trajectory.

        ``oracle=None`` checks every post-update answer against a true
        cold rebuild of the mutated graph.  Passing a recorded
        trajectory instead replays the same delta sequence and demands
        the identical values — the cross-backend runs chain through the
        cold-checked sync trajectory rather than paying the rebuild
        oracle twice.
        """
        rng = np.random.default_rng(seed)
        engine = CutEngine(graph, seed=7)
        engine.min_cut()
        values = []
        for step in range(steps):
            kwargs = random_delta(engine.graph, rng)
            if step == fault_at:
                plan = FaultPlan(
                    [Fault(SITE_DELTA_FORCE_REBASE)], name="force_rebase"
                )
                with inject(plan):
                    upd = engine.update(**kwargs)
                if not upd.noop:
                    assert plan.exhausted
                    assert upd.rebased and upd.rebase_reason == "fault"
            else:
                upd = engine.update(**kwargs)
            assert isinstance(upd, UpdateResult)
            # bit-identical to a cold engine on the mutated graph
            if oracle is None:
                assert upd.value == _cold_value(engine.graph)
            else:
                assert upd.value == oracle[step]
            values.append(upd.value)
            # every applied update carries a passing exactness certificate
            if not upd.noop:
                assert upd.verification is not None and upd.verification.ok
            assert upd.staleness == engine.staleness
            assert upd.epoch == engine.epoch
        return values

    def test_fifty_mixed_updates_match_cold_rebuild(self, graph):
        with force_executor("sync"):
            trajectory = self._run_sequence(graph, steps=50, seed=100, fault_at=25)
        # the process backend must reproduce the cold-checked trajectory
        # bit for bit over the identical delta sequence
        with force_executor("process"):
            self._run_sequence(
                graph, steps=50, seed=100, fault_at=25, oracle=trajectory
            )

    def test_forced_rebase_mid_sequence_keeps_parity(self, graph):
        # a second seed, fault early: the post-fault artifacts must keep
        # answering later updates exactly
        self._run_sequence(graph, steps=12, seed=3, fault_at=4)

    def test_update_then_batch_is_consistent(self, graph):
        engine = CutEngine(graph, seed=7)
        engine.min_cut()
        upd = engine.update(add_edges=[(0, 9, 2.0), (4, 11, 1.0)])
        batch = engine.min_cut_batch([1, 2, 3])
        truth = _cold_value(engine.graph)
        assert upd.value == truth
        assert all(b.value == truth for b in batch)


# ---------------------------------------------------------------------------
# no-op updates are charge-free
# ---------------------------------------------------------------------------
class TestUpdateNoop:
    def test_zero_delta_short_circuit(self, graph):
        reg = CounterRegistry()
        led = Ledger()
        engine = CutEngine(graph, seed=7, ledger=led)
        base = engine.min_cut()
        work_before, depth_before = led.work, led.depth
        with counting_scope(reg):
            upd_empty = engine.update(reweight={})
            upd_same = engine.update(reweight=graph.w.copy())
        for upd in (upd_empty, upd_same):
            assert upd.noop and not upd.rebased
            assert upd.value == base.value
            assert upd.staleness == 0 and upd.epoch == 0
            assert dict(upd.result.stats)["update"] == 1.0
        assert reg.get("engine.update_noops") == 2.0
        assert reg.get("engine.rebases") == 0.0
        # nothing was recomputed: the ledger did not move at all
        assert (led.work, led.depth) == (work_before, depth_before)

    def test_noop_before_any_query_still_answers(self, graph):
        engine = CutEngine(graph, seed=7)
        upd = engine.update(reweight={})
        assert upd.noop
        assert upd.value == CutEngine(graph, seed=7).min_cut().value


# ---------------------------------------------------------------------------
# rebase triggers and epoch bookkeeping
# ---------------------------------------------------------------------------
class TestRebaseTriggers:
    def test_staleness_trigger(self, graph):
        reg = CounterRegistry()
        engine = CutEngine(graph, seed=7)
        engine.min_cut()
        with counting_scope(reg):
            upd = engine.update(reweight=graph.w * 2.0)  # |Δw| = total weight
        assert upd.rebased and upd.rebase_reason == "staleness"
        assert reg.get("engine.rebases") == 1.0
        assert reg.get("engine.rebase.staleness") == 1.0
        assert upd.value == _cold_value(engine.graph)

    def test_uncovered_edge_trigger(self, graph, monkeypatch):
        reg = CounterRegistry()
        engine = CutEngine(graph, seed=7)
        base = engine.min_cut()
        heavy = float(base.value) * 1000.0
        # staleness is checked first by design; disable it so the
        # uncovered-new-edge trigger is the one that fires
        monkeypatch.setattr(service, "MAX_STALENESS", math.inf)
        with counting_scope(reg):
            upd = engine.update(add_edges=[(0, 1, heavy)])
        assert upd.rebased and upd.rebase_reason == "uncovered_edge"
        assert reg.get("engine.rebase.uncovered_edge") == 1.0
        assert upd.value == _cold_value(engine.graph)

    def test_fault_trigger_counts(self, graph):
        reg = CounterRegistry()
        engine = CutEngine(graph, seed=7)
        engine.min_cut()
        plan = FaultPlan([Fault(SITE_DELTA_FORCE_REBASE)], name="forced")
        with counting_scope(reg), inject(plan):
            upd = engine.update(reweight={0: float(graph.w[0]) + 0.5})
        assert plan.exhausted
        assert upd.rebased and upd.rebase_reason == "fault"
        assert reg.get("engine.rebase.fault") == 1.0

    def test_small_update_stays_incremental(self, graph):
        reg = CounterRegistry()
        led = Ledger()
        engine = CutEngine(graph, seed=7, ledger=led)
        engine.min_cut()
        phases_before = {n: p.work for n, p in led._phases.items()}
        with counting_scope(reg):
            upd = engine.update(reweight={0: float(graph.w[0]) * 1.01})
        assert not upd.rebased and upd.rebase_reason is None
        assert reg.get("engine.rebases") == 0.0
        # the packing is reused: only validate/search/verify moved
        phases_after = {n: p.work for n, p in led._phases.items()}
        for ph in ("approximate", "skeleton", "greedy-packing"):
            assert phases_after[ph] == phases_before[ph], ph

    def test_disconnecting_update_answers_zero(self):
        g = Graph.from_edges(4, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 2.0)])
        engine = CutEngine(g, seed=0)
        engine.min_cut()
        upd = engine.update(remove_edges=[1])
        assert upd.value == 0.0
        assert upd.value == _cold_value(engine.graph)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refused_delta_leaves_the_graph(self, graph):
        # each weight is finite, so as_delta accepts them, but their
        # total is not: the mutated graph is refused before it is bound
        engine = CutEngine(graph, seed=0)
        before = engine.min_cut().value
        with pytest.raises(GraphFormatError):
            engine.update(reweight={0: 1e308, 1: 1e308})
        assert engine.graph is graph and engine.staleness == 0
        assert engine.min_cut().value == before


class TestEpochSemantics:
    def test_epoch_and_staleness_lifecycle(self, graph):
        engine = CutEngine(graph, seed=7)
        engine.min_cut()
        assert (engine.epoch, engine.staleness) == (0, 0)
        upd1 = engine.update(reweight={0: float(graph.w[0]) * 1.01})
        assert (upd1.epoch, upd1.staleness) == (0, 1)
        upd2 = engine.update(add_edges=[(2, 5, 1.0)])
        assert (upd2.epoch, upd2.staleness) == (0, 2)
        # a rebase advances the epoch and clears the delta log
        upd3 = engine.update(reweight=engine.graph.w * 2.0)
        assert upd3.rebased
        assert upd3.epoch == 1 and upd3.staleness == 0
        assert (engine.epoch, engine.staleness) == (1, 0)

    def test_fingerprint_chain_carries_epoch(self, graph):
        engine = CutEngine(graph, seed=7)
        engine.min_cut()
        chain = engine.fingerprint_chain()
        assert set(chain) >= {"validate", "approximate", "forest", "index",
                              "result", "current"}
        assert all(entry["epoch"] == 0 for entry in chain.values())
        fp0 = chain["current"]["fingerprint"]
        engine.update(reweight={0: float(graph.w[0]) * 1.01})
        chain1 = engine.fingerprint_chain()
        assert chain1["current"]["fingerprint"] != fp0
        # the base artifacts did not move — only the delta head did
        assert chain1["forest"]["fingerprint"] == chain["forest"]["fingerprint"]

    def test_delta_path_stats_expose_epoch(self, graph):
        engine = CutEngine(graph, seed=7)
        cold = engine.min_cut()
        # cold parity guard: the plain query's stats stay epoch-free
        assert "epoch" not in dict(cold.stats)
        upd = engine.update(reweight={0: float(graph.w[0]) * 1.01})
        stats = dict(upd.result.stats)
        assert stats["update"] == 1.0
        assert stats["epoch"] == 0.0 and stats["staleness"] == 1.0

    def test_base_graph_vs_current_graph(self, graph):
        engine = CutEngine(graph, seed=7)
        engine.min_cut()
        engine.update(add_edges=[(0, 9, 1.0)])
        assert engine.base_graph.m == graph.m
        assert engine.graph.m == graph.m + 1
        engine.rebase()
        assert engine.base_graph.m == graph.m + 1


class TestRequeryRemoved:
    def test_requery_shim_expired(self, graph, monkeypatch):
        # the deprecated shim's one-release runway ended with the
        # durable-state release: no attribute, no silent fallback
        engine = CutEngine(graph, seed=7)
        assert not hasattr(engine, "requery")
        # its weight-only semantics live on as the documented spelling
        engine.min_cut()
        reg = CounterRegistry()
        monkeypatch.setattr(service, "MAX_STALENESS", math.inf)
        with counting_scope(reg):
            res = engine.update(reweight=graph.w * 1.25)
        assert reg.get("engine.updates") == 1.0
        assert dict(res.result.stats)["update"] == 1.0


# ---------------------------------------------------------------------------
# the serve layer's mutation surface
# ---------------------------------------------------------------------------
class TestServeUpdate:
    @pytest.fixture
    def edges(self, graph):
        return [[int(u), int(v), float(w)] for u, v, w in graph.edges()]

    def _server(self):
        from repro.serve import ServerConfig, ThreadedTCPServer

        return ThreadedTCPServer(ServerConfig(queue_depth=16, workers=2))

    def _register(self, srv, graph, edges, **tenant_kwargs):
        srv.request({"op": "register_tenant", "tenant": "t", **tenant_kwargs})
        srv.request({
            "op": "register_graph", "tenant": "t", "graph": "g",
            "n": graph.n, "edges": edges, "seed": 7,
        })

    def test_update_op_round_trip(self, graph, edges):
        with self._server() as srv:
            self._register(srv, graph, edges)
            cold = srv.request({"op": "min_cut", "tenant": "t", "graph": "g"})
            assert cold["type"] == "result"
            assert (cold["epoch"], cold["staleness"]) == (0, 0)
            resp = srv.request({
                "op": "update", "tenant": "t", "graph": "g",
                "add_edges": [[0, 9, 2.0]], "reweight": {"0": 3.5},
            })
            assert resp["type"] == "result"
            assert resp["update"] == 1.0 and resp["noop"] is False
            assert resp["staleness"] == 1 and resp["epoch"] == 0
            assert resp["verified"] is True
            assert resp["applied"]["added"] == 1
            # later reads echo the mutated epoch state
            warm = srv.request({"op": "min_cut", "tenant": "t", "graph": "g"})
            assert warm["value"] == resp["value"]
            assert warm["staleness"] == 1
            batch = srv.request({
                "op": "min_cut_batch", "tenant": "t", "graph": "g",
                "seeds": [1, 2],
            })
            assert batch["epoch"] == 0

    def test_graph_info_reports_epoch_and_writability(self, graph, edges):
        with self._server() as srv:
            self._register(srv, graph, edges)
            info = srv.request({"op": "graph_info", "tenant": "t", "graph": "g"})
            assert info["type"] == "result"
            assert (info["n"], info["m"]) == (graph.n, graph.m)
            assert (info["epoch"], info["staleness"]) == (0, 0)
            assert info["writable"] is True
            assert info["protocol"] == 3
            assert info["durable"] is False  # no --state-dir configured
            fp0 = info["fingerprint"]
            srv.request({
                "op": "update", "tenant": "t", "graph": "g",
                "remove_edges": [0],
            })
            info2 = srv.request({"op": "graph_info", "tenant": "t", "graph": "g"})
            assert info2["staleness"] == 1 or info2["epoch"] > 0
            assert info2["fingerprint"] != fp0
            assert info2["m"] == graph.m - 1

    def test_readonly_class_cannot_mutate(self, graph, edges):
        with self._server() as srv:
            self._register(srv, graph, edges, budget_class="interactive")
            resp = srv.request({
                "op": "update", "tenant": "t", "graph": "g",
                "reweight": {"0": 9.0},
            })
            assert resp["type"] == "error"
            assert resp["error"] == "mutation_forbidden"
            # reads still work for the same tenant
            assert srv.request(
                {"op": "min_cut", "tenant": "t", "graph": "g"}
            )["type"] == "result"
            info = srv.request({"op": "graph_info", "tenant": "t", "graph": "g"})
            assert info["writable"] is False
            m = srv.request({"op": "metrics"})
            assert m["counters"]["serve.rejected_readonly"] == 1.0

    def test_update_without_mutations_is_bad_request(self, graph, edges):
        with self._server() as srv:
            self._register(srv, graph, edges)
            resp = srv.request({"op": "update", "tenant": "t", "graph": "g"})
            assert resp["type"] == "error"
            assert resp["error"] == "bad_request"

    def test_ping_advertises_protocol_version(self, graph, edges):
        from repro.serve.protocol import OP_VOCABULARY, PROTOCOL_VERSION

        with self._server() as srv:
            resp = srv.request({"op": "ping"})
            assert resp["protocol"] == PROTOCOL_VERSION == 3
        assert OP_VOCABULARY["update"] == 2
        assert OP_VOCABULARY["graph_info"] == 2
        assert OP_VOCABULARY["min_cut"] == 1
        assert "requery" not in OP_VOCABULARY  # runway expired in v3


class TestTopLevelExports:
    def test_update_types_exported(self):
        assert repro.UpdateResult is UpdateResult
        assert repro.GraphDelta is GraphDelta
