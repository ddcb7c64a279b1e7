"""The cut-serving daemon: protocol framing, tenancy, admission
control, deadline shedding, fault injection, and both front ends.

The pivotal invariant (docs/service.md): every request the service
accepts receives exactly one well-formed typed response — ``result``,
``retry_after``, ``deadline_exceeded``, or ``error`` — under load,
under deadline pressure, and under every injected ``serve.*`` fault.
"""

import asyncio
import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.arena.solvers import stoer_wagner
from repro.engine import CutEngine
from repro.graphs import random_connected_graph
from repro.pram.executor import shutdown_shared_pools
from repro.resilience.faults import (
    SERVICE_SITES,
    SITE_POOL_BREAK,
    SITE_SERVE_ACCEPT_DROP,
    SITE_SERVE_HANDLER_CRASH,
    SITE_SERVE_QUEUE_STALL,
    SITE_SERVE_SLOW_CLIENT,
    Fault,
    FaultPlan,
)
from repro.serve import (
    BUDGET_CLASSES,
    CutService,
    ProtocolError,
    RetryAfter,
    ServerConfig,
    ServiceClient,
    TenantQuota,
    TenantRegistry,
    ThreadedTCPServer,
    UnknownGraph,
    UnknownTenant,
    well_formed,
)
from repro.serve.admission import Admitted, AdmissionQueue
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    deadline_response,
    decode_payload,
    encode_frame,
    error_response,
    ok_response,
    retry_after_response,
)

SEED = 11


@pytest.fixture(scope="module")
def graph():
    return random_connected_graph(24, 60, rng=5, max_weight=5)


@pytest.fixture(scope="module")
def edges(graph):
    return [[int(u), int(v), float(w)] for u, v, w in graph.edges()]


@pytest.fixture(scope="module")
def exact(graph):
    return CutEngine(graph, seed=SEED).min_cut().value


def _register(server, graph, edges, *, tenant="t", name="g", **tenant_kwargs):
    server.request({"op": "register_tenant", "tenant": tenant, **tenant_kwargs})
    server.request(
        {
            "op": "register_graph",
            "tenant": tenant,
            "graph": name,
            "n": graph.n,
            "edges": edges,
            "seed": SEED,
        }
    )


def _wait_until(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        payload = {"op": "ping", "id": 42, "nested": {"x": [1, 2.5, "s"]}}
        frame = encode_frame(payload, MAX_FRAME_BYTES)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert decode_payload(frame[4:]) == payload

    def test_oversized_frame_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            encode_frame({"blob": "x" * 128}, 16)

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"definitely not json")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_payload(b'[1, 2, 3]')

    @pytest.mark.parametrize(
        "resp",
        [
            ok_response(1, value=2.0),
            retry_after_response(1, retry_after_ms=50, reason="queue_full"),
            deadline_response(1, shed="queued", message="expired"),
            deadline_response(1, shed="inflight", message="expired"),
            error_response(1, code="bad_request", message="nope"),
        ],
    )
    def test_builders_are_well_formed(self, resp):
        assert well_formed(resp, 1, check_id=True)

    def test_well_formed_rejects_violations(self):
        assert not well_formed("not a dict")
        assert not well_formed({"type": "surprise", "ok": True})
        # ok flag must agree with the type
        assert not well_formed({**ok_response(1, value=1.0), "ok": False})
        assert not well_formed({**error_response(1, code="x", message="m"), "ok": True})
        # retry_after needs an integer hint
        bad = retry_after_response(1, retry_after_ms=50, reason="queue_full")
        assert not well_formed({**bad, "retry_after_ms": "soon"})
        # deadline_exceeded needs a known shed stage
        expired = deadline_response(1, shed="queued", message="expired")
        assert not well_formed({**expired, "shed": "later"})
        # id echo enforced only when asked
        resp = ok_response(7, value=1.0)
        assert well_formed(resp, 8)
        assert not well_formed(resp, 8, check_id=True)


# ---------------------------------------------------------------------------
# admission queue
# ---------------------------------------------------------------------------
class TestAdmissionQueue:
    def _item(self):
        loop = asyncio.new_event_loop()
        try:
            fut = loop.create_future()
        finally:
            loop.close()
        return Admitted(request={"op": "x"}, future=fut, tenant=None, deadline_at=1.0)

    def test_bounded_and_non_blocking(self):
        q = AdmissionQueue(2)
        assert q.try_put(self._item())
        assert q.try_put(self._item())
        assert not q.try_put(self._item())  # full: rejected, never blocks
        assert q.qsize() == 2
        assert q.stats()["high_water"] == 2.0

    def test_retry_hint_scales_with_backlog_and_clamps(self):
        q = AdmissionQueue(64)
        q.ewma_service_s = 0.1
        empty = q.retry_after_ms()
        q.try_put(self._item())
        q.try_put(self._item())
        assert q.retry_after_ms() > empty
        q.ewma_service_s = 1e-9
        assert q.retry_after_ms() == 10  # floor
        q.ewma_service_s = 1e9
        assert q.retry_after_ms() == 10_000  # ceiling

    def test_ewma_folds_observations(self):
        q = AdmissionQueue(4)
        before = q.ewma_service_s
        q.observe_service_time(1.0)
        assert before < q.ewma_service_s < 1.0

    def test_depth_validated(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            AdmissionQueue(0)


# ---------------------------------------------------------------------------
# tenancy
# ---------------------------------------------------------------------------
class TestTenancy:
    def test_budget_classes_cover_contract(self):
        assert set(BUDGET_CLASSES) == {"interactive", "standard", "batch"}
        for cls in BUDGET_CLASSES.values():
            assert 0 < cls.default_deadline_s <= cls.max_deadline_s
            assert cls.max_inflight >= 1

    def test_unknown_tenant_and_graph_are_typed(self, graph):
        reg = TenantRegistry("standard")
        with pytest.raises(UnknownTenant):
            reg.get("ghost")
        tenant = reg.register("t", TenantQuota())
        with pytest.raises(UnknownGraph):
            tenant.engine("ghost")

    def test_quota_validates_budget_class(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            TenantQuota(budget_class="platinum")

    def test_max_graphs_quota_enforced(self, graph):
        from repro.errors import InvalidParameterError

        reg = TenantRegistry("standard")
        tenant = reg.register("t", TenantQuota(max_graphs=2))
        tenant.register_graph("a", graph, seed=1)
        tenant.register_graph("b", graph, seed=1)
        tenant.register_graph("a", graph, seed=2)  # rebinding is not growth
        with pytest.raises(InvalidParameterError):
            tenant.register_graph("c", graph, seed=1)

    def test_tenant_cache_is_shared_across_graphs(self, graph):
        reg = TenantRegistry("standard")
        tenant = reg.register("t", TenantQuota(cache_entries=8))
        e1 = tenant.register_graph("a", graph, seed=1)
        e2 = tenant.register_graph("b", graph, seed=2)
        assert e1.cache is e2.cache
        assert e1.cache.max_entries == 8


# ---------------------------------------------------------------------------
# end-to-end over the in-process front end
# ---------------------------------------------------------------------------
class TestInProcEndToEnd:
    def test_lifecycle_and_parity(self, graph, edges, exact):
        with ThreadedTCPServer(ServerConfig(queue_depth=8, workers=2)) as srv:
            assert srv.request({"op": "ping", "id": 1})["pong"] is True
            _register(srv, graph, edges)
            resp = srv.request({"op": "min_cut", "tenant": "t", "graph": "g", "id": 2})
            assert well_formed(resp, 2, check_id=True)
            assert resp["type"] == "result"
            # served value ≡ a direct engine query with the same seed
            assert resp["value"] == exact
            # warm repeat agrees
            again = srv.request({"op": "min_cut", "tenant": "t", "graph": "g"})
            assert again["value"] == exact

    def test_noop_update_and_batch(self, graph, edges, exact):
        with ThreadedTCPServer(ServerConfig(queue_depth=8, workers=2)) as srv:
            _register(srv, graph, edges)
            srv.request({"op": "min_cut", "tenant": "t", "graph": "g"})
            rq = srv.request(
                {"op": "update", "tenant": "t", "graph": "g", "reweight": {}}
            )
            assert rq["type"] == "result" and rq["noop"] is True
            assert rq["value"] == exact
            batch = srv.request(
                {"op": "min_cut_batch", "tenant": "t", "graph": "g",
                 "seeds": [1, 2, 3]}
            )
            assert batch["type"] == "result"
            direct = [
                r.value
                for r in CutEngine(graph, seed=SEED).min_cut_batch([1, 2, 3])
            ]
            assert batch["values"] == direct

    def test_min_cut_after_update_carries_no_update_keys(self, graph, edges):
        from repro.engine.deltas import as_delta

        with ThreadedTCPServer(ServerConfig(queue_depth=8, workers=2)) as srv:
            _register(srv, graph, edges)
            srv.request({"op": "min_cut", "tenant": "t", "graph": "g"})
            current = graph
            # an incremental update, then one heavy enough to rebase
            for rebases, mutation in (
                (False, lambda g: {"add_edges": [[0, 9, 2.0]]}),
                (True, lambda g: {"reweight": [2.0 * float(w) for w in g.w]}),
            ):
                kwargs = mutation(current)
                upd = srv.request(
                    {"op": "update", "tenant": "t", "graph": "g", **kwargs}
                )
                assert upd["type"] == "result" and upd["noop"] is False
                assert upd["update"] == 1.0 and upd["rebased"] is rebases
                current = as_delta(
                    current,
                    add_edges=[tuple(e) for e in kwargs.get("add_edges", [])] or None,
                    reweight=kwargs.get("reweight"),
                ).apply(current)
                resp = srv.request({"op": "min_cut", "tenant": "t", "graph": "g"})
                assert "update" not in resp and "rebased" not in resp
                fresh = CutEngine(current, seed=SEED).min_cut().value
                assert resp["value"] == upd["value"] == fresh
            # the zero-delta update response is unchanged by the memo read
            noop = srv.request(
                {"op": "update", "tenant": "t", "graph": "g", "reweight": {}}
            )
            assert noop["noop"] is True and noop["rebased"] is False
            assert noop["verified"] is True and noop["value"] == resp["value"]

    def test_return_side_is_a_valid_cut(self, graph, edges, exact):
        with ThreadedTCPServer(ServerConfig()) as srv:
            _register(srv, graph, edges)
            resp = srv.request(
                {"op": "min_cut", "tenant": "t", "graph": "g", "return_side": True}
            )
            side = resp["side"]
            assert 0 < len(side) <= graph.n // 2
            mask = np.zeros(graph.n, dtype=bool)
            mask[side] = True
            crossing = mask[graph.u] != mask[graph.v]
            assert float(graph.w[crossing].sum()) == pytest.approx(resp["value"])

    def test_typed_errors(self, graph, edges):
        with ThreadedTCPServer(ServerConfig()) as srv:
            _register(srv, graph, edges)
            cases = [
                ({"op": "min_cut", "tenant": "ghost", "graph": "g"}, "UnknownTenant"),
                ({"op": "min_cut", "tenant": "t", "graph": "ghost"}, "UnknownGraph"),
                ({"op": "frobnicate"}, "unknown_op"),
                ({"op": "_stall", "tenant": "t"}, "unknown_op"),  # debug op off
                ({"op": "min_cut", "tenant": "t"}, "bad_request"),  # graph missing
                # the deprecated requery op's runway expired in v3
                ({"op": "requery", "tenant": "t", "graph": "g",
                  "weights": {}}, "unknown_op"),
                ({"op": "update", "tenant": "t", "graph": "g"}, "bad_request"),
                ({"op": "min_cut_batch", "tenant": "t", "graph": "g",
                  "seeds": []}, "bad_request"),
                ({"op": "min_cut_batch", "tenant": "t", "graph": "g",
                  "seeds": list(range(100))}, "bad_request"),  # over MAX_BATCH
            ]
            for request, code in cases:
                resp = srv.request(request)
                assert well_formed(resp), (request, resp)
                assert resp["type"] == "error", (request, resp)
                assert resp["error"] == code, (request, resp)

    def test_non_dict_and_non_string_op_rejected(self):
        with ThreadedTCPServer(ServerConfig()) as srv:
            for bad in (["op"], {"op": 7}, {"no_op": "x"}):
                resp = srv.request(bad)
                assert resp["type"] == "error" and resp["error"] == "bad_request"

    def test_metrics_exposes_counters_queue_and_tenants(self, graph, edges):
        with ThreadedTCPServer(ServerConfig(queue_depth=8, workers=2)) as srv:
            _register(srv, graph, edges)
            srv.request({"op": "min_cut", "tenant": "t", "graph": "g"})
            m = srv.request({"op": "metrics"})
            assert well_formed(m)
            counters = m["counters"]
            assert counters["serve.admitted"] == 1.0
            assert counters["serve.completed"] == 1.0
            assert counters["serve.op.min_cut"] == 1.0
            assert counters["serve.tenants_registered"] == 1.0
            assert counters["serve.graphs_registered"] == 1.0
            # engine counters flow into the same registry
            assert counters.get("engine.queries", 0.0) >= 1.0
            assert m["queue"]["depth"] == 8.0
            tinfo = m["tenants"]["t"]
            assert tinfo["graphs"] == 1 and tinfo["inflight"] == 0
            assert tinfo["cache"]["entries"] >= 1.0
            # 'stats' is an alias
            assert srv.request({"op": "stats"})["counters"]

    def test_shutdown_op_gated_by_config(self, graph, edges):
        with ThreadedTCPServer(ServerConfig(allow_shutdown=False)) as srv:
            resp = srv.request({"op": "shutdown"})
            assert resp["type"] == "error" and resp["error"] == "forbidden"

    def test_quota_fields_keep_the_default_budget_class(self, graph, edges):
        cfg = ServerConfig(default_budget_class="interactive")
        with ThreadedTCPServer(cfg) as srv:
            reg = srv.request(
                {"op": "register_tenant", "tenant": "t", "cache_entries": 8}
            )
            assert reg["budget_class"] == "interactive"
            assert reg["cache_entries"] == 8
            _register(srv, graph, edges)
            resp = srv.request(
                {"op": "update", "tenant": "t", "graph": "g", "reweight": {}}
            )
            assert resp["type"] == "error"
            assert resp["error"] == "mutation_forbidden"


#: requests with a field of the wrong wire kind or out of its bounds
#: (``repro.serve.protocol.OPS``): each is the client's fault, answered
#: ``bad_request`` on a connection that stays usable
_MALFORMED_FIELDS = {
    "deadline_ms": {"op": "min_cut", "tenant": "t", "graph": "g",
                    "deadline_ms": "soon"},
    # a NaN deadline would otherwise run with no deadline at all
    "deadline_ms_nan": {"op": "min_cut", "tenant": "t", "graph": "g",
                        "deadline_ms": float("nan")},
    "edges_entry": {"op": "register_graph", "tenant": "t", "graph": "h",
                    "n": 2, "edges": [["a", 1, 1.0]]},
    "edges_bare": {"op": "register_graph", "tenant": "t", "graph": "h",
                   "n": 2, "edges": [7]},
    "add_edges_entry": {"op": "update", "tenant": "t", "graph": "g",
                        "add_edges": [["a", 1, 1.0]]},
    "add_edges_bare": {"op": "update", "tenant": "t", "graph": "g",
                       "add_edges": [7]},
    "n": {"op": "register_graph", "tenant": "t", "graph": "h", "n": "five",
          "edges": []},
    "seed": {"op": "register_graph", "tenant": "t", "graph": "h", "n": 2,
             "edges": [[0, 1, 1.0]], "seed": [3]},
    "epsilon": {"op": "register_graph", "tenant": "t", "graph": "h", "n": 2,
                "edges": [[0, 1, 1.0]], "epsilon": "tight"},
    "cache_entries": {"op": "register_tenant", "tenant": "u",
                      "cache_entries": "many"},
    "cache_bytes": {"op": "register_tenant", "tenant": "u",
                    "cache_bytes": None},
    "max_graphs": {"op": "register_tenant", "tenant": "u",
                   "max_graphs": {"n": 1}},
    "seconds": {"op": "_stall", "tenant": "t", "seconds": "long"},
    "seeds": {"op": "min_cut_batch", "tenant": "t", "graph": "g",
              "seeds": [1, "two"]},
    "remove_edges": {"op": "update", "tenant": "t", "graph": "g",
                     "remove_edges": ["first"]},
    "reweight_dict": {"op": "update", "tenant": "t", "graph": "g",
                      "reweight": {"0": "heavy"}},
    "reweight_list": {"op": "update", "tenant": "t", "graph": "g",
                      "reweight": ["heavy"]},
    "seeds_negative": {"op": "min_cut_batch", "tenant": "t", "graph": "g",
                       "seeds": [-1]},
    "seeds_bool": {"op": "min_cut_batch", "tenant": "t", "graph": "g",
                   "seeds": [True]},
    "epsilon_nan": {"op": "register_graph", "tenant": "t", "graph": "h", "n": 2,
                    "edges": [[0, 1, 1.0]], "epsilon": float("nan")},
    "epsilon_zero": {"op": "register_graph", "tenant": "t", "graph": "h", "n": 2,
                     "edges": [[0, 1, 1.0]], "epsilon": 0},
    # Section 4.3 needs epsilon <= 1; 50 crashed the first min_cut
    "epsilon_fifty": {"op": "register_graph", "tenant": "t", "graph": "h",
                      "n": 2, "edges": [[0, 1, 1.0]], "epsilon": 50},
    # a non-integral vertex id once truncated to edge (0, 1)
    "edges_fractional": {"op": "register_graph", "tenant": "t", "graph": "h",
                         "n": 2, "edges": [[0.5, 1, 1.0]]},
    "warm_string": {"op": "register_graph", "tenant": "t", "graph": "h", "n": 2,
                    "edges": [[0, 1, 1.0]], "warm": "false"},
    "return_side_string": {"op": "min_cut", "tenant": "t", "graph": "g",
                           "return_side": "false"},
    "budget_class_number": {"op": "register_tenant", "tenant": "u",
                            "budget_class": 5},
    "deadline_ms_inf": {"op": "min_cut", "tenant": "t", "graph": "g",
                        "deadline_ms": float("inf")},
}

#: requests the schema admits but the library refuses against the
#: graph's state: each keeps its typed code and counts as a client fault
_GRAPH_STATE_FAULTS = {
    "negative_weight": ({"op": "register_graph", "tenant": "t", "graph": "h",
                         "n": 2, "edges": [[0, 1, -1.0]]}, "GraphFormatError"),
    "vertex_out_of_range": ({"op": "register_graph", "tenant": "t",
                             "graph": "h", "n": 2, "edges": [[0, 5, 1.0]]},
                            "GraphFormatError"),
    "remove_edge_out_of_range": ({"op": "update", "tenant": "t", "graph": "g",
                                  "remove_edges": [999]}, "GraphFormatError"),
}


def _raw_request(sock, request):
    """One request/response round trip that encodes with Python's
    default ``json.dumps``, which writes ``NaN`` (``ServiceClient``
    refuses to)."""
    body = json.dumps(request).encode("utf-8")
    sock.sendall(struct.pack(">I", len(body)) + body)
    reader = sock.makefile("rb")
    (length,) = struct.unpack(">I", reader.read(4))
    return json.loads(reader.read(length))


def _client_fault(graph, edges, request, code):
    """Send ``request`` raw and check it is answered ``error(code)``,
    counted once in ``serve.bad_requests`` and never in ``serve.errors``."""
    cfg = ServerConfig(port=0, workers=1, debug_ops=True)
    with ThreadedTCPServer(cfg) as server:
        _register(server, graph, edges)
        with ServiceClient("127.0.0.1", server.port, timeout=30) as client, \
                socket.create_connection(("127.0.0.1", server.port), timeout=30) as s:
            before = client.call({"op": "metrics"})["counters"]
            resp = _raw_request(s, {**request, "id": 1})
            assert well_formed(resp), resp
            assert resp["type"] == "error" and resp["error"] == code, resp
            after = client.call({"op": "metrics"})["counters"]
            assert after["serve.bad_requests"] == (
                before.get("serve.bad_requests", 0.0) + 1.0
            )
            assert "serve.errors" not in after
            # the same connection keeps serving
            assert _raw_request(s, {"op": "ping", "id": 2})["pong"] is True


@pytest.mark.parametrize("field", sorted(_MALFORMED_FIELDS))
def test_malformed_number_is_a_bad_request(graph, edges, field):
    _client_fault(graph, edges, _MALFORMED_FIELDS[field], "bad_request")


@pytest.mark.parametrize("case", sorted(_GRAPH_STATE_FAULTS))
def test_graph_state_fault_keeps_its_code(graph, edges, case):
    _client_fault(graph, edges, *_GRAPH_STATE_FAULTS[case])


# ---------------------------------------------------------------------------
# admission control: backpressure, inflight limits, shedding
# ---------------------------------------------------------------------------
class TestAdmissionControl:
    def _spawn(self, srv, request, timeout=30.0):
        box = {}

        def call():
            box["resp"] = srv.request(request, timeout=timeout)

        t = threading.Thread(target=call)
        t.start()
        return t, box

    def test_queue_full_returns_retry_after(self, graph, edges):
        cfg = ServerConfig(queue_depth=1, workers=1, debug_ops=True)
        with ThreadedTCPServer(cfg) as srv:
            _register(srv, graph, edges, budget_class="interactive")
            # one _stall on the worker, one in the only queue slot
            t1, b1 = self._spawn(
                srv, {"op": "_stall", "tenant": "t", "seconds": 1.0}
            )
            assert _wait_until(lambda: srv.service.queue.qsize() == 0
                               and srv.service.tenants.get("t").inflight == 1)
            t2, b2 = self._spawn(
                srv, {"op": "_stall", "tenant": "t", "seconds": 0.0}
            )
            assert _wait_until(lambda: srv.service.queue.qsize() == 1)
            resp = srv.request({"op": "min_cut", "tenant": "t", "graph": "g"})
            assert well_formed(resp)
            assert resp["type"] == "retry_after"
            assert resp["reason"] == "queue_full"
            assert resp["retry_after_ms"] >= 10
            # control plane still answers while saturated
            assert srv.request({"op": "ping"})["pong"] is True
            t1.join(30)
            t2.join(30)
            assert b1["resp"]["type"] == "result"
            assert b2["resp"]["type"] == "result"
            m = srv.request({"op": "metrics"})
            assert m["counters"]["serve.rejected_queue_full"] == 1.0

    def test_tenant_inflight_limit(self, graph, edges):
        cfg = ServerConfig(queue_depth=16, workers=1, debug_ops=True)
        with ThreadedTCPServer(cfg) as srv:
            # batch class: max_inflight = 4
            _register(srv, graph, edges, budget_class="batch")
            limit = BUDGET_CLASSES["batch"].max_inflight
            spawned = [
                self._spawn(srv, {"op": "_stall", "tenant": "t", "seconds": 1.0})
                for _ in range(limit)
            ]
            assert _wait_until(
                lambda: srv.service.tenants.get("t").inflight == limit
            )
            resp = srv.request({"op": "min_cut", "tenant": "t", "graph": "g"})
            assert resp["type"] == "retry_after"
            assert resp["reason"] == "tenant_inflight"
            for t, box in spawned:
                t.join(60)
                assert box["resp"]["type"] == "result"
            # inflight drains back to zero
            assert srv.service.tenants.get("t").inflight == 0

    def test_deadline_shed_while_queued(self, graph, edges):
        cfg = ServerConfig(queue_depth=4, workers=1, debug_ops=True)
        with ThreadedTCPServer(cfg) as srv:
            _register(srv, graph, edges)
            t1, b1 = self._spawn(
                srv, {"op": "_stall", "tenant": "t", "seconds": 1.0}
            )
            assert _wait_until(lambda: srv.service.tenants.get("t").inflight == 1
                               and srv.service.queue.qsize() == 0)
            # expires long before the worker frees up
            resp = srv.request(
                {"op": "min_cut", "tenant": "t", "graph": "g", "deadline_ms": 50}
            )
            assert well_formed(resp)
            assert resp["type"] == "deadline_exceeded"
            assert resp["shed"] == "queued"
            t1.join(30)
            m = srv.request({"op": "metrics"})
            assert m["counters"]["serve.shed_queued"] == 1.0

    def test_deadline_shed_inflight_at_checkpoint(self, graph, edges):
        cfg = ServerConfig(queue_depth=4, workers=1, debug_ops=True)
        with ThreadedTCPServer(cfg) as srv:
            _register(srv, graph, edges)
            t0 = time.monotonic()
            resp = srv.request(
                {"op": "_stall", "tenant": "t", "seconds": 30.0, "deadline_ms": 300}
            )
            elapsed = time.monotonic() - t0
            assert well_formed(resp)
            assert resp["type"] == "deadline_exceeded"
            assert resp["shed"] == "inflight"
            # cancelled cooperatively at a checkpoint, not after 30 s
            assert elapsed < 10.0
            m = srv.request({"op": "metrics"})
            assert m["counters"]["serve.shed_inflight"] == 1.0

    def test_non_positive_deadline_shed_immediately(self, graph, edges):
        with ThreadedTCPServer(ServerConfig()) as srv:
            _register(srv, graph, edges)
            resp = srv.request(
                {"op": "min_cut", "tenant": "t", "graph": "g", "deadline_ms": 0}
            )
            assert resp["type"] == "deadline_exceeded"
            assert resp["shed"] == "queued"


class TestDeadlinePolicy:
    """Budget-class deadline clamping, exercised on the service core
    with a fake clock (no sleeping, no racing)."""

    class _Clock:
        def __init__(self):
            self.t = 0.0

        def __call__(self):
            return self.t

    def test_deadlines_default_and_clamp(self):
        clock = self._Clock()
        captured = []

        async def main():
            svc = CutService(
                ServerConfig(workers=1, debug_ops=True), clock=clock
            )
            await svc.start()
            svc.tenants.register("t", TenantQuota(budget_class="interactive"))
            original = svc.queue.try_put

            def spy(item):
                captured.append(item.deadline_at)
                return original(item)

            svc.queue.try_put = spy
            r1 = await svc.submit(
                {"op": "_stall", "tenant": "t", "seconds": 0.0,
                 "deadline_ms": 999_999_999}
            )
            r2 = await svc.submit({"op": "_stall", "tenant": "t", "seconds": 0.0})
            await svc.stop()
            return r1, r2

        r1, r2 = asyncio.run(main())
        assert r1["type"] == "result" and r2["type"] == "result"
        cls = BUDGET_CLASSES["interactive"]
        assert captured[0] == pytest.approx(cls.max_deadline_s)  # clamped
        assert captured[1] == pytest.approx(cls.default_deadline_s)  # defaulted

    def test_stopping_service_rejects_with_retry_after(self):
        async def main():
            svc = CutService(ServerConfig(workers=1, debug_ops=True))
            await svc.start()
            svc.tenants.register("t", TenantQuota())
            svc._stopping = True
            resp = await svc.submit(
                {"op": "_stall", "tenant": "t", "seconds": 0.0}
            )
            svc._stopping = False
            await svc.stop()
            return resp

        resp = asyncio.run(main())
        assert resp["type"] == "retry_after"
        assert resp["reason"] == "shutting_down"


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------
class TestServeFaults:
    def test_service_sites_registered(self):
        assert set(SERVICE_SITES) == {
            SITE_SERVE_ACCEPT_DROP,
            SITE_SERVE_QUEUE_STALL,
            SITE_SERVE_HANDLER_CRASH,
            SITE_SERVE_SLOW_CLIENT,
        }

    def test_handler_crash_is_a_typed_error_and_service_survives(
        self, graph, edges, exact
    ):
        plan = FaultPlan(
            faults=(Fault(site=SITE_SERVE_HANDLER_CRASH, at=0),), name="crash"
        )
        with ThreadedTCPServer(ServerConfig(workers=1), faults=plan) as srv:
            _register(srv, graph, edges)
            first = srv.request({"op": "min_cut", "tenant": "t", "graph": "g"})
            assert well_formed(first)
            assert first["type"] == "error"
            assert first["error"] == "handler_crash"
            # the fault fires once; the daemon keeps serving
            second = srv.request({"op": "min_cut", "tenant": "t", "graph": "g"})
            assert second["type"] == "result" and second["value"] == exact
            m = srv.request({"op": "metrics"})
            assert m["counters"]["serve.fault.handler_crash"] == 1.0
            assert m["counters"]["serve.faults_injected"] == 1.0

    def test_queue_stall_delays_but_answers(self, graph, edges, exact):
        plan = FaultPlan(
            faults=(Fault(site=SITE_SERVE_QUEUE_STALL, at=0, scale=2.0),),
            name="stall",
        )
        with ThreadedTCPServer(ServerConfig(workers=1), faults=plan) as srv:
            _register(srv, graph, edges)
            resp = srv.request({"op": "min_cut", "tenant": "t", "graph": "g"})
            assert resp["type"] == "result" and resp["value"] == exact


# ---------------------------------------------------------------------------
# the TCP front end
# ---------------------------------------------------------------------------
class TestTCP:
    def test_round_trip_and_client_exceptions(self, graph, edges, exact):
        with ThreadedTCPServer(ServerConfig(port=0, workers=2)) as server:
            with ServiceClient("127.0.0.1", server.port, timeout=30) as client:
                client.call({"op": "register_tenant", "tenant": "t"})
                client.call(
                    {"op": "register_graph", "tenant": "t", "graph": "g",
                     "n": graph.n, "edges": edges, "seed": SEED}
                )
                resp = client.call({"op": "min_cut", "tenant": "t", "graph": "g"})
                assert resp["value"] == exact
                from repro.serve import ServiceError

                with pytest.raises(ServiceError) as ei:
                    client.call({"op": "min_cut", "tenant": "ghost", "graph": "g"})
                assert ei.value.code == "UnknownTenant"

    def test_malformed_frame_gets_bad_request_then_close(self):
        with ThreadedTCPServer(ServerConfig(port=0)) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as s:
                s.sendall(struct.pack(">I", 7) + b"notjson")
                resp = self._read_response(s)
                assert resp["type"] == "error"
                assert resp["error"] == "bad_request"
                # server closes after a framing error
                assert s.recv(1) == b""

    def test_oversized_frame_header_rejected(self):
        with ThreadedTCPServer(ServerConfig(port=0)) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as s:
                s.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
                resp = self._read_response(s)
                assert resp["type"] == "error" and resp["error"] == "bad_request"

    def test_accept_drop_then_reconnect(self, graph, edges, exact):
        plan = FaultPlan(
            faults=(Fault(site=SITE_SERVE_ACCEPT_DROP, at=0),), name="drop"
        )
        with ThreadedTCPServer(ServerConfig(port=0), faults=plan) as server:
            # first connection is dropped before any frame is read
            with pytest.raises((ProtocolError, ConnectionError, OSError)):
                with ServiceClient("127.0.0.1", server.port, timeout=10) as c:
                    c.request({"op": "ping"})
            # nothing was accepted, so nothing was owed; dial again
            with ServiceClient("127.0.0.1", server.port, timeout=10) as c:
                assert c.call({"op": "ping"})["pong"] is True
            m = server.service._metrics(None)
            assert m["counters"]["serve.accept_drops"] == 1.0

    def test_slow_client_fault_still_answers(self):
        plan = FaultPlan(
            faults=(Fault(site=SITE_SERVE_SLOW_CLIENT, at=0, scale=1.0),),
            name="slow",
        )
        with ThreadedTCPServer(ServerConfig(port=0), faults=plan) as server:
            with ServiceClient("127.0.0.1", server.port, timeout=10) as c:
                assert c.call({"op": "ping"})["pong"] is True

    def test_call_with_retry_honors_backpressure(self, graph, edges):
        cfg = ServerConfig(port=0, queue_depth=1, workers=1, debug_ops=True)
        with ThreadedTCPServer(cfg) as server:
            with ServiceClient("127.0.0.1", server.port, timeout=30) as c:
                c.call({"op": "register_tenant", "tenant": "t"})
                c.call(
                    {"op": "register_graph", "tenant": "t", "graph": "g",
                     "n": graph.n, "edges": edges, "seed": SEED}
                )
                stallers = [
                    ServiceClient("127.0.0.1", server.port, timeout=30).connect()
                    for _ in range(2)
                ]
                threads = []
                try:
                    for sc in stallers:
                        th = threading.Thread(
                            target=sc.request,
                            args=({"op": "_stall", "tenant": "t", "seconds": 0.6},),
                        )
                        th.start()
                        threads.append(th)
                    _wait_until(lambda: server.service.queue.qsize() >= 1)
                    # backpressure resolves within the retry budget
                    resp = c.call_with_retry(
                        {"op": "min_cut", "tenant": "t", "graph": "g"},
                        attempts=30,
                    )
                    assert resp["type"] == "result"
                finally:
                    for th in threads:
                        th.join(30)
                    for sc in stallers:
                        sc.close()

    def test_shutdown_op_stops_the_server(self):
        server = ThreadedTCPServer(ServerConfig(port=0, allow_shutdown=True))
        server.start()
        try:
            with ServiceClient("127.0.0.1", server.port, timeout=10) as c:
                resp = c.request({"op": "shutdown"})
                assert resp["type"] == "result" and resp["stopping"] is True
            assert _wait_until(
                lambda: server.service._shutdown_requested.is_set()
            )
        finally:
            server.stop()

    @staticmethod
    def _read_response(s):
        header = b""
        while len(header) < 4:
            chunk = s.recv(4 - len(header))
            assert chunk, "connection closed before a response"
            header += chunk
        (length,) = struct.unpack(">I", header)
        body = b""
        while len(body) < length:
            chunk = s.recv(length - len(body))
            assert chunk, "connection closed mid-response"
            body += chunk
        return json.loads(body)


# ---------------------------------------------------------------------------
# overload: every accepted request answered, exactly once
# ---------------------------------------------------------------------------
class TestOverloadContract:
    def test_concurrent_storm_all_answered(self, graph, edges, exact):
        assert exact == stoer_wagner(graph).value
        cfg = ServerConfig(queue_depth=4, workers=2, debug_ops=True)
        plan = FaultPlan(
            faults=(
                Fault(site=SITE_SERVE_QUEUE_STALL, at=1, scale=1.0),
                Fault(site=SITE_SERVE_HANDLER_CRASH, at=2),
            ),
            name="storm",
        )
        with ThreadedTCPServer(cfg, faults=plan) as srv:
            _register(srv, graph, edges, budget_class="interactive")
            # the interactive class may not mutate, so updates go to a
            # second tenant of the default class
            _register(srv, graph, edges, tenant="w")
            responses = []
            lock = threading.Lock()

            def fire(i):
                req = {"op": "min_cut", "tenant": "t", "graph": "g", "id": i}
                if i % 4 == 1:
                    # zero-delta update: a no-op that still answers the cut
                    req.update(op="update", tenant="w", reweight={})
                elif i % 4 == 2:
                    req.update(op="min_cut_batch", seeds=[i, i + 1, i + 2])
                elif i % 4 == 3:
                    req["deadline_ms"] = 1
                for _ in range(32):
                    resp = srv.request(dict(req), timeout=120)
                    with lock:
                        responses.append((req, resp))
                    if resp["type"] != "retry_after":
                        break
                    # honour the backpressure hint, as a client would
                    time.sleep(resp["retry_after_ms"] / 1000.0)

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(24)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive(), "client thread hung"
            # every request answered; every op reached a result
            assert {req["id"] for req, _ in responses} == set(range(24))
            assert {
                req["op"] for req, resp in responses if resp["type"] == "result"
            } == {"min_cut", "update", "min_cut_batch"}
            for req, resp in responses:
                assert well_formed(resp, req["id"], check_id=True), (req, resp)
                if resp["type"] == "result" and req.get("deadline_ms") is None:
                    if req["op"] == "min_cut_batch":
                        assert resp["values"] == [exact] * 3, (req, resp)
                    else:
                        assert resp["value"] == exact, (req, resp)
            # inflight accounting drained cleanly
            assert srv.service.tenants.get("t").inflight == 0
            assert srv.service.tenants.get("w").inflight == 0
            assert srv.service.queue.qsize() == 0


# ---------------------------------------------------------------------------
# per-budget-class executor backend
# ---------------------------------------------------------------------------
class TestBackendSelection:
    """Budget classes can pin the executor backend their queries run on
    (batch → process); a broken pool degrades to ``sync`` through the
    service's supervisor instead of failing the request."""

    def teardown_method(self):
        shutdown_shared_pools()

    def test_batch_class_pins_process(self):
        assert BUDGET_CLASSES["batch"].executor_backend == "process"
        assert BUDGET_CLASSES["interactive"].executor_backend is None
        assert BUDGET_CLASSES["standard"].executor_backend is None

    def test_batch_request_runs_on_process(self, graph, edges, exact):
        with ThreadedTCPServer(ServerConfig(queue_depth=8, workers=2)) as srv:
            _register(srv, graph, edges, budget_class="batch")
            batch = srv.request(
                {"op": "min_cut_batch", "tenant": "t", "graph": "g",
                 "seeds": [1, 2, 3]}
            )
            assert batch["type"] == "result"
            direct = [
                r.value
                for r in CutEngine(graph, seed=SEED).min_cut_batch([1, 2, 3])
            ]
            assert batch["values"] == direct
            counters = srv.request({"op": "metrics"})["counters"]
            # the fan-out went through a process pool: only process
            # rounds record their parent-side dispatch overhead
            assert counters.get("executor.dispatch_overhead_s", 0) > 0
            assert counters.get("supervisor.degradations", 0) == 0

    def test_pool_break_degrades_to_sync(self, graph, edges, exact):
        plan = FaultPlan((Fault(site=SITE_POOL_BREAK),), name="pool_break")
        with ThreadedTCPServer(ServerConfig(queue_depth=8, workers=2), faults=plan) as srv:
            _register(srv, graph, edges, budget_class="batch")
            batch = srv.request(
                {"op": "min_cut_batch", "tenant": "t", "graph": "g",
                 "seeds": [1, 2]}
            )
            assert batch["type"] == "result"  # degraded, not failed
            direct = [
                r.value for r in CutEngine(graph, seed=SEED).min_cut_batch([1, 2])
            ]
            assert batch["values"] == direct
            assert plan.fired == [(SITE_POOL_BREAK, 0)]
            events = srv.service.supervisor.events
            assert [(e.backend_from, e.backend_to) for e in events] == [
                ("process", "sync")
            ]
            counters = srv.request({"op": "metrics"})["counters"]
            assert counters.get("supervisor.degradations", 0) == 1

    def test_standard_class_leaves_backend_alone(self, graph, edges):
        with ThreadedTCPServer(ServerConfig(queue_depth=8, workers=2)) as srv:
            _register(srv, graph, edges, budget_class="standard")
            resp = srv.request({"op": "min_cut", "tenant": "t", "graph": "g"})
            assert resp["type"] == "result"
            tenant = srv.service.tenants.get("t")
            assert tenant.budget_class.executor_backend is None
