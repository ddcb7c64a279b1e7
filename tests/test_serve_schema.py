"""The serve request schema (``repro.serve.protocol.OPS``) under random
JSON: whatever a client sends in any field of any op, the daemon answers
with one well-formed typed response, never a server-side crash, and a
graph it agrees to register is one it can cut."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import random_connected_graph
from repro.serve import ServerConfig, ThreadedTCPServer, well_formed
from repro.serve.protocol import OP_VOCABULARY, OPS

#: any JSON value (Python's json decodes NaN and +-Infinity too)
_JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers(-(2**70), 2**70) | st.floats(allow_nan=True, allow_infinity=True),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)
_NOT_A_NUMBER = _JSON.filter(
    lambda v: isinstance(v, bool) or not isinstance(v, (int, float))
)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_ANY_NUMBER = st.integers(-5, 100) | st.floats(-1.0, 2.0) | _NON_FINITE | _JSON


def _mostly(valid, junk=_JSON):
    """``valid`` seven draws in eight, ``junk`` otherwise."""
    return st.integers(0, 7).flatmap(lambda k: junk if k == 0 else valid)


_WEIGHT = st.integers(1, 9) | st.floats(0.01, 100.0)
_BAD_WEIGHT = st.integers(-1, 0) | st.floats(allow_nan=True, allow_infinity=True) | _JSON
_PAIR = st.integers(0, 15).flatmap(
    lambda u: st.integers(0, 15).filter(lambda v: v != u).map(lambda v: [u, v])
)
_EDGE = st.builds(lambda uv, w: uv + [w], _PAIR, _WEIGHT)
_BAD_EDGE = st.lists(
    st.integers(-1, 64) | st.floats(-1.0, 64.0) | _JSON, min_size=2, max_size=2
).flatmap(lambda uv: _BAD_WEIGHT.map(lambda w: uv + [w])) | _JSON


def _edges(max_size):
    return _mostly(
        st.lists(_EDGE, max_size=max_size),
        st.lists(_EDGE | _BAD_EDGE, max_size=20) | _JSON,
    )


#: per-field strategies: mostly plausible values, mixed with values
#: just out of bounds and arbitrary JSON.  ``n`` stays <= 64, edge lists
#: <= 200 and ``seconds`` short, so no draw makes the daemon allocate or
#: stall in proportion to a huge number.  Valid budget classes leave
#: out ``batch``, which pins the process pool
#: (``test_serve.py::TestBackendSelection`` covers it).
_FIELDS = {
    "tenant": _mostly(st.sampled_from(["t", "u"]), st.just("") | _JSON),
    "graph": _mostly(st.sampled_from(["g", "g", "h", "missing"]), st.just("") | _JSON),
    "budget_class": _mostly(
        st.sampled_from(["interactive", "standard"]), st.just("gold") | _JSON
    ),
    "cache_entries": _mostly(st.integers(1, 64), _ANY_NUMBER),
    "cache_bytes": _mostly(st.integers(1, 2**30), _ANY_NUMBER),
    "max_graphs": _mostly(st.integers(1, 4), _ANY_NUMBER),
    "n": _mostly(
        st.integers(2, 64),
        st.integers(-2, 1) | st.floats(-2.0, 64.0) | _NON_FINITE | _NOT_A_NUMBER,
    ),
    "edges": _edges(200),
    "seed": _mostly(st.integers(0, 2**63 - 1), _ANY_NUMBER),
    "epsilon": _mostly(st.floats(0.05, 1.0), _ANY_NUMBER),
    "warm": _mostly(st.booleans()),
    "return_side": _mostly(st.booleans()),
    "deadline_ms": _mostly(st.integers(1, 60_000) | st.floats(0.0, 1e9), _ANY_NUMBER),
    "seeds": _mostly(
        st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=3),
        st.lists(st.integers(-2, 2**64) | _JSON, max_size=3)
        | st.just(list(range(65))) | _JSON,
    ),
    "add_edges": _edges(5),
    "remove_edges": _mostly(
        st.lists(st.integers(0, 40), max_size=3),
        st.lists(st.integers(-2, 80) | _JSON, max_size=3) | _JSON,
    ),
    "reweight": _mostly(
        st.dictionaries(st.integers(0, 40).map(str), _WEIGHT, max_size=4),
        st.dictionaries(st.integers(-1, 40).map(str) | st.text(max_size=3),
                        _WEIGHT | _BAD_WEIGHT, max_size=4)
        | st.lists(_WEIGHT | _BAD_WEIGHT, max_size=40) | _JSON,
    ),
    "seconds": _mostly(
        st.floats(0.0, 0.02), st.floats(max_value=0.0) | _NON_FINITE | _NOT_A_NUMBER
    ),
}

_CRASHES = ("handler_crash", "internal_error")


def test_every_field_has_a_strategy():
    assert {name for op in OPS.values() for name in op.fields} == set(_FIELDS)


def test_random_requests_get_typed_answers():
    graph = random_connected_graph(12, 30, rng=5, max_weight=5)
    edges = [[int(u), int(v), float(w)] for u, v, w in graph.edges()]
    ops = sorted(OP_VOCABULARY) + ["_stall"]
    with ThreadedTCPServer(ServerConfig(workers=2, debug_ops=True)) as srv:
        srv.request({"op": "register_tenant", "tenant": "t"})
        srv.request({"op": "register_graph", "tenant": "t", "graph": "g",
                     "n": graph.n, "edges": edges, "seed": 1})
        ids = iter(range(10**9))

        def send(request):
            rid = next(ids)
            resp = srv.request({**request, "id": rid})
            assert well_formed(resp, rid, check_id=True), (request, resp)
            assert resp.get("error") not in _CRASHES, (request, resp)
            return resp

        @settings(
            max_examples=400, deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
        )
        @given(st.data())
        def check(data):
            op = data.draw(st.sampled_from(ops), label="op")
            request = {"op": op}
            for name, field in OPS[op].fields.items():
                # a required field is sent nine times in ten, others half
                if data.draw(st.integers(0, 9)) < (9 if field.required else 5):
                    request[name] = data.draw(_FIELDS[name], label=name)
            resp = send(request)
            if op == "register_graph" and resp["type"] == "result":
                cut = send({"op": "min_cut", "tenant": request["tenant"],
                            "graph": request["graph"], "deadline_ms": 60_000})
                assert cut["type"] == "result", (request, cut)

        check()
