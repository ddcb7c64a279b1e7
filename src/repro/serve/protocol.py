"""Wire protocol of the cut-serving daemon: length-prefixed JSON frames
and the typed response vocabulary.

Framing
-------
A frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Both directions use the same framing; a frame
longer than the negotiated cap, a non-JSON body, or a non-object
payload is a :class:`ProtocolError` (the server answers it with one
``bad_request`` response and closes the connection — never a silent
drop).

Requests
--------
Every request is a JSON object with an ``op`` field and an optional
``id`` the server echoes verbatim (clients use it to match pipelined
responses).  :data:`OPS` is the request schema: per op, the protocol
version that introduced it, whether it is admitted or mutates, and
each field's kind, default and bounds.  :func:`check_request` checks a
request against it once, before admission, and returns the typed
arguments the handlers read.  :data:`OP_VOCABULARY` maps every public
op to its version, and :data:`PROTOCOL_VERSION` (echoed by ``ping``
and ``graph_info``) is the version this daemon speaks — version 2
added the mutation surface (``update``) and ``graph_info``; version 3
removed the deprecated weight-only mutation spelling and added durable
state (``serve --state-dir``: ``graph_info`` reports ``durable``,
``metrics`` reports ``durability``).  ``docs/service.md`` lists the
fields of each op.

Responses
---------
Every *accepted* request receives **exactly one** response, of one of
the :data:`RESPONSE_TYPES`: ``result`` (the answer), ``retry_after``
(not admitted), ``deadline_exceeded`` (admitted, then shed) or
``error`` (a typed failure, ``bad_request`` for a request that breaks
:data:`OPS`).  ``docs/service.md`` tabulates their fields;
:func:`well_formed` checks a response against that table — the chaos
soak and the load generator gate on it for every single response.
"""

from __future__ import annotations

import asyncio
import json
import math
import reprlib
import struct
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "OP_VOCABULARY",
    "OPS",
    "MAX_BATCH",
    "Field",
    "Op",
    "check_request",
    "ProtocolError",
    "ServiceError",
    "RetryAfter",
    "DeadlineExceeded",
    "encode_frame",
    "decode_payload",
    "read_frame",
    "write_frame",
    "ok_response",
    "retry_after_response",
    "deadline_response",
    "error_response",
    "well_formed",
    "RESPONSE_TYPES",
]

#: default cap on one frame's JSON body (requests and responses alike)
MAX_FRAME_BYTES = 8 * 2**20

#: the protocol version this daemon speaks (the module docstring has
#: each version's changes); bumped whenever an op is added or a
#: response field changes meaning
PROTOCOL_VERSION = 3

#: cap on one ``min_cut_batch`` request's seed list
MAX_BATCH = 64


@dataclass(frozen=True)
class Field:
    """A request field: its ``kind`` (a key of :data:`_KINDS`), whether
    it is ``required``, its ``default`` when absent, and the bounds on
    its number, or on each number of a list (``lo <= x <= hi``,
    ``x > above``); ``size`` bounds a list's length."""

    kind: str
    required: bool = False
    default: Any = None
    lo: Optional[float] = None
    hi: Optional[float] = None
    above: Optional[float] = None
    size: Tuple[int, int] = (0, sys.maxsize)


@dataclass(frozen=True)
class Op:
    """An op: the protocol ``version`` that added it, its ``fields``,
    whether it is ``admitted`` through the bounded queue (other ops are
    answered inline, so they survive saturation) and ``mutates`` the
    graph (write-gated per budget class), and the optional fields of
    which ``any_of`` at least one must be present."""

    version: int
    fields: Dict[str, Field] = field(default_factory=dict)
    admitted: bool = False
    mutates: bool = False
    any_of: Tuple[str, ...] = ()


_NAME = Field("name", required=True)
_QUERY = {"tenant": _NAME, "graph": _NAME, "deadline_ms": Field("number")}
_SIDE = Field("bool", default=False)

#: the request schema: every op the daemon routes → its :class:`Op`;
#: ``_``-prefixed ops are debug ops, routed only under ``debug_ops``
OPS: Dict[str, Op] = {
    "ping": Op(1), "metrics": Op(1), "stats": Op(1), "shutdown": Op(1),
    "register_tenant": Op(1, {
        "tenant": _NAME, "budget_class": Field("name"), "cache_entries": Field("int"),
        "cache_bytes": Field("int"), "max_graphs": Field("int"),
    }),
    "register_graph": Op(1, {
        "tenant": _NAME, "graph": _NAME, "n": Field("int", required=True, lo=2),
        "edges": Field("edges", required=True), "seed": Field("int", default=0, lo=0),
        # Section 4.3's regime: range-tree degree n^epsilon, 0 < epsilon <= 1
        "epsilon": Field("number", above=0, hi=1), "warm": Field("bool", default=False),
    }),
    "graph_info": Op(2, {"tenant": _NAME, "graph": _NAME}),
    "min_cut": Op(1, {**_QUERY, "return_side": _SIDE}, admitted=True),
    "min_cut_batch": Op(1, {
        **_QUERY, "seeds": Field("ints", required=True, lo=0, size=(1, MAX_BATCH)),
    }, admitted=True),
    "update": Op(2, {
        **_QUERY, "add_edges": Field("edges"), "remove_edges": Field("ints"),
        "reweight": Field("reweight"), "return_side": _SIDE,
    }, admitted=True, mutates=True, any_of=("add_edges", "remove_edges", "reweight")),
    "_stall": Op(1, {
        "tenant": _NAME, "deadline_ms": Field("number"),
        "seconds": Field("number", default=0.1, lo=0),
    }, admitted=True),
}

#: every public op → the protocol version that introduced it
OP_VOCABULARY: Dict[str, int] = {
    op: spec.version for op, spec in OPS.items() if not op.startswith("_")
}


_HEADER = struct.Struct(">I")

RESPONSE_TYPES = ("result", "retry_after", "deadline_exceeded", "error")


class ProtocolError(ReproError):
    """A frame-level violation (oversized frame, undecodable body, a
    payload that is not a JSON object) or a request that breaks the
    :data:`OPS` schema; answered with ``error`` code ``code``."""

    def __init__(self, message: str, code: str = "bad_request") -> None:
        super().__init__(message)
        self.code = code


class ServiceError(ReproError):
    """A typed ``error`` response, raised client-side by
    :meth:`repro.serve.client.ServiceClient.call`.

    Attributes
    ----------
    code:
        The stable ``error`` code from the response (``"bad_request"``,
        ``"unknown_tenant"``, ``"handler_crash"``, ...).
    response:
        The full response object, for callers needing more context.
    """

    def __init__(self, message: str, *, code: str = "error", response: Optional[dict] = None):
        super().__init__(message)
        self.code = code
        self.response = response or {}


class RetryAfter(ServiceError):
    """A typed backpressure rejection: the request was **not** admitted.

    ``retry_after_ms`` is the server's hint for when capacity is likely
    back (derived from queue depth and the recent service-time EWMA).
    """

    def __init__(self, message: str, *, retry_after_ms: int = 100,
                 reason: str = "queue_full", response: Optional[dict] = None):
        super().__init__(message, code="retry_after", response=response)
        self.retry_after_ms = int(retry_after_ms)
        self.reason = reason


class DeadlineExceeded(ServiceError):
    """A typed shed: the request was admitted but its deadline expired
    (while queued, or mid-query at a cooperative budget checkpoint)."""

    def __init__(self, message: str, *, shed: str = "inflight",
                 response: Optional[dict] = None):
        super().__init__(message, code="deadline_exceeded", response=response)
        self.shed = shed


# ---------------------------------------------------------------------------
# checking a request against the schema
# ---------------------------------------------------------------------------
def _bad(where: str, what: str, value: Any) -> ProtocolError:
    return ProtocolError(f"{where!r} must be {what}, got {reprlib.repr(value)}")


def _number(value: Any, spec: Field, where: str) -> Any:
    """A finite JSON number, or for the ``int``/``ints`` kinds an
    integer (an integral float counts) that fits 64 bits, in bounds."""
    integer = spec.kind in ("int", "ints")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(where, "an integer" if integer else "a number", value)
    if integer:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if not isinstance(value, int) or not -(2**63) <= value < 2**63:
            raise _bad(where, "a 64-bit integer", value)
    else:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise _bad(where, "a finite number", value)
    for ok, what in (
        (spec.lo is None or value >= spec.lo, f">= {spec.lo}"),
        (spec.above is None or value > spec.above, f"> {spec.above}"),
        (spec.hi is None or value <= spec.hi, f"<= {spec.hi}"),
    ):
        if not ok:
            raise _bad(where, what, value)
    return value


def _typed(test: Callable[[Any], bool], what: str):
    def check(value: Any, spec: Field, where: str) -> Any:
        if not test(value):
            raise _bad(where, what, value)
        return value

    return check


def _list(value: Any, spec: Field, where: str) -> list:
    lo, hi = spec.size
    if not isinstance(value, list):
        raise _bad(where, "a list", value)
    if not lo <= len(value) <= hi:
        raise _bad(where, f"a list of {lo} to {hi} items", value)
    return value


_INT, _NUMBER = Field("int"), Field("number")


def _edges(value: Any, spec: Field, where: str) -> List[Tuple[int, int, float]]:
    triples = []
    for e in _list(value, spec, where):
        if not isinstance(e, list) or len(e) != 3:
            raise _bad(where, "a list of [u, v, w]", e)
        triples.append((_number(e[0], _INT, where), _number(e[1], _INT, where),
                        _number(e[2], _NUMBER, where)))
    return triples


def _reweight(value: Any, spec: Field, where: str):
    """``{edge_index: w}`` (JSON keys are strings) or a full weight list."""
    if not isinstance(value, dict):
        return [_number(w, _NUMBER, where) for w in _list(value, spec, where)]
    out = {}
    for k, w in value.items():
        try:
            key = int(k) if isinstance(k, str) else k
        except ValueError:
            raise _bad(where, "keyed by edge indices", k) from None
        out[_number(key, _INT, where)] = _number(w, _NUMBER, where)
    return out


#: each field kind → its checker ``(value, Field, name) -> typed value``
_KINDS: Dict[str, Callable[[Any, Field, str], Any]] = {
    "number": _number, "int": _number,
    "bool": _typed(lambda v: isinstance(v, bool), "true or false"),
    "name": _typed(lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "ints": lambda v, s, w: [_number(i, s, w) for i in _list(v, s, w)],
    "edges": _edges,
    "reweight": _reweight,
}


def check_request(request: Any, *, debug_ops: bool = False) -> Dict[str, Any]:
    """The typed arguments of one request: ``op``, ``id`` and every
    field of the op's :data:`OPS` entry (an absent optional field takes
    its default; unknown fields are ignored).  A request that breaks
    the schema raises :class:`ProtocolError` (code ``unknown_op`` for an
    op outside it)."""
    if not isinstance(request, dict) or not isinstance(request.get("op"), str):
        raise ProtocolError("request must be a JSON object with a string 'op'")
    op = request["op"]
    spec = OPS.get(op)
    if spec is None or (op.startswith("_") and not debug_ops):
        raise ProtocolError(
            f"unknown op {op!r} (protocol v{PROTOCOL_VERSION} ops: "
            f"{sorted(OP_VOCABULARY)})",
            code="unknown_op",
        )
    args: Dict[str, Any] = {"op": op, "id": request.get("id")}
    for name, fld in spec.fields.items():
        if name in request:
            args[name] = _KINDS[fld.kind](request[name], fld, name)
        elif fld.required:
            raise ProtocolError(f"op {op!r} needs {name!r}")
        else:
            args[name] = fld.default
    if spec.any_of and all(args[name] is None for name in spec.any_of):
        raise ProtocolError(f"op {op!r} needs at least one of {list(spec.any_of)}")
    return args


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------
def encode_frame(obj: Dict[str, Any], max_frame: int = MAX_FRAME_BYTES) -> bytes:
    """``obj`` as one length-prefixed frame (header + UTF-8 JSON body)."""
    body = json.dumps(obj, separators=(",", ":"), allow_nan=False).encode("utf-8")
    if len(body) > max_frame:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {max_frame}-byte cap"
        )
    return _HEADER.pack(len(body)) + body


def decode_payload(body: bytes) -> Dict[str, Any]:
    """One frame body back into a request/response object."""
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(obj).__name__}"
        )
    return obj


async def read_frame(
    reader: asyncio.StreamReader, max_frame: int = MAX_FRAME_BYTES
) -> Optional[Dict[str, Any]]:
    """The next frame from ``reader``, or None on clean EOF before a
    header byte.  A truncated frame or an oversized length is a
    :class:`ProtocolError`."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError("connection closed mid-header") from exc
    (length,) = _HEADER.unpack(header)
    if length > max_frame:
        raise ProtocolError(
            f"announced frame of {length} bytes exceeds the {max_frame}-byte cap"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_payload(body)


async def write_frame(
    writer: asyncio.StreamWriter, obj: Dict[str, Any],
    max_frame: int = MAX_FRAME_BYTES,
) -> None:
    """Write ``obj`` as one frame and drain the transport."""
    writer.write(encode_frame(obj, max_frame))
    await writer.drain()


# ---------------------------------------------------------------------------
# typed responses
# ---------------------------------------------------------------------------
def _base(req_id: Any, ok: bool, rtype: str) -> Dict[str, Any]:
    return {"id": req_id, "ok": ok, "type": rtype}


def ok_response(req_id: Any, **payload: Any) -> Dict[str, Any]:
    resp = _base(req_id, True, "result")
    resp.update(payload)
    return resp


def retry_after_response(
    req_id: Any, *, retry_after_ms: int, reason: str
) -> Dict[str, Any]:
    resp = _base(req_id, False, "retry_after")
    resp["retry_after_ms"] = int(retry_after_ms)
    resp["reason"] = reason
    return resp


def deadline_response(req_id: Any, *, shed: str, message: str) -> Dict[str, Any]:
    resp = _base(req_id, False, "deadline_exceeded")
    resp["shed"] = shed
    resp["message"] = message
    return resp


def error_response(req_id: Any, *, code: str, message: str) -> Dict[str, Any]:
    resp = _base(req_id, False, "error")
    resp["error"] = code
    resp["message"] = message
    return resp


def well_formed(resp: Any, req_id: Any = None, *, check_id: bool = False) -> bool:
    """True iff ``resp`` satisfies the typed-response table (and, with
    ``check_id``, echoes ``req_id``).  The soak/bench gate."""
    if not isinstance(resp, dict):
        return False
    if resp.get("type") not in RESPONSE_TYPES:
        return False
    if not isinstance(resp.get("ok"), bool):
        return False
    if resp["ok"] != (resp["type"] == "result"):
        return False
    if check_id and resp.get("id") != req_id:
        return False
    if resp["type"] == "retry_after":
        if not isinstance(resp.get("retry_after_ms"), int) or "reason" not in resp:
            return False
    if resp["type"] == "deadline_exceeded" and resp.get("shed") not in (
        "queued",
        "inflight",
    ):
        return False
    if resp["type"] == "error":
        if not resp.get("error") or "message" not in resp:
            return False
    return True
