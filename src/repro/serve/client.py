"""A blocking TCP client for the cut-serving daemon.

Used by the load generator (``scripts/bench_service.py``), the chaos
soak (``scripts/chaos_soak.py --service``), and the tests; also a
reasonable starting point for real callers.  One client owns one
connection and issues requests strictly in order — open several
clients for concurrency, exactly as the daemon's connection model
expects.

:meth:`ServiceClient.request` returns the raw typed response object;
:meth:`ServiceClient.call` additionally raises the typed exceptions
(:class:`~repro.serve.protocol.RetryAfter`,
:class:`~repro.serve.protocol.DeadlineExceeded`,
:class:`~repro.serve.protocol.ServiceError`) so library-style callers
can handle backpressure with ``except RetryAfter``.

:meth:`ServiceClient.call_with_retry` additionally survives a daemon
restart: a connection torn mid-call (``ECONNRESET`` /
``BrokenPipeError``, or refused while the daemon is coming back up) is
retried over a fresh connection with bounded, jittered backoff, counted
under ``client.reconnects``.  Note the at-least-once caveat: a request
whose connection died *after* the server processed it may be re-sent,
so only retry mutations that are idempotent or whose duplicate ack is
acceptable (the chaos soak's crash trials account for exactly this).
"""

from __future__ import annotations

import itertools
import random
import socket
import struct
import time
from typing import Any, Dict, Optional

from repro import obs
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    DeadlineExceeded,
    ProtocolError,
    RetryAfter,
    ServiceError,
    decode_payload,
    encode_frame,
)

__all__ = ["ServiceClient"]

_HEADER = struct.Struct(">I")


class ServiceClient:
    """One blocking connection to a :class:`~repro.serve.ThreadedTCPServer`.

    Parameters
    ----------
    host, port:
        The daemon's binding.
    timeout:
        Socket timeout in seconds for connect and each response read; a
        timeout raises ``socket.timeout`` (the daemon's contract is that
        this never fires for an accepted request — the chaos soak gates
        on it).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._ids = itertools.count(1)
        self._sock: Optional[socket.socket] = None
        #: reconnects performed by :meth:`call_with_retry` over this
        #: client's lifetime (also counted under ``client.reconnects``)
        self.reconnects = 0

    # -- lifecycle ----------------------------------------------------------
    def connect(self) -> "ServiceClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- I/O ----------------------------------------------------------------
    def _recv_exact(self, nbytes: int) -> bytes:
        assert self._sock is not None
        chunks = []
        remaining = nbytes
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise ProtocolError("server closed the connection mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request (assigning an ``id`` if absent) and block
        for its single response."""
        self.connect()
        if "id" not in request:
            request = {**request, "id": next(self._ids)}
        assert self._sock is not None
        self._sock.sendall(encode_frame(request))
        header = self._recv_exact(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"server announced oversized {length}-byte frame")
        return decode_payload(self._recv_exact(length))

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Like :meth:`request` but raising the typed exceptions on any
        non-``result`` response."""
        resp = self.request(request)
        if resp.get("ok"):
            return resp
        rtype = resp.get("type")
        if rtype == "retry_after":
            raise RetryAfter(
                f"not admitted ({resp.get('reason')})",
                retry_after_ms=resp.get("retry_after_ms", 100),
                reason=resp.get("reason", "queue_full"),
                response=resp,
            )
        if rtype == "deadline_exceeded":
            raise DeadlineExceeded(
                resp.get("message", "deadline exceeded"),
                shed=resp.get("shed", "inflight"),
                response=resp,
            )
        raise ServiceError(
            resp.get("message", "service error"),
            code=resp.get("error", "error"),
            response=resp,
        )

    #: connection failures :meth:`call_with_retry` reconnects through —
    #: the shapes a daemon restart presents: reset mid-read, broken pipe
    #: on send, refused while the listener is down, EOF mid-frame (the
    #: ProtocolError :meth:`_recv_exact` raises is filtered by message)
    _RECONNECTABLE = (
        ConnectionResetError,
        BrokenPipeError,
        ConnectionRefusedError,
        ConnectionAbortedError,
    )

    def call_with_retry(
        self,
        request: Dict[str, Any],
        *,
        attempts: int = 8,
        reconnects: int = 4,
        backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
    ) -> Dict[str, Any]:
        """Honor ``retry_after`` backpressure up to ``attempts`` times
        (sleeping the server's hint between tries), and survive up to
        ``reconnects`` torn connections — a restarting daemon — with
        exponential, jittered backoff starting at ``backoff_s``.

        Raises the final :class:`RetryAfter` once admission attempts
        are exhausted, or the final socket error once reconnection
        attempts are; see the module docstring for the at-least-once
        caveat on re-sent requests.
        """
        last_admission: Optional[RetryAfter] = None
        last_socket: Optional[Exception] = None
        torn = 0
        for _ in range(attempts):
            try:
                return self.call(request)
            except RetryAfter as exc:
                last_admission = exc
                time.sleep(exc.retry_after_ms / 1000.0)
            except (self._RECONNECTABLE + (ProtocolError,)) as exc:
                if isinstance(exc, ProtocolError) and "mid-frame" not in str(exc):
                    raise  # a real framing violation, not a dead server
                last_socket = exc
                if torn >= reconnects:
                    raise
                torn += 1
                self.reconnects += 1
                obs.counters().add("client.reconnects")
                self.close()
                delay = min(backoff_s * 2 ** (torn - 1), max_backoff_s)
                time.sleep(delay * (0.5 + 0.5 * random.random()))
        if last_admission is not None:
            raise last_admission
        assert last_socket is not None  # attempts exhausted reconnecting
        raise last_socket
