"""Bounded admission queue with typed backpressure.

Admission is the daemon's overload valve: a query either enters the
bounded FIFO (and is then *guaranteed* exactly one response — a result,
or a typed shed), or it is rejected immediately with a
``retry_after`` response.  Nothing ever blocks an acceptor on a full
queue, so a saturated daemon keeps answering cheap control ops
(``ping``, ``metrics``) and keeps telling clients *when* to come back.

The retry hint is an EWMA of recent service times scaled by the queue
backlog — under a sustained overload it grows with the backlog, giving
well-behaved clients an approximate token-bucket pacing without any
per-client state on the server.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from repro.errors import InvalidParameterError

__all__ = ["Admitted", "AdmissionQueue"]


@dataclass
class Admitted:
    """One admitted request travelling from acceptor to worker."""

    #: its typed arguments (:func:`repro.serve.protocol.check_request`)
    request: Dict[str, Any]
    future: "asyncio.Future[Dict[str, Any]]"
    tenant: Any  # Tenant; typed loosely to avoid an import cycle
    #: absolute clock time the request's deadline expires (never None:
    #: every admitted query carries one, from the request or its budget
    #: class default)
    deadline_at: float
    enqueued_at: float = field(default=0.0)


class AdmissionQueue:
    """A bounded FIFO with non-blocking admission and a retry-after hint.

    Parameters
    ----------
    depth:
        Maximum queued (admitted, not yet dispatched) requests.
    clock:
        Monotonic-seconds source, injectable for deterministic tests.
    """

    def __init__(self, depth: int, clock: Callable[[], float] = time.monotonic) -> None:
        if depth < 1:
            raise InvalidParameterError("admission queue depth must be >= 1")
        self.depth = int(depth)
        self.clock = clock
        self._q: "asyncio.Queue[Admitted]" = asyncio.Queue(maxsize=self.depth)
        self.high_water = 0
        #: EWMA of worker service seconds; seeds at 50 ms so the first
        #: hints are sane before any completion is observed
        self.ewma_service_s = 0.05

    # ------------------------------------------------------------------
    def try_put(self, item: Admitted) -> bool:
        """Admit ``item`` if the queue has room; never blocks."""
        item.enqueued_at = self.clock()
        try:
            self._q.put_nowait(item)
        except asyncio.QueueFull:
            return False
        self.high_water = max(self.high_water, self._q.qsize())
        return True

    async def get(self) -> Admitted:
        return await self._q.get()

    def task_done(self) -> None:
        self._q.task_done()

    def drain_nowait(self) -> "list[Admitted]":
        """Empty the queue without dispatching (shutdown path); the
        caller owes every drained item its one response."""
        items = []
        while True:
            try:
                items.append(self._q.get_nowait())
            except asyncio.QueueEmpty:
                break
            self._q.task_done()
        return items

    # ------------------------------------------------------------------
    def observe_service_time(self, seconds: float) -> None:
        """Fold one completed request's service time into the EWMA."""
        self.ewma_service_s = 0.8 * self.ewma_service_s + 0.2 * max(seconds, 0.0)

    def retry_after_ms(self, extra_backlog: int = 0) -> int:
        """The backpressure hint: expected time for the current backlog
        (plus ``extra_backlog`` requests ahead of the caller elsewhere,
        e.g. a tenant's own inflight) to drain, clamped to [10 ms, 10 s]."""
        backlog = self._q.qsize() + extra_backlog + 1
        hint = self.ewma_service_s * backlog * 1000.0
        return int(min(max(hint, 10.0), 10_000.0))

    def qsize(self) -> int:
        return self._q.qsize()

    def stats(self) -> Dict[str, float]:
        return {
            "depth": float(self.depth),
            "size": float(self._q.qsize()),
            "high_water": float(self.high_water),
            "ewma_service_ms": self.ewma_service_s * 1000.0,
        }
