"""Health-aware execution supervision: the backend degradation chain.

:func:`repro.pram.executor.parallel_map` runs on a process pool or an
in-line loop (``process``/``sync``), and the resilient driver makes the
*algorithmic* pipeline resilient.  A :class:`Supervisor` is the health
model of the execution substrate itself, so a broken process pool is
not evicted and then retried on the same backend forever:

* it records backend failures (broken pools, worker hangs, injected
  faults) per backend, applying **exponential backoff with
  deterministic seeded jitter** — two supervisors built with the same
  seed block and recover on identical schedules, so faulted runs stay
  reproducible;
* :meth:`Supervisor.select` routes a requested backend to the first
  healthy stage of the degradation chain ``process → sync``
  (the final stage is always eligible — an in-line loop cannot break),
  emitting a typed :class:`repro.results.DegradationEvent` and
  ``supervisor.*`` counters whenever it downgrades;
* once a backend's backoff expires the next selection is a **recovery
  probe**: one attempt is allowed through, a success resets the health
  record (``supervisor.recoveries``), a failure re-enters backoff with
  a doubled delay.

:func:`repro.pram.executor.parallel_map` consults the ambient supervisor
(:func:`active_supervisor`) before every dispatch round.  The serve
daemon owns one and arms it (:func:`supervised_scope`) around every
query; it matters for ``batch``-class tenants, which the daemon pins
to the process backend, and for the one dispatch that fans out,
:meth:`repro.engine.CutEngine.min_cut_batch`.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.counters import counters
from repro.results import DegradationEvent

__all__ = [
    "BackendHealth",
    "Supervisor",
    "DegradationEvent",
    "supervised_scope",
    "active_supervisor",
]

#: the degradation chain, most capable first; the last stage never
#: degrades further (a sequential in-line loop cannot break)
DEGRADATION_CHAIN: Tuple[str, ...] = ("process", "sync")

#: seconds a backend is blocked after its first consecutive failure;
#: doubles per further consecutive failure
BASE_BACKOFF = 0.25

#: cap on the un-jittered backoff, in seconds
MAX_BACKOFF = 30.0

#: uniform multiplicative jitter fraction: the applied backoff is
#: ``backoff * (1 + JITTER * u)`` with ``u ~ U[0, 1)`` drawn from the
#: supervisor's ``random.Random(seed)`` stream
JITTER = 0.25


@dataclass
class BackendHealth:
    """Mutable health record of one executor backend.

    ``consecutive`` counts failures since the last success and drives
    the exponential backoff; ``failures`` is the lifetime total.
    ``blocked_until`` is a supervisor-clock timestamp; while it lies in
    the future :meth:`Supervisor.select` skips the backend.  ``probing``
    marks the one attempt allowed through after a backoff expires.
    """

    failures: int = 0
    consecutive: int = 0
    blocked_until: float = 0.0
    probing: bool = False
    last_reason: str = ""


class Supervisor:
    """Per-backend health model with backoff, probes, and degradation.

    Selection walks :data:`DEGRADATION_CHAIN` left-to-right starting at
    the requested backend; backoff follows :data:`BASE_BACKOFF`,
    :data:`MAX_BACKOFF` and :data:`JITTER`.

    Parameters
    ----------
    seed:
        Seed of the jitter stream, so the backoff schedule is
        deterministic given it.
    clock:
        Monotonic-seconds source, injectable for deterministic tests.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.clock = clock
        self._rng = random.Random(seed)
        self.health: Dict[str, BackendHealth] = {
            b: BackendHealth() for b in DEGRADATION_CHAIN
        }
        self.events: List[DegradationEvent] = []

    # -- selection ----------------------------------------------------------
    def healthy(self, backend: str) -> bool:
        """True when ``backend`` is eligible for dispatch right now."""
        h = self.health.get(backend)
        if h is None:
            return True  # unsupervised backend: nothing known against it
        return h.blocked_until <= self.clock() or backend == DEGRADATION_CHAIN[-1]

    def select(self, requested: str) -> str:
        """The first healthy backend at or below ``requested`` in the chain.

        Emits a :class:`DegradationEvent` (and the
        ``supervisor.degradations`` counter) when the answer differs
        from ``requested``; marks an expired-backoff selection as a
        recovery probe (``supervisor.probes``).
        """
        if requested not in DEGRADATION_CHAIN:
            return requested  # not part of the supervised chain
        now = self.clock()
        start = DEGRADATION_CHAIN.index(requested)
        for backend in DEGRADATION_CHAIN[start:]:
            h = self.health[backend]
            if h.blocked_until > now and backend != DEGRADATION_CHAIN[-1]:
                continue
            if h.consecutive > 0 and not h.probing and h.blocked_until <= now:
                # backoff expired: let exactly this attempt probe recovery
                h.probing = True
                counters().add("supervisor.probes")
            if backend != requested:
                blocked = self.health[requested]
                event = DegradationEvent(
                    backend_from=requested,
                    backend_to=backend,
                    reason=blocked.last_reason or "backoff",
                    at=now,
                    detail=f"{requested} blocked for "
                    f"{max(blocked.blocked_until - now, 0.0):.3g}s more",
                )
                self.events.append(event)
                counters().add("supervisor.degradations")
            return backend
        return DEGRADATION_CHAIN[-1]  # unreachable: the last stage always matches

    # -- health reporting ---------------------------------------------------
    def record_failure(self, backend: str, reason: str, detail: str = "") -> None:
        """Record a backend-level failure and enter (or extend) backoff.

        ``reason`` is a short slug (``"broken_pool"``, ``"timeout"`` for
        a hung worker, ``"injected"``).  The final chain stage records
        the failure but is never blocked — there is nothing to degrade
        to.
        """
        h = self.health.get(backend)
        if h is None:
            return
        h.failures += 1
        h.consecutive += 1
        h.probing = False
        h.last_reason = reason
        counters().add("supervisor.failures")
        if backend == DEGRADATION_CHAIN[-1]:
            return
        backoff = min(MAX_BACKOFF, BASE_BACKOFF * 2.0 ** (h.consecutive - 1))
        backoff *= 1.0 + JITTER * self._rng.random()
        h.blocked_until = self.clock() + backoff

    def record_success(self, backend: str) -> None:
        """Record a healthy dispatch; a successful probe fully recovers
        the backend (``supervisor.recoveries``)."""
        h = self.health.get(backend)
        if h is None:
            return
        if h.probing:
            counters().add("supervisor.recoveries")
        h.consecutive = 0
        h.probing = False
        h.blocked_until = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sick = [b for b in DEGRADATION_CHAIN if not self.healthy(b)]
        return f"Supervisor(chain={DEGRADATION_CHAIN}, blocked={sick or 'none'})"


_active: ContextVar[Optional[Supervisor]] = ContextVar(
    "repro_supervisor", default=None
)


def active_supervisor() -> Optional[Supervisor]:
    """The supervisor armed in the current context, if any."""
    return _active.get()


@contextmanager
def supervised_scope(supervisor: Optional[Supervisor]) -> Iterator[Optional[Supervisor]]:
    """Arm ``supervisor`` for the duration of the block (``None`` disarms).

    Scoped through a contextvar, so concurrent unsupervised callers are
    unaffected and in-line branches (which run in a copy of the caller's
    context) see the same supervisor.
    """
    token = _active.set(supervisor)
    try:
        yield supervisor
    finally:
        _active.reset(token)
