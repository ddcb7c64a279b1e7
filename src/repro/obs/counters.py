"""One namespaced counter registry for the whole pipeline.

Before this module, run diagnostics were scattered across free-form
``CutResult.stats`` dicts, per-oracle visit counters, SMAWK lookup
counts, and resilience provenance fields — four shapes, none of which
could answer "where did the work go" for a whole run.  A
:class:`CounterRegistry` replaces the free-form dicts with one
dot-namespaced map that every layer increments through the ambient
:func:`counters` accessor.

Namespaces (the full catalogue lives in ``docs/observability.md``):

========================  =====================================================
``oracle.*``              cut-query oracle activity (``nodes_visited``,
                          ``queries``)
``smawk.*``               Monge-search entry evaluations (``evals``, ``calls``);
                          reference-only: ``tests/reference_monge.py``
                          emits them, the library never does
``kernels.*``             fast-path batch drivers (``batch_calls``,
                          ``batch_entries``)
``tworespect.*``          per-tree search shape (``trees``,
                          ``interest_tuples``, ``interested_pairs``)
``executor.*``            real-parallel dispatch (``retries``, ``dispatches``)
``resilience.*``          budget/retry machinery (``checkpoints``,
                          ``attempts``, ``fallbacks``)
``checkpoint.*``          crash-resume persistence (``saves``,
                          ``resumes``, ``stage_loads``, ``finalized``)
``engine.*``              staged-engine queries and artifact cache
                          (``queries``, ``updates``, ``update_noops``,
                          ``rebases``, ``cache_hits``, ``cache_misses``)
``serve.*``               the cut-serving daemon's admission/shedding
                          ledger (``requests``, ``admitted``,
                          ``completed``, ``rejected_queue_full``,
                          ``rejected_inflight``, ``shed_queued``,
                          ``shed_inflight``, ``op.<op>``,
                          ``fault.<site>``; exposed by its ``metrics``
                          op — ``docs/service.md``)
========================  =====================================================

Cost model
----------
Counting is **off by default**: the ambient registry is a shared
:data:`NULL_COUNTERS` singleton whose :meth:`~CounterRegistry.add` is a
no-op ``pass``, so un-traced runs pay one contextvar read per
instrumentation site and nothing else.  Counters never touch the
:class:`~repro.pram.ledger.Ledger` — ledger parity between counted and
uncounted runs is bit-exact (``tests/test_obs.py``).

Hot loops should guard expensive *argument construction* behind the
``enabled`` flag::

    reg = counters()
    if reg.enabled:
        reg.add("oracle.nodes_visited", float(self.total_nodes_visited))
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Mapping

__all__ = ["CounterRegistry", "NULL_COUNTERS", "counters", "counting_scope"]


class CounterRegistry:
    """A flat map of dot-namespaced counter names to float totals."""

    __slots__ = ("_counts",)

    #: False on the shared null registry; callers may use this to skip
    #: computing expensive counter arguments.
    enabled = True

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}

    def add(self, name: str, value: float = 1.0) -> None:
        """Increment ``name`` by ``value`` (creating it at 0)."""
        self._counts[name] = self._counts.get(name, 0.0) + value

    def get(self, name: str, default: float = 0.0) -> float:
        return self._counts.get(name, default)

    def snapshot(self) -> Dict[str, float]:
        """A point-in-time copy of every counter."""
        return dict(self._counts)

    def delta_since(self, snap: Mapping[str, float]) -> Dict[str, float]:
        """Nonzero counter increments since ``snap`` (from :meth:`snapshot`)."""
        out = {}
        for name, value in self._counts.items():
            d = value - snap.get(name, 0.0)
            if d != 0.0:
                out[name] = d
        return out

    def namespaces(self) -> Dict[str, float]:
        """Totals aggregated by leading namespace component."""
        out: Dict[str, float] = {}
        for name, value in self._counts.items():
            ns = name.split(".", 1)[0]
            out[ns] = out.get(ns, 0.0) + value
        return out

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CounterRegistry({len(self._counts)} counters)"


class _NullCounterRegistry(CounterRegistry):
    """Discards all increments; the ambient default when not tracing."""

    __slots__ = ()

    enabled = False

    def add(self, name: str, value: float = 1.0) -> None:  # noqa: D102
        pass


#: Shared sink for un-instrumented contexts.  Never read its counters.
NULL_COUNTERS = _NullCounterRegistry()

_active: ContextVar[CounterRegistry] = ContextVar(
    "repro_obs_counters", default=NULL_COUNTERS
)


def counters() -> CounterRegistry:
    """The registry armed in the current context (:data:`NULL_COUNTERS`
    when no tracer / counting scope is active)."""
    return _active.get()


@contextmanager
def counting_scope(registry: CounterRegistry) -> Iterator[CounterRegistry]:
    """Arm ``registry`` as the ambient counter sink for the block.

    :meth:`repro.obs.Tracer.activate` does this automatically; use this
    directly to collect counters without building a span tree."""
    token = _active.set(registry)
    try:
        yield registry
    finally:
        _active.reset(token)
