"""Phase spans: the structured timeline of one pipeline run.

A :class:`Span` is one named interval of a run — ``approximate``,
``packing``, ``oracle-build``, one resilient attempt, ... — recording

* **wall clock** (seconds relative to the tracer's epoch),
* **ledger deltas** (work/depth consumed between entry and exit, read
  from the tracer's bound :class:`~repro.pram.ledger.Ledger`), and
* **counter deltas** (nonzero increments of the tracer's
  :class:`~repro.obs.counters.CounterRegistry` inside the span).

Spans nest into a tree via the context-manager API::

    tracer = Tracer(ledger=ledger)
    with tracer.activate():
        with tracer.span("packing"):
            ...
    report = tracer.report()

Library code never holds a tracer: it opens spans on the *ambient*
tracer (:func:`current_tracer`), which is a no-op singleton unless a
caller activated one — so un-traced runs pay one contextvar read and a
constant-folded ``with`` per phase.  The :func:`phase` helper bundles
the ambient span with the matching :meth:`Ledger.phase` attribution so
drivers instrument both with one line.

Spans observe the ledger; they never charge it.  Work/depth accounting
of a traced run is bit-identical to an untraced one (enforced by
``tests/test_obs.py``).

Parallelism caveat: branches of ``ledger.parallel()`` execute (and are
traced) sequentially in Python — logically-parallel spans appear one
after another on the wall-clock axis, while their *ledger* depth deltas
still reflect the fork/join semantics.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, TypeVar

from repro.errors import ReproError
from repro.obs.counters import NULL_COUNTERS, CounterRegistry, counting_scope
from repro.pram.ledger import NULL_LEDGER, Ledger

__all__ = [
    "Span",
    "Tracer",
    "current_tracer",
    "tracing_active",
    "traced",
    "phase",
    "suppress_tracing",
]

_R = TypeVar("_R")


@dataclass
class Span:
    """One closed (or still-open) interval of the run's timeline."""

    name: str
    #: wall seconds relative to the tracer's epoch
    wall_start: float = 0.0
    wall_end: Optional[float] = None
    work_start: float = 0.0
    depth_start: float = 0.0
    work_end: float = 0.0
    depth_end: float = 0.0
    #: nonzero counter increments recorded inside this span
    counters: Dict[str, float] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def wall_s(self) -> float:
        """Wall seconds spent in the span (0.0 while still open)."""
        if self.wall_end is None:
            return 0.0
        return self.wall_end - self.wall_start

    @property
    def work(self) -> float:
        """Ledger work charged while the span was open."""
        return self.work_end - self.work_start

    @property
    def depth(self) -> float:
        """Ledger depth-clock advance while the span was open."""
        return self.depth_end - self.depth_start

    def child_work(self) -> float:
        """Sum of the direct children's work deltas."""
        return sum(c.work for c in self.children)

    def self_work(self) -> float:
        """Work charged in this span outside any child span."""
        return self.work - self.child_work()

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, preorder."""
        yield self
        for c in self.children:
            yield from c.walk()

    def find(self, name: str) -> List["Span"]:
        """Every descendant span (preorder, self included) named ``name``."""
        return [s for s in self.walk() if s.name == name]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, wall={self.wall_s:.4f}s, "
            f"work={self.work:g}, depth={self.depth:g}, "
            f"children={len(self.children)})"
        )


class Tracer:
    """Builds the span tree of one run.

    Parameters
    ----------
    ledger:
        The ledger the traced computation charges; spans snapshot its
        ``(work, depth)`` at entry/exit.  Pass the same object you hand
        to the algorithms.  A :class:`~repro.pram.trace.TraceLedger`
        additionally lets the final report compute schedule bounds.
    clock:
        Monotonic-seconds source, injectable for deterministic tests.

    The implicit root span is named ``"run"``; :meth:`report` closes it
    and freezes the tree into a :class:`~repro.obs.report.RunReport`.
    """

    __slots__ = ("ledger", "registry", "root", "_stack", "_clock", "_epoch")

    def __init__(
        self,
        ledger: Optional[Ledger] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        self.registry = CounterRegistry()
        self._clock = clock
        self._epoch = clock()
        w, d = self.ledger.snapshot()
        self.root = Span("run", wall_start=0.0, work_start=w, depth_start=d)
        self._stack: List[Span] = [self.root]

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open a child span of the innermost open span."""
        w, d = self.ledger.snapshot()
        node = Span(
            name,
            wall_start=self._clock() - self._epoch,
            work_start=w,
            depth_start=d,
        )
        csnap = self.registry.snapshot()
        self._stack[-1].children.append(node)
        self._stack.append(node)
        try:
            yield node
        finally:
            popped = self._stack.pop()
            if popped is not node:  # pragma: no cover - defensive
                raise ReproError("span stack corrupted (overlapping exits)")
            node.wall_end = self._clock() - self._epoch
            node.work_end, node.depth_end = self.ledger.snapshot()
            node.counters = self.registry.delta_since(csnap)

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Make this tracer (and its counter registry) ambient for the
        block, so library code's :func:`current_tracer` spans and
        :func:`repro.obs.counters.counters` increments land here."""
        token = _active_tracer.set(self)
        try:
            with counting_scope(self.registry):
                yield self
        finally:
            _active_tracer.reset(token)

    # ------------------------------------------------------------------
    def finish(self) -> Span:
        """Close the root span (idempotent) and return it."""
        if self._stack != [self.root]:
            raise ReproError("finish() with open spans on the stack")
        if self.root.wall_end is None:
            self.root.wall_end = self._clock() - self._epoch
            self.root.work_end, self.root.depth_end = self.ledger.snapshot()
            self.root.counters = self.registry.snapshot()
        return self.root

    def report(self, **meta: object):
        """Freeze the tree into a :class:`~repro.obs.report.RunReport`."""
        from repro.obs.report import RunReport

        root = self.finish()
        return RunReport.from_tracer_root(
            root, self.registry.snapshot(), ledger=self.ledger, meta=meta
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer(spans={sum(1 for _ in self.root.walk())})"


# ----------------------------------------------------------------------
# the ambient tracer
# ----------------------------------------------------------------------
class _NullSpanContext:
    """Reusable, allocation-free stand-in for ``tracer.span(...)``."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


class _NullTracer:
    """The ambient default: every span is a shared no-op context."""

    __slots__ = ()

    def span(self, name: str) -> _NullSpanContext:  # noqa: ARG002
        return _NULL_SPAN


NULL_TRACER = _NullTracer()

_active_tracer: ContextVar[object] = ContextVar(
    "repro_obs_tracer", default=NULL_TRACER
)


def current_tracer():
    """The tracer activated in the current context, or the shared no-op
    tracer (whose spans cost nothing) when none is."""
    return _active_tracer.get()


def tracing_active() -> bool:
    """True when a real :class:`Tracer` is ambient."""
    return _active_tracer.get() is not NULL_TRACER


def traced(
    run: Callable[[Ledger], _R], ledger: Ledger, trace: bool, **meta: object
) -> _R:
    """``run(ledger)``; with ``trace``, unless a tracer is already
    ambient, run it under a fresh :class:`Tracer` and attach the
    :class:`~repro.obs.report.RunReport` (metadata ``meta``) as
    ``.report`` — to each result when ``run`` returns a list.

    A traced run on ``NULL_LEDGER`` gets a private :class:`Ledger`, so
    the report still carries real work/depth deltas.  The tracer only
    reads the ledger: accounting is bit-identical either way.
    """
    if not trace or tracing_active():
        return run(ledger)
    if ledger is NULL_LEDGER:
        ledger = Ledger()
    tracer = Tracer(ledger=ledger)
    with tracer.activate():
        res = run(ledger)
    report = tracer.report(**meta)
    if isinstance(res, list):
        return [dataclasses.replace(r, report=report) for r in res]  # type: ignore[return-value]
    return dataclasses.replace(res, report=report)  # type: ignore[type-var]


@contextmanager
def suppress_tracing() -> Iterator[None]:
    """Force the no-op tracer (and the null counter registry) for the
    block.

    The span stack and counter map of an active :class:`Tracer` are
    single-writer structures; fan-out workers that inherit the ambient
    context (e.g. :func:`repro.pram.executor.parallel_map` branches)
    would interleave span exits and corrupt the stack.  Such workers
    wrap their bodies in this — their ledgers are still absorbed by the
    caller, so accounting survives; only the per-branch spans are
    dropped (matching the tracer's documented sequential-timeline
    model).
    """
    token = _active_tracer.set(NULL_TRACER)
    try:
        with counting_scope(NULL_COUNTERS):
            yield
    finally:
        _active_tracer.reset(token)


@contextmanager
def phase(name: str, ledger: Ledger = NULL_LEDGER) -> Iterator[None]:
    """One pipeline phase: ledger attribution + ambient span, together.

    Equivalent to nesting ``ledger.phase(name)`` around
    ``current_tracer().span(name)`` — the single line every driver uses
    to mark its stages::

        with obs.phase("packing", ledger):
            packing = pack_trees(...)

    With no tracer active this degrades to exactly the historical
    ``ledger.phase`` behaviour (plus one contextvar read).
    """
    with ledger.phase(name):
        with current_tracer().span(name):
            yield
