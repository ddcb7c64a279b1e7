"""Work-depth accounting: the PRAM substitute at the heart of this repro.

The paper analyses algorithms in the *work-depth* model (Section 2.1):

* **work** -- total number of primitive operations, and
* **depth** -- length of the longest chain of dependent operations.

CPython cannot demonstrate shared-memory speedups (the GIL serialises
Python bytecode), so instead of timing wall-clock on p cores, every
parallel algorithm in this library *charges* its operations to a
:class:`Ledger`.  Sequential charges advance a depth clock; parallel
regions fork the clock, run each branch from the fork point, and join at
the maximum branch end time — exactly the semantics of the work-depth
model.  Brent's theorem (:mod:`repro.pram.scheduler`) then converts the
counters into a predicted p-processor running time ``W/p + D``.

Two charging disciplines coexist, both documented per call site:

* *structural* charges count operations the code actually performs
  (range-tree nodes visited, matrix entries evaluated, hook-compress
  rounds executed); these dominate the experiment benchmarks;
* *model* charges account for bulk primitives (radix sort, prefix sums)
  at their textbook PRAM cost, because their numpy implementation does
  not expose a meaningful per-element loop to count.

Usage::

    ledger = Ledger()
    ledger.charge(work=5, depth=1)           # 5 ops in sequence-step 1
    with ledger.parallel() as par:           # fork
        for chunk in chunks:
            with par.branch():               # each branch starts at fork time
                ledger.charge(len(chunk), depth=1)
    # after the with-block the clock sits at max branch end time

Ledgers nest arbitrarily and are cheap (two ints and a small stack).
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, ContextManager, Dict, Iterator, List, Optional, Tuple

from repro.errors import LedgerError

__all__ = ["Ledger", "LedgerTape", "ParallelFrame", "PhaseRecord", "NULL_LEDGER"]


@dataclass
class PhaseRecord:
    """Work/depth attributed to one named phase of an algorithm."""

    name: str
    work: float = 0.0
    #: depth consumed between phase entry and exit (critical path length
    #: of the phase itself, not of the whole computation so far).
    depth: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PhaseRecord({self.name!r}, work={self.work:g}, depth={self.depth:g})"


class ParallelFrame:
    """A fork point.  Each :meth:`branch` replays the clock from the fork
    time; closing the frame advances the clock to the latest branch end."""

    __slots__ = ("_ledger", "_fork_time", "_max_end", "_open", "_closed")

    def __init__(self, ledger: "Ledger") -> None:
        self._ledger = ledger
        self._fork_time = ledger._now
        self._max_end = ledger._now
        self._open = 0
        self._closed = False

    @contextmanager
    def branch(self) -> Iterator[None]:
        """Run one parallel branch.  Branches may themselves open nested
        parallel frames.  Branches must not overlap in (Python) time —
        they are *logically* parallel, executed one after another."""
        if self._closed:
            raise LedgerError("branch() on a closed parallel frame")
        self._open += 1
        saved = self._ledger._now
        self._ledger._now = self._fork_time
        try:
            yield
        finally:
            end = self._ledger._now
            if end > self._max_end:
                self._max_end = end
            # restore so sibling bookkeeping between branches is unaffected
            self._ledger._now = saved
            self._open -= 1

    def _close(self) -> None:
        if self._open:
            raise LedgerError("closing a parallel frame with an open branch")
        self._closed = True
        self._ledger._now = self._max_end


class Ledger:
    """Accumulates work and tracks the depth clock of one computation.

    Attributes
    ----------
    work:
        Total operations charged so far.
    depth:
        Current value of the depth clock (critical-path length).
    """

    __slots__ = ("work", "_now", "_phases", "_phase_stack")

    def __init__(self) -> None:
        self.work: float = 0.0
        self._now: float = 0.0
        self._phases: Dict[str, PhaseRecord] = {}
        self._phase_stack: List[Tuple[str, float, float]] = []

    # ------------------------------------------------------------------
    # core charging API
    # ------------------------------------------------------------------
    @property
    def depth(self) -> float:
        return self._now

    def charge(self, work: float, depth: float = 1.0) -> None:
        """Charge ``work`` operations forming a dependent chain of length
        ``depth`` (i.e. ``work`` ops spread over ``depth`` sequential
        steps; with work > depth the surplus is implicitly parallel)."""
        if work < 0 or depth < 0:
            raise LedgerError("negative work/depth charge")
        self.work += work
        self._now += depth

    @contextmanager
    def parallel(self) -> Iterator[ParallelFrame]:
        """Open a fork/join region; see module docstring for usage."""
        frame = ParallelFrame(self)
        try:
            yield frame
        finally:
            frame._close()

    @contextmanager
    def batch(self, depth: float) -> Iterator[None]:
        """Treat the enclosed computation as one parallel batch.

        Work accumulates normally, but on exit the depth clock advances
        by exactly ``depth`` from its entry value, regardless of what the
        enclosed charges did to it.  This is how call sites encode "these
        k sub-operations run concurrently with critical path ``depth``"
        when the sub-operations are executed (and charged) sequentially
        in Python — e.g. the entry inspections of one SMAWK call, or the
        auxiliary 1-D queries inside a 2-D range query.
        """
        if depth < 0:
            raise LedgerError("negative batch depth")
        start = self._now
        try:
            yield
        finally:
            self._now = start + depth

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseRecord]:
        """Attribute all work/depth charged inside the block to ``name``.

        Phases aggregate across repeated entries (entering the same phase
        twice sums into one record).  Nested phases each see the full
        charge (a charge inside phases A>B counts toward both)."""
        start_work, start_now = self.work, self._now
        self._phase_stack.append((name, start_work, start_now))
        try:
            yield self._phases.setdefault(name, PhaseRecord(name))
        finally:
            self._phase_stack.pop()
            rec = self._phases.setdefault(name, PhaseRecord(name))
            rec.work += self.work - start_work
            rec.depth += self._now - start_now

    @property
    def phases(self) -> Dict[str, PhaseRecord]:
        return dict(self._phases)

    # ------------------------------------------------------------------
    # snapshots / merging
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[float, float]:
        """Return ``(work, depth)`` as of now."""
        return self.work, self._now

    def since(self, snap: Tuple[float, float]) -> Tuple[float, float]:
        """Work and depth consumed since ``snap`` (from :meth:`snapshot`)."""
        w0, d0 = snap
        return self.work - w0, self._now - d0

    def absorb_parallel(self, *others: "Ledger") -> None:
        """Merge independent sub-computations that ran logically in
        parallel with each other (work sums, depth maxes onto the clock).

        Useful when a sub-algorithm was measured on its own ledger."""
        if not others:
            return
        self.work += sum(o.work for o in others)
        self._now += max(o._now for o in others)
        for o in others:
            for name, rec in o._phases.items():
                mine = self._phases.setdefault(name, PhaseRecord(name))
                mine.work += rec.work
                mine.depth = max(mine.depth, rec.depth)

    def reset(self) -> None:
        self.work = 0.0
        self._now = 0.0
        self._phases.clear()
        self._phase_stack.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Ledger(work={self.work:g}, depth={self._now:g})"


class _NullLedger(Ledger):
    """A ledger that discards all charges.  Passed by default so that the
    algorithms can be called without accounting."""

    __slots__ = ()

    def charge(self, work: float, depth: float = 1.0) -> None:  # noqa: D102
        if work < 0 or depth < 0:
            raise LedgerError("negative work/depth charge")

    @contextmanager
    def batch(self, depth: float) -> Iterator[None]:  # noqa: D102
        if depth < 0:
            raise LedgerError("negative batch depth")
        yield

    def absorb_parallel(self, *others: "Ledger") -> None:  # noqa: D102
        # absorbing mutates work/depth directly (it does not go through
        # charge), so it must be discarded here like every other charge
        pass


#: Shared sink for un-instrumented calls.  Never read its counters.
NULL_LEDGER = _NullLedger()


# tape opcodes
_CHARGE, _PARALLEL, _BRANCH, _BATCH, _PHASE, _END = range(6)


class LedgerTape(Ledger):
    """A ledger that also records its calls, for replay into another.

    Computations that run interleaved in Python but must reach a ledger
    one after another — the 2-respecting searches of a lockstep group,
    each in its own parallel branch — each charge a tape, and the tapes
    are replayed in order.  The tape records every ``charge``,
    ``parallel``/``branch``, ``batch`` and ``phase`` call with its
    arguments; :meth:`replay` issues the same calls with the same
    amounts in the same order on the target.  The target therefore runs
    the float additions of direct execution, one for one, so work,
    depth and phase records come out bit-identical (and a
    :class:`~repro.pram.trace.TraceLedger` target records the same
    series-parallel shape).  A tape also accumulates like a fresh
    :class:`Ledger`, so code reading it sees its own totals.

    The recording is compact — one opcode byte per call, amounts as
    doubles (exact for every float and for integers below 2**53) — as a
    search makes thousands of calls and a group's tapes are all alive
    until the group ends.
    """

    __slots__ = ("_ops", "_amounts", "_names")

    def __init__(self) -> None:
        super().__init__()
        self._ops = bytearray()
        self._amounts = array("d")
        self._names: List[str] = []

    def charge(self, work: float, depth: float = 1.0) -> None:  # noqa: D102
        # Ledger.charge inlined: a tape takes every charge of a search
        if work < 0 or depth < 0:
            raise LedgerError("negative work/depth charge")
        self.work += work
        self._now += depth
        self._ops.append(_CHARGE)
        self._amounts.append(work)
        self._amounts.append(depth)

    @contextmanager
    def parallel(self) -> Iterator["_TapeFrame"]:  # type: ignore[override]  # noqa: D102
        self._ops.append(_PARALLEL)
        try:
            with super().parallel() as frame:
                yield _TapeFrame(frame, self._ops)
        finally:
            self._ops.append(_END)

    @contextmanager
    def batch(self, depth: float) -> Iterator[None]:  # noqa: D102
        self._ops.append(_BATCH)
        self._amounts.append(depth)
        try:
            with super().batch(depth):
                yield
        finally:
            self._ops.append(_END)

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseRecord]:  # noqa: D102
        self._ops.append(_PHASE)
        self._names.append(name)
        try:
            with super().phase(name) as rec:
                yield rec
        finally:
            self._ops.append(_END)

    def absorb_parallel(self, *others: "Ledger") -> None:  # noqa: D102
        raise LedgerError("absorb_parallel is not recorded on a tape")

    def reset(self) -> None:  # noqa: D102
        super().reset()
        self._ops.clear()
        del self._amounts[:]
        self._names.clear()

    def replay(
        self,
        target: Ledger,
        phase: Optional[Callable[[str], ContextManager]] = None,
    ) -> None:
        """Issue the recorded calls on ``target``, in order.

        ``phase(name)`` opens each recorded phase (default
        ``target.phase``); a caller may pass an opener that also does
        more, e.g. :func:`repro.obs.phase` to open a tracer span.
        """
        opener = phase if phase is not None else target.phase
        amounts = iter(self._amounts)
        names = iter(self._names)
        # entered context managers, each with what its __enter__ returned
        stack: List[Tuple[ContextManager, object]] = []
        for op in self._ops:
            if op == _CHARGE:
                target.charge(next(amounts), next(amounts))
                continue
            if op == _END:
                cm, _ = stack.pop()
                cm.__exit__(None, None, None)
                continue
            if op == _PARALLEL:
                cm = target.parallel()
            elif op == _BRANCH:
                cm = stack[-1][1].branch()  # type: ignore[union-attr]
            elif op == _BATCH:
                cm = target.batch(next(amounts))
            else:
                cm = opener(next(names))
            stack.append((cm, cm.__enter__()))
        if stack:
            raise LedgerError("replay of a tape with an unclosed region")


class _TapeFrame:
    """Wraps a ParallelFrame so branches are recorded on the tape."""

    __slots__ = ("_frame", "_ops")

    def __init__(self, frame: ParallelFrame, ops: bytearray) -> None:
        self._frame = frame
        self._ops = ops

    @contextmanager
    def branch(self) -> Iterator[None]:
        self._ops.append(_BRANCH)
        try:
            with self._frame.branch():
                yield
        finally:
            self._ops.append(_END)
