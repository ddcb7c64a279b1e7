"""Deterministic fault injection for the resilient execution layer.

A :class:`FaultPlan` arms a set of :class:`Fault` descriptors, each bound
to a named *site* inside the pipeline.  Product code polls its site via
:func:`poll` at well-defined points; when the armed fault's hit counter
matches, the site applies the fault (drop a packed tree, corrupt the
skeleton sample, raise inside an executor branch, blow the deadline,
corrupt the reported cut value).  Every fault fires **at most once** and
every trigger is a pure function of the plan — no wall clock, no global
randomness — so a faulted run is exactly reproducible under a fixed
seed.

Sites instrumented in the pipeline
----------------------------------
``packing.drop_tree``
    :func:`repro.packing.karger.pack_trees` silently loses one candidate
    tree (keeps at least one).
``skeleton.corrupt``
    :func:`repro.sparsify.skeleton.build_skeleton` deterministically
    perturbs the sampled weights (seeded by ``Fault.seed``), simulating
    an unlucky sample outside the w.h.p. regime.
``executor.branch``
    :func:`repro.pram.executor.parallel_map` raises
    :class:`repro.errors.FaultInjected` inside the branch whose item
    index equals ``Fault.index``.
``budget.blowout``
    :func:`repro.resilience.budget.checkpoint` raises
    :class:`repro.errors.BudgetExceeded` as if the deadline had expired.
``driver.corrupt_value``
    :func:`repro.resilience.driver.resilient_minimum_cut` perturbs the
    candidate value before verification — a deterministic stand-in for a
    w.h.p. failure of the randomized pipeline.
``executor.pool_break``
    :func:`repro.pram.executor.parallel_map` loses its shared process
    pool mid-dispatch (every in-flight branch fails with
    ``BrokenExecutor``, the pool is evicted) — the call's retry round
    runs on ``sync``.
``executor.worker_hang``
    The branch whose item index equals ``Fault.index`` is recorded as a
    ``TimeoutError`` (a hung worker detected by heartbeat stall) without
    consuming wall clock, so hang handling is deterministic to test.
``checkpoint.corrupt``
    :mod:`repro.resilience.checkpointing` flips bytes of the payload it
    is about to persist, so the next load fails the content-hash check
    with a typed :class:`repro.errors.CheckpointError`.
``checkpoint.kill``
    Raises :class:`repro.errors.SimulatedCrash` immediately *after* a
    successful checkpoint save — an abrupt process death at a persisted
    point, used by the kill/resume determinism tests.
``serve.accept_drop``
    The :mod:`repro.serve` TCP acceptor closes an incoming connection
    before reading a single frame — the client sees a clean
    connection-reset *before* any request was accepted, so the
    exactly-one-response contract is untouched.
``serve.queue_stall``
    A :mod:`repro.serve` dispatch worker stalls (``Fault.scale`` ×
    50 ms, capped) before draining its next admitted request,
    simulating a wedged worker; queued requests must still be shed or
    answered, never hung.
``serve.handler_crash``
    A :mod:`repro.serve` request handler raises mid-query; the daemon
    must convert it into a typed ``error`` response on the same
    connection instead of dropping the client.
``serve.slow_client``
    The :mod:`repro.serve` connection writer delays flushing one
    response (``Fault.scale`` × 50 ms, capped), simulating a client
    draining slowly; the response must still arrive intact.
``wal.torn_write``
    :meth:`repro.durability.wal.WriteAheadLog.append` writes only a
    prefix of the framed record, fsyncs the torn bytes, and raises
    :class:`repro.errors.SimulatedCrash` — a process death mid-write.
    Recovery must truncate the torn tail and continue.
``wal.corrupt_record``
    The append writes a frame whose body bytes are deterministically
    flipped *after* the CRC32 was computed (bit rot on the way to
    disk); the in-memory log advances as if the write were clean.  A
    later open must refuse the log with a typed
    :class:`repro.errors.WalCorruptionError` when valid records follow
    the damage (never a silent skip), or truncate it as a torn tail
    when it is the final record.
``snapshot.partial``
    :func:`repro.durability.snapshot.write_snapshot` persists a
    truncated payload (a crash mid-snapshot that still won the
    ``os.replace``); the write-time verify-back fails, the previous
    snapshot/WAL generation is retained, and recovery falls back to the
    newest snapshot that passes its content hash.

Activation is scoped (:func:`inject` context manager, contextvar-backed)
so concurrent un-faulted callers are unaffected.  Site names are
validated against the :data:`ALL_SITES` registry at plan construction —
a typo'd site raises :class:`repro.errors.InvalidParameterError` instead
of silently never firing.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError

__all__ = [
    "SITE_DROP_TREE",
    "SITE_CORRUPT_SKELETON",
    "SITE_EXECUTOR_BRANCH",
    "SITE_BUDGET_BLOWOUT",
    "SITE_CORRUPT_VALUE",
    "SITE_POOL_BREAK",
    "SITE_WORKER_HANG",
    "SITE_CHECKPOINT_CORRUPT",
    "SITE_CHECKPOINT_KILL",
    "SITE_SERVE_ACCEPT_DROP",
    "SITE_SERVE_QUEUE_STALL",
    "SITE_SERVE_HANDLER_CRASH",
    "SITE_SERVE_SLOW_CLIENT",
    "SITE_DELTA_FORCE_REBASE",
    "SITE_WAL_TORN_WRITE",
    "SITE_WAL_CORRUPT_RECORD",
    "SITE_SNAPSHOT_PARTIAL",
    "ALL_SITES",
    "SERVICE_SITES",
    "DURABILITY_SITES",
    "Fault",
    "FaultPlan",
    "canonical_plans",
    "inject",
    "poll",
    "active_plan",
]

SITE_DROP_TREE = "packing.drop_tree"
SITE_CORRUPT_SKELETON = "skeleton.corrupt"
SITE_EXECUTOR_BRANCH = "executor.branch"
SITE_BUDGET_BLOWOUT = "budget.blowout"
SITE_CORRUPT_VALUE = "driver.corrupt_value"
SITE_POOL_BREAK = "executor.pool_break"
SITE_WORKER_HANG = "executor.worker_hang"
SITE_CHECKPOINT_CORRUPT = "checkpoint.corrupt"
SITE_CHECKPOINT_KILL = "checkpoint.kill"
SITE_SERVE_ACCEPT_DROP = "serve.accept_drop"
SITE_SERVE_QUEUE_STALL = "serve.queue_stall"
SITE_SERVE_HANDLER_CRASH = "serve.handler_crash"
SITE_SERVE_SLOW_CLIENT = "serve.slow_client"
#: force the engine's next :meth:`CutEngine.update` onto the rebase path
#: regardless of its triggers (exercises the rebase fallback mid-sequence)
SITE_DELTA_FORCE_REBASE = "delta.force_rebase"
SITE_WAL_TORN_WRITE = "wal.torn_write"
SITE_WAL_CORRUPT_RECORD = "wal.corrupt_record"
SITE_SNAPSHOT_PARTIAL = "snapshot.partial"

#: The service-layer sites, polled only by the :mod:`repro.serve` daemon
#: (never by the one-shot pipeline or the resilient driver).
SERVICE_SITES: Tuple[str, ...] = (
    SITE_SERVE_ACCEPT_DROP,
    SITE_SERVE_QUEUE_STALL,
    SITE_SERVE_HANDLER_CRASH,
    SITE_SERVE_SLOW_CLIENT,
)

#: The durable-state sites, polled only by :mod:`repro.durability`
#: (the WAL append path and the snapshot writer).
DURABILITY_SITES: Tuple[str, ...] = (
    SITE_WAL_TORN_WRITE,
    SITE_WAL_CORRUPT_RECORD,
    SITE_SNAPSHOT_PARTIAL,
)

#: The known-site registry.  Plan construction validates against it.
ALL_SITES: Tuple[str, ...] = (
    SITE_DROP_TREE,
    SITE_CORRUPT_SKELETON,
    SITE_EXECUTOR_BRANCH,
    SITE_BUDGET_BLOWOUT,
    SITE_CORRUPT_VALUE,
    SITE_POOL_BREAK,
    SITE_WORKER_HANG,
    SITE_CHECKPOINT_CORRUPT,
    SITE_CHECKPOINT_KILL,
    SITE_DELTA_FORCE_REBASE,
) + SERVICE_SITES + DURABILITY_SITES


@dataclass(frozen=True)
class Fault:
    """One armed fault.

    Attributes
    ----------
    site:
        Which instrumentation point applies it (one of :data:`ALL_SITES`).
    at:
        Fire on the ``at``-th poll of the site (0-based), exactly once.
    index:
        Site-specific target (tree index to drop, executor item index).
    seed:
        Seed for any randomness the site needs to apply the corruption.
    scale:
        Site-specific magnitude (e.g. value-corruption factor).
    """

    site: str
    at: int = 0
    index: int = 0
    seed: int = 0
    scale: float = 2.0

    def __post_init__(self) -> None:
        if self.site not in ALL_SITES:
            raise InvalidParameterError(
                f"unknown fault site {self.site!r}; known sites: {ALL_SITES}"
            )
        if self.at < 0:
            raise InvalidParameterError("fault trigger index must be >= 0")


@dataclass
class FaultPlan:
    """A seedable, deterministic set of faults plus its firing record.

    ``fired`` (``[(site, hit_number), ...]``) lets tests assert that the
    plan actually exercised the intended recovery path.
    """

    faults: Sequence[Fault] = ()
    name: str = ""
    _hits: Dict[str, int] = field(default_factory=dict, repr=False)
    _spent: List[int] = field(default_factory=list, repr=False)
    fired: List[Tuple[str, int]] = field(default_factory=list)
    #: the serve daemon polls one plan from its event loop and several
    #: worker threads at once; the lock keeps "fires at most once" exact
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # defense in depth: Fault validates its own site, but a plan can
        # be handed duck-typed descriptors — reject unknown sites here
        # too, so a typo'd site fails loudly instead of never firing
        for f in self.faults:
            site = getattr(f, "site", None)
            if site not in ALL_SITES:
                raise InvalidParameterError(
                    f"fault plan {self.name or '<unnamed>'!r} arms unknown "
                    f"site {site!r}; known sites: {ALL_SITES}"
                )

    def poll(self, site: str) -> Optional[Fault]:
        """Record one hit of ``site``; return the fault to apply, if any."""
        with self._lock:
            hit = self._hits.get(site, 0)
            self._hits[site] = hit + 1
            for i, f in enumerate(self.faults):
                if f.site == site and f.at == hit and i not in self._spent:
                    self._spent.append(i)
                    self.fired.append((site, hit))
                    return f
            return None

    def poll_indexed(self, site: str, index: int) -> Optional[Fault]:
        """Like :meth:`poll`, but match on ``Fault.index`` instead of hit
        order — for sites whose invocations carry a stable identity (e.g.
        executor branches, where thread scheduling makes hit order
        nondeterministic)."""
        with self._lock:
            hit = self._hits.get(site, 0)
            self._hits[site] = hit + 1
            for i, f in enumerate(self.faults):
                if f.site == site and f.index == index and i not in self._spent:
                    self._spent.append(i)
                    self.fired.append((site, index))
                    return f
            return None

    @property
    def exhausted(self) -> bool:
        """True once every armed fault has fired."""
        return len(self._spent) == len(self.faults)

    def reset(self) -> None:
        with self._lock:
            self._hits.clear()
            self._spent.clear()
            self.fired.clear()


_active: ContextVar[Optional[FaultPlan]] = ContextVar("repro_fault_plan", default=None)


def active_plan() -> Optional[FaultPlan]:
    """The fault plan armed in the current context, if any."""
    return _active.get()


@contextmanager
def inject(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Arm ``plan`` for the duration of the block (``None`` disarms)."""
    token = _active.set(plan)
    try:
        yield plan
    finally:
        _active.reset(token)


def poll(site: str, plan: Optional[FaultPlan] = None) -> Optional[Fault]:
    """Site hook: the armed fault for ``site``, or None.  An explicit
    ``plan`` (one a durable component was built with) takes precedence
    over the plan armed in this context.

    Free when no plan is armed (one contextvar read).
    """
    if plan is None:
        plan = _active.get()
    if plan is None:
        return None
    return plan.poll(site)


def poll_indexed(site: str, index: int) -> Optional[Fault]:
    """Site hook for index-identified invocations (executor branches)."""
    plan = _active.get()
    if plan is None:
        return None
    return plan.poll_indexed(site, index)


def canonical_plans(seed: int = 0) -> Dict[str, FaultPlan]:
    """One representative plan per fault kind, used by the recovery test
    matrix (`tests/test_resilience.py`) to prove every recovery path."""
    return {
        "drop_tree": FaultPlan([Fault(SITE_DROP_TREE, seed=seed)], name="drop_tree"),
        "corrupt_skeleton": FaultPlan(
            [Fault(SITE_CORRUPT_SKELETON, seed=seed)], name="corrupt_skeleton"
        ),
        "executor_branch": FaultPlan(
            [Fault(SITE_EXECUTOR_BRANCH, index=0, seed=seed)], name="executor_branch"
        ),
        "budget_blowout": FaultPlan(
            [Fault(SITE_BUDGET_BLOWOUT, seed=seed)], name="budget_blowout"
        ),
        "corrupt_value": FaultPlan(
            [Fault(SITE_CORRUPT_VALUE, seed=seed)], name="corrupt_value"
        ),
        "pool_break": FaultPlan(
            [Fault(SITE_POOL_BREAK, seed=seed)], name="pool_break"
        ),
        "worker_hang": FaultPlan(
            [Fault(SITE_WORKER_HANG, index=0, seed=seed)], name="worker_hang"
        ),
        "checkpoint_corrupt": FaultPlan(
            [Fault(SITE_CHECKPOINT_CORRUPT, seed=seed)], name="checkpoint_corrupt"
        ),
        "checkpoint_kill": FaultPlan(
            [Fault(SITE_CHECKPOINT_KILL, seed=seed)], name="checkpoint_kill"
        ),
        # the serve.* sites live in the daemon's request path; armed
        # against the bare driver they simply never fire (the driver
        # runs clean), which the recovery matrix tolerates by design
        "serve_accept_drop": FaultPlan(
            [Fault(SITE_SERVE_ACCEPT_DROP, seed=seed)], name="serve_accept_drop"
        ),
        "serve_queue_stall": FaultPlan(
            [Fault(SITE_SERVE_QUEUE_STALL, seed=seed)], name="serve_queue_stall"
        ),
        "serve_handler_crash": FaultPlan(
            [Fault(SITE_SERVE_HANDLER_CRASH, seed=seed)], name="serve_handler_crash"
        ),
        "serve_slow_client": FaultPlan(
            [Fault(SITE_SERVE_SLOW_CLIENT, seed=seed)], name="serve_slow_client"
        ),
        # fires inside CutEngine.update(); against the bare driver it
        # never triggers and the plan runs clean, like the serve.* sites
        "delta_force_rebase": FaultPlan(
            [Fault(SITE_DELTA_FORCE_REBASE, seed=seed)], name="delta_force_rebase"
        ),
        # the wal.* / snapshot.* sites live in the durability layer's
        # write path; against a run with no --state-dir they never fire
        # and the plan runs clean, like the serve.* sites
        "wal_torn_write": FaultPlan(
            [Fault(SITE_WAL_TORN_WRITE, seed=seed)], name="wal_torn_write"
        ),
        "wal_corrupt_record": FaultPlan(
            [Fault(SITE_WAL_CORRUPT_RECORD, seed=seed)], name="wal_corrupt_record"
        ),
        "snapshot_partial": FaultPlan(
            [Fault(SITE_SNAPSHOT_PARTIAL, seed=seed)], name="snapshot_partial"
        ),
    }
