"""Optional *real* execution backends for coarse-grained parallel loops.

The accounting in :mod:`repro.pram.ledger` is the primary experimental
instrument (see DESIGN.md); this module exists so independent
coarse-grained units can also run on a real executor.  Its one library
caller is :meth:`repro.engine.CutEngine.min_cut_batch` (one branch per
seed); the wall-clock harness times it directly.  Two backends are
available, selected by the ``REPRO_EXECUTOR`` environment variable or
:func:`force_executor`:

``sync`` (default)
    An in-line sequential loop: deterministic, no start-up cost, and
    each branch runs in a copy of the caller's :mod:`contextvars`
    context, so fault plans and budgets armed in the caller are visible
    inside branches.
``process``
    A lazily-created module-level :class:`ProcessPoolExecutor` for
    coarse branches that are pure-Python bound (CPython's GIL keeps a
    thread pool from beating the in-line loop on them).  Worker
    processes do not see the caller's :mod:`contextvars`, so fault
    plans and budget checkpoints are polled in the *parent* before each
    branch is dispatched — injected executor-branch faults and budget
    blowouts fire with the same per-item failure semantics as on
    ``sync``.  Branch callables must be picklable; a call whose ``fn``
    cannot be pickled (lambdas, closures) runs on ``sync`` instead.  An
    immutable broadcast ``context`` is pickled **once** and installed
    into each worker by a pool initializer, not re-pickled per item.

Robustness: one failed branch must not destroy the whole pool.
:func:`parallel_map` retries failed items (``retries``) and then raises
the first remaining failure in item order.  A broken shared process
pool (a worker died) is evicted so the next call forks a fresh one, and
any ``BaseException`` escaping a dispatch (``KeyboardInterrupt``
included) evicts the pool on the way out — an interrupted run cannot
leak a poisoned pool into the next call.  When a ``process`` round
fails on the substrate itself — a ``BrokenExecutor`` or a hung worker's
``TimeoutError`` — the call's remaining retry rounds run on ``sync``;
an application failure in a branch retries on the same backend.

Pools default to :func:`effective_cpus` workers: the affinity mask
capped by the cgroup CPU quota, so a quota-capped container does not
oversubscribe the CPUs it is granted.

Counters: ``executor.dispatches`` / ``executor.items`` /
``executor.retries``, plus ``executor.dispatch_overhead_s`` (parent-side
time spent preparing + submitting a process round: context pickling and
task submission, i.e. everything that is overhead rather than branch
work).
"""

from __future__ import annotations

import contextvars
import hashlib
import os
import pickle
import threading
import time
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.errors import FaultInjected, InvalidParameterError
from repro.obs.counters import counters
from repro.resilience.faults import (
    SITE_EXECUTOR_BRANCH,
    SITE_POOL_BREAK,
    SITE_WORKER_HANG,
    poll as _poll_site,
    poll_indexed as _poll_fault,
)

if TYPE_CHECKING:
    # loading ProcessPoolExecutor imports multiprocessing (~1.4 MiB);
    # the default sync backend never needs it, so pools import it where
    # they are created (_new_pool)
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "parallel_map",
    "executor_backend",
    "force_executor",
    "prewarm_executor",
    "shutdown_shared_pools",
    "effective_cpus",
]

T = TypeVar("T")
U = TypeVar("U")

_BACKENDS = ("process", "sync")

_override: ContextVar[Optional[str]] = ContextVar("repro_executor_backend", default=None)

#: "no broadcast context" sentinel — ``None`` is a legitimate context
_NO_CONTEXT = object()

#: cgroup v2 CPU quota file (``"<quota> <period>"`` or ``"max <period>"``)
_CPU_MAX = Path("/sys/fs/cgroup/cpu.max")


def effective_cpus() -> float:
    """CPUs this process can actually burn: the affinity mask capped by
    the cgroup CPU quota (containers routinely pin this near 1 even when
    ``os.cpu_count()`` reports the host's cores).  At least 1.0."""
    try:
        avail = float(len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        avail = float(os.cpu_count() or 1)
    try:
        parts = _CPU_MAX.read_text().split()
        if parts and parts[0] != "max":
            avail = min(avail, float(parts[0]) / float(parts[1]))
    except (OSError, IndexError, ValueError, ZeroDivisionError):
        pass
    return max(1.0, avail)


def _default_workers() -> int:
    return max(1, int(effective_cpus()))


def _check_backend(backend: str, what: str) -> str:
    if backend not in _BACKENDS:
        raise InvalidParameterError(
            f"{what} must be one of {_BACKENDS}, got {backend!r}"
        )
    return backend


def executor_backend() -> str:
    """The active executor backend: ``"sync"`` or ``"process"``.

    Resolution order: :func:`force_executor` override, then the
    ``REPRO_EXECUTOR`` environment variable, then ``"sync"``.
    """
    forced = _override.get()
    if forced is not None:
        return forced
    backend = os.environ.get("REPRO_EXECUTOR", "sync").strip().lower() or "sync"
    return _check_backend(backend, "REPRO_EXECUTOR")


@contextmanager
def force_executor(backend: str) -> Iterator[None]:
    """Force the executor backend for the duration of the block
    (contextvar scoped, so concurrent callers are unaffected)."""
    token = _override.set(_check_backend(backend, "executor backend"))
    try:
        yield
    finally:
        _override.reset(token)


# --------------------------------------------------------------------------
# Shared process pools: created lazily, keyed by (workers, tag), reused
# across parallel_map calls.  ``tag`` distinguishes context-bound pools (whose workers
# were initialized with one pickled broadcast context) from the plain
# persistent pool (tag ""), which contextless calls share.
# --------------------------------------------------------------------------

_pool_lock = threading.Lock()
_shared_pools: Dict[Tuple[int, str], ProcessPoolExecutor] = {}


def _new_pool(
    workers: int, initializer: Optional[Callable[..., None]], initargs: Tuple
) -> ProcessPoolExecutor:
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=workers, initializer=initializer, initargs=initargs
    )


def _shared_pool(
    workers: int,
    tag: str = "",
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
) -> ProcessPoolExecutor:
    key = (workers, tag)
    stale: List[ProcessPoolExecutor] = []
    with _pool_lock:
        pool = _shared_pools.get(key)
        if pool is None:
            if tag:
                # a new context supersedes older context-bound pools of
                # the same shape; drop them so pools don't accumulate
                for k in [k for k in _shared_pools if k[0] == workers and k[1]]:
                    stale.append(_shared_pools.pop(k))
            pool = _new_pool(workers, initializer, initargs)
            _shared_pools[key] = pool
    for old in stale:
        old.shutdown(wait=False, cancel_futures=True)
    return pool


def _evict_shared_pool(workers: int, tag: str = "") -> None:
    with _pool_lock:
        pool = _shared_pools.pop((workers, tag), None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_shared_pools() -> None:
    """Shut down and forget every lazily-created shared pool.

    For harness teardown and end-of-run cleanup; the next
    :func:`parallel_map` call lazily recreates what it needs.
    """
    with _pool_lock:
        pools = list(_shared_pools.values())
        _shared_pools.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


def prewarm_executor(
    backend: Optional[str] = None, max_workers: Optional[int] = None
) -> str:
    """Spin up the shared pool for ``backend`` before any timed region.

    Process workers are forked on first use; without prewarming, the
    first timed dispatch pays pool construction and worker start-up and
    the measurement blames the backend for one-time costs.  Submits one
    no-op per worker and waits, so worker start-up has actually
    happened (not merely been scheduled) on return.  Returns the
    backend that was warmed (``sync`` warms nothing).
    """
    backend = _check_backend(backend or executor_backend(), "executor backend")
    if backend == "process":
        workers = max_workers or _default_workers()
        pool = _shared_pool(workers)
        for fut in [pool.submit(_noop) for _ in range(workers)]:
            fut.result()
    return backend


def _noop() -> None:
    return None


# --------------------------------------------------------------------------
# Broadcast-context plumbing: on the process backend the context is
# pickled once per round and installed into every worker by the pool
# initializer (workers of a context-bound pool unpickle it exactly once,
# at start-up).
# --------------------------------------------------------------------------

_WORKER_CONTEXT: Any = _NO_CONTEXT


def _install_worker_context(payload: bytes) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = pickle.loads(payload)


def _invoke_installed(fn: Callable[[Any, T], U], item: T) -> U:
    if _WORKER_CONTEXT is _NO_CONTEXT:  # pragma: no cover - initializer contract
        raise RuntimeError("worker context was never installed")
    return fn(_WORKER_CONTEXT, item)


def _polled_failure(index: int) -> Optional[Exception]:
    """The injected failure armed for branch ``index``, if any: a branch
    fault, or a worker hang recorded as a heartbeat-stall timeout."""
    if _poll_fault(SITE_EXECUTOR_BRANCH, index) is not None:
        return FaultInjected(f"injected failure in executor branch {index}")
    if _poll_fault(SITE_WORKER_HANG, index) is not None:
        return TimeoutError(f"injected worker hang in branch {index} (heartbeat stall)")
    return None


def _attempt_sync(
    fn: Callable[..., U], items: List[T], indices: Sequence[int], context: Any
) -> Tuple[dict, dict]:
    """One in-line pass over ``indices``, each branch in a copy of the
    caller's context (budget checkpoints fire inside the branch)."""
    results: dict = {}
    failures: dict = {}
    for i in indices:
        exc = _polled_failure(i)
        if exc is not None:
            failures[i] = exc
            continue
        args = (items[i],) if context is _NO_CONTEXT else (context, items[i])
        try:
            results[i] = contextvars.copy_context().run(fn, *args)
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            failures[i] = exc
    return results, failures


def _attempt_process(
    fn: Callable[..., U],
    items: List[T],
    indices: Sequence[int],
    workers: int,
    context: Any,
    context_key: Optional[str],
) -> Tuple[dict, dict]:
    """One process-pool pass over ``indices``.

    Worker processes cannot see the caller's contextvars, so the fault
    plan and the armed budget are polled here in the parent, once per
    branch before dispatch; a hit is recorded as that branch's failure
    (the same per-item semantics an in-branch raise has on ``sync``, so
    retries compose identically).

    A broadcast ``context`` is pickled once and installed by the pool
    initializer of a context-bound pool (keyed by ``context_key`` or the
    payload digest), so per-item tasks carry only ``(fn, item)``.
    """
    from repro.errors import BudgetExceeded
    from repro.resilience.budget import checkpoint as _budget_checkpoint

    results: dict = {}
    failures: dict = {}
    dispatch: List[int] = []
    for i in indices:
        exc = _polled_failure(i)
        if exc is None:
            try:
                _budget_checkpoint(f"executor.branch[{i}]")
            except BudgetExceeded as budget_exc:
                exc = budget_exc
        if exc is not None:
            failures[i] = exc
        else:
            dispatch.append(i)
    if not dispatch:
        return results, failures

    t0 = time.perf_counter()
    tag = ""
    initializer = None
    initargs: Tuple = ()
    submit_fn: Callable = fn
    pack = lambda i: (items[i],)  # noqa: E731 - tiny dispatch shim
    if context is not _NO_CONTEXT:
        try:
            payload = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - unpicklable context
            for i in dispatch:
                failures[i] = exc
            return results, failures
        tag = context_key or hashlib.sha256(payload).hexdigest()[:24]
        initializer = _install_worker_context
        initargs = (payload,)
        submit_fn = _invoke_installed
        pack = lambda i: (fn, items[i])  # noqa: E731

    if _poll_site(SITE_POOL_BREAK) is not None:
        # injected pool breakage: every branch of this round dies with
        # the pool, which is evicted — the same shape a real worker
        # death has, so the eviction and sync-retry paths run exactly
        _evict_shared_pool(workers, tag)
        for i in dispatch:
            failures[i] = BrokenExecutor(
                "injected process pool breakage (fault site executor.pool_break)"
            )
        return results, failures

    pool = _shared_pool(workers, tag, initializer, initargs)
    reg = counters()
    try:
        futures = {pool.submit(submit_fn, *pack(i)): i for i in dispatch}
        if reg.enabled:
            reg.add("executor.dispatch_overhead_s", time.perf_counter() - t0)
        for fut, i in futures.items():
            try:
                results[i] = fut.result()
            except Exception as exc:  # noqa: BLE001 - reported to the caller
                failures[i] = exc
    except BrokenExecutor as exc:
        for i in dispatch:
            if i not in results and i not in failures:
                failures[i] = exc
    except BaseException:
        # KeyboardInterrupt & friends: the pool may hold in-flight
        # branches; evict so the interrupted run cannot leak a poisoned
        # shared pool into the next call
        _evict_shared_pool(workers, tag)
        raise
    if any(isinstance(e, BrokenExecutor) for e in failures.values()):
        # a dead worker poisons the whole ProcessPoolExecutor; evict so
        # the next call forks a fresh pool
        _evict_shared_pool(workers, tag)
    return results, failures


def _route(requested: str, fn: Callable) -> str:
    """Resolve the backend for a call: the process backend needs a
    ``fn`` that pickles."""
    if requested == "process":
        try:
            pickle.dumps(fn)
        except Exception:  # noqa: BLE001 - lambdas/closures can't cross processes
            return "sync"
    return requested


#: failures of the execution substrate rather than of a branch: a dead
#: worker's broken pool, or a hung worker's heartbeat stall
_SUBSTRATE_FAILURES = (BrokenExecutor, TimeoutError)


def parallel_map(
    fn: Callable[..., U],
    items: Sequence[T],
    max_workers: Optional[int] = None,
    *,
    retries: int = 0,
    context: Any = _NO_CONTEXT,
    context_key: Optional[str] = None,
) -> List[U]:
    """Map ``fn`` over ``items`` on the active backend, preserving order.

    Parameters
    ----------
    max_workers:
        Process pool size; defaults to :func:`effective_cpus` (rounded
        down, at least 1).  Ignored by the ``sync`` backend.
    retries:
        Per-item retry count: a failed item re-runs up to this many
        extra times before counting as failed.  Every branch of a round
        runs to completion; once retries are spent the failure of the
        lowest-indexed item is raised.
    context:
        Optional immutable broadcast argument.  When provided, ``fn``
        is called as ``fn(context, item)`` and the context crosses the
        pool boundary **once per round**, not once per item: pickled
        into the worker initializer on the process backend, passed by
        reference on sync.  Must not be mutated by branches.
    context_key:
        Stable fingerprint of ``context`` (e.g. the engine's artifact
        fingerprint).  Lets the process backend reuse a context-bound
        pool across ``parallel_map`` calls without hashing the payload;
        optional (a content digest is computed when omitted).

    Notes
    -----
    A ``process`` round whose failures include a broken pool or a hung
    worker (``BrokenExecutor``, ``TimeoutError``) sends the call's
    remaining retry rounds to ``sync``; application failures retry on
    the same backend.
    """
    if retries < 0:
        raise InvalidParameterError("retries must be >= 0")
    items = list(items)
    if not items:
        return []
    backend = _route(executor_backend(), fn)
    workers = max_workers or _default_workers()

    reg = counters()
    if reg.enabled:
        reg.add("executor.dispatches")
        reg.add("executor.items", float(len(items)))
    results: dict = {}
    failed: dict = {}
    todo: List[int] = list(range(len(items)))
    for round_no in range(retries + 1):
        if round_no and reg.enabled:
            reg.add("executor.retries", float(len(todo)))
        if backend == "process":
            got, bad = _attempt_process(
                fn, items, todo, workers, context, context_key
            )
        else:
            got, bad = _attempt_sync(fn, items, todo, context)
        results.update(got)
        failed = bad
        todo = sorted(bad)
        if not todo:
            break
        if any(isinstance(e, _SUBSTRATE_FAILURES) for e in bad.values()):
            backend = "sync"  # the pool broke or hung: retry in line

    if failed:
        raise failed[min(failed)]
    return [results[i] for i in range(len(items))]
