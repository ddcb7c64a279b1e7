"""The cut-serving daemon: admission, dispatch, shedding, and its one
threaded front end.

:class:`CutService` is the transport-agnostic core.  One instance owns

* a :class:`~repro.serve.tenancy.TenantRegistry` (named graphs, each
  fronted by a :class:`~repro.engine.CutEngine` over the tenant's
  quota-bounded :class:`~repro.engine.cache.ArtifactCache`);
* one bounded :class:`~repro.serve.admission.AdmissionQueue` feeding a
  fixed pool of dispatch workers (asyncio tasks; the engine query
  itself runs on a thread so the event loop keeps accepting);
* an :class:`~repro.obs.CounterRegistry` every handler runs under
  (``serve.*`` plus the engine/pipeline counters), exposed by the
  ``metrics`` op.

A query whose tenant pins the ``process`` backend survives a broken
pool: :func:`~repro.pram.executor.parallel_map` runs the retry round
on ``sync``.

Every request the service *accepts* receives exactly one typed
response (the overload contract of ``docs/service.md``): a request is
checked against the :data:`~repro.serve.protocol.OPS` schema once,
before admission; an admitted request's deadline becomes a
:class:`~repro.resilience.Budget` armed around the engine call, so it
is shed at a cooperative checkpoint, never by a killed connection; and
any handler exception (including the injected ``serve.handler_crash``
fault) becomes a typed ``error``.  Dispatch workers are wrapped so
that *no* exception path can leave an admitted request's future
unresolved, and ``scripts/chaos_soak.py --service`` hammers this with
all four ``serve.*`` fault sites armed.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import (
    BudgetExceeded,
    GraphFormatError,
    InvalidParameterError,
    ReproError,
)
from repro.graphs.graph import Graph
from repro.graphs.validate import ensure_finite_weights
from repro.obs.counters import CounterRegistry, counting_scope
from repro.resilience.budget import Budget, budget_scope, checkpoint
from repro.resilience.faults import (
    SITE_SERVE_ACCEPT_DROP,
    SITE_SERVE_HANDLER_CRASH,
    SITE_SERVE_QUEUE_STALL,
    SITE_SERVE_SLOW_CLIENT,
    FaultPlan,
    inject,
    poll,
)
from repro.serve.admission import Admitted, AdmissionQueue
from repro.serve.protocol import (
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    check_request,
    deadline_response,
    error_response,
    ok_response,
    read_frame,
    retry_after_response,
    write_frame,
)
from repro.pram.executor import force_executor
from repro.serve.tenancy import TenantQuota, TenantRegistry

__all__ = [
    "ServerConfig",
    "CutService",
    "ThreadedTCPServer",
    "run_tcp",
]

#: client faults, counted in ``serve.bad_requests``: a request that
#: breaks the schema, or a library graph-state check (vertex < n, edge
#: index < m, unknown tenant or graph); the rest count in ``serve.errors``
CLIENT_FAULTS = (ProtocolError, GraphFormatError, InvalidParameterError)

#: cap on one injected stall/slow-client delay, so chaos plans with
#: large ``scale`` cannot wedge a worker past useful timescales
MAX_FAULT_DELAY_S = 0.5


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of one daemon instance (CLI flags map onto these 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; ThreadedTCPServer.port reports the binding
    queue_depth: int = 64
    workers: int = 4
    default_budget_class: str = "standard"
    #: allow the ``shutdown`` op (the daemon trusts its network; flip
    #: off when fronted by anything less trusted)
    allow_shutdown: bool = True
    #: enable the ``_stall`` debug op (tests only: a cooperative busy
    #: wait that makes queue-full and shedding deterministic)
    debug_ops: bool = False
    #: directory for the WAL + snapshots (None = in-memory only, the
    #: historical behavior); see :mod:`repro.durability`
    state_dir: Optional[str] = None
    #: WAL fsync policy: ``always`` | ``batch`` | ``never`` — governs
    #: the ack-durability contract (``docs/service.md``)
    fsync: str = "always"
    #: WAL records between automatic snapshots
    snapshot_interval: int = 64
    #: verified snapshot generations kept after rotation
    snapshot_retention: int = 2


class CutService:
    """Transport-agnostic request service (see the module docstring).

    Parameters
    ----------
    config:
        The daemon knobs.
    registry:
        Counter sink; defaults to a private
        :class:`~repro.obs.CounterRegistry` (the ``metrics`` op
        snapshots it).
    faults:
        An optional :class:`~repro.resilience.FaultPlan` polled at the
        ``serve.*`` sites (chaos mode).  When None the ambient
        context's plan applies, so ``inject(...)`` works for
        same-context callers too.
    clock:
        Monotonic-seconds source, injectable for deterministic tests.
    """

    def __init__(
        self,
        config: ServerConfig = ServerConfig(),
        *,
        registry: Optional[CounterRegistry] = None,
        faults: Optional[FaultPlan] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else CounterRegistry()
        self.faults = faults
        self.clock = clock
        self.tenants = TenantRegistry(config.default_budget_class)
        if config.workers < 1:
            # with no dispatch worker an admitted query is never answered
            raise InvalidParameterError("serve workers must be >= 1")
        if not 0 <= config.port <= 65535:
            raise InvalidParameterError("serve port must be in 0..65535")
        self.queue = AdmissionQueue(config.queue_depth, clock=clock)
        self._workers: List[asyncio.Task] = []
        self._stopping = False
        #: set by the ``shutdown`` op; a threading event so that
        #: :meth:`ThreadedTCPServer.wait_for_shutdown` blocks the caller's
        #: thread without a task parked on the loop
        self._shutdown_requested = threading.Event()
        self.durable = None
        if config.state_dir is not None:
            # imported here, not at module top: repro.durability builds
            # on repro.serve.tenancy, so a module-level import would
            # make the two packages circular
            from repro.durability.state import DurableState

            self.durable = DurableState(
                config.state_dir,
                fsync=config.fsync,
                snapshot_interval=config.snapshot_interval,
                snapshot_retention=config.snapshot_retention,
                faults=faults,
            )
            # recovery replays updates through the real engine path;
            # run it under the service registry so recovery.* / wal.*
            # counters land where the metrics op looks
            with counting_scope(self.registry):
                self.durable.recover(self.tenants)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "CutService":
        """Spawn the dispatch workers."""
        for wid in range(self.config.workers):
            self._workers.append(
                asyncio.create_task(self._worker(), name=f"serve-worker-{wid}")
            )
        return self

    async def stop(self) -> None:
        """Stop accepting, answer everything still queued with a typed
        ``retry_after(reason="shutting_down")``, and cancel the workers."""
        self._stopping = True
        for item in self.queue.drain_nowait():
            self._shut_out(item)
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._workers.clear()
        if self.durable is not None:
            # final snapshot + clean WAL close; a crashed process skips
            # this, which is exactly what recovery exists for
            await asyncio.to_thread(self.durable.close)

    # ------------------------------------------------------------------
    # fault polling
    # ------------------------------------------------------------------
    def _poll(self, site: str):
        fault = poll(site, self.faults)
        if fault is not None:
            self.registry.add("serve.faults_injected")
            self.registry.add(f"serve.fault.{site.split('.', 1)[1]}")
        return fault

    # ------------------------------------------------------------------
    # the acceptor path
    # ------------------------------------------------------------------
    async def submit(self, request: Any) -> Dict[str, Any]:
        """The full admission path for one request; always returns
        exactly one typed response object."""
        self.registry.add("serve.requests")
        req_id = request.get("id") if isinstance(request, dict) else None
        try:
            args = check_request(request, debug_ops=self.config.debug_ops)
            op = args["op"]
            if op == "ping":
                return ok_response(req_id, pong=True, protocol=PROTOCOL_VERSION)
            if op in ("metrics", "stats"):
                return self._metrics(req_id)
            if op == "graph_info":
                return self._graph_info(args)
            if op == "register_tenant":
                return self._register_tenant(args)
            if op == "register_graph":
                return await self._register_graph(args)
            if op == "shutdown":
                if not self.config.allow_shutdown:
                    return error_response(
                        req_id, code="forbidden", message="shutdown op is disabled"
                    )
                self._shutdown_requested.set()
                return ok_response(req_id, stopping=True)
            return await self._admit(args)
        except Exception as exc:  # noqa: BLE001 - the acceptor never throws
            return self._failure(req_id, exc, "internal_error")

    def _failure(self, req_id: Any, exc: BaseException, crash: str) -> Dict[str, Any]:
        """The typed ``error`` response for ``exc``, counted as a client
        fault (:data:`CLIENT_FAULTS`) or a server fault; an exception
        from outside the library answers with code ``crash``."""
        client = isinstance(exc, CLIENT_FAULTS)
        self.registry.add("serve.bad_requests" if client else "serve.errors")
        if isinstance(exc, ReproError):
            code = exc.code if isinstance(exc, ProtocolError) else type(exc).__name__
            return error_response(req_id, code=code, message=str(exc))
        return error_response(req_id, code=crash, message=f"{type(exc).__name__}: {exc}")

    def _register_tenant(self, args: Dict[str, Any]) -> Dict[str, Any]:
        name = args["tenant"]
        quota = TenantQuota(
            budget_class=args["budget_class"] or self.config.default_budget_class,
            **{
                fld: args[fld]
                for fld in ("cache_entries", "cache_bytes", "max_graphs")
                if args[fld] is not None
            },
        )
        created = name not in self.tenants
        tenant = self.tenants.register(name, quota)
        if self.durable is not None and created:
            # logged before the ok frame: a tenant the client saw
            # acknowledged exists after a crash (re-registration of an
            # existing name changes nothing, so it is not re-logged)
            self.durable.log_tenant(name, tenant.quota)
        self.registry.add("serve.tenants_registered")
        return ok_response(
            args["id"],
            tenant=tenant.name,
            budget_class=tenant.quota.budget_class,
            cache_entries=tenant.quota.cache_entries,
            cache_bytes=tenant.quota.cache_bytes,
        )

    async def _register_graph(self, args: Dict[str, Any]) -> Dict[str, Any]:
        tenant = self.tenants.get(args["tenant"])
        graph_name, seed, eps = args["graph"], args["seed"], args["epsilon"]
        registry, durable = self.registry, self.durable

        def build():
            # the weights' range is checked here, not at the first
            # min_cut, so a graph that registers can be answered
            graph = ensure_finite_weights(Graph.from_edges(args["n"], args["edges"]))
            with counting_scope(registry), contextlib.ExitStack() as stack:
                if durable is not None:
                    # registration + WAL append are one atomic unit
                    # under the durability lock, so a concurrent
                    # snapshot never captures the engine without its
                    # log record (or vice versa)
                    stack.enter_context(durable.lock)
                engine = tenant.register_graph(
                    graph_name, graph, seed=seed, epsilon=eps
                )
                if durable is not None:
                    durable.log_graph(
                        tenant.name, graph_name, graph, seed=seed, epsilon=eps
                    )
                if args["warm"]:
                    engine.warm()
            return graph

        # graph construction + optional warm-up can be heavy: keep the
        # event loop free (registration is not admission-controlled, but
        # it must not stall accepted queries either)
        graph = await asyncio.to_thread(build)
        self.registry.add("serve.graphs_registered")
        return ok_response(
            args["id"],
            tenant=tenant.name,
            graph=graph_name,
            n=graph.n,
            m=graph.m,
            warmed=args["warm"],
        )

    async def _admit(self, args: Dict[str, Any]) -> Dict[str, Any]:
        req_id, op = args["id"], args["op"]
        tenant = self.tenants.get(args["tenant"])
        if "graph" in args:
            tenant.engine(args["graph"])  # existence check
        if self._stopping:
            self.registry.add("serve.rejected_shutdown")
            return retry_after_response(
                req_id, retry_after_ms=1000, reason="shutting_down"
            )
        cls = tenant.budget_class
        if OPS[op].mutates and not cls.allow_mutation:
            self.registry.add("serve.rejected_readonly")
            return error_response(
                req_id,
                code="mutation_forbidden",
                message=(
                    f"budget class {cls.name!r} has no write access; "
                    f"op {op!r} mutates the graph"
                ),
            )
        if tenant.inflight >= cls.max_inflight:
            self.registry.add("serve.rejected_inflight")
            return retry_after_response(
                req_id,
                retry_after_ms=self.queue.retry_after_ms(tenant.inflight),
                reason="tenant_inflight",
            )
        deadline_s = cls.default_deadline_s
        if args["deadline_ms"] is not None:
            deadline_s = min(args["deadline_ms"] / 1000.0, cls.max_deadline_s)
            if deadline_s <= 0:
                return deadline_response(
                    req_id, shed="queued", message="deadline_ms must be positive"
                )
        item = Admitted(
            request=args,
            future=asyncio.get_running_loop().create_future(),
            tenant=tenant,
            deadline_at=self.clock() + deadline_s,
        )
        if not self.queue.try_put(item):
            self.registry.add("serve.rejected_queue_full")
            return retry_after_response(
                req_id,
                retry_after_ms=self.queue.retry_after_ms(),
                reason="queue_full",
            )
        tenant.inflight += 1
        self.registry.add("serve.admitted")
        return await item.future

    # ------------------------------------------------------------------
    # the dispatch path
    # ------------------------------------------------------------------
    def _resolve(self, item: Admitted, response: Dict[str, Any]) -> None:
        if not item.future.done():
            item.future.set_result(response)
            self.registry.add("serve.responses")

    def _shut_out(self, item: Admitted) -> None:
        """Answer an admitted request the stopping daemon will not run."""
        self._resolve(item, retry_after_response(
            item.request["id"], retry_after_ms=1000, reason="shutting_down"
        ))
        item.tenant.inflight -= 1

    async def _worker(self) -> None:
        while True:
            item = await self.queue.get()
            fault = self._poll(SITE_SERVE_QUEUE_STALL)
            if fault is not None:
                await asyncio.sleep(min(0.05 * fault.scale, MAX_FAULT_DELAY_S))
            t0 = self.clock()
            try:
                response = await self._handle(item)
            except asyncio.CancelledError:
                self._shut_out(item)  # shutdown while mid-request: still answer it
                raise
            except BaseException as exc:  # noqa: BLE001 - the future must resolve
                response = self._failure(item.request["id"], exc, "internal_error")
            self._resolve(item, response)
            item.tenant.inflight -= 1
            self.queue.observe_service_time(self.clock() - t0)
            self.queue.task_done()

    async def _handle(self, item: Admitted) -> Dict[str, Any]:
        request, req_id = item.request, item.request["id"]
        now = self.clock()
        if now >= item.deadline_at:
            self.registry.add("serve.shed_queued")
            waited_ms = (now - item.enqueued_at) * 1000.0
            return deadline_response(
                req_id,
                shed="queued",
                message=f"deadline expired after {waited_ms:.0f}ms in queue",
            )
        remaining = item.deadline_at - now
        try:
            payload = await self._execute(item, remaining)
        except BudgetExceeded as exc:
            self.registry.add("serve.shed_inflight")
            return deadline_response(
                req_id, shed="inflight", message=f"shed at checkpoint: {exc}"
            )
        except Exception as exc:  # noqa: BLE001 - crash → typed response
            return self._failure(req_id, exc, "handler_crash")
        self.registry.add("serve.completed")
        self.registry.add(f"serve.op.{request['op'].lstrip('_')}")
        return ok_response(req_id, **payload)

    async def _execute(self, item: Admitted, remaining: float) -> Dict[str, Any]:
        request = item.request
        op = request["op"]
        if op == "_stall":
            return await asyncio.to_thread(
                self._run_stall, request["seconds"], remaining
            )
        engine, lock = item.tenant.engine(request["graph"])
        backend = item.tenant.budget_class.executor_backend
        async with lock:  # CutEngine mutates rng/bindings: serialize per graph
            return await asyncio.to_thread(
                self._run_query, engine, request, remaining, backend
            )

    def _scoped(self, remaining: float) -> "contextlib.ExitStack":
        """The ambient scopes every query runs under (worker thread):
        the service's counter registry, the request's deadline budget,
        and — when a chaos plan is pinned on the service — that plan,
        so pipeline-level fault sites fire inside served queries too."""
        stack = contextlib.ExitStack()
        stack.enter_context(counting_scope(self.registry))
        stack.enter_context(
            budget_scope(Budget(deadline=remaining, clock=self.clock))
        )
        if self.faults is not None:
            stack.enter_context(inject(self.faults))
        return stack

    def _run_stall(self, seconds: float, remaining: float) -> Dict[str, Any]:
        """Debug op: cooperative busy-wait hitting budget checkpoints,
        so tests can occupy workers deterministically."""
        with self._scoped(remaining):
            t0 = self.clock()
            while self.clock() - t0 < seconds:
                checkpoint("serve._stall")
                time.sleep(0.002)
        return {"stalled_s": seconds}

    def _run_query(
        self, engine, request: Dict[str, Any], remaining: float, backend: Optional[str]
    ) -> Dict[str, Any]:
        """One engine query on a worker thread, under the service's
        counter registry, the request's deadline budget, and (when the
        tenant's budget class pins one) a forced executor backend.  A
        pinned ``process`` backend whose pool breaks retries on
        ``sync`` — queries degrade, not fail."""
        op = request["op"]
        with contextlib.ExitStack() as scopes:
            if backend is not None:
                scopes.enter_context(force_executor(backend))
            scopes.enter_context(self._scoped(remaining))
            fault = self._poll(SITE_SERVE_HANDLER_CRASH)
            if fault is not None:
                raise RuntimeError("injected handler crash (serve.handler_crash)")
            if op == "min_cut":
                res = engine.min_cut()
                return self._result_payload(request, res, engine)
            if op == "update":
                mutation = OPS[op].any_of
                kwargs = {f: request[f] for f in mutation if request[f] is not None}
                with contextlib.ExitStack() as stack:
                    if self.durable is not None:
                        # {apply + log} is atomic under the durability
                        # lock; the record lands before the response
                        # frame, so an acked mutation survives a crash
                        # (ack-implies-durable under fsync=always)
                        stack.enter_context(self.durable.lock)
                    upd = engine.update(**kwargs)
                    if self.durable is not None and not upd.noop:
                        head = engine.fingerprint_chain()["current"]["fingerprint"]
                        self.durable.log_update(
                            request["tenant"], request["graph"], kwargs,
                            {"epoch": upd.epoch, "staleness": upd.staleness,
                             "value": upd.value, "fingerprint": head},
                        )
                payload = self._result_payload(request, upd.result, engine)
                verified = upd.verification
                payload.update(
                    update=1.0,
                    noop=upd.noop,
                    rebased=upd.rebased,
                    rebase_reason=upd.rebase_reason,
                    applied=upd.applied,
                    verified=None if verified is None else bool(verified.ok),
                )
                return payload
            # min_cut_batch
            results = engine.min_cut_batch(request["seeds"])
            return {"values": [float(r.value) for r in results], "epoch": engine.epoch}

    @staticmethod
    def _result_payload(request: Dict[str, Any], res, engine) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "value": float(res.value),
            # the per-graph epoch rides on every result so clients
            # detect a concurrent mutation (or rebase) under their feet
            "epoch": engine.epoch,
            "staleness": engine.staleness,
        }
        stats = dict(res.stats)
        for key in ("num_trees", "rebased", "update"):
            if key in stats:
                payload[key] = float(stats[key])
        if request["return_side"]:
            side = res.side
            small = side if side.sum() * 2 <= side.shape[0] else ~side
            payload["side"] = [int(i) for i in small.nonzero()[0]]
        return payload

    def _graph_info(self, args: Dict[str, Any]) -> Dict[str, Any]:
        """Inline (non-admitted) introspection of one registered graph:
        epoch, staleness, fingerprint, write access, and the tenant's
        cache stats — what a client polls to detect concurrent mutation
        without paying for a query."""
        tenant = self.tenants.get(args["tenant"])
        graph_name = args["graph"]
        engine, _ = tenant.engine(graph_name)
        cls = tenant.budget_class
        chain = engine.fingerprint_chain()
        return ok_response(
            args["id"],
            tenant=tenant.name,
            graph=graph_name,
            n=engine.graph.n,
            m=engine.graph.m,
            epoch=engine.epoch,
            staleness=engine.staleness,
            staleness_ratio=engine.staleness_ratio,
            fingerprint=chain["current"]["fingerprint"],
            budget_class=tenant.quota.budget_class,
            writable=cls.allow_mutation,
            durable=self.durable is not None,
            cache=tenant.cache_stats(),
            protocol=PROTOCOL_VERSION,
        )

    # ------------------------------------------------------------------
    def _metrics(self, req_id: Any) -> Dict[str, Any]:
        return ok_response(
            req_id,
            counters=self.registry.snapshot(),
            queue=self.queue.stats(),
            tenants={
                name: {
                    "budget_class": tenant.quota.budget_class,
                    "graphs": len(tenant.engines),
                    "inflight": tenant.inflight,
                    "cache": tenant.cache_stats(),
                }
                for name, tenant in self.tenants.items()
            },
            durability=(
                None if self.durable is None else self.durable.stats()
            ),
        )


# ---------------------------------------------------------------------------
# the front end
# ---------------------------------------------------------------------------
class ThreadedTCPServer:
    """The daemon: a :class:`CutService` and its TCP listener on a
    private event loop in a daemon thread.

    Clients reach it over :attr:`port` with
    :class:`~repro.serve.client.ServiceClient` connections (each handles
    requests strictly in order; malformed framing earns one
    ``bad_request``, then the connection closes), or in process through
    the blocking, thread-safe :meth:`request` — the same admission path
    minus the socket hop.  :func:`run_tcp` runs it in the foreground.
    """

    def __init__(self, config: ServerConfig = ServerConfig(), **service_kwargs: Any):
        self.service = CutService(config, **service_kwargs)
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ThreadedTCPServer":
        if self._loop is not None:
            return self
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="serve-loop", daemon=True
        )
        self._thread.start()
        try:
            self._call(self._start(), 10)
        except BaseException:
            # e.g. the port is taken: stop the workers, the loop and its
            # thread, so a failed start leaves nothing running
            self.stop()
            raise
        return self

    def stop(self) -> None:
        if self._loop is None:
            return
        self._call(self._stop(), 30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()
        self._loop = self._thread = None

    def __enter__(self) -> "ThreadedTCPServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    async def _start(self) -> None:
        await self.service.start()
        cfg = self.service.config
        try:
            self._server = await asyncio.start_server(
                self._on_connection, host=cfg.host, port=cfg.port
            )
        except OSError as exc:
            # name the address and the OS reason (asyncio's own message
            # omits the address when the host does not resolve)
            reason = os.strerror(exc.errno) if (exc.errno or 0) > 0 else exc.strerror
            raise OSError(
                exc.errno, f"cannot listen on {cfg.host}:{cfg.port}: {reason or exc}"
            ) from exc
        self.port = self._server.sockets[0].getsockname()[1]

    async def _stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # established connections don't die with the listener: close
        # them too, so a stopped server looks to its clients exactly
        # like an exited process (EOF mid-frame), not a silent hang
        for writer in list(self._connections):
            writer.close()
        await self.service.stop()
        # as asyncio.run does: cancel what is left (handlers mid-read),
        # so no task is destroyed pending when the loop closes
        rest = asyncio.all_tasks() - {asyncio.current_task()}
        for task in rest:
            task.cancel()
        await asyncio.gather(*rest, return_exceptions=True)

    def request(self, request: Dict[str, Any], timeout: float = 60.0) -> Dict[str, Any]:
        """Submit one request and block for its single typed response."""
        return self._call(self.service.submit(request), timeout)

    def wait_for_shutdown(self) -> None:
        """Block until the ``shutdown`` op arrives."""
        self.service._shutdown_requested.wait()

    def _call(self, coro, timeout: float) -> Any:
        assert self._loop is not None, "ThreadedTCPServer not started"
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        service = self.service
        service.registry.add("serve.connections")
        if service._poll(SITE_SERVE_ACCEPT_DROP) is not None:
            # dropped before any frame is read: nothing was accepted,
            # so no response is owed — the client sees a clean reset
            service.registry.add("serve.accept_drops")
            writer.close()
            return
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as exc:
                    service.registry.add("serve.bad_requests")
                    await write_frame(
                        writer,
                        error_response(None, code="bad_request", message=str(exc)),
                    )
                    break
                if request is None:
                    break  # clean EOF
                response = await service.submit(request)
                fault = service._poll(SITE_SERVE_SLOW_CLIENT)
                if fault is not None:
                    await asyncio.sleep(min(0.05 * fault.scale, MAX_FAULT_DELAY_S))
                await write_frame(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing further is owed
        except asyncio.CancelledError:
            # server shutdown cancelled this connection task mid-read;
            # finish normally so the loop doesn't log a phantom error
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass


def run_tcp(config: ServerConfig, **service_kwargs: Any) -> None:
    """Run the TCP daemon in the foreground until the ``shutdown`` op
    (requires ``allow_shutdown=True``) or KeyboardInterrupt, then stop
    it cleanly.  This is what ``python -m repro serve`` calls."""
    server = ThreadedTCPServer(config, **service_kwargs).start()
    print(f"repro.serve listening on {config.host}:{server.port}", flush=True)
    try:
        server.wait_for_shutdown()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
