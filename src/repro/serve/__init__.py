"""The cut-serving daemon: a long-running, multi-tenant service shell
around :class:`repro.engine.CutEngine`.

Layout:

* :mod:`repro.serve.protocol` — length-prefixed JSON framing and the
  typed response vocabulary (``result`` / ``retry_after`` /
  ``deadline_exceeded`` / ``error``);
* :mod:`repro.serve.tenancy` — tenants, per-tenant
  :class:`~repro.engine.cache.ArtifactCache` quotas, budget classes;
* :mod:`repro.serve.admission` — the bounded admission queue with
  backpressure hints;
* :mod:`repro.serve.server` — :class:`CutService` (the transport-less
  core) and :class:`ThreadedTCPServer`, its one host (an asyncio TCP
  listener on a background loop, with a blocking in-process
  ``request`` for tests and benchmarks);
* :mod:`repro.serve.client` — the blocking :class:`ServiceClient`.

``python -m repro serve`` runs the daemon in the foreground
(:func:`run_tcp`);
``bench/``'s serve-read and serve-write workloads time it and
``scripts/chaos_soak.py --service`` soaks it under injected
``serve.*`` faults.  Protocol, tenancy, and shedding semantics are
documented in ``docs/service.md``.
"""

from repro.serve.admission import AdmissionQueue
from repro.serve.client import ServiceClient
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    DeadlineExceeded,
    ProtocolError,
    RetryAfter,
    ServiceError,
    well_formed,
)
from repro.serve.server import CutService, ServerConfig, ThreadedTCPServer, run_tcp
from repro.serve.tenancy import (
    BUDGET_CLASSES,
    BudgetClass,
    Tenant,
    TenantQuota,
    TenantRegistry,
    UnknownGraph,
    UnknownTenant,
)

__all__ = [
    "ServerConfig",
    "CutService",
    "ThreadedTCPServer",
    "run_tcp",
    "ServiceClient",
    "AdmissionQueue",
    "BudgetClass",
    "BUDGET_CLASSES",
    "TenantQuota",
    "Tenant",
    "TenantRegistry",
    "UnknownTenant",
    "UnknownGraph",
    "ProtocolError",
    "ServiceError",
    "RetryAfter",
    "DeadlineExceeded",
    "well_formed",
    "MAX_FRAME_BYTES",
]
