"""Multi-tenant state of the cut-serving daemon.

A *tenant* is a named registration owning

* one :class:`~repro.engine.cache.ArtifactCache` sized by its quota —
  engines of the same tenant amortize preprocessing against each other,
  but never against another tenant's cache (isolation is structural,
  not scheduled: a noisy tenant can evict only its own artifacts);
* a dictionary of named graphs, each fronted by one
  :class:`~repro.engine.CutEngine` (re-registering a name rebinds it);
* a *budget class* (:data:`BUDGET_CLASSES`, tabulated in
  ``docs/service.md``) bounding its deadlines, concurrency and write
  access.  A request's ``deadline_ms`` is clamped to the class
  maximum, and a request without one gets the class default, so
  *every* admitted query carries a deadline and can be shed.

The tenant name is an identifier, not an authentication: the daemon
trusts its network (see the trust-boundary note in ``docs/service.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import asyncio

from repro.engine.cache import ArtifactCache
from repro.engine.service import CutEngine
from repro.errors import InvalidParameterError
from repro.graphs.graph import Graph

__all__ = [
    "BudgetClass",
    "BUDGET_CLASSES",
    "TenantQuota",
    "Tenant",
    "TenantRegistry",
    "UnknownTenant",
    "UnknownGraph",
]


class UnknownTenant(InvalidParameterError):
    """The request names a tenant that was never registered."""


class UnknownGraph(InvalidParameterError):
    """The request names a graph its tenant never registered."""


@dataclass(frozen=True)
class BudgetClass:
    """Deadline and concurrency bounds shared by every tenant of a class.

    ``executor_backend`` optionally pins the executor backend the
    class's queries run on (see :func:`repro.pram.executor.force_executor`);
    None leaves the process-wide selection alone.
    """

    name: str
    default_deadline_s: float
    max_deadline_s: float
    max_inflight: int
    executor_backend: Optional[str] = None
    #: may tenants of this class run the mutation surface (the
    #: ``update`` op)?  Interactive traffic is read-only: its short
    #: deadlines make the rebase path (a full cold preprocess an update
    #: may trigger) a shedding hazard, and concurrent short-deadline
    #: writers would churn every reader's epoch.
    allow_mutation: bool = True


#: the built-in classes; ``ServerConfig.default_budget_class`` picks the
#: fallback for tenants registered without one.  Batch tenants run big
#: fan-outs under generous deadlines, so they pin the process backend;
#: interactive/standard keep the ambient backend (sync by default)
#: where dispatch latency beats throughput.
BUDGET_CLASSES: Dict[str, BudgetClass] = {
    "interactive": BudgetClass("interactive", 2.0, 10.0, 8, allow_mutation=False),
    "standard": BudgetClass("standard", 10.0, 60.0, 16),
    "batch": BudgetClass("batch", 60.0, 600.0, 4, executor_backend="process"),
}


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource bounds, fixed at registration."""

    budget_class: str = "standard"
    cache_entries: int = 64
    cache_bytes: int = 64 * 2**20
    max_graphs: int = 32

    def __post_init__(self) -> None:
        if self.budget_class not in BUDGET_CLASSES:
            raise InvalidParameterError(
                f"unknown budget class {self.budget_class!r}; "
                f"known: {sorted(BUDGET_CLASSES)}"
            )
        if self.max_graphs < 1:
            raise InvalidParameterError("max_graphs must be >= 1")


@dataclass
class Tenant:
    """One tenant's registered graphs, cache, and admission state."""

    name: str
    quota: TenantQuota
    cache: ArtifactCache = field(init=False)
    engines: Dict[str, CutEngine] = field(default_factory=dict)
    locks: Dict[str, asyncio.Lock] = field(default_factory=dict)
    #: registration-time (seed, epsilon) per graph name — the durability
    #: layer persists these so a recovered engine is constructed with
    #: the exact parameters the live one was
    graph_params: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: queries admitted and not yet answered (drives the per-tenant
    #: inflight limit of the budget class)
    inflight: int = 0

    def __post_init__(self) -> None:
        self.cache = ArtifactCache(
            max_entries=self.quota.cache_entries, max_bytes=self.quota.cache_bytes
        )

    @property
    def budget_class(self) -> BudgetClass:
        return BUDGET_CLASSES[self.quota.budget_class]

    def register_graph(
        self,
        graph_name: str,
        graph: Graph,
        *,
        seed: int = 0,
        epsilon: Optional[float] = None,
    ) -> CutEngine:
        """Bind ``graph`` (replacing any previous binding of the name)
        to a fresh engine sharing this tenant's cache."""
        if graph_name not in self.engines and len(self.engines) >= self.quota.max_graphs:
            raise InvalidParameterError(
                f"tenant {self.name!r} is at its max_graphs quota "
                f"({self.quota.max_graphs})"
            )
        engine = CutEngine(graph, seed=seed, epsilon=epsilon, cache=self.cache)
        self.engines[graph_name] = engine
        self.graph_params[graph_name] = {"seed": int(seed), "epsilon": epsilon}
        # a fresh lock per rebinding: an in-flight query on the old
        # engine finishes under the old lock, unserialised against the
        # new binding (they share only the thread-safe cache)
        self.locks[graph_name] = asyncio.Lock()
        return engine

    def engine(self, graph_name: str) -> Tuple[CutEngine, asyncio.Lock]:
        """The engine and its serialization lock, or :class:`UnknownGraph`."""
        engine = self.engines.get(graph_name)
        if engine is None:
            raise UnknownGraph(
                f"tenant {self.name!r} has no graph {graph_name!r} "
                f"(registered: {sorted(self.engines)})"
            )
        return engine, self.locks[graph_name]

    def cache_stats(self) -> Dict[str, float]:
        return {
            "entries": float(len(self.cache)),
            "bytes": float(self.cache.current_bytes),
            "max_entries": float(self.cache.max_entries),
            "max_bytes": float(self.cache.max_bytes),
            "hits": float(self.cache.stats["hits"]),
            "misses": float(self.cache.stats["misses"]),
            "evictions": float(self.cache.stats["evictions"]),
        }


class TenantRegistry:
    """The daemon's tenant table."""

    def __init__(self, default_budget_class: str = "standard") -> None:
        if default_budget_class not in BUDGET_CLASSES:
            raise InvalidParameterError(
                f"unknown budget class {default_budget_class!r}"
            )
        self.default_budget_class = default_budget_class
        self._tenants: Dict[str, Tenant] = {}

    def register(self, name: str, quota: Optional[TenantQuota] = None) -> Tenant:
        """Create tenant ``name`` (idempotent: an existing tenant is
        returned unchanged — quotas are fixed at first registration)."""
        existing = self._tenants.get(name)
        if existing is not None:
            return existing
        tenant = Tenant(
            name,
            quota or TenantQuota(budget_class=self.default_budget_class),
        )
        self._tenants[name] = tenant
        return tenant

    def get(self, name: str) -> Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise UnknownTenant(
                f"unknown tenant {name!r} (registered: {sorted(self._tenants)})"
            )
        return tenant

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: object) -> bool:
        return name in self._tenants

    def items(self):
        return self._tenants.items()
