"""repro — Work-Optimal Parallel Minimum Cuts for Non-Sparse Graphs.

Reproduction of López-Martínez, Mukhopadhyay & Nanongkai (SPAA 2021).
See README.md for the tour and DESIGN.md for the system inventory.

Public API highlights
---------------------
- :func:`repro.minimum_cut` — the paper's exact parallel algorithm.
- :func:`repro.resilient_minimum_cut` — the same, behind budgets,
  verified retries, and a graceful-degradation fallback chain.
- :func:`repro.approximate_minimum_cut` — the Section 3 approximation.
- :class:`repro.CutEngine` — the staged/cached spelling of the exact
  pipeline for repeated queries over one graph (``min_cut()``,
  ``min_cut_batch(seeds)``, ``update(reweight=...)``), with artifacts in a
  :class:`repro.ArtifactCache` (:mod:`repro.engine`).
- :class:`repro.CutResult` / :class:`repro.ApproxResult` — the result
  values, with :class:`repro.VerificationReport` provenance.
- :class:`repro.CutPipelineParams` — the pipeline knobs, documented
  once (:mod:`repro.params`).
- :class:`repro.RunReport` — per-run observability (phase spans,
  counters, Chrome-trace export) from ``trace=True`` runs
  (:mod:`repro.obs`).
- :class:`repro.Graph` and the generators in :mod:`repro.graphs`.
- :class:`repro.Ledger` — PRAM work/depth accounting.
- :mod:`repro.arena` — every solver (the pipeline, the engine, the
  classical baselines) behind one :class:`repro.Contender` surface;
  :func:`repro.get_contender` / :func:`repro.contender_names` query
  the registry, results come back as :class:`repro.ArenaResult`.

All entry points take the graph positionally and everything else
keyword-only.
"""

from repro._version import __version__
from repro.graphs.graph import Graph
from repro.pram.ledger import Ledger

__all__ = [
    "__version__",
    "Graph",
    "Ledger",
    "minimum_cut",
    "resilient_minimum_cut",
    "approximate_minimum_cut",
    "two_respecting_min_cut",
    "CutEngine",
    "UpdateResult",
    "GraphDelta",
    "ArtifactCache",
    "CutResult",
    "ApproxResult",
    "VerificationReport",
    "RunReport",
    "CutPipelineParams",
    "SkeletonParams",
    "HierarchyParams",
    "ArenaResult",
    "Contender",
    "get_contender",
    "contender_names",
]

#: lazily-resolved re-exports: name -> (module, attribute)
_LAZY = {
    "minimum_cut": ("repro.core.mincut", "minimum_cut"),
    "resilient_minimum_cut": ("repro.resilience.driver", "resilient_minimum_cut"),
    "approximate_minimum_cut": ("repro.approx.approximate", "approximate_minimum_cut"),
    "two_respecting_min_cut": ("repro.tworespect.algorithm", "two_respecting_min_cut"),
    "CutEngine": ("repro.engine.service", "CutEngine"),
    "UpdateResult": ("repro.engine.deltas", "UpdateResult"),
    "GraphDelta": ("repro.engine.deltas", "GraphDelta"),
    "ArtifactCache": ("repro.engine.cache", "ArtifactCache"),
    "CutResult": ("repro.results", "CutResult"),
    "ApproxResult": ("repro.results", "ApproxResult"),
    "VerificationReport": ("repro.results", "VerificationReport"),
    "RunReport": ("repro.obs.report", "RunReport"),
    "CutPipelineParams": ("repro.params", "CutPipelineParams"),
    "SkeletonParams": ("repro.sparsify.skeleton", "SkeletonParams"),
    "HierarchyParams": ("repro.sparsify.hierarchy", "HierarchyParams"),
    "ArenaResult": ("repro.arena.result", "ArenaResult"),
    "Contender": ("repro.arena.result", "Contender"),
    "get_contender": ("repro.arena.registry", "get_contender"),
    "contender_names": ("repro.arena.registry", "contender_names"),
}


def __getattr__(name: str):
    # Lazy re-exports keep `import repro` light and avoid import cycles
    # between the substrate and algorithm layers.
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target[0]), target[1])


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
