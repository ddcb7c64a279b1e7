"""Structured observability: phase spans, a namespaced counter
registry, and Chrome-trace export for every pipeline run.

The three pieces (see ``docs/observability.md`` for the full model):

* :class:`Span` / :class:`Tracer` — a tree of named intervals, each
  recording wall clock, ledger work/depth deltas, and counter deltas
  (:mod:`repro.obs.span`);
* :class:`CounterRegistry` / :func:`counters` — one dot-namespaced
  counter map (``oracle.nodes_visited``, ``kernels.batch_entries``,
  ``executor.retries``, ...) replacing the free-form stats dicts
  (:mod:`repro.obs.counters`);
* :class:`RunReport` — the frozen result, attached to
  :class:`~repro.results.CutResult` / :class:`~repro.results.ApproxResult`
  by ``trace=True`` runs and exportable with
  :meth:`~repro.obs.report.RunReport.write_trace`
  (:mod:`repro.obs.report`).

Quick start::

    import numpy as np, repro
    res = repro.minimum_cut(g, rng=np.random.default_rng(0), trace=True)
    for p in res.report.phases(top_level_only=True):
        print(p.name, p.wall_s, p.work)
    res.report.write_trace("run.json")   # open in chrome://tracing

Everything here is observation-only: spans and counters never charge
the ledger, so traced and untraced runs have bit-identical work/depth
accounting, and the disabled path (no tracer active) costs one
contextvar read per instrumentation site.
"""

from repro.obs.counters import (
    NULL_COUNTERS,
    CounterRegistry,
    counters,
    counting_scope,
)
from repro.obs.report import PhaseBreakdown, RunReport
from repro.obs.span import (
    NULL_TRACER,
    Span,
    Tracer,
    current_tracer,
    phase,
    suppress_tracing,
    tracing_active,
)

__all__ = [
    "Span",
    "Tracer",
    "current_tracer",
    "tracing_active",
    "phase",
    "suppress_tracing",
    "CounterRegistry",
    "counters",
    "counting_scope",
    "NULL_COUNTERS",
    "NULL_TRACER",
    "RunReport",
    "PhaseBreakdown",
]
