"""The exact parallel minimum cut (Theorems 4.1 and 4.26) — the paper's
headline algorithm and this library's main entry point.

    approximate (Section 3)  ->  skeleton + tree packing (Section 4.2)
        ->  per-tree minimum 2-respecting cut (Section 4.1)  ->  min.

Every candidate tree's 2-respecting search runs in a logically-parallel
ledger branch (the searches are independent — Section 4's equations (1)
and (2)); each inspected value is a genuine cut of G, so the result is
always an upper bound on the minimum cut and equals it w.h.p. (and in
``thorough`` mode — testing *every* distinct packed tree — the failure
probability at benchmark scale is unobservably small; see DESIGN.md
section 5).

This module is a thin wrapper: :func:`minimum_cut` is one cold
:meth:`repro.engine.CutEngine.min_cut` query, the single composition of
the stage functions in :mod:`repro.engine.stages` (the resilient driver
runs the same query per attempt).  The pipeline knobs are documented
once in :class:`repro.params.CutPipelineParams`; ``trace=True`` runs
attach a :class:`repro.obs.RunReport` (phase spans + counters) to the
result.
"""

from __future__ import annotations

from typing import Literal, Optional

import numpy as np

from repro import obs
from repro.engine.service import CutEngine
from repro.engine.stages import branching_for_epsilon
from repro.graphs.graph import Graph
from repro.params import CutPipelineParams
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.results import CutResult
from repro.sparsify.hierarchy import HierarchyParams
from repro.sparsify.skeleton import SkeletonParams

__all__ = ["minimum_cut", "branching_for_epsilon"]


def minimum_cut(
    graph: Graph,
    *,
    epsilon: Optional[float] = None,
    approx_value: Optional[float] = None,
    max_trees: int | None | Literal["auto"] = "auto",
    decomposition: Literal["heavy", "bough"] = "heavy",
    skeleton_params: SkeletonParams = SkeletonParams(),
    hierarchy_params: Optional[HierarchyParams] = None,
    packing_iterations: Optional[int] = None,
    pipeline: Optional[CutPipelineParams] = None,
    rng: Optional[np.random.Generator] = None,
    ledger: Ledger = NULL_LEDGER,
    trace: bool = False,
) -> CutResult:
    """Minimum cut of a weighted undirected graph, w.h.p. exact.

    Parameters
    ----------
    graph:
        The input.  Disconnected inputs return value 0 with a component
        as the side mask.
    epsilon, max_trees, decomposition, skeleton_params, hierarchy_params,
    packing_iterations:
        The pipeline knobs; see :class:`repro.params.CutPipelineParams`
        for the single documented reference.
    approx_value:
        A known O(1)-approximation of the min cut; skips the Section 3
        stage (used, e.g., when called *from* that stage on certificate
        layers whose expected cut is known — Claim 3.20).
    pipeline:
        The bundled spelling of the knobs above (mutually exclusive with
        passing a non-default individual knob).
    rng:
        Seeded generator; the algorithm is deterministic given it.
    trace:
        Record a :class:`repro.obs.RunReport` (phase spans, counter
        registry, Chrome-trace export) and attach it as ``.report``.
        When no ``ledger`` is supplied a private one is allocated so the
        report still carries real work/depth deltas.  Tracing never
        charges the ledger — accounting is bit-identical either way.

    Returns
    -------
    CutResult — value, side mask, witness tree edges, stage statistics.

    See also
    --------
    repro.engine.CutEngine : what this call runs cold; keep one engine
        for repeated queries over one graph.
    """
    params = CutPipelineParams.resolve(
        pipeline,
        epsilon=epsilon,
        max_trees=max_trees,
        decomposition=decomposition,
        skeleton=skeleton_params,
        hierarchy=hierarchy_params,
        packing_iterations=packing_iterations,
    )
    return obs.traced(
        lambda led: CutEngine(
            graph, rng=rng, approx_value=approx_value, pipeline=params, ledger=led
        ).min_cut(),
        ledger,
        trace,
        algorithm="minimum_cut",
        n=graph.n,
        m=graph.m,
    )
