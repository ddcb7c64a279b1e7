"""Straight-through reference for the exact pipeline (Theorem 4.26).

The library composes the stages in one place, :class:`repro.engine.CutEngine`
(which :func:`repro.minimum_cut` runs cold).  This module chains the same
stage functions with no cache, memo or fingerprints —
``validate → approximate → skeleton/pack/select → search → assemble`` — so
``tests/test_engine.py::TestColdParity`` can require both entry points to
match it bit for bit: value, side, stats, ledger work/depth and every
phase record.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.engine.stages import (
    approximate_stage,
    assemble_result,
    branching_for_epsilon,
    resolve_max_trees,
    search_stage,
    validate_stage,
)
from repro.graphs.graph import Graph
from repro.packing.karger import build_cut_skeleton, pack_skeleton, select_trees
from repro.params import CutPipelineParams
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.results import CutResult


def reference_minimum_cut(
    graph: Graph,
    params: CutPipelineParams = CutPipelineParams(),
    *,
    rng: np.random.Generator,
    approx_value: Optional[float] = None,
    ledger: Ledger = NULL_LEDGER,
) -> CutResult:
    early = validate_stage(graph)
    if early is not None:
        return early
    skipped = False
    if approx_value is None:
        approx_value, skipped = approximate_stage(graph, params, rng, ledger)
    lambda_under = float(approx_value) / 2.0
    with obs.phase("packing", ledger):
        skel = build_cut_skeleton(
            graph, lambda_under, skeleton_params=params.skeleton, rng=rng, ledger=ledger
        )
        packing = pack_skeleton(
            skel, packing_iterations=params.packing_iterations, ledger=ledger
        )
        parents = select_trees(packing, resolve_max_trees(params.max_trees, graph.n), rng)
    branching = branching_for_epsilon(graph.n, params.epsilon)
    best = search_stage(
        graph,
        parents,
        branching=branching,
        decomposition=params.decomposition,
        ledger=ledger,
    )
    packing_stats = {
        "num_trees": float(len(parents)),
        "skeleton_edges": float(skel.skeleton.m),
        "skeleton_p": float(skel.p),
        "packing_iterations": float(packing.iterations),
    }
    return assemble_result(best, packing_stats, lambda_under, branching, skipped)
