"""Theorem 3.1: the parallel (1 +- eps)-approximation of the minimum cut.

Pipeline (Section 3):

1. build the truncated + exclusive hierarchies (Algorithm 3.14);
2. build the certificate hierarchy (Algorithm 3.17);
3. compute the min-cut of every cumulative certificate — O(log n)
   instances of the exact algorithm on O(n polylog n)-size graphs,
   solved in parallel (Claim 3.20).  When the minimum weighted degree
   of the densest certificate is already below the separation window,
   every layer is, and only layer 0 is solved;
4. locate the skeleton layer s (Claims 3.6-3.13) and rescale:
   lambda ~ mincut(G_s^trunc) * 2^s.

Work O(m log n + n log^5 n), depth O(log^3 n).

Like the other entry points, everything after ``graph`` is
keyword-only (the one-release positional-argument deprecation shim has
been removed).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro import obs
from repro.approx.layers import layer_min_cuts, locate_skeleton_layer
from repro.errors import GraphFormatError
from repro.graphs.graph import Graph
from repro.pram.combinators import log2ceil
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.results import ApproxResult
from repro.sparsify.certhierarchy import build_certificate_hierarchy
from repro.sparsify.hierarchy import HierarchyParams, build_truncated_hierarchy

__all__ = ["approximate_minimum_cut"]


def _default_solver(ledger: Ledger) -> Callable[[Graph], float]:
    """Exact min-cut on a certificate graph.

    Uses this package's own exact algorithm (Section 4) with the
    approximation stage *disabled* — the expected layer min-cut is a
    valid O(1)-approximation by construction (the paper's Claim 3.20
    remark) — falling back to Stoer–Wagner for the tiny instances where
    the tree-packing machinery costs more than it saves.
    """

    def solve(g: Graph) -> float:
        if g.n <= 64:
            from repro.arena.solvers.stoer_wagner import stoer_wagner

            return stoer_wagner(g).value
        import math

        from repro.core.mincut import minimum_cut
        from repro.engine.artifacts import graph_fingerprint

        # The layer values only need to land in the right separation
        # window (a crude O(1)-approximation suffices — Claims 3.11-3.13
        # leave a x2.4 gap), so the inner exact solver runs a slimmer
        # schedule than the top-level driver.  Its generator derives
        # from the layer graph's content: the outer stream is not
        # consumed, and a fixed seed charges the same work every run.
        lg = math.log2(g.n)
        return minimum_cut(
            g,
            approx_value=float(g.weighted_degrees.min()),
            max_trees=max(4, int(math.ceil(lg / 2))),
            packing_iterations=max(8, int(math.ceil(lg**1.5))),
            rng=np.random.default_rng(
                np.random.SeedSequence(int(graph_fingerprint(g), 16))
            ),
            ledger=ledger,
        ).value

    return solve


def approximate_minimum_cut(
    graph: Graph,
    *,
    params: HierarchyParams = HierarchyParams(),
    rng: Optional[np.random.Generator] = None,
    ledger: Ledger = NULL_LEDGER,
    solver: Optional[Callable[[Graph], float]] = None,
    epsilon: float = 1.0 / 3.0,
    repeats: int = 1,
    trace: bool = False,
) -> ApproxResult:
    """(1 +- epsilon)-approximate the minimum cut value of ``graph``.

    Parameters
    ----------
    graph:
        Weighted graph.  Real weights are transparently scaled to the
        multigraph (integer) semantics of Section 3 via
        :meth:`repro.graphs.Graph.integerized`; the returned estimate is
        already rescaled back.
    params:
        Hierarchy constants; ``HierarchyParams(scale=...)`` shrinks the
        paper's constants proportionally (DESIGN.md section 5).  This is
        the same object as :attr:`repro.params.CutPipelineParams.hierarchy`
        — see :mod:`repro.params` for the one documented home of the
        pipeline knobs.
    solver:
        Exact min-cut callable used on the certificate layers; defaults
        to this package's exact algorithm (Stoer–Wagner under n <= 64).
    epsilon:
        Reported bracket half-width.  The sampling constants inside
        ``params`` govern the actual concentration; the paper proves the
        combination for epsilon = 1/3 (Theorem 3.1 discussion).
    repeats:
        The paper's remark that the algorithm "can be modified to obtain
        a (1 + eps)-approximation for any small constant eps without any
        change in the performance guarantee": run ``repeats`` independent
        hierarchies (logically in parallel — work scales by the constant
        ``repeats``, depth is unchanged) and return the median estimate,
        shrinking the sampling error like 1/sqrt(repeats).
    trace:
        Attach a :class:`repro.obs.RunReport` as ``.report`` (see
        :func:`repro.minimum_cut`).

    Returns
    -------
    ApproxResult with the estimate, the [low, high] bracket, the located
    skeleton layer and every layer's measured min-cut.
    """
    return obs.traced(
        lambda led: _approximate_impl(graph, params, rng, led, solver, epsilon, repeats),
        ledger,
        trace,
        algorithm="approximate_minimum_cut",
        n=graph.n,
        m=graph.m,
    )


def _approximate_impl(
    graph: Graph,
    params: HierarchyParams,
    rng: Optional[np.random.Generator],
    ledger: Ledger,
    solver: Optional[Callable[[Graph], float]],
    epsilon: float,
    repeats: int,
) -> ApproxResult:
    if graph.n < 2:
        raise GraphFormatError("min cut needs at least 2 vertices")
    k, labels = graph.connected_components()
    if k > 1:
        return ApproxResult(
            estimate=0.0, low=0.0, high=0.0, skeleton_layer=0, layer_cuts={},
            stats={"layers_solved": 0.0},
        )
    rng = rng if rng is not None else np.random.default_rng()
    solver = solver if solver is not None else _default_solver(ledger)
    graph, weight_scale = graph.integerized()
    if weight_scale != 1.0:
        inner = _approximate_impl(
            graph, params, rng, ledger, solver, epsilon, repeats
        )
        return ApproxResult(
            estimate=inner.estimate / weight_scale,
            low=inner.low / weight_scale,
            high=inner.high / weight_scale,
            skeleton_layer=inner.skeleton_layer,
            layer_cuts=inner.layer_cuts,
            stats=dict(inner.stats, weight_scale=weight_scale),
        )
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if repeats > 1:
        runs = []
        with ledger.parallel() as par:
            for i in range(repeats):
                with par.branch():
                    with obs.current_tracer().span(f"repeat[{i}]"):
                        runs.append(
                            _approximate_impl(
                                graph, params, rng, ledger, solver, epsilon, 1
                            )
                        )
        estimates = sorted(r.estimate for r in runs)
        med = estimates[len(estimates) // 2]
        pick = min(runs, key=lambda r: abs(r.estimate - med))
        stats = dict(pick.stats)
        stats["repeats"] = float(repeats)
        stats["layers_solved"] = sum(r.stats["layers_solved"] for r in runs)
        stats["estimate_spread"] = float(estimates[-1] - estimates[0])
        return ApproxResult(
            estimate=med,
            low=med * (1.0 - epsilon),
            high=med * (1.0 + epsilon),
            skeleton_layer=pick.skeleton_layer,
            layer_cuts=pick.layer_cuts,
            stats=stats,
        )

    with obs.phase("hierarchy", ledger):
        hierarchy = build_truncated_hierarchy(graph, params=params, rng=rng, ledger=ledger)
    with obs.phase("certificates", ledger):
        certs = build_certificate_hierarchy(hierarchy, ledger=ledger)
    solves = 0

    def counted(g: Graph) -> float:
        nonlocal solves
        solves += 1
        return solver(g)

    with obs.phase("layer-cuts", ledger):
        # Below-window exit.  Every cumulative certificate is an
        # edge-weight-wise subgraph of layer 0's, so every layer's cut is
        # at most delta, layer 0's minimum weighted degree (one reduction).
        # With delta below the window every layer is, and the located
        # layer is 0 whatever layers 1..d-1 hold: solve layer 0 alone.
        lo, _ = params.window(graph.n)
        g0 = certs.cumulative(0)
        ledger.charge(work=g0.m, depth=log2ceil(g0.n))
        if g0.weighted_degrees.min() < lo:
            cuts = {0: float(counted(g0)) if g0.is_connected() else 0.0}
        else:
            cuts = layer_min_cuts(
                certs, counted, ledger=ledger, stop_below=params.scale
                * params.below_low * params.log_n(graph.n)
            )
    s = locate_skeleton_layer(cuts, graph.n, params)
    estimate = float(cuts.get(s, 0.0)) * (2.0 ** s)
    reg = obs.counters()
    if reg.enabled:
        reg.add("approx.layers_cut", float(solves))
    return ApproxResult(
        estimate=estimate,
        low=estimate * (1.0 - epsilon),
        high=estimate * (1.0 + epsilon),
        skeleton_layer=int(s),
        layer_cuts=cuts,
        stats={
            "hierarchy_depth": float(hierarchy.depth),
            "total_certificate_weight": float(
                sum(int(c.total_copies) for c in certs.certificates)
            ),
            "layers_solved": float(solves),
        },
    )
