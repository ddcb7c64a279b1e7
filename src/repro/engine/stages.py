"""The exact pipeline's stage functions, defined once.

``validate → approximate → sparsify → pack → index → search → assemble``

* :func:`validate_stage` — trivial/degenerate inputs (and the one place
  disconnected graphs short-circuit);
* :func:`approximate_stage` — the Theorem 3.1 O(1)-approximation, or the
  minimum weighted degree when the skeleton is sampled at p = 1 anyway;
* the sparsify/pack/index trio lives in :mod:`repro.packing.karger`
  (:func:`~repro.packing.karger.build_cut_skeleton`,
  :func:`~repro.packing.karger.pack_skeleton`,
  :func:`~repro.packing.karger.select_trees`);
* :func:`search_stage` — the per-tree minimum 2-respecting search
  (Theorem 4.2), the only stage that runs per *query*;
* :func:`assemble_result` — final stats/counter assembly.

:class:`repro.engine.CutEngine` is the one composition of these
functions: :func:`repro.minimum_cut` and
:func:`repro.resilient_minimum_cut` run it cold, and it caches each
stage's artifact between queries.  ``tests/reference_pipeline.py``
chains them straight through as the test oracle.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import GraphFormatError, InvalidParameterError
from repro.graphs.graph import Graph
from repro.graphs.validate import ensure_finite_weights
# bench/layers.py times the packing functions under this module's names
# too (ROADMAP open item 1 retires that name-patch table)
from repro.packing.karger import build_cut_skeleton, pack_skeleton, select_trees  # noqa: F401
from repro.params import CutPipelineParams
from repro.pram.combinators import log2ceil
from repro.pram.ledger import Ledger, LedgerTape
from repro.resilience.budget import checkpoint as _checkpoint
from repro.results import CutResult
from repro.sparsify.hierarchy import HierarchyParams
from repro.tworespect.algorithm import two_respecting_min_cut

__all__ = [
    "validate_stage",
    "approximate_stage",
    "search_stage",
    "assemble_result",
    "LOCKSTEP_GROUP",
    "resolve_max_trees",
    "branching_for_epsilon",
]


def branching_for_epsilon(n: int, epsilon: Optional[float]) -> int:
    """Range-tree degree ``max(2, round(n^epsilon))`` (Section 4.3).

    ``epsilon=None`` (or any value driving the degree to 2) selects the
    general-graph structure of Lemma 4.9.
    """
    if epsilon is not None and epsilon <= 0:
        raise InvalidParameterError("epsilon must be positive")
    if epsilon is None or n < 2:
        return 2
    return max(2, int(round(n**epsilon)))


def resolve_max_trees(
    max_trees: "int | None | str", n: int
) -> Optional[int]:
    """``"auto"`` → the paper's ``ceil(3 log2 n)`` schedule; ints and
    None (thorough mode) pass through."""
    if max_trees == "auto":
        return int(math.ceil(3 * math.log2(max(n, 2))))
    return max_trees  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------
def validate_stage(graph: Graph) -> Optional[CutResult]:
    """Reject malformed inputs; short-circuit degenerate ones.

    Returns the finished :class:`CutResult` for disconnected or
    two-vertex inputs, None when the full pipeline must run.
    """
    if graph.n < 2:
        raise GraphFormatError("min cut needs at least 2 vertices")
    ensure_finite_weights(graph)
    k, labels = graph.connected_components()
    if k > 1:
        return CutResult(value=0.0, side=labels == labels[0], stats={"num_trees": 0.0})
    if graph.n == 2:
        return CutResult(
            value=graph.total_weight,
            side=np.array([True, False]),
            stats={"num_trees": 0.0},
        )
    return None


def approximate_stage(
    graph: Graph,
    params: CutPipelineParams,
    rng: np.random.Generator,
    ledger: Ledger,
) -> Tuple[float, bool]:
    """The Section 3 stage: an O(1)-approximation of the min cut value,
    floored away from zero so the packing underestimate stays positive,
    and whether the stage was skipped.

    Section 4 reads the estimate only through the skeleton's sampling
    probability ``p = min(1, sample_constant * ln n / (estimate / 2))``.
    When the minimum weighted degree delta makes that p = 1 for any
    estimate <= delta, and delta lies below the separation window (so
    Section 3's own estimate is at most delta), the stage returns delta
    itself: one reduction instead of the hierarchy, the certificates and
    the layer solves (DESIGN.md section 5).
    """
    from repro.approx.approximate import approximate_minimum_cut

    hier = params.hierarchy if params.hierarchy is not None else HierarchyParams()
    with obs.phase("approximate", ledger):
        delta = float(graph.weighted_degrees.min())
        ledger.charge(work=float(graph.m), depth=float(log2ceil(graph.n)))
        full_p = delta <= 2.0 * params.skeleton.expected_skeleton_cut(graph.n)
        # Section 3 applies its window in integer units (real weights
        # scaled up), so the window test reads delta in those units
        if full_p and (
            graph.integerized()[0].weighted_degrees.min() < hier.window(graph.n)[0]
        ):
            obs.counters().add("approx.skipped")
            return max(delta, 1e-12), True
        approx = approximate_minimum_cut(graph, params=hier, rng=rng, ledger=ledger)
    return max(approx.estimate, 1e-12), False


#: Trees whose 2-respecting searches :func:`search_stage` runs in
#: lockstep.  A group of g trees holds g stacked oracles at once (~0.9
#: MiB of arrays per tree at n = 100, m = 2500) and pays the terminal
#: search's per-round fixed cost once for all g; groups of 4 reach most
#: of the gain of larger ones (docs/performance.md).
LOCKSTEP_GROUP = 4


def search_stage(
    graph: Graph,
    tree_parents: Sequence[np.ndarray],
    *,
    branching: int,
    decomposition: str,
    ledger: Ledger,
    trees_done: int = 0,
    best: Optional[CutResult] = None,
    on_tree: Optional[Callable[[int, CutResult], None]] = None,
) -> CutResult:
    """The per-query stage: every candidate tree's minimum 2-respecting
    cut (Theorem 4.2), searched in logically-parallel ledger branches.

    The trees are searched in lockstep groups of :data:`LOCKSTEP_GROUP`.
    Each tree charges a :class:`~repro.pram.ledger.LedgerTape`; after
    its group, the tapes are replayed in tree order, each into its own
    branch, so the ledger sees exactly the calls of a tree-by-tree
    search.

    ``trees_done``/``best`` resume a partial search (the first
    ``trees_done`` trees were searched already and ``best`` is their
    minimum); ``on_tree(done, best)`` reports progress after each group.
    """
    with obs.phase("two-respecting", ledger):
        with ledger.parallel() as par:
            for start in range(trees_done, len(tree_parents), LOCKSTEP_GROUP):
                group = tree_parents[start : start + LOCKSTEP_GROUP]
                for _ in group:
                    _checkpoint("mincut.tree")
                tapes = [LedgerTape() for _ in group]
                results = two_respecting_min_cut(
                    graph,
                    np.stack(group),
                    branching=branching,
                    decomposition=decomposition,
                    ledger=tapes,
                )
                for res, tape in zip(results, tapes):
                    with par.branch():
                        tape.replay(ledger, phase=lambda name: obs.phase(name, ledger))
                    if best is None or res.value < best.value:
                        best = res
                if on_tree is not None:
                    on_tree(start + len(group), best)
    assert best is not None  # packing always yields >= 1 tree
    return best


def assemble_result(
    best: CutResult,
    packing_stats: dict,
    lambda_under: float,
    branching: int,
    approx_skipped: bool,
) -> CutResult:
    """Fold the packing statistics and pipeline constants into the best
    candidate's stats (and bump the ``mincut.*`` counters)."""
    reg = obs.counters()
    if reg.enabled:
        reg.add("mincut.trees_tested", packing_stats["num_trees"])
    stats = dict(best.stats)
    stats.update(packing_stats)
    stats.update(
        {
            "lambda_underestimate": float(lambda_under),
            "branching": float(branching),
            "approx_skipped": float(approx_skipped),
        }
    )
    return CutResult(
        value=best.value,
        side=best.side,
        witness_edges=best.witness_edges,
        stats=stats,
    )
