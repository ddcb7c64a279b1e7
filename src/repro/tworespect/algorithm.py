"""Theorem 4.2: the parallel minimum 2-respecting cut of one tree.

Given graph G and a spanning tree T (parent-array over G's vertices),
find the minimum-weight cut of G that cuts at most two edges of T:

1. binarize T (Section 4.1.3 WLOG) and number it in postorder;
2. build the cut-query oracle (Lemma A.1) with the requested range-tree
   branching (2 for the O(m log m + n log^3 n)-work general bound,
   ~n^eps for the Section 4.3 dense-graph bound);
3. the 1-respecting minimum: cost(e) over all tree edges;
4. the single-path case over a Property-4.3 decomposition (Lemma 4.6);
5. the distinct-path case via interest terminals, tuples, and per-pair
   SMAWK (Lemma 4.17).

All stages charge the shared ledger; the oracle's structural visit
counters land in ``CutResult.stats``.
"""

from __future__ import annotations

from typing import Literal, Tuple

import numpy as np

from repro import obs
from repro.errors import GraphFormatError
from repro.graphs.graph import Graph
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.resilience.budget import checkpoint as _checkpoint
from repro.primitives.euler import postorder
from repro.rangesearch.cutqueries import CutOracle
from repro.results import CutResult
from repro.trees.binary import binarize_parent
from repro.trees.centroid import centroid_decomposition
from repro.trees.paths import bough_decomposition, heavy_path_decomposition
from repro.trees.rootpaths import RootPaths
from repro.tworespect.path_pairs import (
    collect_interest_tuples,
    find_interest_terminals,
    group_interested_pairs,
    path_pair_minimum,
)
from repro.tworespect.single_path import single_path_minimum

__all__ = ["two_respecting_min_cut"]


def two_respecting_min_cut(
    graph: Graph,
    tree_parent: np.ndarray,
    *,
    branching: int = 2,
    decomposition: Literal["heavy", "bough"] = "heavy",
    ledger: Ledger = NULL_LEDGER,
) -> CutResult:
    """Minimum cut of ``graph`` 2-respecting the tree ``tree_parent``.

    Parameters
    ----------
    graph:
        Weighted undirected graph (need not be connected beyond the
        tree's span, but the tree must span all its vertices).
    tree_parent:
        Parent array of a spanning tree of ``graph`` (root = -1 entry).
    branching:
        Range-tree degree; see Section 4.3 (``max(2, round(n**eps))``).
    decomposition:
        Path decomposition flavour; both satisfy Property 4.3.

    Returns
    -------
    CutResult with the optimal value, side mask, witness tree edges, and
    oracle statistics.
    """
    tree_parent = np.asarray(tree_parent, dtype=np.int64)
    if tree_parent.shape[0] != graph.n:
        raise GraphFormatError("tree must span the graph's vertex set")
    if graph.n < 2:
        raise GraphFormatError("need at least two vertices")

    _checkpoint("two_respecting.start")
    with obs.phase("binarize+postorder", ledger):
        bt = binarize_parent(tree_parent, ledger=ledger)
        rt = postorder(bt.parent, ledger=ledger)
    with obs.phase("oracle-build", ledger):
        oracle = CutOracle(graph, rt, branching=branching, ledger=ledger)
        oracle.prefill_costs(ledger=ledger)

    # --- 1-respecting cuts: every tree edge alone -------------------------
    _checkpoint("two_respecting.one_respecting")
    with obs.phase("one-respecting", ledger):
        # the cache is prefilled, so a per-edge scan would charge one
        # (1, 1) cache hit per branch and reduces to an argmin
        # (np.argmin's first-minimum tie-break matches an ascending
        # `val < best` scan).  One branch charging (#edges, 1) leaves the
        # parallel frame in the identical state.
        val, u = oracle.cost_argmin()
        best: Tuple[float, int, int] = (val, u, u)
        with ledger.parallel() as par:
            with par.branch():
                ledger.charge(work=float(rt.n - 1), depth=1.0)

    # --- same-path pairs ---------------------------------------------------
    _checkpoint("two_respecting.single_path")
    with obs.phase("decompose", ledger):
        dec_fn = heavy_path_decomposition if decomposition == "heavy" else bough_decomposition
        dec = dec_fn(rt, ledger=ledger)
        rootpaths = RootPaths.build(rt, dec, ledger=ledger)
    with obs.phase("single-path", ledger):
        val, a, b = single_path_minimum(oracle, dec, ledger=ledger)
        if val < best[0]:
            best = (val, a, b)

    # --- distinct-path pairs -------------------------------------------------
    _checkpoint("two_respecting.path_pairs")
    with obs.phase("centroid", ledger):
        cd = centroid_decomposition(rt, ledger=ledger)
    with obs.phase("interest-terminals", ledger):
        c_e, d_e = find_interest_terminals(oracle, cd, ledger=ledger)
    with obs.phase("interest-tuples", ledger):
        tuples = collect_interest_tuples(rootpaths, c_e, d_e, ledger=ledger)
        pairs = group_interested_pairs(tuples, ledger=ledger)
    with obs.phase("path-pairs", ledger):
        val, a, b = path_pair_minimum(oracle, dec, pairs, ledger=ledger)
        if val < best[0]:
            best = (val, a, b)

    value, eu, ev = best
    side = oracle.cut_side_mask(eu, ev)
    # normalise: a cut side must be a proper subset of the *real* vertices
    if side.all() or not side.any():  # pragma: no cover - defensive
        raise GraphFormatError("degenerate 2-respecting side mask")
    reg = obs.counters()
    if reg.enabled:
        reg.add("tworespect.trees")
        reg.add("oracle.nodes_visited", float(oracle.total_nodes_visited))
        reg.add("oracle.queries", float(oracle.points.stats.queries))
        reg.add("tworespect.interest_tuples", float(len(tuples)))
        reg.add("tworespect.interested_pairs", float(len(pairs)))
    return CutResult(
        value=float(value),
        side=side,
        witness_edges=(int(eu), int(ev)),
        stats={
            "oracle_nodes_visited": float(oracle.total_nodes_visited),
            "oracle_queries": float(oracle.points.stats.queries),
            "num_paths": float(dec.num_paths),
            "num_interest_tuples": float(len(tuples)),
            "num_interested_pairs": float(len(pairs)),
            "tree_size_binarized": float(rt.n),
        },
    )
