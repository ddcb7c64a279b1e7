"""Per-entry reference for the 2-respecting search (Theorem 4.2).

The library runs only the batched kernels of :mod:`repro.kernels`.  This
module keeps the per-entry formulation they must match bit for bit —
answers, stats counters and every ledger charge:

* :class:`ReferenceCutOracle` — :class:`CutOracle` over the per-entry
  :class:`RangeTree2D` (Python node objects, one scalar query per
  rectangle);
* :func:`reference_two_respecting_min_cut` — the driver with scalar
  loops: a per-edge one-respecting scan, entry-at-a-time SMAWK
  (:func:`triangle_minimum` / :func:`matrix_minimum`) over ``oracle.cut``
  and one :func:`deepest_on_interest_path` search per edge and
  predicate.

``tests/test_kernels_parity.py`` compares the library against it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro import obs
from repro.graphs.graph import Graph
from repro.monge.partial import triangle_minimum
from repro.monge.smawk import matrix_minimum
from repro.pram.combinators import log2ceil
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.primitives.euler import RootedTree, postorder
from repro.rangesearch.cutqueries import CutOracle
from repro.rangesearch.tree2d import RangeTree2D
from repro.results import CutResult
from repro.trees.binary import binarize_parent
from repro.trees.centroid import (
    CentroidDecomposition,
    centroid_decomposition,
    deepest_on_interest_path,
)
from repro.trees.paths import (
    PathDecomposition,
    bough_decomposition,
    heavy_path_decomposition,
)
from repro.trees.rootpaths import RootPaths
from repro.tworespect.path_pairs import collect_interest_tuples, group_interested_pairs

__all__ = ["ReferenceCutOracle", "reference_two_respecting_min_cut"]


class _OneSetRangeTree2D(RangeTree2D):
    """:class:`RangeTree2D` answering :class:`CutOracle`'s scalar calls,
    which name their point set (always set 0 here)."""

    def query(self, x1, x2, y1, y2, ledger: Ledger = NULL_LEDGER, tree: int = 0) -> float:
        assert tree == 0
        return super().query(x1, x2, y1, y2, ledger=ledger)

    def tree_nodes_visited(self, tree: int) -> int:
        assert tree == 0
        return self.total_nodes_visited


class ReferenceCutOracle(CutOracle):
    """:class:`CutOracle` over the per-entry :class:`RangeTree2D`.

    Only the scalar queries are meaningful: the point structure has no
    ``query_many``/``query_pair_x``, so ``down_cost`` issues its two
    rectangles as separate queries.
    """

    def __init__(
        self,
        graph: Graph,
        tree: RootedTree,
        branching: int = 2,
        ledger: Ledger = NULL_LEDGER,
    ) -> None:
        self.graph = graph
        self.tree = tree
        px = tree.post[graph.u]
        py = tree.post[graph.v]
        self.points = _OneSetRangeTree2D(
            np.concatenate([px, py]),
            np.concatenate([py, px]),
            np.concatenate([graph.w, graph.w]),
            branching=branching,
            ledger=ledger,
        )
        self.index = 0
        self._nb = tree.n
        self._cost_cache = np.full(tree.n, np.nan)
        ledger.charge(work=float(2 * graph.m + tree.n), depth=float(log2ceil(max(tree.n, 2))))

    def down_cost(self, u: int, v: int, ledger: Ledger = NULL_LEDGER) -> float:
        t = self.tree
        su, pu = int(t.start(u)), int(t.post[u])
        sv, pv = int(t.start(v)), int(t.post[v])
        return self.points.query(su, pu, 0, sv - 1, ledger=ledger) + self.points.query(
            su, pu, pv + 1, self._nb - 1, ledger=ledger
        )


def _single_path_minimum(
    oracle: CutOracle, dec: PathDecomposition, ledger: Ledger
) -> Tuple[float, int, int]:
    best: Tuple[float, int, int] = (float("inf"), -1, -1)
    with ledger.parallel() as par:
        for arr in dec.paths:
            if arr.shape[0] < 2:
                continue
            with par.branch():
                labels = [int(x) for x in arr]
                ell_log = log2ceil(len(labels)) + 1
                with ledger.batch(depth=ell_log * (ell_log + oracle.query_depth)):
                    val, a, b = triangle_minimum(
                        labels,
                        lambda x, y: oracle.cut(x, y, ledger=ledger),
                        ledger=ledger,
                        inverse=True,
                    )
                if val < best[0]:
                    best = (val, a, b)
    return best


def _find_interest_terminals(
    oracle: CutOracle, cd: CentroidDecomposition, ledger: Ledger
) -> Tuple[np.ndarray, np.ndarray]:
    tree = oracle.tree
    c_e = np.full(tree.n, -1, dtype=np.int64)
    d_e = np.full(tree.n, -1, dtype=np.int64)
    root = tree.root
    with ledger.parallel() as par:
        for u in range(tree.n):
            if tree.parent[u] < 0:
                continue
            with par.branch():
                c_e[u] = deepest_on_interest_path(
                    tree,
                    cd,
                    top=root,
                    member=lambda x, _u=u: x == root
                    or oracle.cross_interested(_u, x, ledger=ledger),
                    ledger=ledger,
                )
                d_e[u] = deepest_on_interest_path(
                    tree,
                    cd,
                    top=u,
                    member=lambda x, _u=u: x == _u
                    or oracle.down_interested(_u, x, ledger=ledger),
                    ledger=ledger,
                )
    return c_e, d_e


def _path_pair_minimum(
    oracle: CutOracle,
    dec: PathDecomposition,
    pairs: Dict[Tuple[int, int], Tuple[List[int], List[int]]],
    ledger: Ledger,
) -> Tuple[float, int, int]:
    tree = oracle.tree
    best: Tuple[float, int, int] = (float("inf"), -1, -1)

    def lookup(a: int, b: int) -> float:
        return oracle.cut(a, b, ledger=ledger)

    def nested(e: int, head: int) -> bool:
        return tree.is_ancestor(e, head) and e != head

    with ledger.parallel() as par:
        for (p, q), (r, s) in pairs.items():
            with par.branch():
                r_sorted = sorted(set(r), key=lambda e: dec.index_in_path[e])
                s_sorted = sorted(set(s), key=lambda e: dec.index_in_path[e])
                hp, hq = dec.head(p), dec.head(q)
                r_anc = [e for e in r_sorted if nested(e, hq)]
                r_non = [e for e in r_sorted if not nested(e, hq)]
                s_anc = [f for f in s_sorted if nested(f, hp)]
                s_non = [f for f in s_sorted if not nested(f, hp)]
                blocks = []
                if r_anc and s_sorted:
                    blocks.append((r_anc, s_sorted[::-1]))
                if s_anc and r_non:
                    blocks.append((r_non, s_anc[::-1]))
                if r_non and s_non:
                    blocks.append((r_non, s_non))
                for rows, cols in blocks:
                    ell_log = log2ceil(len(rows) + len(cols)) + 1
                    with ledger.batch(depth=ell_log * oracle.query_depth):
                        val, a, b = matrix_minimum(rows, cols, lookup, ledger=ledger)
                    if val < best[0]:
                        best = (val, a, b)
    return best


def reference_two_respecting_min_cut(
    graph: Graph,
    tree_parent: np.ndarray,
    *,
    branching: int = 2,
    decomposition: str = "heavy",
    ledger: Ledger = NULL_LEDGER,
) -> CutResult:
    """:func:`repro.tworespect.two_respecting_min_cut` with every stage
    evaluated one entry at a time, under the same phase names."""
    tree_parent = np.asarray(tree_parent, dtype=np.int64)
    with obs.phase("binarize+postorder", ledger):
        bt = binarize_parent(tree_parent, ledger=ledger)
        rt = postorder(bt.parent, ledger=ledger)
    with obs.phase("oracle-build", ledger):
        oracle = ReferenceCutOracle(graph, rt, branching=branching, ledger=ledger)
        oracle.prefill_costs(ledger=ledger)

    best: Tuple[float, int, int] = (float("inf"), -1, -1)
    with obs.phase("one-respecting", ledger):
        with ledger.parallel() as par:
            for u in range(rt.n):
                if rt.parent[u] < 0:
                    continue
                with par.branch():
                    val = oracle.cost(u, ledger=ledger)
                    if val < best[0]:
                        best = (val, u, u)

    with obs.phase("decompose", ledger):
        dec_fn = heavy_path_decomposition if decomposition == "heavy" else bough_decomposition
        dec = dec_fn(rt, ledger=ledger)
        rootpaths = RootPaths.build(rt, dec, ledger=ledger)
    with obs.phase("single-path", ledger):
        val, a, b = _single_path_minimum(oracle, dec, ledger)
        if val < best[0]:
            best = (val, a, b)

    with obs.phase("centroid", ledger):
        cd = centroid_decomposition(rt, ledger=ledger)
    with obs.phase("interest-terminals", ledger):
        c_e, d_e = _find_interest_terminals(oracle, cd, ledger)
    with obs.phase("interest-tuples", ledger):
        tuples = collect_interest_tuples(rootpaths, c_e, d_e, ledger=ledger)
        pairs = group_interested_pairs(tuples, ledger=ledger)
    with obs.phase("path-pairs", ledger):
        val, a, b = _path_pair_minimum(oracle, dec, pairs, ledger)
        if val < best[0]:
            best = (val, a, b)

    value, eu, ev = best
    return CutResult(
        value=float(value),
        side=oracle.cut_side_mask(eu, ev),
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
