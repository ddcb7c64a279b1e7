"""Per-entry weighted range trees (Lemmas 4.24 and 4.25).

The reference point structures behind ``tests/reference_tworespect.py``:
Python node objects answering one rectangle at a time.  The library runs
only the flattened :class:`repro.kernels.flat2d.FlatRangeTree2D`, which
must match :class:`RangeTree2D` bit for bit — answers, visited-node
counts and ledger charges (``tests/test_kernels_parity.py``).

:class:`RangeTree1D` is a complete tree of degree ``b = Theta(n^eps)``
over the points sorted by key, with per-node weight totals.
Preprocessing is O(m/eps) work and O(log n) depth; a range query touches
O(b) nodes per level over O(1/eps) = O(log_b m) levels, i.e.
O(n^eps / eps) work — the tradeoff that Section 4.3 exploits (b = 2
recovers the classic O(log m) segment tree used for the general-graph
bound of Lemma 4.9).

:class:`RangeTree2D` is a first-level b-ary tree over the points sorted
by x; each internal node carries an auxiliary :class:`RangeTree1D` over
its points sorted by y.  With ``b = Theta(n^eps)``:

* preprocessing: O(m/eps) work, O(log^2 n) depth — each of the O(1/eps)
  x-levels sorts/merges m points and up-sweeps its auxiliary trees;
* query: the canonical cover of [x1, x2] touches O(b) nodes per level
  (O(n^eps/eps) total), each answering a 1-D y-query in O(n^eps/eps)
  work — O(n^{2eps}/eps^2) work and O(log n) depth per query.

Queries return exact sums; *visited node counts* are recorded both on
the instance (``stats``) and on the ledger.  The query paths use Python
lists and :mod:`bisect` rather than numpy: the workload is many scalar
lookups, where numpy's per-call boxing dominates.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Tuple

import numpy as np

from repro.kernels.flat2d import RangeQueryStats
from repro.pram.combinators import log2ceil
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.primitives.sort import parallel_argsort

__all__ = ["RangeTree1D", "RangeTree2D"]


class RangeTree1D:
    """Weighted points on a line; total weight over key intervals.

    Parameters
    ----------
    keys, weights:
        Point coordinates and weights (any order; sorted internally).
    branching:
        Tree degree b >= 2.
    presorted:
        Skip the sort when the caller already provides ascending keys
        (the 2-D structure builds thousands of these from pre-sorted
        slices).
    """

    __slots__ = ("keys", "branching", "levels", "stats", "_depth", "size", "_searchcost")

    def __init__(
        self,
        keys: np.ndarray,
        weights: np.ndarray,
        branching: int = 2,
        ledger: Ledger = NULL_LEDGER,
        *,
        presorted: bool = False,
    ) -> None:
        if branching < 2:
            raise ValueError("branching must be >= 2")
        keys = np.asarray(keys)
        weights = np.asarray(weights, dtype=np.float64)
        if keys.shape != weights.shape:
            raise ValueError("keys/weights length mismatch")
        if not presorted:
            order = parallel_argsort(keys, ledger=ledger)
            keys = keys[order]
            weights = weights[order]
        self.keys: List = keys.tolist()
        self.size = len(self.keys)
        self.branching = int(branching)
        # level 0 = leaf weights; level i+1 = b-ary block sums of level i
        np_levels: List[np.ndarray] = [weights]
        b = self.branching
        while np_levels[-1].shape[0] > 1:
            cur = np_levels[-1]
            pad = (-cur.shape[0]) % b
            if pad:
                cur = np.concatenate([cur, np.zeros(pad)])
            np_levels.append(cur.reshape(-1, b).sum(axis=1))
        self.levels: List[List[float]] = [lv.tolist() for lv in np_levels]
        self._depth = len(self.levels)
        self._searchcost = 2 * log2ceil(max(self.size, 2))
        self.stats = RangeQueryStats()
        # preprocessing charge: up-sweep work = total cells
        ledger.charge(
            work=float(sum(len(lv) for lv in self.levels)),
            depth=float(max(self._depth - 1, 1)),
        )

    # ------------------------------------------------------------------
    def query_value_range(self, lo, hi, ledger: Ledger = NULL_LEDGER) -> float:
        """Total weight of points with key in the *inclusive* [lo, hi]."""
        total, visited = self.counted_value_range(lo, hi)
        ledger.charge(work=float(max(visited, 1)), depth=float(self._depth))
        return total

    def query_index_range(self, l: int, r: int, ledger: Ledger = NULL_LEDGER) -> float:
        """Total weight of points with sorted-index in half-open [l, r)."""
        total, visited = self.counted_index_range(l, r)
        ledger.charge(work=float(max(visited, 1)), depth=float(self._depth))
        return total

    # ------------------------------------------------------------------
    # counted variants: return (sum, nodes_visited) without charging a
    # ledger — used by RangeTree2D, whose auxiliary queries run logically
    # in parallel and must be depth-charged as one batch.
    # ------------------------------------------------------------------
    def counted_value_range(self, lo, hi) -> Tuple[float, int]:
        if self.size == 0 or hi < lo:
            self.stats.queries += 1
            return 0.0, 1
        l = bisect_left(self.keys, lo)
        r = bisect_right(self.keys, hi)
        total, visited = self.counted_index_range(l, r)
        return total, visited + self._searchcost

    def counted_index_range(self, l: int, r: int) -> Tuple[float, int]:
        if l < 0:
            l = 0
        if r > self.size:
            r = self.size
        total = 0.0
        visited = 0
        b = self.branching
        level = 0
        levels = self.levels
        while l < r:
            arr = levels[level]
            while l % b and l < r:
                total += arr[l]
                l += 1
                visited += 1
            while r % b and l < r:
                r -= 1
                total += arr[r]
                visited += 1
            if l >= r:
                break
            l //= b
            r //= b
            level += 1
        stats = self.stats
        stats.queries += 1
        stats.nodes_visited += visited
        return total, visited


class RangeTree2D:
    """Weighted points in the plane; total weight over query rectangles.

    Parameters
    ----------
    xs, ys, ws:
        Point coordinates and weights.
    branching:
        Degree b of the first-level tree and of every auxiliary tree.

    Holds one point set, so the ``tree`` argument of :meth:`query` and
    :meth:`tree_nodes_visited` (the set a :class:`CutOracle` names) is
    always 0.
    """

    __slots__ = (
        "xs",
        "branching",
        "leaf_ys",
        "leaf_ws",
        "aux_levels",
        "stats",
        "_x_depth",
        "size",
    )

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        ws: np.ndarray,
        branching: int = 2,
        ledger: Ledger = NULL_LEDGER,
    ) -> None:
        if branching < 2:
            raise ValueError("branching must be >= 2")
        xs = np.asarray(xs)
        ys = np.asarray(ys)
        ws = np.asarray(ws, dtype=np.float64)
        if not (xs.shape == ys.shape == ws.shape):
            raise ValueError("point array length mismatch")
        order = parallel_argsort(xs, ledger=ledger)
        xs_sorted = xs[order]
        ys_sorted = ys[order]
        ws_sorted = ws[order]
        self.xs: list = xs_sorted.tolist()
        self.leaf_ys: list = ys_sorted.tolist()
        self.leaf_ws: list = ws_sorted.tolist()
        self.size = len(self.xs)
        b = self.branching = int(branching)

        # aux_levels[L][k]: auxiliary 1-D tree of the k-th node at x-level
        # L+1 (blocks of size b**(L+1) leaves).  Level 0 (single leaves)
        # is answered directly from leaf_ys/leaf_ws.  Each level's
        # y-sorted slices are built by per-block sorts, charged at the
        # merge model cost O(m) work / O(log m) depth per level.
        self.aux_levels: List[List[RangeTree1D]] = []
        cur_ys = ys_sorted
        cur_ws = ws_sorted
        block = 1
        while block < max(self.size, 1):
            nxt = block * b
            ny = cur_ys.copy()
            nw = cur_ws.copy()
            nodes: List[RangeTree1D] = []
            for k in range(-(-self.size // nxt)):
                lo, hi = k * nxt, min((k + 1) * nxt, self.size)
                o = np.argsort(ny[lo:hi], kind="stable")
                ny[lo:hi] = ny[lo:hi][o]
                nw[lo:hi] = nw[lo:hi][o]
                nodes.append(
                    RangeTree1D(ny[lo:hi], nw[lo:hi], branching=b, presorted=True)
                )
            self.aux_levels.append(nodes)
            ledger.charge(
                work=float(2 * max(self.size, 1)),
                depth=float(log2ceil(max(self.size, 2))),
            )
            cur_ys, cur_ws = ny, nw
            block = nxt
        self._x_depth = len(self.aux_levels) + 1
        self.stats = RangeQueryStats()

    # ------------------------------------------------------------------
    def query(
        self, x1, x2, y1, y2, ledger: Ledger = NULL_LEDGER, tree: int = 0
    ) -> float:
        """Total weight of points with x in [x1, x2] and y in [y1, y2]
        (all bounds inclusive)."""
        assert tree == 0
        stats = self.stats
        stats.queries += 1
        if self.size == 0 or x2 < x1 or y2 < y1:
            ledger.charge(work=1.0, depth=1.0)
            return 0.0
        l = bisect_left(self.xs, x1)
        r = bisect_right(self.xs, x2)
        total = 0.0
        visited = 2 * log2ceil(max(self.size, 2))
        b = self.branching
        leaf_ys, leaf_ws = self.leaf_ys, self.leaf_ws
        # level 0: single leaves, direct membership test
        while l % b and l < r:
            if y1 <= leaf_ys[l] <= y2:
                total += leaf_ws[l]
            visited += 1
            l += 1
        while r % b and l < r:
            r -= 1
            if y1 <= leaf_ys[r] <= y2:
                total += leaf_ws[r]
            visited += 1
        l //= b
        r //= b
        level = 0
        aux_work = 0
        aux_depth = 0
        while l < r:
            nodes = self.aux_levels[level]
            while l % b and l < r:
                part, vis = nodes[l].counted_value_range(y1, y2)
                total += part
                aux_work += vis
                aux_depth = max(aux_depth, nodes[l]._depth)
                visited += 1
                l += 1
            while r % b and l < r:
                r -= 1
                part, vis = nodes[r].counted_value_range(y1, y2)
                total += part
                aux_work += vis
                aux_depth = max(aux_depth, nodes[r]._depth)
                visited += 1
            if l >= r:
                break
            l //= b
            r //= b
            level += 1
        stats.nodes_visited += visited
        # the auxiliary queries of the canonical nodes run in parallel:
        # depth is the x-descent plus ONE auxiliary query's depth.
        ledger.charge(
            work=float(visited + aux_work), depth=float(self._x_depth + aux_depth)
        )
        return float(total)

    def collect_aux_stats(self) -> RangeQueryStats:
        """Aggregate the visited-node counters of every auxiliary tree
        (the 1-D query work performed inside 2-D queries)."""
        agg = RangeQueryStats()
        for lvl in self.aux_levels:
            for nd in lvl:
                agg.merge(nd.stats)
        return agg

    @property
    def total_nodes_visited(self) -> int:
        """First-level + auxiliary visited nodes across all queries — the
        structural work measure used by experiment E5."""
        return self.stats.nodes_visited + self.collect_aux_stats().nodes_visited

    def tree_nodes_visited(self, tree: int) -> int:
        """:attr:`total_nodes_visited` (the one set is set 0)."""
        assert tree == 0
        return self.total_nodes_visited
