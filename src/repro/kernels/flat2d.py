"""Flattened CSR-style 2-D range tree with batched NumPy traversal.

The range tree of Lemma 4.25, matching the per-entry ``RangeTree2D``
of ``tests/reference_rangetree.py``: the same first-level b-ary tree
over x with per-node auxiliary 1-D trees over y, but stored as a
handful of flat arrays instead of ~n log n Python node objects:

* ``YS_ALL``  — every x-level's y-sorted keys, concatenated;
* ``AUX[j]``  — for every auxiliary depth j, the level-j cell arrays of
  *all* auxiliary trees (all x-levels, node-major), concatenated;
* per-x-level offset/size tables that turn (x-level, node, depth, index)
  into one flat position.

One instance holds a *stack* of k point sets of the same size (k = 1
for a single set).  Every set of one size has the same x-levels and the
same auxiliary shapes, so the per-level tables are shared; only the
key, weight and cell arrays repeat, set-major, with a fixed per-set
stride.  Every query names its set (``tree``); stats counters are kept
per set.  The 2-respecting search stacks the oracles of a group of
packed trees this way, so one batched query can mix the trees' rows.

The parity contract (see :mod:`repro.kernels`): answers are
**bit-identical** to the reference — every query folds exactly the cells
the reference visits, in exactly the reference order (left-side cells
ascending, right-side cells descending, one independent partial per
auxiliary node, partials folded in x-descent order) — and visited-node
counts, stats counters and ledger charge amounts are identical.  A set
answers identically whether it is stacked or alone.

:meth:`query` is a scalar port of the reference loops over the flat
arrays.  :meth:`query_many` answers a whole array of rectangles at once:
the x-descent and the auxiliary binary searches/folds run as masked
NumPy rounds across all queries simultaneously, so the per-query Python
overhead disappears.  Construction is also vectorised: each x-level's
per-node stable y-sorts and b-ary up-sweeps are single reshaped NumPy
operations over every node of every set (identical additions in
identical order), ~20x faster than building the node objects.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.obs.counters import counters
from repro.pram.combinators import log2ceil
from repro.pram.ledger import Ledger, NULL_LEDGER

__all__ = ["FlatRangeTree2D", "RangeQueryStats"]


@dataclass
class RangeQueryStats:
    """Structural work counters for range structures."""

    queries: int = 0
    nodes_visited: int = 0

    def merge(self, other: "RangeQueryStats") -> None:
        self.queries += other.queries
        self.nodes_visited += other.nodes_visited


#: Single-set batch sizes at or below this answer
#: :meth:`FlatRangeTree2D.query_many` with a scalar loop.  Scalar queries
#: measure 20-40us per rectangle on the 2-respecting search's trees
#: (m ~ 2000), and the vectorized rounds already win from ~50-100
#: rectangles there; the cutoff has not been retuned since.  Affects
#: wall-clock only, never parity.
_SCALAR_BATCH_CUTOFF = 192

#: Longer batches run the vectorized traversal this many rectangles at a
#: time, which bounds its temporaries (a lockstep round of the terminal
#: search can ask ~10k rectangles).  Affects memory and wall-clock only.
_VECTOR_CHUNK = 1024


class _ChargeRecorder:
    """Captures the single (work, depth) charge of one scalar query."""

    __slots__ = ("work", "depth")

    def charge(self, work: float, depth: float = 1.0) -> None:
        self.work = work
        self.depth = depth


def _chain_sizes(s: int, b: int) -> List[int]:
    """Level sizes of a 1-D tree over ``s`` cells: s, ceil(s/b), ..., 1."""
    sizes = [s]
    while sizes[-1] > 1:
        sizes.append(-(-sizes[-1] // b))
    return sizes


def _chain_levels(mat: np.ndarray, b: int) -> List[np.ndarray]:
    """Per-node up-sweep, vectorised over the rows (= nodes) of ``mat``.

    Row-major reshape keeps every b-block inside one row, so the
    additions are the same ones the reference performs per node.
    """
    levels = [mat]
    while levels[-1].shape[1] > 1:
        cur = levels[-1]
        pad = (-cur.shape[1]) % b
        if pad:
            cur = np.concatenate(
                [cur, np.zeros((cur.shape[0], pad), dtype=cur.dtype)], axis=1
            )
        levels.append(cur.reshape(cur.shape[0], -1, b).sum(axis=2))
    return levels


class FlatRangeTree2D:
    """Query-compatible flat replacement for ``RangeTree2D``, over a
    stack of same-size point sets.

    ``xs``, ``ys``, ``ws`` are 1-D (one set) or 2-D ``(k, size)`` (row i
    is set i).  ``ledger`` is charged each set's build, in set order —
    exactly what a one-set build of that set charges (see
    :meth:`charge_build`).
    """

    __slots__ = (
        "size",
        "k",
        "branching",
        "tree_stats",
        "tree_aux_stats",
        "_x_depth",
        "xs_np",
        "leaf_ys_np",
        "leaf_ws_np",
        "YS_ALL",
        "AUX",
        "_ys_stride",
        "_aux_stride",
        "_aux_stride_py",
        "_mirror_tree",
        "_mirrors",
        "_xs_mv",
        "_leaf_ys_mv",
        "_leaf_ws_mv",
        "_ys_mv",
        "_aux_mv",
        "_nxt_py",
        "_kfull_py",
        "_ysbase_py",
        "_dfull_py",
        "_dtail_py",
        "_scfull_py",
        "_sctail_py",
        "_auxbase_py",
        "_sfull_py",
        "_int_keys",
        "_nxt",
        "_kfull",
        "_tail",
        "_ysbase",
        "_dfull",
        "_dtail",
        "_scfull",
        "_sctail",
        "_auxbase",
        "_sfull",
        "_num_levels",
        "_max_aux_depth",
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
        if xs.ndim not in (1, 2):
            raise ValueError("points must be one set (1-D) or a stack (2-D)")
        xs2 = xs.reshape(1, -1) if xs.ndim == 1 else xs
        ys2 = ys.reshape(xs2.shape)
        ws2 = ws.reshape(xs2.shape)
        k, size = xs2.shape
        if k < 1:
            raise ValueError("a stack needs at least one point set")
        # stable per-set x-sort (row-wise argsort == the one-set argsort)
        order = np.argsort(xs2, axis=1, kind="stable")
        sx = np.take_along_axis(xs2, order, axis=1)
        cur_ys = np.take_along_axis(ys2, order, axis=1)
        cur_ws = np.take_along_axis(ws2, order, axis=1)
        self.xs_np = sx.ravel()
        self.leaf_ys_np = cur_ys.ravel()
        self.leaf_ws_np = cur_ws.ravel()
        self.size = int(size)
        self.k = int(k)
        b = self.branching = int(branching)

        # pass 1, shapes only: the per-x-level tables and every cell
        # array's length, so pass 2 writes each level straight into its
        # final place (no per-level chunks to concatenate, whose copy
        # would double the build's peak memory)
        nxt_l: List[int] = []
        kfull_l: List[int] = []
        tail_l: List[int] = []
        ysbase_l: List[int] = []
        dfull_l: List[int] = []
        dtail_l: List[int] = []
        scfull_l: List[int] = []
        sctail_l: List[int] = []
        sfull_l: List[List[int]] = []
        # auxbase[L][j] is the offset of x-level L's depth-j region inside
        # one set's stride of AUX[j]; aux_sizes[j] is that stride.
        aux_sizes: List[int] = []
        auxbase_l: List[List[int]] = []
        ys_total = 0
        block = 1
        while block < max(size, 1):
            nxt = block * b
            k_full = size // nxt
            tail = size - k_full * nxt
            full_sizes = _chain_sizes(nxt, b)
            tail_sizes = _chain_sizes(tail, b) if tail else []
            d_full = len(full_sizes)
            d_tail = len(tail_sizes)
            bases: List[int] = []
            for j in range(max(d_full if k_full else 0, d_tail)):
                while len(aux_sizes) <= j:
                    aux_sizes.append(0)
                bases.append(aux_sizes[j])
                if k_full and j < d_full:
                    aux_sizes[j] += k_full * full_sizes[j]
                if tail and j < d_tail:
                    aux_sizes[j] += tail_sizes[j]
            nxt_l.append(nxt)
            kfull_l.append(k_full)
            tail_l.append(tail)
            ysbase_l.append(ys_total)
            dfull_l.append(d_full)
            dtail_l.append(d_tail if tail else 0)
            scfull_l.append(2 * log2ceil(max(nxt, 2)))
            sctail_l.append(2 * log2ceil(max(tail, 2)) if tail else 0)
            sfull_l.append(full_sizes)
            auxbase_l.append(bases)
            ys_total += size
            block = nxt

        # pass 2: per x-level, every node of every set stably y-sorted at
        # once, and the b-ary up-sweeps of every node at once
        ys_all = np.empty((k, ys_total), dtype=ys.dtype)
        aux_all = [np.empty((k, s), dtype=np.float64) for s in aux_sizes]
        for L, nxt in enumerate(nxt_l):
            k_full = kfull_l[L]
            tail = tail_l[L]
            split = k_full * nxt
            ny = ys_all[:, L * size : (L + 1) * size]
            ny[...] = cur_ys
            nw = cur_ws.copy()
            if k_full:
                # every full node of every set is one row
                ym = ny[:, :split].reshape(k * k_full, nxt)
                o = np.argsort(ym, axis=1, kind="stable")
                ny[:, :split] = np.take_along_axis(ym, o, axis=1).reshape(k, split)
                nw[:, :split] = np.take_along_axis(
                    nw[:, :split].reshape(k * k_full, nxt), o, axis=1
                ).reshape(k, split)
            if tail:
                o = np.argsort(ny[:, split:], axis=1, kind="stable")
                ny[:, split:] = np.take_along_axis(ny[:, split:], o, axis=1)
                nw[:, split:] = np.take_along_axis(nw[:, split:], o, axis=1)
            if k_full:
                levels = _chain_levels(nw[:, :split].reshape(k * k_full, nxt), b)
                for j, arr in enumerate(levels):
                    base = auxbase_l[L][j]
                    aux_all[j][:, base : base + arr.size // k] = arr.reshape(k, -1)
            if tail:
                levels = _chain_levels(nw[:, split:], b)
                for j, arr in enumerate(levels):
                    base = auxbase_l[L][j] + k_full * sfull_l[L][j]
                    aux_all[j][:, base : base + arr.shape[1]] = arr
            cur_ys, cur_ws = ny, nw

        nl = len(nxt_l)
        self._num_levels = nl
        self._x_depth = nl + 1
        self.YS_ALL = ys_all.ravel()
        self._ys_stride = ys_total
        self.AUX = [a.ravel() for a in aux_all]
        self._aux_stride_py = list(aux_sizes)
        self._aux_stride = np.asarray(aux_sizes, dtype=np.int64)
        self._max_aux_depth = len(self.AUX)
        self._int_keys = bool(np.issubdtype(self.YS_ALL.dtype, np.integer))
        self._nxt = np.asarray(nxt_l, dtype=np.int64)
        self._kfull = np.asarray(kfull_l, dtype=np.int64)
        self._tail = np.asarray(tail_l, dtype=np.int64)
        self._ysbase = np.asarray(ysbase_l, dtype=np.int64)
        self._dfull = np.asarray(dfull_l, dtype=np.int64)
        self._dtail = np.asarray(dtail_l, dtype=np.int64)
        self._scfull = np.asarray(scfull_l, dtype=np.int64)
        self._sctail = np.asarray(sctail_l, dtype=np.int64)
        auxbase = np.full((max(nl, 1), max(self._max_aux_depth, 1)), -1, dtype=np.int64)
        sfull = np.zeros((max(nl, 1), max(self._max_aux_depth, 1)), dtype=np.int64)
        for L in range(nl):
            for j, base in enumerate(auxbase_l[L]):
                auxbase[L, j] = base
            for j, s in enumerate(sfull_l[L]):
                sfull[L, j] = s
        self._auxbase = auxbase
        self._sfull = sfull
        # plain-int tables for the scalar path (numpy scalar indexing
        # would dominate a per-entry query)
        self._nxt_py = nxt_l
        self._kfull_py = kfull_l
        self._ysbase_py = ysbase_l
        self._dfull_py = dfull_l
        self._dtail_py = [d if t else 0 for d, t in zip(dtail_l, tail_l)]
        self._scfull_py = scfull_l
        self._sctail_py = sctail_l
        self._auxbase_py = auxbase_l
        self._sfull_py = sfull_l
        self._clear_mirrors()
        self.tree_stats = [RangeQueryStats() for _ in range(self.k)]
        self.tree_aux_stats = [RangeQueryStats() for _ in range(self.k)]
        for _ in range(self.k):
            self.charge_build(ledger)

    def charge_build(self, ledger: Ledger) -> None:
        """Charge one set's build: the x-sort, then the reference's
        per-level merge (its per-node RangeTree1D builds go to
        NULL_LEDGER).  Depends only on the size and the branching, so
        every set of a stack charges the same sequence."""
        size = max(self.size, 1)
        depth = float(log2ceil(max(self.size, 2)))
        ledger.charge(work=float(size), depth=depth)
        for _ in range(self._num_levels):
            ledger.charge(work=float(2 * size), depth=depth)

    # ------------------------------------------------------------------
    # scalar mirrors and pickling
    # ------------------------------------------------------------------
    # The scalar path reads a set through zero-copy memoryview slices of
    # its keys, weights and cells (a memoryview read gives a Python int
    # or float, exact, so reads and slice sums are bit-identical to the
    # ndarray's).  Each set's slices are built once, on its first scalar
    # query, and switching sets swaps them in O(1): the SMAWK scheduler's
    # scalar rounds mix a group's trees entry by entry.  On one set a
    # scalar cut costs ~12.5 us either way; cycling over four sets cost
    # 51-56 us per cut with key lists rebuilt per switch, 13 us with the
    # views (cut-sparse grid, 2-vCPU host).
    # Mirrors are pure caches: they are dropped from the pickled state
    # and rebuilt on the first scalar query.  Unpickling restores every
    # ndarray slot as is, so no sort or level build reruns in the worker.
    _MIRROR_SLOTS = (
        "_mirror_tree",
        "_mirrors",
        "_xs_mv",
        "_leaf_ys_mv",
        "_leaf_ws_mv",
        "_ys_mv",
        "_aux_mv",
        "tree_stats",
        "tree_aux_stats",
    )

    def __getstate__(self) -> dict:
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in self._MIRROR_SLOTS
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self._clear_mirrors()
        self.tree_stats = [RangeQueryStats() for _ in range(self.k)]
        self.tree_aux_stats = [RangeQueryStats() for _ in range(self.k)]

    def _clear_mirrors(self) -> None:
        self._mirror_tree = -1
        self._mirrors: List[Optional[tuple]] = [None] * self.k
        self._xs_mv = self._leaf_ys_mv = self._leaf_ws_mv = None
        self._ys_mv = self._aux_mv = None

    def _scalar_mirrors(self, tree: int) -> None:
        """Point the scalar mirrors at set ``tree`` (no-op if they are)."""
        if self._mirror_tree == tree:
            return
        views = self._mirrors[tree]
        if views is None:
            lo = tree * self.size
            hi = lo + self.size
            ys = self._ys_stride
            views = self._mirrors[tree] = (
                memoryview(self.xs_np)[lo:hi],
                memoryview(self.leaf_ys_np)[lo:hi],
                memoryview(self.leaf_ws_np)[lo:hi],
                memoryview(self.YS_ALL)[tree * ys : (tree + 1) * ys],
                [
                    memoryview(a)[tree * s : (tree + 1) * s]
                    for a, s in zip(self.AUX, self._aux_stride_py)
                ],
            )
        (
            self._xs_mv,
            self._leaf_ys_mv,
            self._leaf_ws_mv,
            self._ys_mv,
            self._aux_mv,
        ) = views
        self._mirror_tree = tree

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    @property
    def stats(self) -> RangeQueryStats:
        """First-level counters summed over the stack's sets."""
        agg = RangeQueryStats()
        for st in self.tree_stats:
            agg.merge(st)
        return agg

    def collect_aux_stats(self) -> RangeQueryStats:
        """Aggregate auxiliary-tree counters (flat arrays keep one shared
        aggregate per set instead of per-node counters; totals are
        identical)."""
        agg = RangeQueryStats()
        for st in self.tree_aux_stats:
            agg.merge(st)
        return agg

    @property
    def total_nodes_visited(self) -> int:
        """First-level + auxiliary visited nodes across all queries."""
        return self.stats.nodes_visited + self.collect_aux_stats().nodes_visited

    def tree_nodes_visited(self, tree: int) -> int:
        """First-level + auxiliary visited nodes of set ``tree``'s queries."""
        return (
            self.tree_stats[tree].nodes_visited
            + self.tree_aux_stats[tree].nodes_visited
        )

    # ------------------------------------------------------------------
    # scalar query (port of RangeTree2D.query over flat arrays)
    # ------------------------------------------------------------------
    def _aux_scalar(self, level: int, node: int, y1, y2) -> Tuple[float, int, int]:
        """One auxiliary 1-D query on the mirrored set:
        ``(partial, visited, node_depth)``."""
        nxt = self._nxt_py[level]
        lo = node * nxt
        hi = lo + nxt
        if hi > self.size:
            hi = self.size
        s = hi - lo
        kfull = self._kfull_py[level]
        is_tail = node >= kfull
        d = self._dtail_py[level] if is_tail else self._dfull_py[level]
        st = self.tree_aux_stats[self._mirror_tree]
        st.queries += 1
        if s == 0 or y2 < y1:
            return 0.0, 1, d
        base = self._ysbase_py[level] + lo
        ys_all = self._ys_mv
        l = bisect_left(ys_all, y1, base, base + s) - base
        r = bisect_right(ys_all, y2, base, base + s) - base
        b = self.branching
        total = 0.0
        cells = 0
        aux = self._aux_mv
        bases = self._auxbase_py[level]
        sfull = self._sfull_py[level]
        nodeoff = kfull if is_tail else node
        j = 0
        while l < r:
            lst = aux[j]
            off = bases[j] + nodeoff * sfull[j]
            lm = l % b
            if lm:
                lend = l - lm + b
                if lend > r:
                    lend = r
                k = lend - l
                if k > 4:
                    # left-to-right fold of the same cells: sum() with a
                    # float start accumulates sequentially, bit-identical
                    # to the item-by-item loop
                    total = sum(lst[off + l : off + lend], total)
                else:
                    for p in range(off + l, off + lend):
                        total += lst[p]
                cells += k
                l = lend
            rm = r % b
            if rm and l < r:
                rnew = r - rm
                if rnew < l:
                    rnew = l
                k = r - rnew
                if k > 4:
                    total = sum(lst[off + rnew : off + r][::-1], total)
                else:
                    for p in range(off + r - 1, off + rnew - 1, -1):
                        total += lst[p]
                cells += k
                r = rnew
            if l >= r:
                break
            l //= b
            r //= b
            j += 1
        st.nodes_visited += cells
        sc = self._sctail_py[level] if is_tail else self._scfull_py[level]
        return total, cells + sc, d

    def query(
        self, x1, x2, y1, y2, ledger: Ledger = NULL_LEDGER, tree: int = 0
    ) -> float:
        """Total weight of set ``tree``'s points with x in [x1, x2], y in
        [y1, y2]."""
        stats = self.tree_stats[tree]
        stats.queries += 1
        if self.size == 0 or x2 < x1 or y2 < y1:
            ledger.charge(work=1.0, depth=1.0)
            return 0.0
        self._scalar_mirrors(tree)
        l = bisect_left(self._xs_mv, x1)
        r = bisect_right(self._xs_mv, x2)
        total = 0.0
        visited = 2 * log2ceil(max(self.size, 2))
        b = self.branching
        leaf_ys, leaf_ws = self._leaf_ys_mv, self._leaf_ws_mv
        set_lo = tree * self.size
        if l % b:
            lend = min(r, l - l % b + b)
            k = lend - l
            if k > 4:
                seg = self.leaf_ys_np[set_lo + l : set_lo + lend]
                take = (y1 <= seg) & (seg <= y2)
                total = sum(
                    self.leaf_ws_np[set_lo + l : set_lo + lend][take].tolist(), total
                )
                visited += k
                l = lend
            else:
                while l < lend:
                    if y1 <= leaf_ys[l] <= y2:
                        total += leaf_ws[l]
                    visited += 1
                    l += 1
        if r % b and l < r:
            rnew = max(l, r - r % b)
            k = r - rnew
            if k > 4:
                seg = self.leaf_ys_np[set_lo + rnew : set_lo + r]
                take = (y1 <= seg) & (seg <= y2)
                total = sum(
                    self.leaf_ws_np[set_lo + rnew : set_lo + r][take].tolist()[::-1],
                    total,
                )
                visited += k
                r = rnew
            else:
                while r > rnew:
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
            while l % b and l < r:
                part, vis, d = self._aux_scalar(level, l, y1, y2)
                total += part
                aux_work += vis
                aux_depth = max(aux_depth, d)
                visited += 1
                l += 1
            while r % b and l < r:
                r -= 1
                part, vis, d = self._aux_scalar(level, r, y1, y2)
                total += part
                aux_work += vis
                aux_depth = max(aux_depth, d)
                visited += 1
            if l >= r:
                break
            l //= b
            r //= b
            level += 1
        stats.nodes_visited += visited
        ledger.charge(
            work=float(visited + aux_work), depth=float(self._x_depth + aux_depth)
        )
        return float(total)

    def query_pair_x(
        self,
        x1,
        x2,
        ya1,
        ya2,
        yb1,
        yb2,
        ledger: Ledger = NULL_LEDGER,
        tree: int = 0,
    ) -> Tuple[float, float]:
        """Two scalar queries on set ``tree`` sharing one x-range, one
        x-descent.

        Returns ``(total_a, total_b)`` for rectangles
        ``[x1,x2] x [ya1,ya2]`` and ``[x1,x2] x [yb1,yb2]``; answers,
        ledger charges (one per rectangle, a then b) and stats advances
        are identical to two back-to-back :meth:`query` calls — the
        canonical x-decomposition is the same for both, so it is walked
        once.  ``down_cost`` is the intended caller: its two rectangles
        always share the subtree's x-span.
        """
        ea = self.size == 0 or x2 < x1 or ya2 < ya1
        eb = self.size == 0 or x2 < x1 or yb2 < yb1
        if ea or eb:
            # a degenerate side charges (1, 1); keep the reference call
            # sequence rather than special-casing the fused walk
            va = self.query(x1, x2, ya1, ya2, ledger=ledger, tree=tree)
            vb = self.query(x1, x2, yb1, yb2, ledger=ledger, tree=tree)
            return va, vb
        stats = self.tree_stats[tree]
        stats.queries += 2
        self._scalar_mirrors(tree)
        l = bisect_left(self._xs_mv, x1)
        r = bisect_right(self._xs_mv, x2)
        ta = 0.0
        tb = 0.0
        visited = 2 * log2ceil(max(self.size, 2))
        b = self.branching
        leaf_ys, leaf_ws = self._leaf_ys_mv, self._leaf_ws_mv
        if l % b:
            lend = min(r, l - l % b + b)
            while l < lend:
                y = leaf_ys[l]
                w = leaf_ws[l]
                if ya1 <= y <= ya2:
                    ta += w
                if yb1 <= y <= yb2:
                    tb += w
                visited += 1
                l += 1
        if r % b and l < r:
            rnew = max(l, r - r % b)
            while r > rnew:
                r -= 1
                y = leaf_ys[r]
                w = leaf_ws[r]
                if ya1 <= y <= ya2:
                    ta += w
                if yb1 <= y <= yb2:
                    tb += w
                visited += 1
        l //= b
        r //= b
        level = 0
        aux_wa = aux_wb = 0
        aux_da = aux_db = 0
        while l < r:
            while l % b and l < r:
                pa, wa, da = self._aux_scalar(level, l, ya1, ya2)
                pb, wb, db = self._aux_scalar(level, l, yb1, yb2)
                ta += pa
                tb += pb
                aux_wa += wa
                aux_wb += wb
                if da > aux_da:
                    aux_da = da
                if db > aux_db:
                    aux_db = db
                visited += 1
                l += 1
            while r % b and l < r:
                r -= 1
                pa, wa, da = self._aux_scalar(level, r, ya1, ya2)
                pb, wb, db = self._aux_scalar(level, r, yb1, yb2)
                ta += pa
                tb += pb
                aux_wa += wa
                aux_wb += wb
                if da > aux_da:
                    aux_da = da
                if db > aux_db:
                    aux_db = db
                visited += 1
            if l >= r:
                break
            l //= b
            r //= b
            level += 1
        stats.nodes_visited += 2 * visited
        ledger.charge(
            work=float(visited + aux_wa), depth=float(self._x_depth + aux_da)
        )
        ledger.charge(
            work=float(visited + aux_wb), depth=float(self._x_depth + aux_db)
        )
        return float(ta), float(tb)

    # ------------------------------------------------------------------
    # batched query
    # ------------------------------------------------------------------
    def _vec_bisect(
        self, base: np.ndarray, s: np.ndarray, target: np.ndarray, side: str
    ) -> np.ndarray:
        """Per-query binary search in ``YS_ALL[base : base + s]``.

        Branchless rounds: every round recomputes all rows with clipped
        gathers and ``where`` merges — converged rows (``lo == hi``) are
        carried through unchanged, which costs a few redundant wide ops
        but avoids the flatnonzero/fancy-index round trips of a masked
        loop (~2x faster on the mixed-segment batches the canonical
        decomposition produces).
        """
        lo = np.zeros(base.shape[0], dtype=np.int64)
        hi = s.astype(np.int64).copy()
        ys = self.YS_ALL
        left = side == "left"
        limit = ys.shape[0] - 1
        active = lo < hi
        while active.any():
            mid = (lo + hi) >> 1
            v = ys[np.minimum(base + mid, limit)]
            gr = (v < target) if left else (v <= target)
            adv = active & gr
            lo = np.where(adv, mid + 1, lo)
            hi = np.where(active & ~gr, mid, hi)
            active = lo < hi
        return lo

    def _count_per_tree(
        self, stats: List[RangeQueryStats], trees: np.ndarray, field: str,
        amounts: Union[np.ndarray, None] = None,
    ) -> None:
        """Add each row's amount (1 when None) to its set's counter."""
        if self.k == 1:
            total = trees.shape[0] if amounts is None else int(amounts.sum())
            setattr(stats[0], field, getattr(stats[0], field) + total)
            return
        per = np.bincount(trees, weights=amounts, minlength=self.k)
        for st, add in zip(stats, per.tolist()):
            setattr(st, field, getattr(st, field) + int(add))

    def _aux_many(
        self,
        levels: np.ndarray,
        nodes: np.ndarray,
        y1: np.ndarray,
        y2: np.ndarray,
        trees: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched auxiliary 1-D queries: ``(partials, visited, depths)``.

        Each query's partial folds its cells in the reference order:
        per auxiliary level, left-side cells ascending then right-side
        cells descending.
        """
        n = levels.shape[0]
        nxt = self._nxt[levels]
        lo = nodes * nxt
        hi = np.minimum(lo + nxt, self.size)
        s = hi - lo
        is_tail = nodes >= self._kfull[levels]
        dep = np.where(is_tail, self._dtail[levels], self._dfull[levels])
        sc = np.where(is_tail, self._sctail[levels], self._scfull[levels])
        self._count_per_tree(self.tree_aux_stats, trees, "queries")
        empty = (s == 0) | (y2 < y1)
        base = trees * self._ys_stride + self._ysbase[levels] + lo
        if self._int_keys:
            # integer keys: bisect_right(a, y2) == bisect_left(a, y2+1),
            # so both boundary searches fuse into one doubled-row pass
            both = self._vec_bisect(
                np.concatenate([base, base]),
                np.concatenate([s, s]),
                np.concatenate([y1, y2 + 1]),
                "left",
            )
            l = both[:n]
            r = both[n:]
        else:
            l = self._vec_bisect(base, s, y1, "left")
            r = self._vec_bisect(base, s, y2, "right")
        l[empty] = 0
        r[empty] = 0
        b = self.branching
        parts = np.zeros(n, dtype=np.float64)
        cells = np.zeros(n, dtype=np.int64)
        kfull = self._kfull[levels]
        aux = self.AUX
        nodeoff = np.where(is_tail, kfull, nodes)
        j = 0
        while j < self._max_aux_depth and (l < r).any():
            off = (
                trees * self._aux_stride[j]
                + self._auxbase[levels, j]
                + nodeoff * self._sfull[levels, j]
            )
            arr = aux[j]
            if b == 2:
                # binary chains add at most one left and one right cell
                # per level — one branchless pass per side (same values,
                # same per-query left-then-right order as the loop below)
                ml = ((l & 1) == 1) & (l < r)
                parts += np.where(ml, arr[np.where(ml, off + l, 0)], 0.0)
                cells += ml
                l = l + ml
                mr = ((r & 1) == 1) & (l < r)
                r = r - mr
                parts += np.where(mr, arr[np.where(mr, off + r, 0)], 0.0)
                cells += mr
            else:
                while True:
                    m = (l % b != 0) & (l < r)
                    if not m.any():
                        break
                    mi = np.flatnonzero(m)
                    parts[mi] += arr[off[mi] + l[mi]]
                    cells[mi] += 1
                    l[mi] += 1
                while True:
                    m = (r % b != 0) & (l < r)
                    if not m.any():
                        break
                    mi = np.flatnonzero(m)
                    r[mi] -= 1
                    parts[mi] += arr[off[mi] + r[mi]]
                    cells[mi] += 1
            l //= b
            r //= b
            j += 1
        self._count_per_tree(self.tree_aux_stats, trees, "nodes_visited", cells)
        vis = np.where(empty, 1, cells + sc)
        return parts, vis, dep

    def query_many(
        self,
        x1: np.ndarray,
        x2: np.ndarray,
        y1: np.ndarray,
        y2: np.ndarray,
        tree: Union[int, np.ndarray] = 0,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched rectangle queries; row i asks set ``tree[i]`` (or every
        row set ``tree`` when it is an int).

        Returns ``(totals, works, depths)`` where ``works[i]`` and
        ``depths[i]`` are exactly the amounts one reference
        :meth:`query` call would charge for query i.  No ledger is
        charged here — callers emulate the reference charge structure
        (sequential sum, parallel max, or ``batch``-scoped) from the
        per-query arrays.  Each set's stats counters update exactly as
        the equivalent scalar calls would.  A row's answer and charges
        do not depend on the other rows, so rows of different sets mix
        freely in one batch.
        """
        x1 = np.asarray(x1, dtype=np.int64)
        x2 = np.asarray(x2, dtype=np.int64)
        y1 = np.asarray(y1, dtype=np.int64)
        y2 = np.asarray(y2, dtype=np.int64)
        q = x1.shape[0]
        trees = np.broadcast_to(np.asarray(tree, dtype=np.int64), (q,))
        one = self.k == 1 or q == 0 or bool(trees.min() == trees.max())
        reg = counters()
        if reg.enabled:
            # observability only — never part of the parity contract
            reg.add("kernels.batch_calls")
            reg.add("kernels.batch_entries", float(q))
        if 0 < q <= _SCALAR_BATCH_CUTOFF and one:
            # tiny one-set batches: the vectorized rounds' fixed cost
            # exceeds a scalar loop; answers/charges/stats are identical
            # either way (mixed-set batches stay vectorized)
            t = int(trees[0])
            totals = np.empty(q, dtype=np.float64)
            works = np.empty(q, dtype=np.float64)
            depths = np.empty(q, dtype=np.float64)
            rec = _ChargeRecorder()
            for i in range(q):
                totals[i] = self.query(
                    int(x1[i]), int(x2[i]), int(y1[i]), int(y2[i]), ledger=rec, tree=t
                )
                works[i] = rec.work
                depths[i] = rec.depth
            return totals, works, depths
        totals = np.zeros(q, dtype=np.float64)
        works = np.ones(q, dtype=np.float64)
        depths = np.ones(q, dtype=np.float64)
        self._count_per_tree(self.tree_stats, trees, "queries")
        if q == 0:
            return totals, works, depths
        nonempty = np.ones(q, dtype=bool) if self.size else np.zeros(q, dtype=bool)
        if self.size:
            nonempty = (x2 >= x1) & (y2 >= y1)
        if not nonempty.any():
            return totals, works, depths
        idx = np.flatnonzero(nonempty)
        # rows are independent, so a long batch runs in chunks: same
        # answers, charges and stats, with the traversal's temporaries
        # (~20 auxiliary queries per rectangle) bounded per chunk
        for c in range(0, idx.shape[0], _VECTOR_CHUNK):
            rows = idx[c : c + _VECTOR_CHUNK]
            totals[rows], works[rows], depths[rows] = self._query_rows(
                x1[rows], x2[rows], y1[rows], y2[rows], trees[rows]
            )
        return totals, works, depths

    def _query_rows(
        self,
        x1: np.ndarray,
        x2: np.ndarray,
        qy1: np.ndarray,
        qy2: np.ndarray,
        tr: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The vectorized traversal of nonempty rectangles, row i on set
        ``tr[i]``: ``(totals, works, depths)``."""
        size = self.size
        if self.k == 1 or tr.min() == tr.max():
            t = int(tr[0])
            xs = self.xs_np[t * size : (t + 1) * size]
            l = np.searchsorted(xs, x1, side="left").astype(np.int64)
            r = np.searchsorted(xs, x2, side="right").astype(np.int64)
        else:
            l = np.empty(tr.shape[0], dtype=np.int64)
            r = np.empty(tr.shape[0], dtype=np.int64)
            for t in range(self.k):
                m = tr == t
                xs = self.xs_np[t * size : (t + 1) * size]
                l[m] = np.searchsorted(xs, x1[m], side="left")
                r[m] = np.searchsorted(xs, x2[m], side="right")
        set_lo = tr * size  # each row's offset into the leaf arrays
        nq = tr.shape[0]
        tot = np.zeros(nq, dtype=np.float64)
        visited = np.full(nq, 2 * log2ceil(max(size, 2)), dtype=np.int64)
        b = self.branching
        leaf_ys, leaf_ws = self.leaf_ys_np, self.leaf_ws_np
        # level 0: leaves
        if b == 2:
            ml = ((l & 1) == 1) & (l < r)
            pos = set_lo + np.where(ml, l, 0)
            yv = leaf_ys[pos]
            take = ml & (qy1 <= yv) & (yv <= qy2)
            tot += np.where(take, leaf_ws[pos], 0.0)
            visited += ml
            l = l + ml
            mr = ((r & 1) == 1) & (l < r)
            r = r - mr
            pos = set_lo + np.where(mr, r, 0)
            yv = leaf_ys[pos]
            take = mr & (qy1 <= yv) & (yv <= qy2)
            tot += np.where(take, leaf_ws[pos], 0.0)
            visited += mr
        else:
            while True:
                m = (l % b != 0) & (l < r)
                if not m.any():
                    break
                mi = np.flatnonzero(m)
                pos = set_lo[mi] + l[mi]
                yv = leaf_ys[pos]
                take = (qy1[mi] <= yv) & (yv <= qy2[mi])
                ti = mi[take]
                tot[ti] += leaf_ws[pos[take]]
                visited[mi] += 1
                l[mi] += 1
            while True:
                m = (r % b != 0) & (l < r)
                if not m.any():
                    break
                mi = np.flatnonzero(m)
                r[mi] -= 1
                pos = set_lo[mi] + r[mi]
                yv = leaf_ys[pos]
                take = (qy1[mi] <= yv) & (yv <= qy2[mi])
                ti = mi[take]
                tot[ti] += leaf_ws[pos[take]]
                visited[mi] += 1
        l //= b
        r //= b
        # x-descent: collect the auxiliary queries each query makes, in
        # visit order (seq), then answer them all in one batched pass
        aq_query: List[np.ndarray] = []
        aq_level: List[np.ndarray] = []
        aq_node: List[np.ndarray] = []
        aq_seq: List[np.ndarray] = []
        seq = np.zeros(nq, dtype=np.int64)
        level = 0
        while level < self._num_levels and (l < r).any():
            if b == 2:
                mi = np.flatnonzero(((l & 1) == 1) & (l < r))
                if mi.shape[0]:
                    aq_query.append(mi)
                    aq_level.append(np.full(mi.shape[0], level, dtype=np.int64))
                    aq_node.append(l[mi].copy())
                    aq_seq.append(seq[mi].copy())
                    seq[mi] += 1
                    visited[mi] += 1
                    l[mi] += 1
                mi = np.flatnonzero(((r & 1) == 1) & (l < r))
                if mi.shape[0]:
                    r[mi] -= 1
                    aq_query.append(mi)
                    aq_level.append(np.full(mi.shape[0], level, dtype=np.int64))
                    aq_node.append(r[mi].copy())
                    aq_seq.append(seq[mi].copy())
                    seq[mi] += 1
                    visited[mi] += 1
            else:
                while True:
                    m = (l % b != 0) & (l < r)
                    if not m.any():
                        break
                    mi = np.flatnonzero(m)
                    aq_query.append(mi)
                    aq_level.append(np.full(mi.shape[0], level, dtype=np.int64))
                    aq_node.append(l[mi].copy())
                    aq_seq.append(seq[mi].copy())
                    seq[mi] += 1
                    visited[mi] += 1
                    l[mi] += 1
                while True:
                    m = (r % b != 0) & (l < r)
                    if not m.any():
                        break
                    mi = np.flatnonzero(m)
                    r[mi] -= 1
                    aq_query.append(mi)
                    aq_level.append(np.full(mi.shape[0], level, dtype=np.int64))
                    aq_node.append(r[mi].copy())
                    aq_seq.append(seq[mi].copy())
                    seq[mi] += 1
                    visited[mi] += 1
            l //= b
            r //= b
            level += 1
        aux_work = np.zeros(nq, dtype=np.int64)
        aux_depth = np.zeros(nq, dtype=np.int64)
        if aq_query:
            AQ_q = np.concatenate(aq_query)
            AQ_L = np.concatenate(aq_level)
            AQ_k = np.concatenate(aq_node)
            AQ_s = np.concatenate(aq_seq)
            parts, vis, dep = self._aux_many(
                AQ_L, AQ_k, qy1[AQ_q], qy2[AQ_q], tr[AQ_q]
            )
            np.add.at(aux_work, AQ_q, vis)
            np.maximum.at(aux_depth, AQ_q, dep)
            # fold partials into totals in per-query visit order
            for s_pos in range(int(AQ_s.max()) + 1):
                mm = AQ_s == s_pos
                tot[AQ_q[mm]] += parts[mm]
        self._count_per_tree(self.tree_stats, tr, "nodes_visited", visited)
        return (
            tot,
            (visited + aux_work).astype(np.float64),
            (self._x_depth + aux_depth).astype(np.float64),
        )
