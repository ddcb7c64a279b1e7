"""The cut-query oracle of Appendix A (Lemmas A.1 and A.2).

Given a graph G and a rooted spanning tree T (possibly binarized — see
:mod:`repro.trees.binary`), each graph edge (x, y, w) is mapped to the
two plane points (post(x), post(y)) and (post(y), post(x)), both with
weight w, over the postorder numbering of T.  Because every subtree is a
contiguous postorder interval, subtree-boundary and subtree-to-subtree
weights become O(1) rectangle queries on a 2-D range tree (held in the
flattened form :class:`repro.kernels.flat2d.FlatRangeTree2D`):

* ``cost(u)``            = w(T_e),            e = (u, p(u)),
* ``cross_cost(u, v)``   = w(T_e, T_f)        for disjoint subtrees,
* ``down_cost(u, v)``    = w(T_e, V \\ T_f)    for u inside T_v,

each counted exactly once thanks to the double (ordered-pair) insertion.
On top of these, ``cut(e, f)`` evaluates the three-case formula of
Lemma A.2, and the *interest* predicates of Definition 4.7 are decided
per Claim 4.8 (the ancestor case of cross-interest uses
``w(T_e, T_f \\ T_e) = cost(e) - down_cost(e, f)``).

Work: O(log^2 n) per query with branching 2 — or O(n^{2eps}/eps^2) with
branching n^eps (Section 4.3) — and O(log n) depth, all charged
structurally by the underlying range trees.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.kernels.flat2d import FlatRangeTree2D
from repro.pram.combinators import log2ceil
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.primitives.euler import RootedTree

__all__ = [
    "CutOracle",
    "OracleForest",
    "NaiveCutOracle",
    "oracle_points",
    "stack_oracle_points",
]

_BatchResult = Tuple[np.ndarray, np.ndarray, np.ndarray]


def oracle_points(
    graph: Graph, tree: RootedTree
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Lemma A.1 point set of (graph, tree): every edge (x, y, w) as
    the two points (post(x), post(y)) and (post(y), post(x)), weight w.
    The keys are postorder ranks, stored as int32 when they fit (the
    range tree keeps one key copy per x-level)."""
    post = tree.post
    if tree.n < 2**31:
        post = post.astype(np.int32)
    px = post[graph.u]
    py = post[graph.v]
    return (
        np.concatenate([px, py]),
        np.concatenate([py, px]),
        np.concatenate([graph.w, graph.w]),
    )


def stack_oracle_points(
    graph: Graph, trees: Sequence[RootedTree], branching: int
) -> FlatRangeTree2D:
    """One stacked range tree whose set i holds ``trees[i]``'s points.

    Every tree of one graph has the same 2m points up to relabelling, so
    the sets share one shape and the build sorts each x-level of all of
    them at once.  Charges nothing: ``CutOracle(graph, trees[i], ...,
    points=stack, index=i)`` charges set i's build on its own ledger.
    """
    sets = [oracle_points(graph, t) for t in trees]
    return FlatRangeTree2D(
        np.stack([xs for xs, _, _ in sets]),
        np.stack([ys for _, ys, _ in sets]),
        np.tile(sets[0][2], (len(sets), 1)),
        branching=branching,
    )


class CutOracle:
    """Lemma A.1/A.2 data structure over (graph, rooted tree).

    Parameters
    ----------
    graph:
        The input graph; endpoints must be *real* vertices of the tree.
    tree:
        Rooted (and typically binarized) spanning tree; ``tree.n`` may
        exceed ``graph.n`` when virtual vertices are present.
    branching:
        Degree of the range trees (2 = the Lemma 4.9 general-graph
        structure; ``~n^eps`` = the Lemma 4.25 dense-graph structure).
    points, index:
        Query set ``index`` of a stack built by
        :func:`stack_oracle_points` instead of building a one-set range
        tree; the ledger is charged the same build either way.
    """

    def __init__(
        self,
        graph: Graph,
        tree: RootedTree,
        branching: int = 2,
        ledger: Ledger = NULL_LEDGER,
        *,
        points: Optional[FlatRangeTree2D] = None,
        index: int = 0,
    ) -> None:
        if graph.n > tree.n:
            raise ValueError("tree must span at least the graph's vertices")
        self.graph = graph
        self.tree = tree
        if points is None:
            xs, ys, ws = oracle_points(graph, tree)
            points = FlatRangeTree2D(xs, ys, ws, branching=branching, ledger=ledger)
        else:
            # one set of a stack built by stack_oracle_points: charge what
            # building this tree's set alone would have
            if points.size != 2 * graph.m or points.branching != branching:
                raise ValueError("stacked points do not match this graph/branching")
            points.charge_build(ledger)
        self.points = points
        self.index = int(index)
        self._post = tree.post
        self._size = tree.size
        self._nb = tree.n
        self._cost_cache = np.full(tree.n, np.nan)
        # Lemma A.1 preprocessing beyond the 2-D build: postorder mapping
        ledger.charge(work=float(2 * graph.m + tree.n), depth=float(log2ceil(max(tree.n, 2))))

    # ------------------------------------------------------------------
    # the three primitive queries of Lemma A.1
    # ------------------------------------------------------------------
    def prefill_costs(self, ledger: Ledger = NULL_LEDGER) -> None:
        """Populate the w(T_e) cache for every tree edge at once via the
        Karger subtree-aggregation trick (O(m log n) work, O(log n)
        depth) — cheaper than n separate rectangle queries; used by the
        2-respecting driver before the interest searches."""
        from repro.primitives.treesums import all_subtree_costs

        costs = all_subtree_costs(self.graph, self.tree, ledger=ledger)
        self._cost_cache[:] = costs
        self._cost_cache[self.tree.root] = np.nan  # the root has no edge

    def cost(self, u: int, ledger: Ledger = NULL_LEDGER) -> float:
        """w(T_e) for e = (u, p(u)): total weight leaving u's subtree."""
        c = self._cost_cache[u]
        if not np.isnan(c):
            ledger.charge(work=1.0, depth=1.0)
            return float(c)
        t = self.tree
        s, p = int(t.start(u)), int(t.post[u])
        val = self.points.query(
            s, p, 0, s - 1, ledger=ledger, tree=self.index
        ) + self.points.query(s, p, p + 1, self._nb - 1, ledger=ledger, tree=self.index)
        self._cost_cache[u] = val
        return float(val)

    def cross_cost(self, u: int, v: int, ledger: Ledger = NULL_LEDGER) -> float:
        """w(T_e, T_f) for vertex-disjoint subtrees T_u, T_v."""
        t = self.tree
        return self.points.query(
            int(t.start(v)),
            int(t.post[v]),
            int(t.start(u)),
            int(t.post[u]),
            ledger=ledger,
            tree=self.index,
        )

    def down_cost(self, u: int, v: int, ledger: Ledger = NULL_LEDGER) -> float:
        """w(T_u, V \\ T_v) for u inside T_v (u a descendant of v)."""
        t = self.tree
        su, pu = int(t.start(u)), int(t.post[u])
        sv, pv = int(t.start(v)), int(t.post[v])
        # both rectangles share x-span [su, pu]: the flat tree walks the
        # canonical x-decomposition once for the pair (identical answers,
        # charges and stats to two query() calls — see query_pair_x)
        v1, v2 = self.points.query_pair_x(
            su, pu, 0, sv - 1, pv + 1, self._nb - 1, ledger=ledger, tree=self.index
        )
        return v1 + v2

    # ------------------------------------------------------------------
    # batched evaluation
    #
    # Each *_many method answers an array of queries at once via the flat
    # tree's query_many and returns ``(values, works, depths)``: values
    # are bit-identical to the scalar methods, works[i]/depths[i] are
    # exactly what the scalar call for query i would charge its ledger
    # (sums over the sequential sub-queries of that scalar call).  No
    # ledger is charged here — callers replay the per-entry charge
    # structure from the per-query arrays.  Stats counters update exactly
    # as the equivalent scalar calls would.
    #
    # Charge parity requires a prefilled cost cache (prefill_costs):
    # batches evaluate all cost() lookups up front, so an uncached vertex
    # repeated within a batch charges the miss cost each time where the
    # scalar sequence would hit the cache from the second call on.  The
    # 2-respecting driver always prefills before its batched stages.
    # ------------------------------------------------------------------
    def _spans(self, us: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        p = self._post[us]
        return p - (self._size[us] - 1), p

    def _last(self, us: np.ndarray) -> np.ndarray:
        """Per row, the largest postorder rank of ``us[i]``'s tree."""
        return np.full(us.shape[0], self._nb - 1, dtype=np.int64)

    def _sets(self, us: np.ndarray) -> "int | np.ndarray":
        """The point set (of :attr:`points`) that rows owned by ``us`` ask."""
        return self.index

    def cost_many(self, us: np.ndarray) -> _BatchResult:
        """Batched :meth:`cost`.  Cache misses are deduplicated: each
        distinct uncached vertex is evaluated (and cached) once with the
        two-rectangle miss charge on its *first* occurrence; later
        occurrences charge the (1, 1) cache hit — exactly the scalar
        call sequence."""
        us = np.asarray(us, dtype=np.int64)
        vals = self._cost_cache[us].copy()
        works = np.ones(us.shape[0], dtype=np.float64)
        depths = np.ones(us.shape[0], dtype=np.float64)
        miss = np.isnan(vals)
        if miss.any():
            mi = np.flatnonzero(miss)
            uniq, first, inv = np.unique(us[mi], return_index=True, return_inverse=True)
            s, p = self._spans(uniq)
            zero = np.zeros(uniq.shape[0], dtype=np.int64)
            sets = self._sets(uniq)
            v1, w1, d1 = self.points.query_many(s, p, zero, s - 1, sets)
            v2, w2, d2 = self.points.query_many(s, p, p + 1, self._last(uniq), sets)
            v = v1 + v2
            self._cost_cache[uniq] = v
            vals[mi] = v[inv]
            works[mi[first]] = w1 + w2
            depths[mi[first]] = d1 + d2
        return vals, works, depths

    def cost_argmin(self) -> Tuple[float, int]:
        """Minimum prefilled ``w(T_e)`` and the smallest edge (child
        vertex) attaining it — the 1-respecting minimum.  Requires
        ``prefill_costs``; charges nothing (the caller replays the
        per-edge (1, 1) hit charges of a scalar scan)."""
        c = np.where(np.isnan(self._cost_cache), np.inf, self._cost_cache)
        u = int(np.argmin(c))
        return float(c[u]), u

    def _mixed_pair_costs(
        self, a: np.ndarray, b: np.ndarray, down: np.ndarray
    ) -> _BatchResult:
        """Rows with ``down[i]`` get ``down_cost(a[i], b[i])``, the rest
        ``cross_cost(a[i], b[i])`` — all rectangles of the whole batch in
        ONE ``query_many`` call (its per-row answers and charges do not
        depend on what else is in the batch, so fusing is parity-neutral
        and pays the vectorized traversal's fixed cost once)."""
        n = a.shape[0]
        vals = np.empty(n, dtype=np.float64)
        works = np.empty(n, dtype=np.float64)
        depths = np.empty(n, dtype=np.float64)
        di = np.flatnonzero(down)
        ci = np.flatnonzero(~down)
        sa, pa = self._spans(a)
        sb, pb = self._spans(b)
        k = di.shape[0]
        zero = np.zeros(k, dtype=np.int64)
        ad = a[di]
        # down rows contribute their two complement rectangles, cross
        # rows the single (b-span x a-span) rectangle
        x1 = np.concatenate([sa[di], sa[di], sb[ci]])
        x2 = np.concatenate([pa[di], pa[di], pb[ci]])
        y1 = np.concatenate([zero, pb[di] + 1, sa[ci]])
        y2 = np.concatenate([sb[di] - 1, self._last(ad), pa[ci]])
        sets = self._sets(np.concatenate([ad, ad, a[ci]]))
        v, w, d = self.points.query_many(x1, x2, y1, y2, sets)
        vals[di] = v[:k] + v[k : 2 * k]
        works[di] = w[:k] + w[k : 2 * k]
        depths[di] = d[:k] + d[k : 2 * k]
        vals[ci] = v[2 * k :]
        works[ci] = w[2 * k :]
        depths[ci] = d[2 * k :]
        return vals, works, depths

    def _ancestor_mask(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """is_ancestor(a[i], b[i]) elementwise."""
        pa = self._post[a]
        pb = self._post[b]
        return (pa - (self._size[a] - 1) <= pb) & (pb <= pa)

    def cut_many(self, us: np.ndarray, vs: np.ndarray) -> _BatchResult:
        """Batched :meth:`cut` over pairs of tree edges."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        n = us.shape[0]
        vals = np.empty(n, dtype=np.float64)
        works = np.empty(n, dtype=np.float64)
        depths = np.empty(n, dtype=np.float64)
        same = us == vs
        cu, wu, du = self.cost_many(us)
        vals[same] = cu[same]
        works[same] = wu[same]
        depths[same] = du[same]
        ns = np.flatnonzero(~same)
        if ns.shape[0]:
            cv, wv, dv = self.cost_many(vs[ns])
            anc_vu = self._ancestor_mask(vs[ns], us[ns])  # e inside T_f
            anc_uv = self._ancestor_mask(us[ns], vs[ns])  # f inside T_e
            # three disjoint cases, one fused query batch:
            #   anc_vu          -> down_cost(u, v)
            #   anc_uv & ~anc_vu-> down_cost(v, u)
            #   neither         -> cross_cost(u, v)
            swap = anc_uv & ~anc_vu
            a = np.where(swap, vs[ns], us[ns])
            b = np.where(swap, us[ns], vs[ns])
            pv, pw, pd = self._mixed_pair_costs(a, b, anc_vu | anc_uv)
            vals[ns] = cu[ns] + cv - 2.0 * pv
            works[ns] = wu[ns] + wv + pw
            depths[ns] = du[ns] + dv + pd
        return vals, works, depths

    def interested_many(
        self, us: np.ndarray, vs: np.ndarray, cross: np.ndarray
    ) -> _BatchResult:
        """Rows with ``cross[i]`` evaluate ``cross_interested(us[i],
        vs[i])``, the rest ``down_interested(us[i], vs[i])`` — the whole
        mixed batch in one fused rectangle query (the terminal search's
        per-round call)."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        cross = np.asarray(cross, dtype=bool)
        n = us.shape[0]
        vals = np.zeros(n, dtype=np.float64)
        works = np.zeros(n, dtype=np.float64)
        depths = np.zeros(n, dtype=np.float64)
        anc_uv = self._ancestor_mask(us, vs)
        # cross rows are live when f is NOT inside T_e, down rows when
        # it is — exactly the two predicates' guards
        live = (us != vs) & (cross ^ anc_uv)
        li = np.flatnonzero(live)
        if li.shape[0]:
            ce, wc, dc = self.cost_many(us[li])
            cr = cross[li]
            anc2 = self._ancestor_mask(vs[li], us[li])  # f ancestor of e
            # down rows probe down_cost(v, u); cross rows down_cost(u, v)
            # when f is an ancestor edge, else cross_cost(u, v)
            a = np.where(cr, us[li], vs[li])
            b = np.where(cr, vs[li], us[li])
            qv, mw, md = self._mixed_pair_costs(a, b, ~cr | anc2)
            mass = np.where(cr & anc2, ce - qv, qv)
            vals[li] = (ce < 2.0 * mass).astype(np.float64)
            works[li] = wc + mw
            depths[li] = dc + md
        return vals, works, depths

    # ------------------------------------------------------------------
    # Lemma A.2: the 2-respecting cut value
    # ------------------------------------------------------------------
    def cut(self, u: int, v: int, ledger: Ledger = NULL_LEDGER) -> float:
        """Value of the cut determined by tree edges e = (u, p(u)) and
        f = (v, p(v)); ``u == v`` gives the 1-respecting cut w(T_e)."""
        if u == v:
            return self.cost(u, ledger=ledger)
        t = self.tree
        if t.is_ancestor(v, u):  # e inside T_f
            return (
                self.cost(u, ledger=ledger)
                + self.cost(v, ledger=ledger)
                - 2.0 * self.down_cost(u, v, ledger=ledger)
            )
        if t.is_ancestor(u, v):  # f inside T_e
            return (
                self.cost(u, ledger=ledger)
                + self.cost(v, ledger=ledger)
                - 2.0 * self.down_cost(v, u, ledger=ledger)
            )
        return (
            self.cost(u, ledger=ledger)
            + self.cost(v, ledger=ledger)
            - 2.0 * self.cross_cost(u, v, ledger=ledger)
        )

    def cut_side_mask(self, u: int, v: Optional[int] = None) -> np.ndarray:
        """Boolean side mask (over the graph's *real* vertices) of the cut
        determined by edges e=(u,p(u)) and f=(v,p(v)): a vertex is on the
        True side iff exactly one of e, f separates it from the root."""
        t = self.tree
        posts = t.post[: self.graph.n]
        in_u = (t.start(u) <= posts) & (posts <= t.post[u])
        if v is None or v == u:
            return in_u
        in_v = (t.start(v) <= posts) & (posts <= t.post[v])
        return in_u ^ in_v

    # ------------------------------------------------------------------
    # Definition 4.7: interest predicates
    # ------------------------------------------------------------------
    def cross_interested(self, u: int, v: int, ledger: Ledger = NULL_LEDGER) -> bool:
        """Is e = (u, p(u)) cross-interested in f = (v, p(v))?

        Per Claim 4.8 the qualifying f form a root-descending path which
        may pass through ancestors of e; for an ancestor f the relevant
        mass is w(T_e, T_f \\ T_e) = cost(e) - down_cost(e, f).
        """
        if u == v:
            return False
        t = self.tree
        if t.is_ancestor(u, v):  # f strictly inside T_e: down-interest domain
            return False
        ce = self.cost(u, ledger=ledger)
        if t.is_ancestor(v, u):  # f an ancestor edge of e
            mass = ce - self.down_cost(u, v, ledger=ledger)
        else:
            mass = self.cross_cost(u, v, ledger=ledger)
        return ce < 2.0 * mass

    def down_interested(self, u: int, v: int, ledger: Ledger = NULL_LEDGER) -> bool:
        """Is e = (u, p(u)) down-interested in f = (v, p(v)) in T_e?"""
        if u == v:
            return False
        t = self.tree
        if not t.is_ancestor(u, v):
            return False
        return self.cost(u, ledger=ledger) < 2.0 * self.down_cost(v, u, ledger=ledger)

    # ------------------------------------------------------------------
    @property
    def total_nodes_visited(self) -> int:
        """Structural work of all queries so far (experiment E5)."""
        return self.points.tree_nodes_visited(self.index)

    @property
    def queries(self) -> int:
        """Rectangle queries answered so far (first-level count)."""
        return self.points.tree_stats[self.index].queries

    @property
    def query_depth(self) -> int:
        """Model depth of one cut query: the x-descent of the 2-D tree
        plus one (parallel) auxiliary 1-D query — O(log n) for b = 2."""
        return 2 * self.points._x_depth + 2


class OracleForest(CutOracle):
    """The oracles of one stack, viewed as one forest for batched
    predicates.

    Tree i's vertex v is forest vertex ``offsets[i] + v``; every batched
    method of :class:`CutOracle` (``interested_many`` and the ``*_many``
    helpers under it) then takes rows of all the trees at once and asks
    each row's own set of the shared stack, in one ``query_many`` call.
    A row's answer and charges are those of its tree's oracle, and each
    tree's stats counters advance exactly as its own calls would.

    The forest works on a copy of the trees' cost caches: like every
    batched entry point it needs them prefilled for exact charges, and
    a miss evaluated here does not reach the tree's own cache.  The
    scalar methods are not available on a forest.
    """

    def __init__(self, oracles: Sequence[CutOracle]) -> None:  # noqa: D107
        points = oracles[0].points
        if any(o.points is not points for o in oracles):
            raise ValueError("a forest needs oracles of one stack")
        sizes = [o.tree.n for o in oracles]
        self.oracles = list(oracles)
        self.points = points
        self.offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.offsets[1:])
        self._post = np.concatenate([o.tree.post for o in oracles])
        self._size = np.concatenate([o.tree.size for o in oracles])
        self._cost_cache = np.concatenate([o._cost_cache for o in oracles])
        self._vset = np.repeat([o.index for o in oracles], sizes)
        self._vlast = np.repeat(np.asarray(sizes, dtype=np.int64) - 1, sizes)

    def _last(self, us: np.ndarray) -> np.ndarray:
        return self._vlast[us]

    def _sets(self, us: np.ndarray) -> np.ndarray:
        return self._vset[us]


class NaiveCutOracle:
    """Reference oracle: every query scans all m edges (O(m) work).

    Used by tests to validate :class:`CutOracle` and by the GG18-style
    baseline's cost model.  API-compatible with :class:`CutOracle` for
    the query subset it implements.
    """

    def __init__(self, graph: Graph, tree: RootedTree) -> None:
        self.graph = graph
        self.tree = tree
        t = tree
        self._pu = t.post[graph.u]
        self._pv = t.post[graph.v]

    def _in_subtree(self, posts: np.ndarray, x: int) -> np.ndarray:
        t = self.tree
        return (t.start(x) <= posts) & (posts <= t.post[x])

    def cost(self, u: int, ledger: Ledger = NULL_LEDGER) -> float:
        a = self._in_subtree(self._pu, u)
        b = self._in_subtree(self._pv, u)
        ledger.charge(work=float(self.graph.m), depth=1.0)
        return float(self.graph.w[a != b].sum())

    def cross_cost(self, u: int, v: int, ledger: Ledger = NULL_LEDGER) -> float:
        au, bu = self._in_subtree(self._pu, u), self._in_subtree(self._pv, u)
        av, bv = self._in_subtree(self._pu, v), self._in_subtree(self._pv, v)
        ledger.charge(work=float(self.graph.m), depth=1.0)
        return float(self.graph.w[(au & bv) | (av & bu)].sum())

    def down_cost(self, u: int, v: int, ledger: Ledger = NULL_LEDGER) -> float:
        au, bu = self._in_subtree(self._pu, u), self._in_subtree(self._pv, u)
        av, bv = self._in_subtree(self._pu, v), self._in_subtree(self._pv, v)
        ledger.charge(work=float(self.graph.m), depth=1.0)
        return float(self.graph.w[(au & ~bv) | (bu & ~av)].sum())

    def cut(self, u: int, v: int, ledger: Ledger = NULL_LEDGER) -> float:
        side = self.cut_side_mask_tree(u, v)
        cross = side[self.tree.post[self.graph.u]] != side[self.tree.post[self.graph.v]]
        ledger.charge(work=float(self.graph.m), depth=1.0)
        return float(self.graph.w[cross].sum())

    def cut_side_mask_tree(self, u: int, v: Optional[int]) -> np.ndarray:
        """Side mask indexed by *postorder rank* over all tree vertices."""
        t = self.tree
        ranks = np.arange(t.n)
        in_u = (t.start(u) <= ranks) & (ranks <= t.post[u])
        if v is None or v == u:
            return in_u
        in_v = (t.start(v) <= ranks) & (ranks <= t.post[v])
        return in_u ^ in_v
