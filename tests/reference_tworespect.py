"""Per-entry reference for the 2-respecting search (Theorem 4.2).

The library runs only the batched kernels of :mod:`repro.kernels`.  This
module keeps the per-entry formulation they must match bit for bit —
answers, stats counters and every ledger charge:

* :class:`ReferenceCutOracle` — :class:`CutOracle` over the per-entry
  :class:`RangeTree2D` of ``tests/reference_rangetree.py`` (Python node
  objects, one scalar query per rectangle);
* :func:`reference_centroid_decomposition` — the sequential
  component-walk centroid decomposition;
* :func:`deepest_on_interest_path` — Claim 4.13's centroid-guided
  search for one interest path;
* :func:`reference_two_respecting_min_cut` — the driver with scalar
  loops: a per-edge one-respecting scan, entry-at-a-time SMAWK
  (:func:`triangle_minimum` / :func:`matrix_minimum` of
  ``tests/reference_monge.py``) over ``oracle.cut``, the sequential
  centroid decomposition and one :func:`deepest_on_interest_path`
  search per edge and predicate.

``tests/test_kernels_parity.py`` compares the library against it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import obs
from repro.errors import GraphFormatError
from repro.graphs.graph import Graph
from repro.pram.combinators import log2ceil
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.primitives.euler import RootedTree, postorder
from repro.rangesearch.cutqueries import CutOracle
from repro.results import CutResult
from repro.trees.binary import binarize_parent
from repro.trees.centroid import CentroidDecomposition
from repro.trees.paths import (
    PathDecomposition,
    bough_decomposition,
    heavy_path_decomposition,
)
from repro.trees.rootpaths import RootPaths
from repro.tworespect.path_pairs import collect_interest_tuples, group_interested_pairs

from tests.reference_monge import matrix_minimum, triangle_minimum
from tests.reference_rangetree import RangeTree2D

__all__ = [
    "ReferenceCutOracle",
    "reference_centroid_decomposition",
    "deepest_on_interest_path",
    "reference_two_respecting_min_cut",
]


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
        self.points = RangeTree2D(
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


def reference_centroid_decomposition(
    tree: RootedTree, ledger: Ledger = NULL_LEDGER
) -> CentroidDecomposition:
    """The sequential centroid decomposition the library's
    level-synchronous :func:`centroid_decomposition` must match: per
    component, compute sizes by a local traversal, walk from the seed
    toward the heavy side to the centroid, split, recurse (iteratively,
    via an explicit stack).  Charged at Lemma 4.12's cost: the summed
    component sizes as work, O(log n) depth."""
    n = tree.n
    cent_parent = np.full(n, -1, dtype=np.int64)
    cent_depth = np.zeros(n, dtype=np.int64)
    if n == 0:
        return CentroidDecomposition(cent_parent, cent_depth, -1)
    # undirected adjacency from the parent array
    offsets, nbrs = _undirected_adjacency(tree.parent)
    removed = np.zeros(n, dtype=bool)
    size = np.zeros(n, dtype=np.int64)
    cent_root = -1
    stack: List[Tuple[int, int, int]] = [(tree.root, -1, 0)]  # (seed, cparent, cdepth)
    total_work = 0
    while stack:
        seed, cpar, cdep = stack.pop()
        comp = _collect_component(seed, offsets, nbrs, removed)
        _component_sizes(comp, offsets, nbrs, removed, size)
        c = _find_centroid(comp[0], len(comp), offsets, nbrs, removed, size)
        total_work += len(comp)
        cent_parent[c] = cpar
        cent_depth[c] = cdep
        if cpar < 0:
            cent_root = c
        removed[c] = True
        for j in range(offsets[c], offsets[c + 1]):
            y = int(nbrs[j])
            if not removed[y]:
                stack.append((y, c, cdep + 1))
    ledger.charge(work=float(total_work), depth=float(log2ceil(max(n, 2))))
    return CentroidDecomposition(cent_parent, cent_depth, cent_root)


def _undirected_adjacency(parent: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    n = parent.shape[0]
    child = np.flatnonzero(parent >= 0)
    ends = np.concatenate([child, parent[child]])
    other = np.concatenate([parent[child], child])
    order = np.argsort(ends, kind="stable")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, ends[order] + 1, 1)
    np.cumsum(offsets, out=offsets)
    return offsets, other[order]


def _collect_component(
    seed: int, offsets: np.ndarray, nbrs: np.ndarray, removed: np.ndarray
) -> List[int]:
    comp = [int(seed)]
    seen = {int(seed)}
    i = 0
    while i < len(comp):
        x = comp[i]
        i += 1
        for j in range(offsets[x], offsets[x + 1]):
            y = int(nbrs[j])
            if not removed[y] and y not in seen:
                seen.add(y)
                comp.append(y)
    return comp


def _component_sizes(
    comp: List[int],
    offsets: np.ndarray,
    nbrs: np.ndarray,
    removed: np.ndarray,
    size: np.ndarray,
) -> None:
    """Subtree sizes of the component rooted at comp[0] (DFS order trick:
    comp is BFS order from the seed, so reversed iteration accumulates)."""
    # rebuild as DFS from seed with explicit parent-in-component
    seed = comp[0]
    parent_in = {seed: -1}
    order: List[int] = [seed]
    i = 0
    while i < len(order):
        x = order[i]
        i += 1
        for j in range(offsets[x], offsets[x + 1]):
            y = int(nbrs[j])
            if not removed[y] and y not in parent_in:
                parent_in[y] = x
                order.append(y)
    for x in order:
        size[x] = 1
    for x in reversed(order):
        p = parent_in[x]
        if p >= 0:
            size[p] += size[x]


def _find_centroid(
    seed: int,
    comp_size: int,
    offsets: np.ndarray,
    nbrs: np.ndarray,
    removed: np.ndarray,
    size: np.ndarray,
) -> int:
    """Walk from the seed toward the heavy side until balanced.

    ``size`` holds seed-rooted subtree sizes, under which a neighbor y is
    a child of x iff ``size[y] < size[x]`` (strict in a tree); the parent
    side then weighs ``comp_size - size[x]``.
    """
    x = int(seed)
    while True:
        heavy = -1
        heavy_size = 0
        for j in range(offsets[x], offsets[x + 1]):
            y = int(nbrs[j])
            if removed[y]:
                continue
            s = int(size[y]) if size[y] < size[x] else comp_size - int(size[x])
            if s > heavy_size:
                heavy_size = s
                heavy = y
        if heavy_size * 2 <= comp_size:
            return x
        x = heavy


def deepest_on_interest_path(
    tree: RootedTree,
    cd: CentroidDecomposition,
    top: int,
    member: Callable[[int], bool],
    ledger: Ledger = NULL_LEDGER,
) -> int:
    """Deepest node of the descending path P anchored at ``top``.

    ``member(x)`` answers "is x on P" for any vertex x (by Claim 4.8
    membership is intrinsic: x is on P iff e is interested in the edge
    (x, p(x)); ``member(top)`` must be True).  Returns the deepest node
    of P.  Probes O(log n) membership queries (charged by the member
    callback itself); navigation uses centroid-parent walks, charged
    O(log n) work per level.

    The case analysis at each centroid c relies only on P being a
    descending path starting at ``top``:

    * ``member(c)`` true  -> the answer is c or in the subtree of the
      unique member child (probe the <=2 children — the tree is
      binarized);
    * ``member(c)`` false -> the answer avoids T_c entirely when c is
      below top, so move toward ``top``: into the child component
      containing top when c is a proper ancestor of top, else into the
      parent-side component.
    """
    c = cd.cent_root
    levels = 0
    while True:
        levels += 1
        if levels > cd.height + 2:  # pragma: no cover - safety net
            raise GraphFormatError("centroid search failed to converge")
        if c == top or (tree.is_ancestor(top, c) and member(c)):
            # c is on P; does P continue into a child of c?
            nxt = -1
            for ch in _tree_children(tree, c):
                # a continuation child must be inside c's current
                # centroid component; if it is not, P cannot continue
                # there while the answer stays in the component.
                if member(ch):
                    nxt = ch
                    break
            if nxt < 0:
                return c
            c = child_component_toward(cd, c, nxt)
            ledger.charge(work=float(log2ceil(max(tree.n, 2)) + 1), depth=1.0)
            continue
        # c is not on P: move toward `top`
        if tree.is_ancestor(c, top) and c != top:
            # proper ancestor: descend toward the child holding `top`
            step = _tree_child_toward(tree, c, top)
            c = child_component_toward(cd, c, step)
        else:
            # c below or unrelated to top: the answer avoids T_c; go to
            # the parent-side component
            p = int(tree.parent[c])
            if p < 0:  # pragma: no cover - c can only be the root if top is too
                return top
            c = child_component_toward(cd, c, p)
        ledger.charge(work=float(log2ceil(max(tree.n, 2)) + 1), depth=1.0)


def child_component_toward(cd: CentroidDecomposition, c: int, y: int) -> int:
    """The centroid-tree child of ``c`` whose component contains ``y``
    (requires ``y`` to lie strictly inside c's component)."""
    x = int(y)
    while cd.cent_parent[x] != c:
        x = int(cd.cent_parent[x])
        if x < 0:
            raise GraphFormatError("target vertex is not in the centroid's component")
    return x


_children_cache_key = "_repro_children_cache"


def _tree_children(tree: RootedTree, x: int) -> List[int]:
    cache = getattr(tree, _children_cache_key, None)
    if cache is None:
        cache = tree.children_lists()
        object.__setattr__(tree, _children_cache_key, cache)
    return cache[x]


def _tree_child_toward(tree: RootedTree, anc: int, target: int) -> int:
    """The child of ``anc`` whose subtree contains ``target``."""
    for ch in _tree_children(tree, anc):
        if tree.is_ancestor(ch, target):
            return ch
    raise GraphFormatError("target not under ancestor")


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
        cd = reference_centroid_decomposition(rt, ledger=ledger)
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
