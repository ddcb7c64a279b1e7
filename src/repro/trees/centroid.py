"""Centroid decomposition (Lemma 4.12).

The decomposition recursively removes a *centroid* (a vertex whose
removal leaves components of size <= |T|/2), producing a centroid tree
of depth O(log n).  :func:`centroid_decomposition` builds it level by
level with numpy passes, for one tree or a lockstep group's trees at
once; it finds exactly the centroids of the sequential seed walk (kept
as the test oracle in ``tests/reference_tworespect.py``).  The
2-respecting algorithm walks it to locate, for every tree edge e, the
terminal nodes c_e / d_e of e's cross- and down-interest paths (Claims
4.8 and 4.13) with O(log n) *oracle probes* per edge
(:mod:`repro.kernels.terminals`; the per-edge search it must match,
``deepest_on_interest_path``, lives in ``tests/reference_tworespect.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.pram.combinators import log2ceil
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.primitives.euler import RootedTree

__all__ = ["CentroidDecomposition", "centroid_decomposition"]


@dataclass(frozen=True)
class CentroidDecomposition:
    """Centroid tree over the vertices of a rooted tree.

    Attributes
    ----------
    cent_parent:
        Parent of each vertex in the *centroid tree* (-1 for the global
        centroid root).
    cent_depth:
        Depth in the centroid tree (root = 0); max depth is O(log n).
    cent_root:
        The global centroid.
    """

    cent_parent: np.ndarray
    cent_depth: np.ndarray
    cent_root: int

    @property
    def n(self) -> int:
        return int(self.cent_parent.shape[0])

    @property
    def height(self) -> int:
        return int(self.cent_depth.max()) + 1 if self.n else 0


def centroid_decomposition(
    tree: Union[RootedTree, Sequence[RootedTree]],
    ledger: Union[Ledger, Sequence[Ledger]] = NULL_LEDGER,
) -> Union[CentroidDecomposition, List[CentroidDecomposition]]:
    """Decompose ``tree`` (any degrees) into a centroid tree.

    Charged at Lemma 4.12's cost: O(n log n) work (the summed sizes of
    the components split), O(log n) depth.  Given a sequence of trees
    (charging the matching ledgers), decomposes them all at once and
    returns their decompositions: the trees form one forest, and each
    centroid level of all of them is one round of numpy passes.

    The centroid of a component C entered at ``seed`` is the one the
    sequential walk from the seed toward the heavy side finds: the
    deepest vertex of the chain {x : 2 size_seed(x) > |C|} of
    seed-rooted subtree sizes, i.e. its member of smallest
    ``size_seed``.  Each round computes it for every component at once:

    * the component's top vertex (highest in the original rooting), by
      pointer jumping over alive parents;
    * top-rooted sizes within the component, counted by two searches in
      one sort of the alive vertices by (top, postorder rank);
    * seed-rooted sizes, which differ only on the seed -> top path:
      there ``size_seed(x) = |C| - size_top(child of x toward seed)``;
    * the next seeds: the alive neighbours of the round's centroids.
    """
    if isinstance(tree, RootedTree):
        return centroid_decomposition([tree], [ledger])[0]  # type: ignore[list-item]
    trees = list(tree)
    offsets = np.zeros(len(trees) + 1, dtype=np.int64)
    np.cumsum([t.n for t in trees], out=offsets[1:])
    cent_parent, cent_depth, roots = _forest_centroids(trees, offsets)
    out = []
    for i, (t, led) in enumerate(zip(trees, ledger)):  # type: ignore[arg-type]
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        depth = cent_depth[lo:hi]
        if t.n:
            # a vertex lies in one component per level down to its own,
            # so the summed component sizes are sum(cent_depth + 1)
            work = int(depth.sum()) + t.n
            led.charge(work=float(work), depth=float(log2ceil(max(t.n, 2))))
        out.append(CentroidDecomposition(cent_parent[lo:hi], depth, int(roots[i])))
    return out


def _forest_centroids(
    trees: List[RootedTree], offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(cent_parent, cent_depth, roots)`` of the forest of ``trees``
    (vertex v of tree i is forest vertex ``offsets[i] + v``), computed
    level by level; parents and roots come back as tree-local ids."""
    total = int(offsets[-1])
    cent_parent = np.full(total, -1, dtype=np.int64)
    cent_depth = np.zeros(total, dtype=np.int64)
    roots = np.full(len(trees), -1, dtype=np.int64)
    if total == 0:
        return cent_parent, cent_depth, roots
    shift = np.repeat(offsets[:-1], [t.n for t in trees])
    parent = np.concatenate([t.parent for t in trees]).astype(np.int64)
    has_parent = parent >= 0
    parent = np.where(has_parent, parent + shift, 0)
    post = np.concatenate([t.post for t in trees]).astype(np.int64) + shift
    low = post - (np.concatenate([t.size for t in trees]).astype(np.int64) - 1)
    ids = np.arange(total, dtype=np.int64)
    alive = np.ones(total, dtype=bool)
    seeds = np.asarray(
        [t.root + o for t, o in zip(trees, offsets[:-1].tolist()) if t.n], dtype=np.int64
    )
    cpar = np.full(seeds.shape[0], -1, dtype=np.int64)
    seed_of = np.full(total, -1, dtype=np.int64)  # indexed by a top vertex
    cpar_of = np.full(total, -1, dtype=np.int64)
    size_seed = np.zeros(total, dtype=np.int64)
    level = 0
    while seeds.shape[0]:
        # each alive vertex's top: the highest vertex it reaches through
        # alive parents (pointer jumping)
        up = np.where(has_parent & alive[parent], parent, ids)
        act = np.flatnonzero(alive)
        cur = up[act]
        while True:
            nxt = up[cur]
            if np.array_equal(nxt, cur):
                break
            up[act] = cur = nxt
        top_s = up[seeds]
        seed_of[top_s] = seeds
        cpar_of[top_s] = cpar
        # this level's components are the seeded ones (a component the
        # walk never enters keeps its vertices undecomposed)
        act = act[seed_of[cur] >= 0]
        top = up[act]
        csize = np.bincount(top, minlength=total)
        comp = csize[top]
        key = top * total + post[act]
        keys = np.sort(key)
        size_top = np.searchsorted(keys, key, side="right") - np.searchsorted(
            keys, top * total + low[act], side="left"
        )
        # re-root at the seed: only the seed -> top path changes
        size_seed[act] = size_top
        s_post = post[seed_of[top]]
        below = (low[act] <= s_post) & (s_post <= post[act]) & (act != top)
        size_seed[parent[act[below]]] = comp[below] - size_top[below]
        size_seed[seeds] = csize[top_s]
        ss = size_seed[act]
        chain = np.flatnonzero(2 * ss > comp)
        # per component, the chain member of smallest seed-rooted size
        chain = chain[np.lexsort((ss[chain], top[chain]))]
        ctop = top[chain]
        first = np.ones(chain.shape[0], dtype=bool)
        first[1:] = ctop[1:] != ctop[:-1]
        cents = act[chain[first]]
        ctops = ctop[first]
        cent_parent[cents] = cpar_of[ctops]
        cent_depth[cents] = level
        if level == 0:
            roots[np.searchsorted(offsets, cents, side="right") - 1] = cents
        alive[cents] = False
        seed_of[ctops] = -1
        # next seeds: each centroid's alive children and alive parent
        is_cent = np.zeros(total, dtype=bool)
        is_cent[cents] = True
        kids = np.flatnonzero(alive & has_parent & is_cent[parent])
        ups = cents[has_parent[cents] & alive[parent[cents]]]
        seeds = np.concatenate([kids, parent[ups]])
        cpar = np.concatenate([parent[kids], ups])
        level += 1
    linked = cent_parent >= 0
    cent_parent[linked] -= shift[linked]
    found = roots >= 0
    roots[found] -= offsets[:-1][found]
    return cent_parent, cent_depth, roots
