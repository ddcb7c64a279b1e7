"""Rooted-tree computations via the Euler-tour technique.

The paper uses the Euler-tour technique [J92] for three quantities, each
O(n) work and O(log n) depth on a PRAM:

* rooting an undirected tree at ``r`` (parent pointers),
* postorder numbering ``post(u)`` (Lemma A.1's coordinate system), and
* subtree sizes ``size(u)`` (centroid decomposition, Lemma 4.12).

We compute them with an iterative traversal (Python recursion depth is
too small for path-shaped trees) and charge the Euler-tour model cost.
The *consistency contract* that the whole range-search layer relies on
(Lemma A.1, facts (1)-(2)) is::

    start(u) = post(u) - (size(u) - 1)
    subtree(u)  == the contiguous postorder range [start(u), post(u)]

which :func:`postorder` guarantees by construction and the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.pram.combinators import log2ceil
from repro.pram.ledger import Ledger, NULL_LEDGER

__all__ = ["RootedTree", "root_tree", "postorder", "tree_depths"]


@dataclass(frozen=True)
class RootedTree:
    """A rooted spanning tree in parent-array form, with the Euler-tour
    derived quantities the cut-query layer needs.

    Tree *edges* are identified by their child endpoint: edge ``u`` is
    ``(u, parent[u])`` for every non-root ``u`` (as in the paper's
    Appendix A notation ``e = (u, p(u))``).
    """

    root: int
    parent: np.ndarray  # parent[root] == -1
    post: np.ndarray  # postorder rank, 0-based
    size: np.ndarray  # number of vertices in subtree (incl. self)
    depth: np.ndarray  # edge-distance from root
    order: np.ndarray  # vertices in postorder: order[post[u]] == u

    def __getstate__(self) -> dict:
        # derived-structure memos (treecache's LCA table, centroid's
        # children lists) live on the instance under "_repro_*" keys;
        # they are pure functions of the tree and must not ride along
        # through pickling — each consumer process rebuilds (and
        # re-charges) its own, exactly as a fresh instance would
        return {
            k: v for k, v in self.__dict__.items() if not k.startswith("_repro_")
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @property
    def n(self) -> int:
        return int(self.parent.shape[0])

    def start(self, u) -> np.ndarray | int:
        """Leftmost postorder rank in u's subtree (Lemma A.1's start)."""
        return self.post[u] - (self.size[u] - 1)

    def is_ancestor(self, a: int, b: int) -> bool:
        """True iff ``a`` is an ancestor of ``b`` (or equal)."""
        return bool(self.start(a) <= self.post[b] <= self.post[a])

    def tree_edges(self) -> np.ndarray:
        """Child endpoints of all n-1 tree edges."""
        return np.flatnonzero(self.parent >= 0)

    def children_lists(self) -> List[List[int]]:
        ch: List[List[int]] = [[] for _ in range(self.n)]
        for u in range(self.n):
            p = int(self.parent[u])
            if p >= 0:
                ch[p].append(u)
        return ch


def _children_arrays(parent: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR-style (offsets, children) from a parent array."""
    n = parent.shape[0]
    nonroot = np.flatnonzero(parent >= 0)
    order = np.argsort(parent[nonroot], kind="stable")
    kids = nonroot[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, parent[nonroot] + 1, 1)
    np.cumsum(offsets, out=offsets)
    return offsets, kids


def root_tree(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    root: int = 0,
    ledger: Ledger = NULL_LEDGER,
) -> np.ndarray:
    """Orient an undirected tree (n-1 edges) away from ``root``.

    Returns the parent array.  Charged at the Euler-tour cost: O(n) work,
    O(log n) depth.
    """
    if u.shape[0] != max(n - 1, 0):
        raise GraphFormatError(f"a tree on {n} vertices needs {n - 1} edges, got {u.shape[0]}")
    parent = np.full(n, -1, dtype=np.int64)
    if n <= 1:
        ledger.charge(work=max(n, 1), depth=1)
        return parent
    # adjacency over both directions
    ends = np.concatenate([u, v])
    other = np.concatenate([v, u])
    order = np.argsort(ends, kind="stable")
    ends_s, other_s = ends[order], other[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, ends_s + 1, 1)
    np.cumsum(offsets, out=offsets)
    seen = np.zeros(n, dtype=bool)
    seen[root] = True
    frontier = [int(root)]
    visited = 1
    while frontier:
        nxt: List[int] = []
        for x in frontier:
            lo, hi = offsets[x], offsets[x + 1]
            for y in other_s[lo:hi]:
                y = int(y)
                if not seen[y]:
                    seen[y] = True
                    parent[y] = x
                    nxt.append(y)
                    visited += 1
        frontier = nxt
    if visited != n:
        raise GraphFormatError("edge set does not span a connected tree")
    ledger.charge(work=float(n), depth=float(log2ceil(max(n, 2))))
    return parent


def postorder(
    parent: np.ndarray,
    root: Optional[int] = None,
    ledger: Ledger = NULL_LEDGER,
) -> RootedTree:
    """Postorder numbering, subtree sizes and depths of a rooted tree.

    The traversal visits children in increasing vertex order, so the
    numbering is deterministic.  Charged at the Euler-tour cost.
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = int(parent.shape[0])
    roots = np.flatnonzero(parent < 0)
    if roots.shape[0] != 1:
        raise GraphFormatError("parent array must have exactly one root")
    r = int(roots[0])
    if root is not None and root != r:
        raise GraphFormatError(f"declared root {root} but parent array roots at {r}")
    offsets, kids = _children_arrays(parent)
    post = np.empty(n, dtype=np.int64)
    size = np.ones(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    order_arr = np.empty(n, dtype=np.int64)
    counter = 0
    # iterative DFS: (vertex, next-child cursor)
    stack: List[List[int]] = [[r, 0]]
    visited = 1
    while stack:
        frame = stack[-1]
        x, cursor = frame
        lo, hi = int(offsets[x]), int(offsets[x + 1])
        if cursor < hi - lo:
            frame[1] += 1
            child = int(kids[lo + cursor])
            depth[child] = depth[x] + 1
            stack.append([child, 0])
            visited += 1
        else:
            stack.pop()
            post[x] = counter
            order_arr[counter] = x
            counter += 1
            if stack:
                size[stack[-1][0]] += size[x]
    if visited != n or counter != n:
        raise GraphFormatError("parent array contains a cycle or unreachable vertex")
    ledger.charge(work=float(n), depth=float(log2ceil(max(n, 2))))
    return RootedTree(root=r, parent=parent, post=post, size=size, depth=depth, order=order_arr)


def tree_depths(parent: np.ndarray) -> np.ndarray:
    """Edge-distance of every vertex from the root (convenience)."""
    return postorder(parent).depth
