"""Weighted undirected graph container used by every layer of the library.

The representation is a flat edge list in numpy arrays (``u``, ``v``,
``w``) — the natural shape for the data-parallel primitives: skeleton
sampling transforms ``w`` vector-wise, spanning forests operate on edge
arrays, and the 2-D range structures consume ``(post(u), post(v), w)``
point arrays built directly from these columns.  A CSR-style incidence
view is built lazily for the few consumers that need per-vertex
iteration.

Graphs are immutable; all transformations return new instances sharing
unchanged arrays.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError, IntegerWeightsRequired

__all__ = ["Graph", "component_labels"]


def component_labels(n: int, u: np.ndarray, v: np.ndarray) -> Tuple[int, np.ndarray]:
    """``(count, labels)`` of the connected components of edges ``(u, v)``
    on vertices ``0 .. n-1``.

    Components are numbered ``0 .. count-1`` in the order of their
    smallest vertex, so vertex 0 is always in component 0.  Min-label
    hooking with pointer jumping: each round every tree root hooks onto
    the smallest root adjacent to it, then pointers jump until every
    vertex points at its root.  A root never rises, so the root of a
    component is its smallest vertex; a tree that does not hook in one
    round (a local minimum) is hooked onto in the next, so the number
    of trees per component halves every two rounds — O(log n) rounds
    of O(m + n) vectorised work each.  Edges inside one tree are
    dropped as soon as they are seen, since they can never hook again.
    """
    root = np.arange(n, dtype=np.int64)
    a = np.asarray(u, dtype=np.int64)
    b = np.asarray(v, dtype=np.int64)
    while a.size:
        ra, rb = root[a], root[b]
        live = ra != rb
        a, b, ra, rb = a[live], b[live], ra[live], rb[live]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    is_root = root == np.arange(n)
    ids = np.cumsum(is_root) - 1
    return int(ids[-1]) + 1 if n else 0, ids[root]


class Graph:
    """An undirected weighted graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    u, v:
        Edge endpoint arrays (each of length m).  Self loops are
        rejected; parallel edges are allowed (the Section 3 machinery
        treats a weight-w edge as w parallel unit edges anyway).
    w:
        Positive edge weights (float64).  Omit for unit weights.
    """

    __slots__ = ("n", "u", "v", "w", "__dict__")

    def __init__(
        self,
        n: int,
        u: np.ndarray,
        v: np.ndarray,
        w: Optional[np.ndarray] = None,
        *,
        validate: bool = True,
    ) -> None:
        self.n = int(n)
        self.u = np.ascontiguousarray(u, dtype=np.int64)
        self.v = np.ascontiguousarray(v, dtype=np.int64)
        if w is None:
            w = np.ones(self.u.shape[0], dtype=np.float64)
        self.w = np.ascontiguousarray(w, dtype=np.float64)
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[Tuple[int, int, float]] | Iterable[Tuple[int, int]]
    ) -> "Graph":
        """Build from an iterable of ``(u, v)`` or ``(u, v, w)`` tuples."""
        rows = [tuple(e) for e in edges]
        if not rows:
            return cls(n, np.empty(0, np.int64), np.empty(0, np.int64))
        if len(rows[0]) == 2:
            u, v = (np.array(col, dtype=np.int64) for col in zip(*rows))
            return cls(n, u, v)
        u, v, w = zip(*rows)
        return cls(
            n,
            np.array(u, dtype=np.int64),
            np.array(v, dtype=np.int64),
            np.array(w, dtype=np.float64),
        )

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, np.empty(0, np.int64), np.empty(0, np.int64))

    def _validate(self) -> None:
        m = self.u.shape[0]
        if self.v.shape[0] != m or self.w.shape[0] != m:
            raise GraphFormatError("edge arrays must have equal length")
        if self.n < 0:
            raise GraphFormatError("negative vertex count")
        if m:
            if self.u.min(initial=0) < 0 or self.v.min(initial=0) < 0:
                raise GraphFormatError("negative vertex id")
            if self.u.max(initial=-1) >= self.n or self.v.max(initial=-1) >= self.n:
                raise GraphFormatError("vertex id out of range")
            if np.any(self.u == self.v):
                raise GraphFormatError("self loops are not allowed")
            if np.any(self.w <= 0):
                raise GraphFormatError("edge weights must be positive")
            if not np.all(np.isfinite(self.w)):
                raise GraphFormatError("edge weights must be finite")

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of (parallel-counted) edges."""
        return int(self.u.shape[0])

    @property
    def total_weight(self) -> float:
        return float(self.w.sum())

    @property
    def nbytes(self) -> int:
        """Bytes held by the three edge columns (the raw-column size of
        the binary format; mmap-backed graphs resident-set gate against
        this)."""
        return int(self.u.nbytes + self.v.nbytes + self.w.nbytes)

    @cached_property
    def weighted_degrees(self) -> np.ndarray:
        """Per-vertex total incident weight (length n)."""
        deg = np.zeros(self.n, dtype=np.float64)
        np.add.at(deg, self.u, self.w)
        np.add.at(deg, self.v, self.w)
        return deg

    @cached_property
    def incidence(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Symmetric incidence arrays ``(offsets, neighbors, edge_ids)``.

        ``neighbors[offsets[x]:offsets[x+1]]`` are the neighbors of x and
        ``edge_ids`` the indices into ``self.u/v/w`` of the corresponding
        edges (each edge appears twice, once per endpoint).
        """
        m = self.m
        ends = np.concatenate([self.u, self.v])
        other = np.concatenate([self.v, self.u])
        eid = np.concatenate([np.arange(m), np.arange(m)])
        order = np.argsort(ends, kind="stable")
        ends_s = ends[order]
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(offsets, ends_s + 1, 1)
        np.cumsum(offsets, out=offsets)
        return offsets, other[order], eid[order]

    def neighbors(self, x: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(neighbor_vertices, edge_ids)`` for vertex ``x``."""
        offsets, nbr, eid = self.incidence
        lo, hi = offsets[x], offsets[x + 1]
        return nbr[lo:hi], eid[lo:hi]

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def connected_components(self) -> Tuple[int, np.ndarray]:
        """``(count, labels)`` of connected components (ignores weights),
        numbered by smallest vertex; see :func:`component_labels`."""
        return component_labels(self.n, self.u, self.v)

    def is_connected(self) -> bool:
        k, _ = self.connected_components()
        return k <= 1

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def with_weights(self, w: np.ndarray, *, drop_zero: bool = True) -> "Graph":
        """Same topology, new weights.  Zero-weight edges are dropped
        (skeleton sampling produces them)."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape[0] != self.m:
            raise GraphFormatError("weight array length mismatch")
        if drop_zero:
            keep = w > 0
            return Graph(self.n, self.u[keep], self.v[keep], w[keep], validate=False)
        return Graph(self.n, self.u, self.v, w)

    def subgraph_edges(self, mask_or_index: np.ndarray) -> "Graph":
        """Graph with the selected subset of edges (same vertex set)."""
        idx = np.asarray(mask_or_index)
        return Graph(self.n, self.u[idx], self.v[idx], self.w[idx], validate=False)

    def coalesced(self) -> "Graph":
        """Merge parallel edges, summing weights."""
        if self.m == 0:
            return self
        a = np.minimum(self.u, self.v)
        b = np.maximum(self.u, self.v)
        key = a * self.n + b
        order = np.argsort(key, kind="stable")
        key_s = key[order]
        w_s = self.w[order]
        boundary = np.empty(key_s.shape[0], dtype=bool)
        boundary[0] = True
        boundary[1:] = key_s[1:] != key_s[:-1]
        group = np.cumsum(boundary) - 1
        nw = np.zeros(int(group[-1]) + 1, dtype=np.float64)
        np.add.at(nw, group, w_s)
        firsts = np.flatnonzero(boundary)
        return Graph(self.n, a[order][firsts], b[order][firsts], nw, validate=False)

    def contract(self, labels: np.ndarray) -> Tuple["Graph", np.ndarray]:
        """Quotient graph under a vertex labelling.

        Vertices with equal label merge into one supervertex; edges
        inside a class disappear, parallel superedges coalesce (weights
        sum).  Returns ``(quotient, dense_labels)`` where
        ``dense_labels[v]`` is v's supervertex id in ``0..k-1``.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (self.n,):
            raise GraphFormatError("label array must have length n")
        uniq, dense = np.unique(labels, return_inverse=True)
        k = int(uniq.shape[0])
        cu = dense[self.u]
        cv = dense[self.v]
        keep = cu != cv
        quotient = Graph(k, cu[keep], cv[keep], self.w[keep], validate=False).coalesced()
        return quotient, dense

    def integerized(self, *, resolution: float = 1000.0) -> Tuple["Graph", float]:
        """Integer-weight version for multigraph-semantics algorithms.

        Returns ``(graph', scale)`` with ``w' = round(w * scale)``; for
        already-integral weights this is ``(self, 1.0)``.  Real weights
        scale so the lightest edge maps to ``resolution`` units, keeping
        relative rounding error below ``1/resolution``.  Cut values on
        ``graph'`` divide by ``scale`` to speak for ``self``.
        """
        scale = self.integer_scale(resolution=resolution)
        if scale is None:
            return self, 1.0
        return self.with_weights(np.maximum(np.rint(self.w * scale), 1.0)), scale

    def integer_scale(self, *, resolution: float = 1000.0) -> Optional[float]:
        """The factor :meth:`integerized` multiplies the weights by, or
        None when they are already integral (and at least 1)."""
        w_int = np.rint(self.w)
        if (
            np.allclose(self.w, w_int, rtol=0, atol=1e-9)
            and w_int.min(initial=1) >= 1
        ):
            return None
        return resolution / float(self.w.min())

    def require_integer_weights(self) -> np.ndarray:
        """Return weights as int64, raising if they are not integral."""
        w_int = np.rint(self.w)
        if not np.allclose(self.w, w_int, rtol=0, atol=1e-9):
            raise IntegerWeightsRequired(
                "this routine interprets weight-w edges as w parallel unit "
                "edges and requires integer weights"
            )
        return w_int.astype(np.int64)

    # ------------------------------------------------------------------
    # cuts
    # ------------------------------------------------------------------
    def cut_value(self, side: np.ndarray) -> float:
        """Total weight crossing the vertex bipartition ``side`` (boolean
        length-n mask; True = one side)."""
        side = np.asarray(side, dtype=bool)
        if side.shape[0] != self.n:
            raise GraphFormatError("side mask length mismatch")
        cross = side[self.u] != side[self.v]
        return float(self.w[cross].sum())

    def cut_edges(self, side: np.ndarray) -> np.ndarray:
        """Edge indices crossing the bipartition."""
        side = np.asarray(side, dtype=bool)
        return np.flatnonzero(side[self.u] != side[self.v])

    # ------------------------------------------------------------------
    # interop / dunder
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export to ``networkx.Graph`` (parallel edges coalesced)."""
        import networkx as nx

        g = self.coalesced()
        out = nx.Graph()
        out.add_nodes_from(range(g.n))
        out.add_weighted_edges_from(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))
        return out

    @classmethod
    def from_networkx(cls, g, weight: str = "weight") -> "Graph":
        """Import from a networkx graph (nodes relabelled to 0..n-1)."""
        nodes = list(g.nodes())
        index = {x: i for i, x in enumerate(nodes)}
        edges = [
            (index[a], index[b], float(d.get(weight, 1.0)))
            for a, b, d in g.edges(data=True)
        ]
        return cls.from_edges(len(nodes), edges)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        for i in range(self.m):
            yield int(self.u[i]), int(self.v[i]), float(self.w[i])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.m}, total_weight={self.total_weight:g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.v, other.v)
            and np.array_equal(self.w, other.w)
        )

    def __hash__(self) -> int:  # Graphs are immutable by convention
        return hash((self.n, self.m, float(self.w.sum())))
