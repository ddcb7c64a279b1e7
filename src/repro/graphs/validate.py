"""Cut and partition validation helpers used by tests and the driver."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.graph import Graph

__all__ = [
    "ensure_finite_weights",
    "check_side_mask",
    "validate_cut",
    "side_from_vertices",
    "brute_force_min_cut",
]


def ensure_finite_weights(graph: Graph) -> Graph:
    """Reject NaN/inf edge weights, non-finite totals, and weights whose
    integer scaling (:meth:`Graph.integerized`) overflows a 64-bit count.

    Graphs built through transformation helpers (``with_weights``,
    ``subgraph_edges``, …) skip construction-time validation for speed;
    NaN and inf would otherwise flow silently into the float64 exact
    path, where every comparison against NaN is False and the pipeline
    returns garbage instead of failing.  Entry points call this once.
    """
    if graph.m and not np.all(np.isfinite(graph.w)):
        bad = int(np.flatnonzero(~np.isfinite(graph.w))[0])
        raise GraphFormatError(
            f"edge weights must be finite (edge {bad} has weight {graph.w[bad]!r})"
        )
    with np.errstate(over="ignore"):
        total = graph.total_weight
        if not np.isfinite(total):
            raise GraphFormatError(f"total edge weight is not finite ({total!r})")
        # Section 3 reads an integer weight w as w parallel unit edges
        # (Graph.integerized scales real weights first): the integer
        # total must fit a 64-bit count
        units = total * (graph.integer_scale() or 1.0) if graph.m else 0.0
    if not units < 2.0**62:
        raise GraphFormatError(
            f"edge weights span too wide a range: {units:.3g} integer units "
            "after scaling exceeds 2^62"
        )
    return graph


def check_side_mask(graph: Graph, side: np.ndarray) -> np.ndarray:
    """Validate that ``side`` is a proper bipartition mask (non-trivial on
    both sides) and return it as a boolean array."""
    side = np.asarray(side, dtype=bool)
    if side.shape != (graph.n,):
        raise GraphFormatError("side mask must have length n")
    k = int(side.sum())
    if k == 0 or k == graph.n:
        raise GraphFormatError("cut side must be a proper nonempty subset")
    return side


def validate_cut(graph: Graph, side: np.ndarray, value: float, *, rtol: float = 1e-9) -> None:
    """Assert that ``side`` really induces a cut of weight ``value``."""
    if not np.isfinite(value):
        raise GraphFormatError(f"cut value must be finite, got {value!r}")
    side = check_side_mask(graph, side)
    actual = graph.cut_value(side)
    if not np.isclose(actual, value, rtol=rtol, atol=1e-9):
        raise AssertionError(f"cut mask has value {actual}, reported {value}")


def side_from_vertices(n: int, vertices) -> np.ndarray:
    """Boolean mask from an iterable of vertex ids."""
    side = np.zeros(n, dtype=bool)
    side[np.asarray(list(vertices), dtype=np.int64)] = True
    return side


def brute_force_min_cut(graph: Graph) -> Tuple[float, np.ndarray]:
    """Exhaustive minimum cut over all 2^(n-1) bipartitions.

    Only for tiny test graphs (n <= ~16).  Returns ``(value, side)``.
    Disconnected graphs return value 0 with one component as the side.
    """
    if graph.n < 2:
        raise GraphFormatError("min cut needs at least 2 vertices")
    k, labels = graph.connected_components()
    if k > 1:
        return 0.0, labels == labels[0]
    if graph.n > 20:
        raise ValueError("brute force limited to n <= 20")
    best = np.inf
    best_side = None
    # vertex 0 pinned to side False to halve the enumeration
    for bits in range(1, 1 << (graph.n - 1)):
        side = np.zeros(graph.n, dtype=bool)
        for j in range(graph.n - 1):
            if bits >> j & 1:
                side[j + 1] = True
        val = graph.cut_value(side)
        if val < best:
            best, best_side = val, side
    assert best_side is not None
    return float(best), best_side
