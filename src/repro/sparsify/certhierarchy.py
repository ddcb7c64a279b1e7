"""Certificate hierarchy (Algorithm 3.17, Claims 3.18-3.19).

Walks the exclusive hierarchy from the sparsest layer k down to 0,
extracting at most ``200 log n`` spanning forests per layer, with a
global per-edge participation budget ``count_e = 400 log n``: an edge
whose budget is exhausted is deleted from the current and all earlier
(denser) layers.  The key accounting invariant (Claim 3.18) is that
every decrement of ``count_e`` corresponds to one unit edge of any cut
through e being secured in the certificates collected so far, so
``union_{j >= i} H_j`` is a ``200 log n``-cut-certificate of
``G_i^trunc``.

Total work is O(m log n): each edge participates in at most
``400 log n`` forest computations (Claim 3.19).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.multigraph import MultiGraph
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.primitives.connectivity import spanning_forest
from repro.sparsify.hierarchy import TruncatedHierarchy

__all__ = ["CertificateHierarchy", "build_certificate_hierarchy"]


@dataclass
class CertificateHierarchy:
    """Per-layer certificates H_i and their downward unions.

    ``certificates[i]`` is H_i (counts aligned with the base edge
    slots); ``cumulative(i)`` returns ``union_{j >= i} H_j`` as a
    weighted graph, the object the approximation algorithm computes
    min-cuts on.
    """

    hierarchy: TruncatedHierarchy
    certificates: List[MultiGraph]
    forests_per_layer: List[int]

    def cumulative(self, i: int) -> Graph:
        return self._densest if i == 0 else self._union(i)

    @cached_property
    def _densest(self) -> Graph:
        # built once: the approximation reads layer 0's degrees before
        # its layer scan, which may then solve layer 0 too
        return self._union(0)

    def _union(self, i: int) -> Graph:
        counts = np.zeros_like(self.certificates[0].counts)
        for j in range(i, len(self.certificates)):
            counts = counts + self.certificates[j].counts
        base = self.hierarchy.base
        keep = counts > 0
        return Graph(
            base.n, base.u[keep], base.v[keep],
            counts[keep].astype(np.float64), validate=False,
        )

    @property
    def depth(self) -> int:
        return len(self.certificates)


def build_certificate_hierarchy(
    hierarchy: TruncatedHierarchy,
    ledger: Ledger = NULL_LEDGER,
) -> CertificateHierarchy:
    """Algorithm 3.17 over an exclusive hierarchy."""
    params = hierarchy.params
    base = hierarchy.base
    n = base.n
    budget = np.full(
        base.m, params.cert_edge_budget(n), dtype=np.int64
    )  # count_e, Definition in Alg. 3.17 line 2
    max_forests = params.cert_k(n)  # the "200 log n" per layer
    certs: List[MultiGraph] = []
    forests_used: List[int] = []
    for i in range(hierarchy.depth - 1, -1, -1):
        residual = hierarchy.exclusive[i].counts.copy()
        cert_counts = np.zeros_like(residual)
        sfcount = 0
        while sfcount < max_forests:
            residual[budget <= 0] = 0  # line 6: drop exhausted edges
            live = np.flatnonzero(residual > 0)
            if live.size == 0:
                break
            forest_local, _ = spanning_forest(
                n, base.u[live], base.v[live], ledger=ledger
            )
            picked = live[forest_local]
            cert_counts[picked] += 1
            residual[picked] -= 1
            budget[live] -= 1  # every *participating* edge pays (line 8)
            sfcount += 1
        certs.append(MultiGraph(n, base.u, base.v, cert_counts))
        forests_used.append(sfcount)
    certs.reverse()
    forests_used.reverse()
    return CertificateHierarchy(
        hierarchy=hierarchy, certificates=certs, forests_per_layer=forests_used
    )
