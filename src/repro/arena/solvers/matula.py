"""Matula's deterministic (2+eps)-approximation of edge connectivity.

The paper's introduction cites this [Mat93] as the linear-time
*sequential* approximation whose parallel counterpart was missing —
the gap Section 3 fills.  We include it as the sequential baseline the
Theorem 3.1 experiments compare against, and as the arena's
deterministic-approximation contender.

The algorithm alternates two facts:

* the minimum weighted degree delta is itself a cut, so lambda <= delta;
* a sparse k-connectivity certificate with k = delta/(2+eps) contains
  every cut of value < k, so edges carrying weight *beyond* the
  certificate join endpoints that are >= k connected and can be
  contracted without touching any cut of value < k — in particular the
  minimum cut, unless lambda >= k = delta/(2+eps), in which case delta
  is already a (2+eps)-approximation.

Iterating until the graph collapses yields
``lambda <= min_iterations(delta) <= (2+eps) lambda``.

Everything inside one iteration is vectorized over the array-backed
:class:`~repro.graphs.Graph`: the certificate weights come back
aligned to the edge arrays (:func:`repro.sparsify.certificate.
certificate_weights`), the "weight beyond the certificate" test is one
array subtraction, and the resulting contraction is a single
connected-components call on the beyond-certificate subgraph.

On weighted graphs the exact rule needs ``ceil(delta / (2+eps))``
certificate forests per iteration, which is prohibitive when the
minimum weighted degree is large (dense multigraphs).
``max_certificate_rounds`` caps the per-iteration forest count; a
capped round contracts *more* aggressively (a lighter certificate
leaves more weight beyond it), which stays sound but weakens the
guarantee by the capping factor — the returned ``stats["ratio"]``
always reports the ratio actually certified.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.graph import Graph, component_labels
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.results import CutResult
from repro.sparsify.certificate import certificate_weights

__all__ = ["matula_approx"]

#: slack for "carries weight beyond the certificate"
_TOL = 1e-12


def matula_approx(
    graph: Graph,
    epsilon: float = 0.5,
    ledger: Ledger = NULL_LEDGER,
    *,
    max_certificate_rounds: Optional[int] = None,
) -> CutResult:
    """(2+eps)-approximate minimum cut value with a degree-cut witness.

    Returns a :class:`CutResult` whose value is the best (smallest)
    supervertex degree-cut seen — always >= lambda, and <= ratio *
    lambda — and whose side is that supervertex's preimage (a real cut
    of the input attaining the value).  ``stats["ratio"]`` is the
    certified approximation ratio: ``2 + epsilon`` exactly when
    ``max_certificate_rounds`` never binds, inflated by the worst
    per-iteration capping factor otherwise.
    """
    if graph.n < 2:
        raise GraphFormatError("min cut needs at least 2 vertices")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if max_certificate_rounds is not None and max_certificate_rounds < 1:
        raise ValueError("max_certificate_rounds must be >= 1")
    k_comp, comp = graph.connected_components()
    if k_comp > 1:
        return CutResult(value=0.0, side=comp == comp[0])

    current = graph.coalesced()
    mapping = np.arange(graph.n, dtype=np.int64)  # original -> current id
    best_value = math.inf
    best_vertex_preimage: Optional[np.ndarray] = None
    cap_factor = 1.0  # worst k_exact / k_used over contracting iterations
    iterations = 0

    while current.n >= 2:
        iterations += 1
        degrees = current.weighted_degrees
        v_min = int(np.argmin(degrees))
        delta = float(degrees[v_min])
        ledger.charge(work=float(current.m + current.n), depth=1.0)
        if delta < best_value:
            best_value = delta
            best_vertex_preimage = mapping == v_min
        k_exact = max(int(math.ceil(delta / (2.0 + epsilon))), 1)
        k_used = k_exact
        if max_certificate_rounds is not None:
            k_used = min(k_exact, max_certificate_rounds)
        cert_w, _ = certificate_weights(current, k_used, ledger=ledger)
        # weight beyond the certificate == endpoints are > k_used connected
        beyond = np.flatnonzero(current.w - cert_w > _TOL)
        if beyond.size == 0:
            break
        k_cc, labels = component_labels(current.n, current.u[beyond], current.v[beyond])
        ledger.charge(work=float(beyond.size + current.n), depth=1.0)
        if k_cc == current.n:  # pragma: no cover - beyond.size>0 implies a merge
            break
        cap_factor = max(cap_factor, k_exact / k_used)
        current, dense = current.contract(labels)
        mapping = dense[mapping]
    assert best_vertex_preimage is not None
    side = best_vertex_preimage
    if side.all():  # pragma: no cover - defensive
        side = ~side
    return CutResult(
        value=float(best_value),
        side=side,
        stats={
            "ratio": (2.0 + epsilon) * cap_factor,
            "iterations": float(iterations),
        },
    )
