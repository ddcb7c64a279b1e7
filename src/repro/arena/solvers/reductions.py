"""VieCut-style exact kernelization feeding Stoer–Wagner.

Henzinger, Noe, Schulz & Strash, *Practical Minimum Cut Algorithms*
(VieCut), showed that a handful of exact reductions shrink real
instances dramatically before any search runs.  This module implements
the three reductions named there that are exact for *global* minimum
cuts, each vectorized over the array-backed :class:`~repro.graphs.
Graph`:

* **parallel-edge** — coalesce parallel edges, summing weights (one
  group-by; :meth:`Graph.coalesced` / :meth:`Graph.contract` do this
  for free);
* **degree-one** — a vertex with a single incident edge has exactly one
  cut separating it from the rest (itself), whose value — its degree —
  is at least the recorded minimum-degree candidate, so the vertex can
  be contracted into its neighbour;
* **heavy-edge** — an edge of weight >= the best candidate cut value
  lambda-hat cannot cross any cut *better* than the candidate, so its
  endpoints can be contracted.  All heavy edges contract at once via
  one connected-components call on the heavy subgraph.

Every round records the minimum-weighted-degree cut as a candidate
(that is what makes the other two rules sound), contracts, and repeats
to a fixpoint.  The kernel then goes to the deterministic
:func:`~repro.arena.solvers.stoer_wagner.stoer_wagner`; the final
answer is the better of the kernel cut (mapped back through the
contraction) and the best candidate.  The whole pipeline is exact and
deterministic.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.graph import Graph, component_labels
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.results import CutResult

__all__ = ["reduce_graph", "viecut_minimum_cut"]


def reduce_graph(
    graph: Graph, ledger: Ledger = NULL_LEDGER
) -> Tuple[Graph, np.ndarray, float, np.ndarray, int]:
    """Run the reduction rounds to a fixpoint.

    Returns ``(kernel, mapping, candidate_value, candidate_side,
    rounds)`` where ``mapping[orig_vertex] -> kernel_vertex`` and the
    candidate is the best (minimum) degree cut recorded along the way
    — a real cut of the input attaining ``candidate_value``.  The
    kernel preserves every cut of the input with value strictly below
    ``candidate_value``.
    """
    current = graph.coalesced()
    mapping = np.arange(graph.n, dtype=np.int64)
    best_value = math.inf
    best_side: Optional[np.ndarray] = None
    rounds = 0

    while current.n >= 2:
        rounds += 1
        degrees = current.weighted_degrees
        v_min = int(np.argmin(degrees))
        delta = float(degrees[v_min])
        ledger.charge(work=float(current.m + current.n), depth=1.0)
        if delta < best_value:
            best_value = delta
            best_side = mapping == v_min

        # degree-one: vertices with exactly one incident (coalesced) edge
        incident = np.bincount(current.u, minlength=current.n) + np.bincount(
            current.v, minlength=current.n
        )
        deg_one = incident == 1
        pick = deg_one[current.u] | deg_one[current.v]
        # heavy-edge: weight >= the candidate means the edge cannot
        # cross any strictly better cut
        pick |= current.w >= best_value
        sel = np.flatnonzero(pick)
        if sel.size == 0:
            break
        k_cc, labels = component_labels(current.n, current.u[sel], current.v[sel])
        ledger.charge(work=float(sel.size + current.n), depth=1.0)
        if k_cc == current.n:  # pragma: no cover - sel nonempty implies merge
            break
        current, dense = current.contract(labels)
        mapping = dense[mapping]

    if best_side is None:
        # n < 2 on entry, or the input collapsed before a degree was read
        best_side = np.zeros(graph.n, dtype=bool)
    return current, mapping, best_value, best_side, rounds


def viecut_minimum_cut(graph: Graph, ledger: Ledger = NULL_LEDGER) -> CutResult:
    """Exact minimum cut: kernelize, then Stoer–Wagner on the kernel.

    Deterministic; raises for n < 2 and answers 0 with a component
    side for disconnected inputs, like the other exact solvers.
    """
    if graph.n < 2:
        raise GraphFormatError("min cut needs at least 2 vertices")
    k, comp_labels = graph.connected_components()
    if k > 1:
        return CutResult(value=0.0, side=comp_labels == comp_labels[0])

    kernel, mapping, cand_value, cand_side, rounds = reduce_graph(graph, ledger)
    value, side = cand_value, cand_side
    if kernel.n >= 2:
        from repro.arena.solvers.stoer_wagner import stoer_wagner

        sub = stoer_wagner(kernel)
        ledger.charge(work=float(kernel.n**3), depth=float(kernel.n))
        if sub.value < value:
            value, side = sub.value, sub.side[mapping]
    return CutResult(
        value=float(value),
        side=side,
        stats={
            "kernel_n": float(kernel.n),
            "kernel_m": float(kernel.m),
            "reduction_rounds": float(rounds),
        },
    )
