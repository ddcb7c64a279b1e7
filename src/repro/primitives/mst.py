"""Borůvka minimum spanning forest over integer key ranks.

This is the workhorse behind both the spanning-forest primitive
(Halperin–Zwick substitute, Theorem 2.6's building block) and the
repeated load-ordered MSTs of the tree-packing phase (Pettie–Ramachandran
substitute, Section 4.2).  See DESIGN.md's substitution table for the
cost-model discussion.

The algorithm is the classic parallel Borůvka: every component picks its
minimum-key incident cross edge; the picked edges are merged by
min-label hooking and pointer jumping over the component labels
(:func:`repro.graphs.graph.component_labels`), as in the PRAM
algorithm; components at least halve per round, so there are at most
``ceil(log2 n)`` rounds.

Keys are *ranks* (int64 obtained by pre-sorting the true keys) so that
``np.minimum.at`` resolves weight ties by edge index deterministically.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graphs.graph import component_labels
from repro.pram.combinators import log2ceil
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.primitives.sort import parallel_sort_ranks

__all__ = ["minimum_spanning_forest", "boruvka_forest_from_ranks"]


def boruvka_forest_from_ranks(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    rank: np.ndarray,
    ledger: Ledger = NULL_LEDGER,
) -> Tuple[np.ndarray, np.ndarray]:
    """Minimum spanning forest by Borůvka rounds over pre-ranked keys.

    Parameters
    ----------
    rank:
        int64 array, a permutation-rank of the edge keys (lower = lighter,
        all distinct).

    Returns
    -------
    (forest_edge_ids, component_labels):
        indices into the edge arrays forming a minimum spanning forest,
        and the component label of every vertex (equal labels mean one
        component; the values themselves carry no meaning).

    Work/depth charged per round: O(live_edges + n) work, O(log n) depth
    (min-reduction plus pointer jumping), for at most ceil(log2 n) rounds
    — the Borůvka schedule the paper's substrates assume.
    """
    m = int(u.shape[0])
    labels = np.arange(n, dtype=np.int64)
    if m == 0 or n == 0:
        return np.empty(0, np.int64), labels
    by_rank = np.empty(m, dtype=np.int64)
    by_rank[rank] = np.arange(m)
    live = np.arange(m)
    chosen = [np.empty(0, np.int64)]
    sentinel = np.iinfo(np.int64).max
    rounds = 0
    while live.size:
        rounds += 1
        lu = labels[u[live]]
        lv = labels[v[live]]
        cross = lu != lv
        live = live[cross]
        if live.size == 0:
            break
        lu, lv = lu[cross], lv[cross]
        r = rank[live]
        best = np.full(n, sentinel, dtype=np.int64)
        np.minimum.at(best, lu, r)
        np.minimum.at(best, lv, r)
        winners = np.unique(best[best != sentinel])
        # mutual picks of the same edge dedupe via np.unique, and genuine
        # cycles are impossible because every selected edge is the
        # minimum of at least one of its endpoints' components (cycle =>
        # some edge is the max on the cycle and the min of neither side,
        # with distinct ranks) — so every winner joins the forest, and
        # the components merge along the winners by min-label hooking
        ids = by_rank[winners]
        chosen.append(ids)
        _, merged = component_labels(n, labels[u[ids]], labels[v[ids]])
        labels = merged[labels]
        ledger.charge(
            work=float(live.size + n + winners.size),
            depth=float(log2ceil(max(n, 2)) + 1),
        )
    return np.sort(np.concatenate(chosen)), labels


def minimum_spanning_forest(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    keys: Optional[np.ndarray] = None,
    ledger: Ledger = NULL_LEDGER,
) -> Tuple[np.ndarray, np.ndarray]:
    """Minimum spanning forest of edge arrays under ``keys``.

    ``keys`` default to the edge index (arbitrary spanning forest).  Ties
    break by edge index.  Charges the key-ranking sort (O(m) work,
    O(log m) depth, radix model) plus the Borůvka rounds.
    """
    m = int(u.shape[0])
    if keys is None:
        rank = np.arange(m, dtype=np.int64)
        ledger.charge(work=m, depth=1)
    else:
        rank = parallel_sort_ranks(np.asarray(keys), ledger=ledger)
    return boruvka_forest_from_ranks(n, u, v, rank, ledger=ledger)
