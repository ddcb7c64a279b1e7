"""Single-path 2-respecting minima (Section 4.1.2).

For every path p of the decomposition (a descending chain of tree
edges), the matrix ``M_p[i][j] = cut(e_i, e_j)`` on i < j is partial
inverse-Monge; :func:`repro.kernels.monge.triangle_minimum_batched` (the
batched form of :func:`repro.monge.partial.triangle_minimum`) finds its
minimum with O(ell log ell) oracle queries.  Paths are processed in
logically-parallel branches (Lemma 4.6: the per-path work telescopes
because paths are edge-disjoint; depth is the max over paths).
"""

from __future__ import annotations

from typing import Tuple

from repro.kernels.monge import triangle_minimum_batched
from repro.pram.combinators import log2ceil
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.rangesearch.cutqueries import CutOracle
from repro.trees.paths import PathDecomposition

__all__ = ["single_path_minimum"]


def single_path_minimum(
    oracle: CutOracle,
    decomposition: PathDecomposition,
    ledger: Ledger = NULL_LEDGER,
) -> Tuple[float, int, int]:
    """Minimum cut(e, f) over pairs of distinct edges on a common path.

    Returns ``(value, u, v)`` (child endpoints), or ``(inf, -1, -1)``
    when no path has two edges.
    """
    best: Tuple[float, int, int] = (float("inf"), -1, -1)
    with ledger.parallel() as par:
        for arr in decomposition.paths:
            if arr.shape[0] < 2:
                continue
            with par.branch():
                labels = [int(x) for x in arr]
                # model depth of the divide-and-conquer over this path:
                # O(log ell) levels, each a parallel SMAWK round of depth
                # O(log ell) whose entry inspections cost one cut query
                ell_log = log2ceil(len(labels)) + 1
                with ledger.batch(depth=ell_log * (ell_log + oracle.query_depth)):
                    val, a, b = triangle_minimum_batched(
                        oracle, labels, ledger=ledger, inverse=True
                    )
                if val < best[0]:
                    best = (val, a, b)
    return best
