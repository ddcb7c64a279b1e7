"""Single-path 2-respecting minima (Section 4.1.2).

For every path p of the decomposition (a descending chain of tree
edges), the matrix ``M_p[i][j] = cut(e_i, e_j)`` on i < j is partial
inverse-Monge; the reference :func:`repro.monge.partial.triangle_minimum`
finds its minimum with O(ell log ell) oracle queries, one SMAWK call per
divide-and-conquer block.  Paths are processed in logically-parallel
branches (Lemma 4.6: the per-path work telescopes because paths are
edge-disjoint; depth is the max over paths).

Theorem 4.2 runs the packed trees' searches in parallel, and so does
:func:`single_path_minimum` for a lockstep group: every block of every
path of every tree is one resumable SMAWK instance, and
:func:`repro.kernels.monge.run_smawk_group` advances them together, one
oracle round at a time.  Each tree then charges its own ledger the
reference structure — one branch per path, one ``batch`` per path, the
path's summed work — and folds its minimum in the reference order.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from repro.kernels.monge import SmawkInstance, run_smawk_group, triangle_instances
from repro.pram.combinators import log2ceil
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.rangesearch.cutqueries import CutOracle
from repro.trees.paths import PathDecomposition

__all__ = ["single_path_minimum"]

_Best = Tuple[float, int, int]


def single_path_minimum(
    oracle: Union[CutOracle, Sequence[CutOracle]],
    decomposition: Union[PathDecomposition, Sequence[PathDecomposition]],
    ledger: Union[Ledger, Sequence[Ledger]] = NULL_LEDGER,
) -> Union[_Best, List[_Best]]:
    """Minimum cut(e, f) over pairs of distinct edges on a common path.

    Returns ``(value, u, v)`` (child endpoints), or ``(inf, -1, -1)``
    when no path has two edges.  Given sequences — tree i of a lockstep
    group is ``oracle[i]`` (all over one stacked range tree, with
    prefilled cost caches) and ``decomposition[i]``, charging
    ``ledger[i]`` — returns the list of the trees' minima.
    """
    if isinstance(oracle, CutOracle):
        return single_path_minimum([oracle], [decomposition], [ledger])[0]  # type: ignore[list-item]
    oracles = list(oracle)
    plans: List[List[Tuple[int, List[SmawkInstance]]]] = []
    instances: List[SmawkInstance] = []
    for t, dec in enumerate(decomposition):  # type: ignore[arg-type]
        plan = []
        for arr in dec.paths:
            if arr.shape[0] < 2:
                continue
            blocks = triangle_instances(t, arr.tolist())
            plan.append((arr.shape[0], blocks))
            instances.extend(blocks)
        plans.append(plan)
    run_smawk_group(oracles, instances)
    bests: List[_Best] = []
    for o, led, plan in zip(oracles, ledger, plans):  # type: ignore[arg-type]
        best: _Best = (float("inf"), -1, -1)
        with led.parallel() as par:
            for ell, blocks in plan:
                with par.branch():
                    # model depth of the divide-and-conquer over this path:
                    # O(log ell) levels, each a parallel SMAWK round of depth
                    # O(log ell) whose entry inspections cost one cut query
                    ell_log = log2ceil(ell) + 1
                    with led.batch(depth=ell_log * (ell_log + o.query_depth)):
                        led.charge(work=sum(b.work for b in blocks), depth=0.0)
                for b in blocks:
                    if b.best[0] < best[0]:
                        best = b.best
        bests.append(best)
    return bests
