"""The distinct-path case of the 2-respecting search (Section 4.1.3).

Pipeline (Claims 4.13, 4.15, Lemmas 4.16, 4.17):

1. For every tree edge e, locate the terminals c_e (cross-interest) and
   d_e (down-interest) of its interest paths with the centroid-guided
   search of :mod:`repro.kernels.terminals` (O(log n) oracle probes per
   edge — Claim 4.13).
2. Emit *interest tuples* (p, q, e): q ranges over ``Root-paths(c_e)``
   and ``Root-paths(d_e)`` (Claim 4.15).  Note that Root-paths(d_e)
   automatically includes every path on the root -> e route, which is
   exactly what makes nested (ancestor/descendant) pairs mutual: the
   descendant edge always names its ancestors' paths, while the
   ancestor names the descendant's path iff it is down-interested —
   which the minimizing nested pair satisfies.
3. Group tuples by unordered path pair (Lemma 4.16); keep pairs where
   both directions contributed (mutual interest).
4. For each pair, split the edge lists by their relation to the other
   path's head into nested and cross blocks — each block is
   (inverse-)Monge — and take each block's SMAWK minimum (Lemma 4.17).
   For a lockstep group, the blocks of every tree run as resumable SMAWK
   instances of one :func:`repro.kernels.monge.run_smawk_group` call,
   one oracle round at a time; each tree then charges its own ledger
   the reference structure (one branch per pair, one ``batch`` per
   block holding the block's summed work).

Every inspected entry is a genuine cut of G, so overapproximating the
interest lists (which steps 1-2 deliberately do) affects only work,
never correctness.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.kernels.monge import SmawkInstance, run_smawk_group
from repro.pram.combinators import log2ceil
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.primitives.euler import RootedTree
from repro.rangesearch.cutqueries import CutOracle
from repro.trees.paths import PathDecomposition
from repro.trees.rootpaths import RootPaths

__all__ = [
    "collect_interest_tuples",
    "group_interested_pairs",
    "path_pair_minimum",
]

_Pairs = Dict[Tuple[int, int], Tuple[List[int], List[int]]]
_Best = Tuple[float, int, int]


def collect_interest_tuples(
    rootpaths: RootPaths,
    c_e: np.ndarray,
    d_e: np.ndarray,
    ledger: Ledger = NULL_LEDGER,
) -> List[Tuple[int, int, int]]:
    """Interest tuples (p, q, e) per Definition 4.14 / Claim 4.15."""
    dec = rootpaths.decomposition
    tree = rootpaths.tree
    tuples: List[Tuple[int, int, int]] = []
    with ledger.parallel() as par:
        for u in range(tree.n):
            if tree.parent[u] < 0:
                continue
            with par.branch():
                p = int(dec.path_of[u])
                seen: set[int] = set()
                for terminal in (int(c_e[u]), int(d_e[u])):
                    if terminal < 0:
                        continue
                    for q in rootpaths.query(terminal, ledger=ledger):
                        if q != p and q not in seen:
                            seen.add(q)
                            tuples.append((p, q, u))
    return tuples


def group_interested_pairs(
    tuples: List[Tuple[int, int, int]],
    ledger: Ledger = NULL_LEDGER,
) -> Dict[Tuple[int, int], Tuple[List[int], List[int]]]:
    """Lemma 4.16: group tuples into mutual pairs.

    Returns ``{(p, q): (r, s)}`` with p < q, ``r`` the edges of p
    interested in q and ``s`` vice versa — only for pairs where both
    lists are nonempty.  Charged at the lemma's sort cost O(n log n)
    work / O(log n) depth.
    """
    by_pair: Dict[Tuple[int, int], Tuple[List[int], List[int]]] = defaultdict(
        lambda: ([], [])
    )
    for p, q, e in tuples:
        key = (p, q) if p < q else (q, p)
        slot = 0 if p < q else 1
        by_pair[key][slot].append(e)
    t = len(tuples)
    ledger.charge(
        work=float(max(t, 1)) * max(np.log2(max(t, 2)), 1.0),
        depth=float(max(np.log2(max(t, 2)), 1.0)),
    )
    return {
        key: (r, s) for key, (r, s) in by_pair.items() if r and s
    }


def path_pair_minimum(
    oracles: Sequence[CutOracle],
    decompositions: Sequence[PathDecomposition],
    pairs: Sequence[_Pairs],
    ledgers: Sequence[Ledger],
) -> List[_Best]:
    """Lemma 4.17: per tree of a lockstep group, the minimum cut(e, f)
    over all mutual path pairs.

    Tree i is ``oracles[i]``, ``decompositions[i]`` and ``pairs[i]``,
    charging ``ledgers[i]``.  Each pair's (r, s) lists are ordered
    shallow -> deep and split into nested / cross blocks; every block of
    every tree is one SMAWK instance of one
    :func:`~repro.kernels.monge.run_smawk_group` run.
    """
    plans: List[List[List[Tuple[int, SmawkInstance]]]] = []
    instances: List[SmawkInstance] = []
    for t, (o, dec, prs) in enumerate(zip(oracles, decompositions, pairs)):
        plan = []
        for (p, q), (r, s) in prs.items():
            blocks = []
            for rows, cols in _pair_blocks(o.tree, dec, p, q, r, s):
                inst = SmawkInstance(t, rows, cols)
                blocks.append((len(rows) + len(cols), inst))
                instances.append(inst)
            plan.append(blocks)
        plans.append(plan)
    run_smawk_group(oracles, instances)
    bests: List[_Best] = []
    for o, led, plan in zip(oracles, ledgers, plans):
        best: _Best = (float("inf"), -1, -1)
        with led.parallel() as par:
            for blocks in plan:
                with par.branch():
                    for length, inst in blocks:
                        # one SMAWK call: O(log ell) parallel rounds of cut
                        # queries (RV94 model depth; see DESIGN.md)
                        ell_log = log2ceil(length) + 1
                        with led.batch(depth=ell_log * o.query_depth):
                            led.charge(work=inst.work, depth=0.0)
                        if inst.best[0] < best[0]:
                            best = inst.best
        bests.append(best)
    return bests


def _pair_blocks(
    tree: RootedTree,
    dec: PathDecomposition,
    p: int,
    q: int,
    r: List[int],
    s: List[int],
) -> List[Tuple[List[int], List[int]]]:
    """The (rows, cols) SMAWK blocks of the mutual pair (p, q)."""
    r_sorted = sorted(set(r), key=lambda e: dec.index_in_path[e])
    s_sorted = sorted(set(s), key=lambda e: dec.index_in_path[e])
    hp = dec.head(p)
    hq = dec.head(q)
    r_anc = [e for e in r_sorted if tree.is_ancestor(e, hq) and e != hq]
    r_non = [e for e in r_sorted if not (tree.is_ancestor(e, hq) and e != hq)]
    s_anc = [f for f in s_sorted if tree.is_ancestor(f, hp) and f != hp]
    s_non = [f for f in s_sorted if not (tree.is_ancestor(f, hp) and f != hp)]
    blocks = []
    if r_anc and s_sorted:
        # rows above, cols nested below: inverse-Monge
        blocks.append((r_anc, s_sorted[::-1]))
    if s_anc and r_non:
        blocks.append((r_non, s_anc[::-1]))
    if r_non and s_non:
        # disjoint subtrees: Monge as-is
        blocks.append((r_non, s_non))
    return blocks
