"""Batched interest-terminal search.

The per-entry formulation of Claim 4.13 runs two centroid-guided
searches (``deepest_on_interest_path``) per tree edge, each probing the
interest predicates one oracle call at a time — by far the largest
query volume of the 2-respecting pipeline; ``tests/reference_tworespect.py``
keeps it as the parity reference.  The driver here runs
*every* edge's searches simultaneously as a masked NumPy state machine
over ``deepest_on_interest_path``'s control flow: probe-free
navigation steps (ancestor tests, child-toward walks, centroid component
descents) advance as vectorized rounds, and each round's pending
membership probes — both predicate kinds together — are answered by one
fused :meth:`CutOracle.interested_many` batch.

Parity argument
---------------
* Control flow: every search walks the exact decision sequence of
  ``deepest_on_interest_path`` — membership probe iff ``top`` is a
  proper ancestor of the current centroid, then the centroid's children
  probed in ``children_lists`` order with first-hit short-circuit (the
  short-circuit vertex of both member lambdas equals ``top``, which the
  search never probes, so every probe reaches the oracle).  Batched
  predicate values are bit-identical to the scalar ones, hence every
  search visits the same centroids and returns the same terminal.
* Stats: the probe multiset equals the union of the reference's per-edge
  probe sequences, so the tree's ``queries``/``nodes_visited`` counters
  advance by identical totals.
* Ledger: the reference opens one parallel branch per edge whose depth
  is the *sum* of its sequential charges (probe charges plus one
  navigation charge ``(log2ceil(n)+1, 1)`` per centroid step).  Every
  charge amount is an integer-valued float, so float accumulation order
  is exact and the per-search NumPy accumulators reproduce the per-edge
  (work, depth) pairs bit-for-bit; a single branch charging
  ``(sum_e w_e, max_e d_e)`` leaves the frame — and therefore the
  ledger — in the identical state.

Lockstep groups
---------------
The searches of several trees run as one state machine: the oracles of
one stacked range tree form an :class:`OracleForest` (tree i's vertex v
is forest vertex ``offsets[i] + v``), and each round's probes of *all*
the trees go to the oracle in one fused batch.  A search's decisions
depend only on its own tree, so every search takes the same steps as it
would alone; each tree's charge is summed from its own searches and
charged on that tree's ledger, with the single-tree charge structure.

Requires prefilled cost caches (``prefill_costs``), like every batched
oracle entry point; the 2-respecting driver guarantees it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.pram.combinators import log2ceil
from repro.pram.ledger import Ledger
from repro.rangesearch.cutqueries import CutOracle, OracleForest
from repro.trees.centroid import CentroidDecomposition

__all__ = ["find_interest_terminals"]


def _component_child_toward(
    cent_parent: np.ndarray, c: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """For each i, the centroid-tree child of ``c[i]`` whose component
    contains ``y[i]``: walk each ``y`` up the centroid tree until its
    parent is ``c``."""
    x = y.copy()
    while True:
        p = cent_parent[x]
        m = p != c
        if not m.any():
            return x
        if (p < 0)[m].any():
            raise GraphFormatError("target vertex is not in the centroid's component")
        x = np.where(m, p, x)


def _offset(a: np.ndarray, off: int) -> np.ndarray:
    """Shift vertex ids by ``off``, keeping -1 (no vertex) as is."""
    a = np.asarray(a, dtype=np.int64)
    return np.where(a >= 0, a + off, -1)


def find_interest_terminals(
    oracles: Sequence[CutOracle],
    cds: Sequence[CentroidDecomposition],
    ledgers: Sequence[Ledger],
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per tree, per tree edge e (indexed by child endpoint), the nodes
    c_e and d_e delimiting e's cross- and down-interest paths (Claim
    4.13): every edge's two searches of every tree advanced together
    with batched probes.

    ``oracles[i]`` (all over one stacked range tree, see
    :func:`~repro.rangesearch.cutqueries.stack_oracle_points`) and
    ``cds[i]`` describe tree i, whose charges go to ``ledgers[i]``; one
    tree is a group of one.  Needs prefilled cost caches for exact
    charges (``prefill_costs``)."""
    forest = OracleForest(oracles)
    offs = forest.offsets
    k = len(oracles)
    trees = [o.tree for o in oracles]
    ns = [t.n for t in trees]
    parent = np.concatenate([_offset(t.parent, int(o)) for t, o in zip(trees, offs)])
    post = np.concatenate([np.asarray(t.post, dtype=np.int64) for t in trees])
    first = post - (
        np.concatenate([np.asarray(t.size, dtype=np.int64) for t in trees]) - 1
    )
    cent_parent = np.concatenate(
        [_offset(cd.cent_parent, int(o)) for cd, o in zip(cds, offs)]
    )
    n_all = int(offs[-1])
    edges = np.flatnonzero(parent >= 0)  # tree-major, ascending
    ne = edges.shape[0]
    # edges[ebound[i]:ebound[i + 1]] are tree i's edges
    ebound = np.searchsorted(edges, offs)
    row_tree = np.repeat(np.arange(k), np.diff(ebound))
    # O(n) properties, hoisted out of the round loop
    maxlev = np.array([cd.height for cd in cds], dtype=np.int64)[row_tree]
    navw_t = np.array([float(log2ceil(max(n, 2)) + 1) for n in ns])
    roots = np.array([t.root for t in trees], dtype=np.int64) + offs[:-1]
    cent_roots = np.array([cd.cent_root for cd in cds], dtype=np.int64) + offs[:-1]

    # children in ``children_lists`` order: grouped by parent, each
    # group in increasing child index (the reference's probe order)
    korder = np.argsort(parent[edges], kind="stable")
    ch_flat = edges[korder]
    ch_cnt = np.bincount(parent[edges], minlength=n_all).astype(np.int64)
    ch_off = np.zeros(n_all + 1, dtype=np.int64)
    np.cumsum(ch_cnt, out=ch_off[1:])

    # two searches per edge u: [0:ne] cross (top = root), [ne:) down
    # (top = u); both share the edge's reference branch, whose charges
    # are the *sum* of the two searches' — integer-valued, so per-search
    # accumulators recombine exactly
    k2 = 2 * ne
    edge = np.concatenate([edges, edges])
    top = np.concatenate([roots[row_tree], edges])
    cur = np.concatenate([cent_roots[row_tree], cent_roots[row_tree]])
    maxlev = np.concatenate([maxlev, maxlev])
    navw = np.concatenate([navw_t[row_tree], navw_t[row_tree]])
    kidx = np.zeros(k2, dtype=np.int64)
    iters = np.zeros(k2, dtype=np.int64)
    accw = np.zeros(k2, dtype=np.float64)
    accd = np.zeros(k2, dtype=np.float64)
    alive = np.ones(k2, dtype=bool)
    pending = np.full(k2, -1, dtype=np.int64)  # probe vertex, -1 = none
    in_scan = np.zeros(k2, dtype=bool)  # pending probe is a child probe
    out = np.full(k2, -1, dtype=np.int64)
    is_cross = np.zeros(k2, dtype=bool)
    is_cross[:ne] = True

    def finish(idx: np.ndarray) -> None:
        out[idx] = cur[idx]
        alive[idx] = False
        pending[idx] = -1

    def nav_step(idx: np.ndarray) -> None:
        """One off-path centroid move toward ``top`` (probe-free)."""
        if not idx.shape[0]:
            return
        c = cur[idx]
        t = top[idx]
        # proper ancestor of top: descend toward the child holding top
        anc_ct = (first[c] <= post[t]) & (post[t] <= post[c]) & (c != t)
        step = parent[c]
        bad = ~anc_ct & (step < 0)
        if bad.any():  # pragma: no cover - c can only be the root if top is too
            finish(idx[bad])
            out[idx[bad]] = t[bad]
            idx, c, t, anc_ct, step = (
                idx[~bad], c[~bad], t[~bad], anc_ct[~bad], step[~bad]
            )
        ai = np.flatnonzero(anc_ct)
        if ai.shape[0]:
            # _tree_child_toward: first child of c whose subtree holds top
            res = np.full(ai.shape[0], -1, dtype=np.int64)
            unresolved = np.ones(ai.shape[0], dtype=bool)
            kk = 0
            while unresolved.any():
                ui = np.flatnonzero(unresolved)
                cc = c[ai[ui]]
                has = ch_cnt[cc] > kk
                if not has.any():
                    raise GraphFormatError("target not under ancestor")
                ch = ch_flat[np.where(has, ch_off[cc] + kk, 0)]
                tt = post[t[ai[ui]]]
                hit = has & (first[ch] <= tt) & (tt <= post[ch])
                res[ui[hit]] = ch[hit]
                unresolved[ui[hit]] = False
                kk += 1
            step = step.copy()
            step[ai] = res
        cur[idx] = _component_child_toward(cent_parent, c, step)
        accw[idx] += navw[idx]
        accd[idx] += 1.0

    def enter_scan(idx: np.ndarray) -> None:
        """Centroid confirmed on-path: probe its first child or finish."""
        if not idx.shape[0]:
            return
        kidx[idx] = 0
        deg = ch_cnt[cur[idx]]
        leaf = deg == 0
        finish(idx[leaf])
        go = idx[~leaf]
        pending[go] = ch_flat[ch_off[cur[go]]]
        in_scan[go] = True

    while alive.any():
        # drive every probe-less search to its next probe (or its end)
        while True:
            di = np.flatnonzero(alive & (pending < 0))
            if not di.shape[0]:
                break
            iters[di] += 1
            if (iters[di] > maxlev[di] + 2).any():  # pragma: no cover - safety net
                raise GraphFormatError("centroid search failed to converge")
            c = cur[di]
            t = top[di]
            eq = c == t
            anc_tc = (first[t] <= post[c]) & (post[c] <= post[t])
            member = ~eq & anc_tc  # proper ancestor: membership unknown
            mi = di[member]
            pending[mi] = cur[mi]
            in_scan[mi] = False
            enter_scan(di[eq])
            nav_step(di[~eq & ~anc_tc])
        live = np.flatnonzero(alive)
        if not live.shape[0]:
            break
        # both predicate kinds of every tree's round answered by ONE
        # fused batch
        vals, works, depths = forest.interested_many(
            edge[live], pending[live], is_cross[live]
        )
        accw[live] += works
        accd[live] += depths
        yes = vals != 0.0
        scan = in_scan[live]
        # membership probes: interested -> child scan, else move on
        enter_scan(live[~scan & yes])
        off = live[~scan & ~yes]
        pending[off] = -1  # back to the drive loop after the move
        nav_step(off)
        # child probes: first interested child wins; else try the next
        # sibling, finishing at the centroid when none is left
        win = live[scan & yes]
        if win.shape[0]:
            nxt = pending[win]
            cur[win] = _component_child_toward(cent_parent, cur[win], nxt)
            accw[win] += navw[win]
            accd[win] += 1.0
            pending[win] = -1
            in_scan[win] = False
        miss = live[scan & ~yes]
        if miss.shape[0]:
            kidx[miss] += 1
            done = kidx[miss] >= ch_cnt[cur[miss]]
            finish(miss[done])
            more = miss[~done]
            pending[more] = ch_flat[ch_off[cur[more]] + kidx[more]]

    results: List[Tuple[np.ndarray, np.ndarray]] = []
    for i in range(k):
        a, b = int(ebound[i]), int(ebound[i + 1])
        o = int(offs[i])
        c_e = np.full(ns[i], -1, dtype=np.int64)
        d_e = np.full(ns[i], -1, dtype=np.int64)
        c_e[edges[a:b] - o] = _offset(out[a:b], -o)
        d_e[edges[a:b] - o] = _offset(out[ne + a : ne + b], -o)
        results.append((c_e, d_e))
        ledger = ledgers[i]
        if a == b:
            with ledger.parallel():
                pass
            continue
        with ledger.parallel() as par:
            with par.branch():
                ledger.charge(
                    work=float(np.concatenate([accw[a:b], accw[ne + a : ne + b]]).sum()),
                    depth=float((accd[a:b] + accd[ne + a : ne + b]).max()),
                )
    return results
