"""Resumable SMAWK over the cut oracle, scheduled across a lockstep group.

The reference SMAWK (``tests/reference_monge.py``) evaluates Monge entries
one ``lookup(i, j)`` call at a time; with cut-oracle entries each call
is a fresh 2-D range query.  :func:`_smawk_steps` keeps the *identical*
algorithm — same reduce-phase comparisons, same recursion, same
per-call entry cache — as a generator: it yields the uncached entries it
needs next and reads their values from its cache when resumed.  A
reduce-phase comparison needs its two entries; a recursion level's
interpolate phase needs every entry of its column windows at once (the
windows are fully known once the odd-row recursion returns).

:func:`run_smawk_group` advances many such instances together — every
SMAWK call of every tree of a lockstep group (the single-path triangle
blocks and ``ell == 2`` direct pairs, or the path-pair blocks).  Each
*round* collects the pending entries of every live instance and answers
them at once: through one :meth:`OracleForest.cut_many` batch when the
round holds more than :data:`_SCALAR_ROUND_CUTOFF` entries, else entry
by entry through the scalar :meth:`CutOracle.cut`.  Most rounds are
small (a reduce comparison asks two entries), so the scalar path stays.

Parity: every instance evaluates exactly the entries its reference call
evaluates — once per distinct (row, col), as the reference's
``_CountingLookup`` — so values, and the oracle's stats counters, come
out identical.  An instance sums its entries' ledger work (integers, as
every oracle charge is) plus the reference call's fixed SMAWK charges in
:attr:`SmawkInstance.work`; the callers charge that sum inside the
reference's ``batch`` region, where the depth of the individual charges
is overwritten anyway.  Integer-valued float sums are exact in any
grouping, so the ledger ends in the identical state.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.counters import counters
from repro.rangesearch.cutqueries import CutOracle, OracleForest

__all__ = ["SmawkInstance", "run_smawk_group", "triangle_instances"]

#: A round with at most this many pending entries evaluates them with
#: scalar cut calls (~12.5 us each) instead of one mixed-tree cut_many
#: batch (~0.5 ms of fixed cost even at 4 rows).  On a cut-sparse grid
#: the single-path phase took 274-282 / 260-280 / 289-307 ms at cutoffs
#: 24 / 48 / 72, against ~400 ms with every round vectorized
#: (docs/performance.md).  Wall-clock only — values, charges and stats
#: are identical either way.
_SCALAR_ROUND_CUTOFF = 48

_Key = Tuple[int, int]


class SmawkInstance:
    """One reference SMAWK call of tree ``tree``: the minimum of the
    totally monotone matrix ``rows x cols`` (``matrix_minimum``; both
    nonempty), or with ``direct`` the single uncached entry
    ``(rows[0], cols[0])`` (the ``ell == 2`` segment of a triangle).

    After :func:`run_smawk_group`, :attr:`best` is the call's
    ``(value, row, col)`` and :attr:`work` the ledger work the reference
    call charges.  Scalar cut calls charge the instance directly (it
    has the ledger's ``charge`` signature)."""

    __slots__ = ("tree", "work", "best", "need", "cache", "_steps")

    def __init__(
        self, tree: int, rows: List[int], cols: List[int], direct: bool = False
    ) -> None:
        self.tree = tree
        self.cache: Dict[_Key, float] = {}
        self.best: Tuple[float, int, int] = (float("inf"), -1, -1)
        self.need: List[_Key] = []
        if direct:
            self.work = 0.0
            self._steps: Optional[Iterator[List[_Key]]] = self._direct(rows[0], cols[0])
        else:
            # matrix_minimum's fixed charges: SMAWK bookkeeping, row fold
            self.work = float(len(rows) + len(cols)) + float(len(rows))
            self._steps = self._matrix(list(rows), list(cols))

    def charge(self, work: float, depth: float = 1.0) -> None:
        self.work += work

    def advance(self) -> bool:
        """Run to the next request (in :attr:`need`); False when done."""
        if self._steps is None:
            return False
        try:
            self.need = next(self._steps)
        except StopIteration:
            self._steps = None
            return False
        return True

    def _direct(self, a: int, b: int) -> Iterator[List[_Key]]:
        yield [(a, b)]
        self.best = (self.cache[(a, b)], a, b)

    def _matrix(self, rows: List[int], cols: List[int]) -> Iterator[List[_Key]]:
        result: Dict[int, Tuple[float, int]] = {}
        yield from _smawk_steps(rows, cols, self.cache, result)
        best_val, best_r, best_c = float("inf"), -1, -1
        for r, (val, c) in result.items():
            if val < best_val:
                best_val, best_r, best_c = val, r, c
        self.best = (best_val, best_r, best_c)


def _smawk_steps(
    rows: List[int],
    cols: List[int],
    cache: Dict[_Key, float],
    result: Dict[int, Tuple[float, int]],
) -> Iterator[List[_Key]]:
    """The reference ``_smawk`` recursion, yielding each batch of
    uncached entries it is about to read."""
    if not rows:
        return
    # REDUCE: sequential, demand-driven — one comparison per request
    stack: List[int] = []
    for c in cols:
        while stack:
            r = rows[len(stack) - 1]
            ka = (r, stack[-1])
            kb = (r, c)
            need = [k for k in (ka, kb) if k not in cache]
            if need:
                yield need
            if cache[ka] <= cache[kb]:
                break
            stack.pop()
        if len(stack) < len(rows):
            stack.append(c)
    cols2 = stack
    yield from _smawk_steps(rows[1::2], cols2, cache, result)
    # INTERPOLATE: the scan windows are fixed once the odd rows are
    # solved — request every uncached entry of this level at once, then
    # replay the reference's min-scans on cached values
    col_pos = {c: k for k, c in enumerate(cols2)}
    windows: List[Tuple[int, int, int]] = []
    start = 0
    for i in range(0, len(rows), 2):
        r = rows[i]
        stop = col_pos[result[rows[i + 1]][1]] if i + 1 < len(rows) else len(cols2) - 1
        windows.append((r, start, stop))
        start = stop
    # one row per window, so the keys are distinct
    need = [
        (r, c) for r, s0, s1 in windows for c in cols2[s0 : s1 + 1] if (r, c) not in cache
    ]
    if need:
        yield need
    for r, s0, s1 in windows:
        best_val = None
        best_col = None
        for c in cols2[s0 : s1 + 1]:
            val = cache[(r, c)]
            if best_val is None or val < best_val:
                best_val, best_col = val, c
        assert best_col is not None
        result[r] = (best_val, best_col)


def triangle_instances(tree: int, labels: List[int]) -> List[SmawkInstance]:
    """The SMAWK calls of the reference ``triangle_minimum(labels, ...,
    inverse=True)`` in its stack-pop order: one block per segment of
    length >= 3 (columns reversed: the nested single-path blocks are
    inverse-Monge), one direct entry per segment of length 2.  Folding
    their :attr:`best` in this order with a strict ``<`` gives the
    triangle's minimum."""
    out: List[SmawkInstance] = []
    stack = [labels]
    while stack:
        seg = stack.pop()
        ell = len(seg)
        if ell < 2:
            continue
        if ell == 2:
            out.append(SmawkInstance(tree, [seg[0]], [seg[1]], direct=True))
            continue
        mid = ell // 2
        out.append(SmawkInstance(tree, seg[:mid], seg[mid:][::-1]))
        stack.append(seg[:mid])
        stack.append(seg[mid:])
    return out


def run_smawk_group(
    oracles: Sequence[CutOracle], instances: Sequence[SmawkInstance]
) -> None:
    """Run every instance to completion; ``instances[j].tree`` indexes
    ``oracles`` (all over one stacked range tree, as a lockstep group's
    are, with prefilled cost caches).  Charges no ledger."""
    live = [inst for inst in instances if inst.advance()]
    forest: Optional[OracleForest] = None
    rounds = vector_rounds = entries = 0
    while live:
        total = 0
        for inst in live:
            total += len(inst.need)
        rounds += 1
        entries += total
        if total <= _SCALAR_ROUND_CUTOFF:
            for inst in live:
                cut = oracles[inst.tree].cut
                cache = inst.cache
                for key in inst.need:
                    cache[key] = cut(key[0], key[1], ledger=inst)
        else:
            vector_rounds += 1
            if forest is None:
                forest = OracleForest(oracles)
            offsets = forest.offsets.tolist()
            us: List[int] = []
            vs: List[int] = []
            for inst in live:
                off = offsets[inst.tree]
                for a, b in inst.need:
                    us.append(a + off)
                    vs.append(b + off)
            vals, works, _ = forest.cut_many(np.array(us), np.array(vs))
            vl = vals.tolist()
            wl = works.tolist()
            i = 0
            for inst in live:
                cache = inst.cache
                for key in inst.need:
                    cache[key] = vl[i]
                    inst.work += wl[i]
                    i += 1
        live = [inst for inst in live if inst.advance()]
    reg = counters()
    if reg.enabled and rounds:
        # observability only — never part of the parity contract
        reg.add("kernels.smawk_rounds", float(rounds))
        reg.add("kernels.smawk_vector_rounds", float(vector_rounds))
        reg.add("kernels.smawk_entries", float(entries))

