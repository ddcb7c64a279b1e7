"""Batched SMAWK drivers over the cut oracle.

The reference SMAWK (:mod:`repro.monge.smawk`) evaluates Monge entries
one ``lookup(i, j)`` call at a time; with cut-oracle entries each call
is a fresh 2-D range query.  The drivers here keep the *identical*
algorithm — same reduce-phase comparisons, same recursion, same
per-call entry cache semantics — but evaluate each recursion level's
whole interpolate-phase column windows in one :meth:`CutOracle.cut_many`
batch (the windows are fully known once the odd-row recursion returns).
The reduce phase is inherently sequential (a stack whose comparisons
depend on previous answers) and keeps scalar evaluation through the
shared per-call cache.

Parity: entries are evaluated exactly once per distinct (row, col) per
top-level call, exactly as the reference's ``_CountingLookup``; the
batched evaluations charge the sum of the per-entry (work, depth) the
scalar calls would charge — sequential scalar charges and one summed
charge are indistinguishable to the :class:`Ledger` — and the oracle's
stats counters advance identically.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.obs.counters import counters
from repro.pram.combinators import log2ceil
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.rangesearch.cutqueries import CutOracle

__all__ = ["matrix_minimum_batched", "triangle_minimum_batched"]

#: Below this many uncached entries a prefetch evaluates scalar cut
#: calls (the reference path) instead of one cut_many batch (each pair
#: is two rectangles; the batched tree path needs ~200 rectangles to
#: amortize its fixed mask cost).  Wall-clock tuning only — values,
#: charges and stats are identical either way.
_SCALAR_PREFETCH_CUTOFF = 96


class _BatchedCutLookup:
    """Per-call entry cache (the reference's ``_CountingLookup``
    semantics) with a batched prefetch path."""

    __slots__ = ("oracle", "ledger", "cache")

    def __init__(self, oracle: CutOracle, ledger: Ledger) -> None:
        self.oracle = oracle
        self.ledger = ledger
        self.cache: Dict[Tuple[int, int], float] = {}

    def __call__(self, a: int, b: int) -> float:
        key = (a, b)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        val = self.oracle.cut(a, b, ledger=self.ledger)
        self.cache[key] = val
        return val

    def prefetch(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Evaluate (and cache) every uncached pair in one batch."""
        todo = [k for k in dict.fromkeys(pairs) if k not in self.cache]
        if not todo:
            return
        if len(todo) <= _SCALAR_PREFETCH_CUTOFF:
            # small windows: the batched masks cost more than they save;
            # fall through to the reference's scalar evaluation order
            for a, b in todo:
                self.cache[(a, b)] = self.oracle.cut(a, b, ledger=self.ledger)
            return
        us = np.fromiter((a for a, _ in todo), dtype=np.int64, count=len(todo))
        vs = np.fromiter((b for _, b in todo), dtype=np.int64, count=len(todo))
        vals, works, depths = self.oracle.cut_many(us, vs)
        self.ledger.charge(work=float(works.sum()), depth=float(depths.sum()))
        reg = counters()
        if reg.enabled:
            reg.add("kernels.smawk_prefetches")
            reg.add("kernels.smawk_prefetched_entries", float(len(todo)))
        for key, val in zip(todo, vals.tolist()):
            self.cache[key] = val


def _smawk_batched(
    rows: List[int],
    cols: List[int],
    lookup: _BatchedCutLookup,
    result: Dict[int, Tuple[float, int]],
) -> None:
    if not rows:
        return
    # REDUCE: identical to the reference — sequential, demand-driven
    stack: List[int] = []
    for c in cols:
        while stack:
            r = rows[len(stack) - 1]
            if lookup(r, stack[-1]) <= lookup(r, c):
                break
            stack.pop()
        if len(stack) < len(rows):
            stack.append(c)
    cols2 = stack
    _smawk_batched(rows[1::2], cols2, lookup, result)
    # INTERPOLATE: the scan windows are fixed once the odd rows are
    # solved — prefetch every uncached entry of this level in one batch,
    # then replay the reference's min-scans on cached values
    col_pos = {c: k for k, c in enumerate(cols2)}
    windows: List[Tuple[int, int, int]] = []
    start = 0
    for i in range(0, len(rows), 2):
        r = rows[i]
        stop = col_pos[result[rows[i + 1]][1]] if i + 1 < len(rows) else len(cols2) - 1
        windows.append((r, start, stop))
        start = stop
    lookup.prefetch(
        [(r, c) for r, s0, s1 in windows for c in cols2[s0 : s1 + 1]]
    )
    for r, s0, s1 in windows:
        best_val = None
        best_col = None
        for c in cols2[s0 : s1 + 1]:
            val = lookup(r, c)
            if best_val is None or val < best_val:
                best_val, best_col = val, c
        assert best_col is not None
        result[r] = (best_val, best_col)


def matrix_minimum_batched(
    oracle: CutOracle,
    rows: Sequence[int],
    cols: Sequence[int],
    ledger: Ledger = NULL_LEDGER,
) -> Tuple[float, int, int]:
    """Drop-in for ``matrix_minimum(rows, cols, oracle.cut, ledger)``
    with batched interpolate-phase evaluation."""
    if not rows or not cols:
        return float("inf"), -1, -1
    lookup = _BatchedCutLookup(oracle, ledger)
    result: Dict[int, Tuple[float, int]] = {}
    _smawk_batched(list(rows), list(cols), lookup, result)
    n = len(rows) + len(cols)
    ledger.charge(work=float(max(n, 1)), depth=float(log2ceil(max(n, 2)) + 1))
    best_val, best_r, best_c = float("inf"), -1, -1
    for r, (val, c) in result.items():
        if val < best_val:
            best_val, best_r, best_c = val, r, c
    ledger.charge(work=float(len(rows)), depth=float(log2ceil(max(len(rows), 2))))
    return best_val, best_r, best_c


def triangle_minimum_batched(
    oracle: CutOracle,
    labels: Sequence[int],
    ledger: Ledger = NULL_LEDGER,
    *,
    inverse: bool = True,
) -> Tuple[float, int, int]:
    """Drop-in for ``triangle_minimum(labels, oracle.cut, ...)`` using
    the batched SMAWK driver per block (same blocks, same charges)."""
    labels = list(labels)
    best: Tuple[float, int, int] = (float("inf"), -1, -1)
    if len(labels) < 2:
        return best
    stack = [labels]
    while stack:
        seg = stack.pop()
        ell = len(seg)
        if ell < 2:
            continue
        if ell == 2:
            # direct (uncached) lookup, exactly like the reference
            val = oracle.cut(seg[0], seg[1], ledger=ledger)
            if val < best[0]:
                best = (val, seg[0], seg[1])
            continue
        mid = ell // 2
        rows = seg[:mid]
        cols = seg[mid:]
        if inverse:
            cols = cols[::-1]
        val, r, c = matrix_minimum_batched(oracle, rows, cols, ledger=ledger)
        if val < best[0]:
            best = (val, r, c)
        stack.append(seg[:mid])
        stack.append(seg[mid:])
    ledger.charge(work=0.0, depth=float(log2ceil(max(len(labels), 2))))
    return best
