"""Per-entry Monge-matrix searching (Sections 4.1.2-4.1.3).

The reference the library's resumable SMAWK
(:mod:`repro.kernels.monge`) must match bit for bit: every entry is one
``lookup(i, j)`` call (``tests/reference_tworespect.py`` drives these
over the scalar ``CutOracle.cut``), and the checkers verify the
(inverse-)Monge inequalities on explicit matrices.

**SMAWK row minima.**  The path-pair step of the 2-respecting algorithm
needs the minimum entry of Monge matrices whose entries are cut-oracle
queries; the paper uses the randomized O(ell)-query algorithm of
Raman–Vishkin [RV94].  We substitute the deterministic SMAWK algorithm,
which also inspects only O(rows + cols) entries (see DESIGN.md's
substitution table), and count every entry evaluation.  A matrix is
*totally monotone* (for minima) when, for rows i < i' and columns
j < j': ``M[i][j] >= M[i][j']  =>  M[i'][j] >= M[i'][j']``.  Monge
matrices (``M[i][j] + M[i'][j'] <= M[i][j'] + M[i'][j]``) satisfy this
including ties, which is what the weak comparisons below rely on.
Inverse-Monge matrices become Monge by reversing the column order —
callers do so via an index mapping.

**Triangle minimum** (the single-path case of Section 4.1.2).  For a
descending tree path with edges e_1 (shallowest) .. e_ell (deepest), the
matrix ``M[i][j] = cut(e_i, e_j)`` restricted to i < j is
*inverse*-Monge (supermodular), because e_j's subtree is nested inside
e_i's.  Reversing the column order makes every fully-defined rectangular
block Monge, so::

    triangle_min(edges) =
        min( SMAWK-min of the block  [first half] x [second half],
             triangle_min(first half),
             triangle_min(second half) )

which inspects O(ell log ell) entries — within the budget the paper
allots to this step via [AKPS90] (see the DESIGN.md substitution note).

**Checkers.**  The SMAWK orientation used by the 2-respecting search
rests on two structural facts: *cross* blocks (disjoint subtrees, both
paths ordered shallow->deep) are Monge (submodular), and *nested* blocks
(one path inside the other's subtrees) are inverse-Monge
(supermodular).  :func:`check_monge` / :func:`check_inverse_monge`
verify the inequalities exhaustively and raise
:class:`repro.errors.MongeViolation` with the offending quadruple.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import MongeViolation
from repro.obs.counters import counters
from repro.pram.combinators import log2ceil
from repro.pram.ledger import Ledger, NULL_LEDGER

__all__ = [
    "smawk_row_minima",
    "matrix_minimum",
    "triangle_minimum",
    "check_monge",
    "check_inverse_monge",
    "materialize",
]

Lookup = Callable[[int, int], float]


class _CountingLookup:
    __slots__ = ("fn", "count", "cache")

    def __init__(self, fn: Lookup) -> None:
        self.fn = fn
        self.count = 0
        self.cache: Dict[Tuple[int, int], float] = {}

    def __call__(self, i: int, j: int) -> float:
        key = (i, j)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        self.count += 1
        val = self.fn(i, j)
        self.cache[key] = val
        return val


def smawk_row_minima(
    rows: Sequence[int],
    cols: Sequence[int],
    lookup: Lookup,
    ledger: Ledger = NULL_LEDGER,
) -> Dict[int, Tuple[float, int]]:
    """Row minima of a totally monotone matrix.

    Parameters
    ----------
    rows, cols:
        Row/column *labels* in matrix order (the lookup receives labels,
        so callers can present reversed or re-indexed views).
    lookup:
        ``lookup(row_label, col_label) -> value``.  Every evaluation is
        charged to the ledger (work 0 here — the lookup is expected to
        charge its own oracle cost; SMAWK's bookkeeping charges
        O(rows + cols) work and O(log) depth).

    Returns
    -------
    ``{row_label: (min_value, argmin_col_label)}``.
    """
    counting = _CountingLookup(lookup)
    result: Dict[int, Tuple[float, int]] = {}
    _smawk(list(rows), list(cols), counting, result)
    n = len(rows) + len(cols)
    ledger.charge(work=float(max(n, 1)), depth=float(log2ceil(max(n, 2)) + 1))
    reg = counters()
    if reg.enabled:
        reg.add("smawk.calls")
        reg.add("smawk.evals", float(counting.count))
    return result


def _smawk(
    rows: List[int],
    cols: List[int],
    lookup: _CountingLookup,
    result: Dict[int, Tuple[float, int]],
) -> None:
    if not rows:
        return
    # REDUCE: prune columns that cannot host any row minimum, keeping at
    # most len(rows) columns.  Invariant: survivor k (0-based stack
    # position) can only host minima of rows[k:].
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
    _smawk(rows[1::2], cols2, lookup, result)
    # INTERPOLATE: fill even-index rows; by total monotonicity each row's
    # argmin lies between its neighbors' argmins in cols2 order.
    col_pos = {c: k for k, c in enumerate(cols2)}
    start = 0
    for i in range(0, len(rows), 2):
        r = rows[i]
        stop = col_pos[result[rows[i + 1]][1]] if i + 1 < len(rows) else len(cols2) - 1
        best_val = None
        best_col = None
        for c in cols2[start : stop + 1]:
            val = lookup(r, c)
            if best_val is None or val < best_val:
                best_val, best_col = val, c
        assert best_col is not None
        result[r] = (best_val, best_col)
        start = stop


def matrix_minimum(
    rows: Sequence[int],
    cols: Sequence[int],
    lookup: Lookup,
    ledger: Ledger = NULL_LEDGER,
) -> Tuple[float, int, int]:
    """Global minimum ``(value, row_label, col_label)`` of a totally
    monotone matrix via SMAWK row minima + a tree reduce."""
    if not rows or not cols:
        return float("inf"), -1, -1
    minima = smawk_row_minima(rows, cols, lookup, ledger=ledger)
    best_val, best_r, best_c = float("inf"), -1, -1
    for r, (val, c) in minima.items():
        if val < best_val:
            best_val, best_r, best_c = val, r, c
    ledger.charge(work=float(len(rows)), depth=float(log2ceil(max(len(rows), 2))))
    return best_val, best_r, best_c


def triangle_minimum(
    labels: Sequence[int],
    lookup: Lookup,
    ledger: Ledger = NULL_LEDGER,
    *,
    inverse: bool = True,
) -> Tuple[float, int, int]:
    """Minimum of ``lookup(a, b)`` over ordered pairs a = labels[i],
    b = labels[j] with i < j.

    ``inverse=True`` treats fully-defined blocks as inverse-Monge (the
    nested single-path case) and reverses columns before SMAWK;
    ``inverse=False`` treats them as Monge directly.

    Returns ``(value, label_i, label_j)`` (labels, not positions), or
    ``(inf, -1, -1)`` when fewer than two labels are given.
    """
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
            val = lookup(seg[0], seg[1])
            if val < best[0]:
                best = (val, seg[0], seg[1])
            continue
        mid = ell // 2
        rows = seg[:mid]
        cols = seg[mid:]
        if inverse:
            cols = cols[::-1]
        val, r, c = matrix_minimum(rows, cols, lookup, ledger=ledger)
        if val < best[0]:
            best = (val, r, c)
        stack.append(seg[:mid])
        stack.append(seg[mid:])
    # divide-and-conquer control charge: the recursion tree has depth
    # O(log ell); each level's SMAWK calls run in parallel.
    ledger.charge(work=0.0, depth=float(log2ceil(max(len(labels), 2))))
    return best


def materialize(
    rows: Sequence[int], cols: Sequence[int], lookup: Callable[[int, int], float]
) -> np.ndarray:
    """Evaluate the full matrix (tests only — O(rows x cols) lookups)."""
    out = np.empty((len(rows), len(cols)))
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            out[i, j] = lookup(r, c)
    return out


def check_monge(matrix: np.ndarray, *, atol: float = 1e-9) -> None:
    """Raise unless M[i][j] + M[i+1][j+1] <= M[i][j+1] + M[i+1][j] for all
    adjacent quadruples (adjacent quadruples imply the general case)."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape[0] < 2 or m.shape[1] < 2:
        return
    lhs = m[:-1, :-1] + m[1:, 1:]
    rhs = m[:-1, 1:] + m[1:, :-1]
    bad = lhs > rhs + atol
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise MongeViolation(
            f"Monge violated at ({i},{j}): {lhs[i, j]} > {rhs[i, j]}"
        )


def check_inverse_monge(matrix: np.ndarray, *, atol: float = 1e-9) -> None:
    """Raise unless the matrix is supermodular (Monge after reversing the
    column order)."""
    check_monge(np.asarray(matrix)[:, ::-1], atol=atol)
