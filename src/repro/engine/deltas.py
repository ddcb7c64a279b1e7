"""Edge deltas: the engine's incremental mutation layer.

The staged pipeline preprocesses a *base* graph into a fingerprinted
artifact chain (validate → approximate → forest → index).  Most edits
an evolving-graph workload makes — a handful of inserted edges, a few
deletions, local reweights — leave the packed candidate trees useful:
per Karger's tree-packing argument the cached trees keep covering the
minimum cut while it stays within a constant factor of the stored
underestimate, exactly the regime weight-only reweights sit in.
This module supplies the vocabulary the
engine's :meth:`~repro.engine.CutEngine.update` surface is built on:

:class:`GraphDelta`
    One normalized, validated, immutable batch of edge mutations
    (additions, removals by edge index, reweights by edge index) with a
    content fingerprint and a pure :meth:`GraphDelta.apply`.
:class:`DeltaLog`
    The ordered record of deltas layered over the base fingerprint
    since the last rebase.  Its length is the engine's ``staleness``
    counter; its cumulative absolute weight displacement over the base
    total weight is the *staleness ratio* that triggers a rebase; its
    chained fingerprint extends the artifact chain so memoized
    post-update results stay keyed by exactly what produced them.
:class:`UpdateResult`
    What :meth:`CutEngine.update` returns: the (verified) cut result
    plus the epoch/staleness bookkeeping a caller needs to reason about
    when the engine rebased underneath it.

Edge order under mutation is deterministic: reweights apply to the
current edge arrays in place, removals mask edges out preserving the
order of survivors, and additions append at the end.  A client holding
edge indices must re-derive them after a removal (indices shift), which
the docs call out — the alternative (tombstones) would poison every
downstream ``np`` kernel with masked arithmetic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.graph import Graph
from repro.resilience.verify import VerificationReport
from repro.results import CutResult

__all__ = [
    "GraphDelta",
    "DeltaLog",
    "UpdateResult",
    "as_delta",
    "random_delta",
]

#: spellings accepted for ``add_edges``: ``(u, v, w)`` triples (or an
#: ``(k, 3)`` array); weights must be positive and finite
EdgeList = Union[Sequence[Tuple[int, int, float]], np.ndarray]
#: spellings accepted for ``reweight``: a sparse ``{edge index: new
#: weight}`` mapping or a full length-``m`` weight vector
Reweight = Union[Mapping[int, float], Iterable[float], np.ndarray]


def _int_array(values, dtype=np.int64) -> np.ndarray:
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
    if arr.size == 0:
        return np.zeros(0, dtype=dtype)
    return arr.astype(dtype)


@dataclass(frozen=True, eq=False)
class GraphDelta:
    """One validated batch of edge mutations against a specific graph.

    Instances come from :func:`as_delta`, which normalizes the public
    ``update()`` keyword spellings against the graph the delta will be
    applied to; the arrays here are already range-checked.
    """

    #: endpoints and weights of edges to append
    add_u: np.ndarray
    add_v: np.ndarray
    add_w: np.ndarray
    #: sorted, unique indices (into the target graph's edge order) to drop
    remove_idx: np.ndarray
    #: indices and replacement weights for in-place reweights; only
    #: edges whose weight actually changes are recorded, so an empty
    #: ``rw_idx`` means the reweight spelling was a no-op
    rw_idx: np.ndarray
    rw_w: np.ndarray
    #: total absolute weight displacement: |added| + |removed| + |moved|
    weight_delta: float = field(init=False)

    def __post_init__(self) -> None:
        moved = 0.0
        if self.add_w.size:
            moved += float(np.sum(self.add_w))
        moved += float(self._removed_weight)
        if self.rw_idx.size:
            # an overflowing total is refused downstream as a non-finite
            # graph weight; it must not warn on the way there
            with np.errstate(over="ignore"):
                moved += float(np.sum(np.abs(self.rw_w - self._rw_old)))
        object.__setattr__(self, "weight_delta", moved)

    # populated by as_delta (old weights let weight_delta be computed
    # without holding the whole source graph alive)
    _removed_weight: float = 0.0
    _rw_old: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def is_noop(self) -> bool:
        """True when applying this delta returns an identical graph."""
        return not (self.add_u.size or self.remove_idx.size or self.rw_idx.size)

    @property
    def max_added_weight(self) -> float:
        return float(np.max(self.add_w)) if self.add_w.size else 0.0

    def counts(self) -> Dict[str, float]:
        return {
            "added": float(self.add_u.size),
            "removed": float(self.remove_idx.size),
            "reweighted": float(self.rw_idx.size),
            "weight_delta": float(self.weight_delta),
        }

    def fingerprint(self) -> str:
        """Content hash of the mutation batch (not of the target graph)."""
        h = hashlib.sha256()
        for arr in (self.add_u, self.add_v, self.add_w, self.remove_idx,
                    self.rw_idx, self.rw_w):
            h.update(np.ascontiguousarray(arr).tobytes())
            h.update(b"\x00")
        return h.hexdigest()

    def apply(self, graph: Graph) -> Graph:
        """The mutated graph: reweight in place, mask removals keeping
        survivor order, append additions.  Pure — ``graph`` is unchanged."""
        w = np.array(graph.w, dtype=np.float64, copy=True)
        if self.rw_idx.size:
            w[self.rw_idx] = self.rw_w
        u, v = graph.u, graph.v
        if self.remove_idx.size:
            keep = np.ones(graph.m, dtype=bool)
            keep[self.remove_idx] = False
            u, v, w = u[keep], v[keep], w[keep]
        if self.add_u.size:
            u = np.concatenate([u, self.add_u])
            v = np.concatenate([v, self.add_v])
            w = np.concatenate([w, self.add_w])
        return Graph(graph.n, u, v, w)


def as_delta(
    graph: Graph,
    *,
    add_edges: Optional[EdgeList] = None,
    remove_edges: Optional[Union[Sequence[int], np.ndarray]] = None,
    reweight: Optional[Reweight] = None,
) -> GraphDelta:
    """Normalize the public mutation spellings into a :class:`GraphDelta`
    validated against ``graph``.

    Raises :class:`~repro.errors.GraphFormatError` for out-of-range
    indices, self-loop or out-of-range added endpoints, and nonpositive
    or nonfinite weights — an edge whose weight should reach zero is a
    *removal*, exactly as in :meth:`Graph.with_weights(drop_zero=False)
    <repro.graphs.graph.Graph.with_weights>`.
    """
    m = graph.m
    # --- additions -------------------------------------------------
    if add_edges is None:
        add_u = add_v = np.zeros(0, dtype=graph.u.dtype)
        add_w = np.zeros(0, dtype=np.float64)
    else:
        arr = np.asarray(
            list(add_edges) if not isinstance(add_edges, np.ndarray) else add_edges,
            dtype=np.float64,
        )
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise GraphFormatError(
                "add_edges must be (u, v, w) triples; got shape "
                f"{np.asarray(arr).shape}"
            )
        add_u = arr[:, 0].astype(graph.u.dtype)
        add_v = arr[:, 1].astype(graph.v.dtype)
        add_w = np.ascontiguousarray(arr[:, 2], dtype=np.float64)
        if not np.array_equal(arr[:, 0], add_u) or not np.array_equal(arr[:, 1], add_v):
            raise GraphFormatError("add_edges endpoints must be integers")
        if add_u.size:
            if add_u.min() < 0 or add_v.min() < 0 or max(add_u.max(), add_v.max()) >= graph.n:
                raise GraphFormatError(
                    f"add_edges endpoints must lie in [0, {graph.n})"
                )
            if np.any(add_u == add_v):
                raise GraphFormatError("add_edges must not contain self-loops")
            if not np.all(np.isfinite(add_w)) or np.any(add_w <= 0):
                raise GraphFormatError(
                    "add_edges weights must be positive and finite"
                )
    # --- removals --------------------------------------------------
    if remove_edges is None:
        remove_idx = np.zeros(0, dtype=np.int64)
    else:
        remove_idx = np.unique(_int_array(remove_edges))
        if remove_idx.size and (remove_idx[0] < 0 or remove_idx[-1] >= m):
            raise GraphFormatError(
                f"remove_edges indices must lie in [0, {m})"
            )
    removed_weight = (
        float(np.sum(graph.w[remove_idx])) if remove_idx.size else 0.0
    )
    # --- reweights -------------------------------------------------
    if reweight is None:
        rw_idx = np.zeros(0, dtype=np.int64)
        rw_w = np.zeros(0, dtype=np.float64)
    elif isinstance(reweight, Mapping):
        rw_idx = _int_array(reweight.keys())
        rw_w = np.asarray([float(reweight[k]) for k in reweight], dtype=np.float64)
        if rw_idx.size and (rw_idx.min() < 0 or rw_idx.max() >= m):
            raise GraphFormatError(f"reweight indices must lie in [0, {m})")
        order = np.argsort(rw_idx, kind="stable")
        rw_idx, rw_w = rw_idx[order], rw_w[order]
    else:
        w = np.asarray(
            list(reweight) if not isinstance(reweight, np.ndarray) else reweight,
            dtype=np.float64,
        )
        if w.shape != graph.w.shape:
            raise GraphFormatError(
                f"reweight vector has {w.size} entries for a graph with {m} edges"
            )
        rw_idx = np.flatnonzero(w != graph.w)
        rw_w = np.ascontiguousarray(w[rw_idx])
    if rw_idx.size:
        if np.unique(rw_idx).size != rw_idx.size:
            raise GraphFormatError("reweight mapping repeats an edge index")
        if not np.all(np.isfinite(rw_w)) or np.any(rw_w <= 0):
            raise GraphFormatError(
                "reweight weights must be positive and finite; drop an "
                "edge with remove_edges instead of zeroing it"
            )
        # restating the current weight is not a mutation
        changed = rw_w != graph.w[rw_idx]
        rw_idx, rw_w = rw_idx[changed], rw_w[changed]
    rw_old = graph.w[rw_idx] if rw_idx.size else np.zeros(0)
    return GraphDelta(
        add_u=add_u,
        add_v=add_v,
        add_w=add_w,
        remove_idx=remove_idx,
        rw_idx=rw_idx,
        rw_w=rw_w,
        _removed_weight=removed_weight,
        _rw_old=np.ascontiguousarray(rw_old, dtype=np.float64),
    )


class DeltaLog:
    """Ordered deltas layered over one base epoch of the engine.

    ``len(log)`` is the staleness counter; :meth:`staleness_ratio`
    normalizes the cumulative absolute weight displacement by the base
    graph's total weight (the denominator the coverage argument is
    relative to); :attr:`fingerprint` chains every applied delta onto
    the base result fingerprint so a memoized post-update answer is
    keyed by exactly the mutation history that produced it.
    """

    def __init__(self, base_fingerprint: str, base_total_weight: float) -> None:
        self.base_fingerprint = base_fingerprint
        self.base_total_weight = max(float(base_total_weight), 1e-300)
        self.fingerprint = base_fingerprint
        self.weight_delta = 0.0
        self._counts = {"added": 0.0, "removed": 0.0, "reweighted": 0.0}
        self._records: List[str] = []

    def __len__(self) -> int:
        return len(self._records)

    def _chain(self, dfp: str) -> str:
        """Extend the chained fingerprint by one recorded delta hash."""
        h = hashlib.sha256()
        h.update(self.fingerprint.encode())
        h.update(b"\x00delta\x00")
        h.update(dfp.encode())
        self.fingerprint = h.hexdigest()
        self._records.append(dfp)
        return self.fingerprint

    def append(self, delta: GraphDelta) -> str:
        """Chain ``delta`` onto the log; returns the new fingerprint."""
        self.weight_delta += delta.weight_delta
        for key in self._counts:
            self._counts[key] += delta.counts()[key]
        return self._chain(delta.fingerprint())

    def state_dict(self) -> Dict[str, object]:
        """The log's durable state (see :meth:`restore`): aggregates plus
        the per-delta fingerprints the chain head is recomputed from."""
        return {
            "base_fingerprint": self.base_fingerprint,
            "base_total_weight": float(self.base_total_weight),
            "fingerprint": self.fingerprint,
            "weight_delta": float(self.weight_delta),
            "counts": dict(self._counts),
            "records": list(self._records),
        }

    def restore(self, state: Mapping[str, object]) -> str:
        """Overlay a persisted :meth:`state_dict` onto this (fresh) log,
        re-deriving the chained fingerprint from the recorded per-delta
        hashes rather than trusting the stored head.  Returns the
        recomputed head for the caller to verify against
        ``state["fingerprint"]`` — the log itself stays agnostic about
        what a mismatch means."""
        self.weight_delta = float(state["weight_delta"])
        self._counts = {k: float(v) for k, v in dict(state["counts"]).items()}
        self.fingerprint = self.base_fingerprint
        self._records = []
        for dfp in list(state["records"]):
            self._chain(str(dfp))
        return self.fingerprint

    def staleness_ratio(self) -> float:
        return self.weight_delta / self.base_total_weight

    def summary(self) -> Dict[str, float]:
        return {
            "updates": float(len(self._records)),
            "weight_delta": self.weight_delta,
            "staleness_ratio": self.staleness_ratio(),
            **self._counts,
        }


@dataclass(frozen=True, eq=False)
class UpdateResult:
    """What :meth:`CutEngine.update` hands back.

    ``result`` is the post-update minimum cut of the mutated graph —
    exact w.h.p. and, for every non-noop update, certified by
    :func:`repro.resilience.verify.verify_cut` (``verification``; a
    no-op keeps whatever certificate the memoized answer carries).
    ``epoch`` counts rebases over the engine's lifetime; a client that
    caches edge indices can compare epochs across calls to detect that
    the engine rebuilt (or another writer mutated) underneath it.
    ``staleness`` is the number of deltas layered on the current epoch's
    artifacts *after* this update.
    """

    result: CutResult
    epoch: int
    staleness: int
    rebased: bool
    rebase_reason: Optional[str]
    noop: bool
    applied: Dict[str, float]
    verification: Optional[VerificationReport]

    @property
    def value(self) -> float:
        return self.result.value

    @property
    def side(self) -> np.ndarray:
        return self.result.side


def random_delta(
    graph: Graph,
    rng: np.random.Generator,
    *,
    p_add: float = 0.45,
    p_remove: float = 0.3,
    p_reweight: float = 0.7,
    max_edges: int = 3,
    weight_scale: float = 1.0,
) -> Dict[str, object]:
    """A random mixed mutation batch against ``graph``, as the keyword
    dict :meth:`CutEngine.update` accepts.

    Shared by the CLI's ``engine --updates`` soak, the wall-clock
    bench's perturbation workload, and the parity tests, so they all
    exercise the same mutation mix.  Weights stay near the graph's mean
    weight (scaled by ``weight_scale``) so the default mix perturbs
    without stampeding the coverage threshold; removals draw from the
    current edge set and may disconnect the graph — a legal input whose
    minimum cut is simply zero.

    Drawn weights are quantized onto the dyadic grid (multiples of
    1/8).  Sums of dyadic rationals are exact in IEEE-754, so the value
    of any cut is independent of summation order — which is what lets
    the parity suite demand *bit-identical* values between an
    incremental ``update()`` answer and a cold rebuild instead of an
    approximate comparison.
    """

    def _dyadic(x: float) -> float:
        return max(0.125, round(x * 8.0) / 8.0)

    mean_w = float(np.mean(graph.w)) if graph.m else 1.0
    out: Dict[str, object] = {}
    if rng.random() < p_add and graph.n >= 2:
        k = int(rng.integers(1, max_edges + 1))
        pairs = set()
        edges = []
        for _ in range(4 * k):
            a, b = int(rng.integers(graph.n)), int(rng.integers(graph.n))
            if a == b or (a, b) in pairs or (b, a) in pairs:
                continue
            pairs.add((a, b))
            w = _dyadic(mean_w * weight_scale * (0.5 + rng.random()))
            edges.append((a, b, w))
            if len(edges) == k:
                break
        if edges:
            out["add_edges"] = edges
    if rng.random() < p_remove and graph.m > graph.n:
        k = int(rng.integers(1, min(max_edges, graph.m - graph.n) + 1))
        out["remove_edges"] = rng.choice(graph.m, size=k, replace=False).tolist()
    if rng.random() < p_reweight and graph.m:
        k = int(rng.integers(1, max_edges + 1))
        idx = rng.choice(graph.m, size=min(k, graph.m), replace=False)
        out["reweight"] = {
            int(i): _dyadic(graph.w[i] * (0.5 + rng.random() * weight_scale))
            for i in idx
        }
    return out
