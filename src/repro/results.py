"""Result containers shared by the algorithm layers.

All three entry points return these types:

* :func:`repro.minimum_cut` / :func:`repro.resilient_minimum_cut` →
  :class:`CutResult` (the resilient driver also fills the provenance
  fields ``attempts`` / ``fallback_used`` / ``verification``);
* :func:`repro.approximate_minimum_cut` → :class:`ApproxResult`.

``trace=True`` runs additionally attach a
:class:`repro.obs.RunReport` as ``.report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.report import RunReport

__all__ = ["CutResult", "ApproxResult", "VerificationReport"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of :func:`repro.resilience.verify.verify_cut`.

    ``checks`` lists ``(name, passed)`` in execution order; ``ok`` is
    their conjunction.  ``detail`` explains the first failure.
    """

    ok: bool
    checks: Tuple[Tuple[str, bool], ...] = ()
    detail: str = ""
    #: tightest cheap upper bound the checks computed (min degree /
    #: 1-respecting / Stoer-Wagner value), for diagnostics
    upper_bound: float = math.inf

    def passed(self, name: str) -> Optional[bool]:
        """Result of one named check, or None if it did not run."""
        for n, p in self.checks:
            if n == name:
                return p
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ran = " ".join(f"{n}={'ok' if p else 'FAIL'}" for n, p in self.checks)
        return f"VerificationReport(ok={self.ok}, {ran})"


@dataclass(frozen=True)
class CutResult:
    """A cut of the input graph.

    Attributes
    ----------
    value:
        Total weight crossing the cut.
    side:
        Boolean mask over the graph's vertices (one side of the
        bipartition).  Always a proper nonempty subset for value-bearing
        results; for disconnected inputs it marks one component.
    witness_edges:
        Child endpoints ``(u, v)`` of the tree edges that the cut
        2-respects, when the cut was found through a tree (``u == v``
        for 1-respecting cuts); ``None`` for cuts found by other means
        (e.g. the Stoer–Wagner baseline).
    stats:
        Diagnostics (work/depth snapshots, tree counts, oracle visit
        counters, ...).  Exposed as a **read-only** mapping — the
        result is a frozen value object; richer run diagnostics live on
        ``report`` and the :mod:`repro.obs` counter registry.
    attempts:
        How many exact-pipeline attempts produced this result (1 for a
        direct :func:`repro.core.mincut.minimum_cut` call; > 1 when the
        resilient driver retried after a suspected w.h.p. failure).
    fallback_used:
        ``None`` when the exact pipeline produced the answer; otherwise
        the name of the graceful-degradation stage that did (currently
        ``"stoer_wagner"``).
    verification:
        The :class:`VerificationReport` of the returned answer, when the
        resilient driver verified it; ``None`` for unverified (direct)
        runs.
    report:
        The :class:`repro.obs.RunReport` of a ``trace=True`` run
        (phase spans, counters, trace export); ``None`` otherwise.
    """

    value: float
    side: np.ndarray
    witness_edges: Optional[Tuple[int, int]] = None
    stats: Mapping[str, float] = field(default_factory=dict)
    attempts: int = 1
    fallback_used: Optional[str] = None
    verification: Optional[VerificationReport] = None
    report: Optional["RunReport"] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "side", np.asarray(self.side, dtype=bool))
        object.__setattr__(self, "stats", MappingProxyType(dict(self.stats)))

    # pickle refuses a MappingProxyType: ship ``stats`` as a plain dict
    # (process-pool results, checkpointed artifacts)
    def __getstate__(self) -> dict:
        return {**self.__dict__, "stats": dict(self.stats)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, stats=MappingProxyType(state["stats"]))

    def partition(self) -> Tuple[np.ndarray, np.ndarray]:
        """The two vertex sets of the bipartition."""
        idx = np.arange(self.side.shape[0])
        return idx[self.side], idx[~self.side]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        k = int(self.side.sum())
        return f"CutResult(value={self.value:g}, sides=({k},{self.side.shape[0] - k}))"


@dataclass(frozen=True)
class ApproxResult:
    """Output of the Section 3 approximation algorithm.

    ``low <= lambda <= high`` holds w.h.p.; ``estimate`` is the centre
    of the bracket.  ``skeleton_layer`` is the located layer s with
    ``2^{-s} ~ p_s`` (Definition 3.5).  ``stats`` is read-only, like
    :attr:`CutResult.stats`; ``report`` is the ``trace=True`` run
    report.
    """

    estimate: float
    low: float
    high: float
    skeleton_layer: int
    layer_cuts: Dict[int, float] = field(default_factory=dict)
    stats: Mapping[str, float] = field(default_factory=dict)
    report: Optional["RunReport"] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "stats", MappingProxyType(dict(self.stats)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ApproxResult(estimate={self.estimate:g}, "
            f"bracket=[{self.low:g}, {self.high:g}], layer={self.skeleton_layer})"
        )
