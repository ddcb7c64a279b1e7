"""Built-in contenders: the repo's own solvers plus classical baselines.

Importing this module registers everything with
:mod:`repro.arena.registry`.  The heavy algorithm layers are imported
inside ``_run`` so that listing the registry stays cheap.

+-------------------+------------+--------------------------------------------+
| name              | kind       | wraps                                      |
+===================+============+============================================+
| ``paper``         | exact      | :func:`repro.minimum_cut`                  |
| ``resilient``     | exact      | :func:`repro.resilient_minimum_cut`        |
| ``stoer-wagner``  | exact      | the deterministic O(n^3) baseline          |
| ``viecut-reduce`` | exact      | kernelization -> Stoer–Wagner              |
| ``karger-stein``  | montecarlo | vectorized recursive contraction           |
| ``two-out``       | montecarlo | 2-out contraction (unweighted only)        |
| ``matula``        | approx     | (2+eps) certificate contraction            |
| ``approx-s3``     | approx     | :func:`repro.approximate_minimum_cut`      |
+-------------------+------------+--------------------------------------------+
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

import numpy as np

from repro.arena.registry import register
from repro.arena.result import Contender
from repro.graphs.graph import Graph

__all__ = [
    "PaperContender",
    "ResilientContender",
    "StoerWagnerContender",
    "ViecutContender",
    "KargerSteinContender",
    "TwoOutContender",
    "MatulaContender",
    "ApproxSection3Contender",
]

RunReturn = Tuple[float, Optional[np.ndarray], Mapping[str, float]]


@register
class PaperContender(Contender):
    """The paper's exact parallel pipeline (:func:`repro.minimum_cut`)."""

    name = "paper"
    kind = "exact"

    def _run(self, graph, *, seed, budget, ledger) -> RunReturn:
        from repro.core.mincut import minimum_cut

        res = minimum_cut(graph, rng=np.random.default_rng(seed), ledger=ledger)
        return res.value, res.side, {}


@register
class ResilientContender(Contender):
    """The resilient driver: verified retries + fallback chain.

    The only contender that honours ``budget`` natively (cooperative
    deadline shedding through :class:`repro.resilience.Budget`).
    """

    name = "resilient"
    kind = "exact"

    def _run(self, graph, *, seed, budget, ledger) -> RunReturn:
        from repro.resilience.driver import resilient_minimum_cut

        res = resilient_minimum_cut(graph, seed=seed, deadline=budget, ledger=ledger)
        return res.value, res.side, {
            "attempts": float(res.attempts),
            "fallback": 1.0 if res.fallback_used else 0.0,
        }


@register
class StoerWagnerContender(Contender):
    """Deterministic O(n^3) Stoer–Wagner — the sequential exact anchor."""

    name = "stoer-wagner"
    kind = "exact"

    def _run(self, graph, *, seed, budget, ledger) -> RunReturn:
        from repro.arena.solvers.stoer_wagner import stoer_wagner

        res = stoer_wagner(graph)
        ledger.charge(work=float(graph.n) ** 3, depth=float(graph.n))
        return res.value, res.side, {}


@register
class ViecutContender(Contender):
    """VieCut-style exact reductions feeding Stoer–Wagner on the kernel."""

    name = "viecut-reduce"
    kind = "exact"

    def _run(self, graph, *, seed, budget, ledger) -> RunReturn:
        from repro.arena.solvers.reductions import viecut_minimum_cut

        res = viecut_minimum_cut(graph, ledger=ledger)
        return res.value, res.side, dict(res.stats)


@register
class KargerSteinContender(Contender):
    """Vectorized Karger–Stein recursive contraction (exact w.h.p.).

    ``repetitions=None`` means the log^2 n default; benchmarks pass a
    smaller count on very large instances (recorded in ``stats``).
    """

    name = "karger-stein"
    kind = "montecarlo"

    def __init__(self, repetitions: Optional[int] = None) -> None:
        self.repetitions = repetitions

    def _run(self, graph, *, seed, budget, ledger) -> RunReturn:
        from repro.arena.solvers.karger_stein import karger_stein

        res = karger_stein(
            graph, repetitions=self.repetitions, rng=np.random.default_rng(seed)
        )
        ledger.charge(work=float(graph.m + graph.n), depth=1.0)
        return res.value, res.side, dict(res.stats)


@register
class TwoOutContender(Contender):
    """Random 2-out contraction (unweighted simple graphs only)."""

    name = "two-out"
    kind = "montecarlo"

    def supports(self, graph: Graph) -> bool:
        return bool(np.all(graph.w == 1.0))

    def _run(self, graph, *, seed, budget, ledger) -> RunReturn:
        from repro.arena.solvers.two_out import two_out_contraction_min_cut

        res = two_out_contraction_min_cut(
            graph, rng=np.random.default_rng(seed), ledger=ledger
        )
        return res.value, res.side, {}


@register
class MatulaContender(Contender):
    """Matula's (2+eps) certificate-contraction approximation.

    ``max_certificate_rounds`` keeps dense weighted multigraphs
    feasible; the certified ratio (inflated if the cap ever binds) is
    reported as ``claimed_ratio`` and gated by the arena tests.
    """

    name = "matula"
    kind = "approx"

    def __init__(self, epsilon: float = 0.5, max_certificate_rounds: int = 32) -> None:
        self.epsilon = epsilon
        self.max_certificate_rounds = max_certificate_rounds

    def _run(self, graph, *, seed, budget, ledger) -> RunReturn:
        from repro.arena.solvers.matula import matula_approx

        res = matula_approx(
            graph,
            epsilon=self.epsilon,
            ledger=ledger,
            max_certificate_rounds=self.max_certificate_rounds,
        )
        ratio = float(res.stats.get("ratio", 2.0 + self.epsilon))
        return res.value, res.side, {
            "claimed_ratio": ratio,
            "lower_bound": res.value / ratio,
            "iterations": float(res.stats.get("iterations", 0.0)),
        }


@register
class ApproxSection3Contender(Contender):
    """The paper's Section 3 (1 +- eps) approximation.

    ``value`` is the certified upper bracket, ``lower_bound`` the lower
    one; no witness side (the algorithm estimates the value only).
    """

    name = "approx-s3"
    kind = "approx"

    def _run(self, graph, *, seed, budget, ledger) -> RunReturn:
        from repro.approx.approximate import approximate_minimum_cut

        res = approximate_minimum_cut(
            graph, rng=np.random.default_rng(seed), ledger=ledger
        )
        low = max(float(res.low), 1e-300)
        return res.high, None, {
            "claimed_ratio": float(res.high) / low,
            "lower_bound": float(res.low),
            "estimate": float(res.estimate),
            "skeleton_layer": float(res.skeleton_layer),
        }
