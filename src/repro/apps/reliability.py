"""Network-reliability analysis on top of the min-cut stack.

``weakest_partition`` answers "what is the cheapest link-capacity loss
that disconnects this network, and who falls off?"; ``reinforce``
iterates: find the weakest cut, upgrade its links, repeat — reporting
how the survivable capacity climbs (the capacity-planning loop of
``examples/network_reliability.py`` as a tested API).

Both run :class:`repro.engine.CutEngine` one-shot per graph —
bit-identical to the direct :func:`repro.minimum_cut` calls (pinned in
``tests/test_apps.py``).

``monitor`` is the evolving-graph entry point: it feeds a stream of
mutation batches (additions, removals, reweights) through one engine's
:meth:`~repro.engine.CutEngine.update` surface and reports the weakest
partition after every step, with the epoch/staleness bookkeeping a
capacity planner needs to know when edge indices shifted underneath it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional

import numpy as np

from repro.graphs.graph import Graph
from repro.pram.ledger import Ledger, NULL_LEDGER

__all__ = [
    "ReliabilityReport",
    "MonitorEvent",
    "weakest_partition",
    "reinforce",
    "monitor",
]


@dataclass(frozen=True)
class ReliabilityReport:
    """One round of the reinforcement loop."""

    cut_value: float
    isolated: np.ndarray  # the smaller side's vertex ids
    crossing_edges: np.ndarray  # edge indices in the round's graph


def _report(graph: Graph, value: float, side: np.ndarray) -> ReliabilityReport:
    small = side if side.sum() * 2 <= graph.n else ~side
    return ReliabilityReport(
        cut_value=value,
        isolated=np.flatnonzero(small),
        crossing_edges=graph.cut_edges(side),
    )


def weakest_partition(
    graph: Graph,
    rng: Optional[np.random.Generator] = None,
    ledger: Ledger = NULL_LEDGER,
) -> ReliabilityReport:
    """The minimum cut phrased as a reliability report."""
    from repro.engine.service import CutEngine

    res = CutEngine(graph, rng=rng, ledger=ledger).min_cut()
    return _report(graph, res.value, res.side)


def reinforce(
    graph: Graph,
    rounds: int,
    factor: float = 2.0,
    rng: Optional[np.random.Generator] = None,
    ledger: Ledger = NULL_LEDGER,
) -> List[ReliabilityReport]:
    """Iteratively upgrade the weakest cut's links by ``factor``.

    Returns the per-round reports; ``reports[i].cut_value`` is
    non-decreasing in i (upgrading a cut cannot lower any other cut).
    Each round's graph is preprocessed afresh; reweighting keeps the
    topology, so every report's ``crossing_edges`` indexes the input
    graph's edge order.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if factor <= 1.0:
        raise ValueError("factor must exceed 1")
    rng = rng if rng is not None else np.random.default_rng()
    reports: List[ReliabilityReport] = []
    current = graph
    for _ in range(rounds):
        rep = weakest_partition(current, rng=rng, ledger=ledger)
        reports.append(rep)
        w = current.w.copy()
        w[rep.crossing_edges] *= factor
        current = current.with_weights(w)
    return reports


@dataclass(frozen=True)
class MonitorEvent:
    """The weakest partition after one step of an evolving network.

    ``report.crossing_edges`` indexes into **that step's** graph
    (``graph``); whenever ``epoch`` changed since the previous event,
    edge indices from earlier steps are stale — removals shift the
    survivor order and rebases renumber nothing but signal that the
    engine rebuilt its artifacts.
    """

    step: int
    graph: Graph
    report: ReliabilityReport
    epoch: int
    staleness: int
    rebased: bool
    rebase_reason: Optional[str]
    verified: Optional[bool]


def monitor(
    graph: Graph,
    update_batches: Iterable[Mapping[str, object]],
    *,
    rng: Optional[np.random.Generator] = None,
    ledger: Ledger = NULL_LEDGER,
) -> List[MonitorEvent]:
    """Track the weakest partition of an evolving network.

    ``update_batches`` yields keyword dicts for
    :meth:`repro.engine.CutEngine.update` (``add_edges`` /
    ``remove_edges`` / ``reweight``); each batch is applied in order
    and answered incrementally off the packed trees where coverage
    permits.  Event 0 is the initial graph's partition; event ``i >= 1``
    follows batch ``i - 1``.  Every post-update cut is verified exact
    (``verified``); a disconnected step simply reports cut value 0 with
    the detached component isolated.
    """
    from repro.engine.service import CutEngine

    engine = CutEngine(graph, rng=rng, ledger=ledger)
    res = engine.min_cut()
    events = [
        MonitorEvent(
            step=0,
            graph=engine.graph,
            report=_report(engine.graph, res.value, res.side),
            epoch=engine.epoch,
            staleness=engine.staleness,
            rebased=False,
            rebase_reason=None,
            verified=None,
        )
    ]
    for step, batch in enumerate(update_batches, start=1):
        upd = engine.update(**dict(batch))
        events.append(
            MonitorEvent(
                step=step,
                graph=engine.graph,
                report=_report(engine.graph, upd.value, upd.result.side),
                epoch=upd.epoch,
                staleness=upd.staleness,
                rebased=upd.rebased,
                rebase_reason=upd.rebase_reason,
                verified=None if upd.verification is None else upd.verification.ok,
            )
        )
    return events
