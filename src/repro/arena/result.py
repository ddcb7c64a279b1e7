"""Typed results and the contender protocol for the solver arena.

Every solver in the arena — the paper pipeline, the resilient driver,
and the classical baselines — is wrapped as a
:class:`Contender`: a named, kinded object whose ``solve`` method runs
the underlying algorithm under a private work/depth ledger and a
wall-clock timer and returns an :class:`ArenaResult`.

Kinds
-----
``exact``
    Deterministically exact, or exact w.h.p. with an explicit seed —
    the benchmark cross-checks these bit-for-bit against each other.
``montecarlo``
    Randomized with a constant/1-1/poly success probability per run
    (Karger–Stein, 2-out contraction).  Values never undershoot the
    true minimum; agreement is reported, not gated.
``approx``
    Carries a certified approximation ratio (``claimed_ratio``); the
    benchmark gates ``lower_bound <= lambda`` and
    ``value <= claimed_ratio * lambda``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.pram.ledger import Ledger

__all__ = ["ArenaResult", "Contender", "KINDS"]

KINDS = ("exact", "montecarlo", "approx")


@dataclass(frozen=True)
class ArenaResult:
    """One contender's answer on one instance.

    Attributes
    ----------
    contender, kind:
        The contender's registry name and kind (see module docstring).
    value:
        The cut value returned (for ``approx`` contenders: the
        certified *upper* end of the bracket).
    side:
        Boolean side mask over the input's vertices when the solver
        produces a witness cut; ``None`` for value-only answers.
    wall_s:
        Wall-clock seconds for the solve call.
    work, depth:
        Ledger charges recorded by the solver (0 for baselines that
        predate the ledger contract).
    seed:
        The seed the contender was handed.
    n, m:
        Instance size, recorded so results are self-describing.
    claimed_ratio:
        Certified ``value / lambda`` upper bound (1.0 for exact).
    lower_bound:
        Certified lower bracket on lambda (``approx`` contenders;
        0.0 otherwise).
    stats:
        Read-only solver diagnostics (kernel sizes, repetitions, ...).
    """

    contender: str
    kind: str
    value: float
    side: Optional[np.ndarray]
    wall_s: float
    work: float
    depth: float
    seed: int
    n: int
    m: int
    claimed_ratio: float = 1.0
    lower_bound: float = 0.0
    stats: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.side is not None:
            object.__setattr__(self, "side", np.asarray(self.side, dtype=bool))
        object.__setattr__(self, "stats", MappingProxyType(dict(self.stats)))

    def to_json(self) -> dict:
        """JSON-safe summary (the side mask is reduced to its sizes)."""
        side_sizes = None
        if self.side is not None:
            k = int(self.side.sum())
            side_sizes = [k, int(self.side.shape[0]) - k]
        return {
            "contender": self.contender,
            "kind": self.kind,
            "value": self.value,
            "side_sizes": side_sizes,
            "wall_s": self.wall_s,
            "work": self.work,
            "depth": self.depth,
            "seed": self.seed,
            "n": self.n,
            "m": self.m,
            "claimed_ratio": self.claimed_ratio,
            "lower_bound": self.lower_bound,
            "stats": dict(self.stats),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArenaResult({self.contender}, value={self.value:g}, "
            f"wall={self.wall_s:.3f}s)"
        )


class Contender:
    """Base class: a named solver with a uniform ``solve`` surface.

    Subclasses set :attr:`name`, :attr:`kind`, :attr:`deterministic`
    and implement :meth:`_run`; ``solve`` adds the private ledger, the
    wall-clock timer, and the :class:`ArenaResult` packaging.
    ``budget`` (wall-clock seconds) is best effort: solvers built on
    the resilience layer honour it cooperatively, classical baselines
    ignore it.
    """

    name: str = ""
    kind: str = "exact"
    #: same seed -> bit-identical answer (all contenders here qualify;
    #: a future contender with irreducible nondeterminism would not)
    deterministic: bool = True

    def supports(self, graph: Graph) -> bool:
        """Whether this contender can run on ``graph`` at all (e.g. the
        2-out contraction is defined only for unweighted graphs)."""
        return True

    def solve(
        self, graph: Graph, *, seed: int = 0, budget: Optional[float] = None
    ) -> ArenaResult:
        ledger = Ledger()
        start = time.perf_counter()
        value, side, extras = self._run(graph, seed=seed, budget=budget, ledger=ledger)
        wall = time.perf_counter() - start
        extras = dict(extras)
        return ArenaResult(
            contender=self.name,
            kind=self.kind,
            value=float(value),
            side=side,
            wall_s=wall,
            work=float(ledger.work),
            depth=float(ledger.depth),
            seed=seed,
            n=graph.n,
            m=graph.m,
            claimed_ratio=float(extras.pop("claimed_ratio", 1.0)),
            lower_bound=float(extras.pop("lower_bound", 0.0)),
            stats=extras,
        )

    def _run(
        self,
        graph: Graph,
        *,
        seed: int,
        budget: Optional[float],
        ledger: Ledger,
    ) -> Tuple[float, Optional[np.ndarray], Mapping[str, float]]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Contender {self.name} [{self.kind}]>"
