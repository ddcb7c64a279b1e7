"""Frozen, fingerprinted artifacts produced by the engine's stages.

Each preprocessing stage of :class:`repro.engine.CutEngine` emits one
immutable value object carrying

* the stage's payload (approximation value, packed forest, candidate
  tree index, ...),
* the **fingerprint** of everything that determined it — so the
  :class:`repro.engine.ArtifactCache` key *is* the invalidation rule:
  change the graph, the seed, or a parameter the stage depends on and
  the key changes with it, deterministically — and
* the NumPy generator state **after** the stage ran, so a warm query
  resumes the randomness stream exactly where a cold run would be.
  Checkpoint/resume is this same mechanism: the resilient driver's
  checkpoint persists these artifacts (see
  :mod:`repro.resilience.checkpointing`).

Artifacts are plain data: building one never touches a ledger, and a
cached artifact replays into a query without charging the preprocessing
work again — that is the engine's entire point.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.packing.greedy import GreedyPacking
from repro.results import CutResult

__all__ = [
    "graph_fingerprint",
    "combine_fingerprint",
    "ValidationArtifact",
    "ApproxArtifact",
    "PackedForest",
    "TreeIndex",
]


def graph_fingerprint(graph: Graph) -> str:
    """Content hash of a graph: vertex count plus the exact edge arrays.

    Two graphs with the same fingerprint are byte-identical inputs to
    every stage; a single reweighted edge changes it.
    """
    h = hashlib.sha256()
    h.update(np.int64(graph.n).tobytes())
    h.update(np.int64(graph.m).tobytes())
    h.update(np.ascontiguousarray(graph.u).tobytes())
    h.update(np.ascontiguousarray(graph.v).tobytes())
    h.update(np.ascontiguousarray(graph.w).tobytes())
    return h.hexdigest()


def combine_fingerprint(*parts: object) -> str:
    """Hash a tuple of fingerprint strings / reprs into one key."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _rng_nbytes(state: Optional[dict]) -> int:
    # a PCG64 state dict is a few ints; charge a flat token
    return 0 if state is None else 128


@dataclass(frozen=True)
class ValidationArtifact:
    """Outcome of the ``validate`` stage.

    ``early`` carries the finished result for degenerate inputs
    (disconnected, two vertices); None means the full pipeline runs.
    """

    fingerprint: str
    early: Optional[CutResult] = None

    @property
    def nbytes(self) -> int:
        if self.early is None:
            return 64
        return 64 + int(self.early.side.nbytes)


@dataclass(frozen=True)
class ApproxArtifact:
    """Output of the ``approximate`` stage: the Theorem 3.1 estimate
    (already floored away from zero) plus the post-stage rng state.
    ``skipped`` marks an estimate that is the minimum weighted degree
    (:func:`repro.engine.stages.approximate_stage`)."""

    fingerprint: str
    approx_value: float
    rng_state: Optional[dict] = None
    skipped: bool = False

    @property
    def lambda_underestimate(self) -> float:
        """Section 4.2's packing underestimate: half the approximation."""
        return float(self.approx_value) / 2.0

    @property
    def nbytes(self) -> int:
        return 64 + _rng_nbytes(self.rng_state)


@dataclass(frozen=True)
class PackedForest:
    """Output of the ``sparsify`` + ``pack`` stages: the greedy tree
    packing of the skeleton, with the skeleton's summary statistics.

    This is the expensive artifact the whole engine exists to amortize:
    every distinct packed tree, reusable across queries and (per the
    tree-packing argument) across modest weight perturbations.
    """

    fingerprint: str
    packing: GreedyPacking
    skeleton_edges: float
    skeleton_p: float
    rng_state: Optional[dict] = None

    def packing_stats(self, num_trees: int) -> dict:
        """The packing statistics every answer built on this forest
        reports, for a search over ``num_trees`` selected trees."""
        return {
            "num_trees": float(num_trees),
            "skeleton_edges": self.skeleton_edges,
            "skeleton_p": self.skeleton_p,
            "packing_iterations": float(self.packing.iterations),
        }

    @property
    def nbytes(self) -> int:
        g = self.packing.graph
        edges = int(g.u.nbytes + g.v.nbytes + g.w.nbytes)
        trees = sum(int(np.asarray(t).nbytes) for t in self.packing.trees)
        return 64 + edges + trees + _rng_nbytes(self.rng_state)


@dataclass(frozen=True)
class TreeIndex:
    """Output of the ``index`` stage: the materialized candidate parent
    arrays the 2-respecting search queries, plus the packing statistics
    that flow into every result's ``stats``."""

    fingerprint: str
    tree_parents: Tuple[np.ndarray, ...] = field(default_factory=tuple)
    packing_stats: dict = field(default_factory=dict)
    rng_state: Optional[dict] = None

    @property
    def num_trees(self) -> int:
        return len(self.tree_parents)

    @property
    def nbytes(self) -> int:
        return (
            64
            + sum(int(p.nbytes) for p in self.tree_parents)
            + _rng_nbytes(self.rng_state)
        )
