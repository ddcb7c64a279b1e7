"""The staged cut engine (preprocess once, answer many queries).

Layout:

* :mod:`repro.engine.stages` — the exact pipeline's stage functions,
  defined once;
* :mod:`repro.engine.artifacts` — frozen, fingerprinted stage outputs;
* :mod:`repro.engine.cache` — the size-bounded, hash-keyed
  :class:`ArtifactCache`;
* :mod:`repro.engine.deltas` — :class:`GraphDelta`/:class:`DeltaLog`:
  the validated edge-mutation batches ``CutEngine.update`` layers
  over the base artifact chain, plus :class:`UpdateResult`;
* :mod:`repro.engine.service` — :class:`CutEngine`, the one
  composition of those stages (:func:`repro.minimum_cut` and each
  :func:`repro.resilient_minimum_cut` attempt are cold queries of it):
  ``min_cut()``, ``min_cut_batch(seeds)``, ``update(add_edges=...,
  remove_edges=..., reweight=...)``, and the
  ``snapshot_state``/``restore_state`` pair :mod:`repro.durability`
  persists engines through.

See ``docs/architecture.md`` for the stage graph and the
cache-invalidation rules.
"""

from repro.engine.artifacts import (
    ApproxArtifact,
    PackedForest,
    TreeIndex,
    ValidationArtifact,
    combine_fingerprint,
    graph_fingerprint,
)
from repro.engine.cache import ArtifactCache
from repro.engine.deltas import DeltaLog, GraphDelta, UpdateResult, as_delta, random_delta
from repro.engine.service import CutEngine

__all__ = [
    "CutEngine",
    "GraphDelta",
    "DeltaLog",
    "UpdateResult",
    "as_delta",
    "random_delta",
    "ArtifactCache",
    "ValidationArtifact",
    "ApproxArtifact",
    "PackedForest",
    "TreeIndex",
    "graph_fingerprint",
    "combine_fingerprint",
]
