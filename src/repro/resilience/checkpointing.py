"""Checkpoint/resume for the resilient driver.

``resilient_minimum_cut(..., checkpoint=PATH)`` runs each attempt as a
cold :class:`repro.engine.CutEngine` query over
:attr:`DriverCheckpoint.cache`, an
:class:`~repro.engine.cache.ArtifactCache` whose ``put`` also persists
the artifact.  The file therefore holds what the engine caches — the
validation, approximation, packed-forest and tree-index artifacts, and
the ``result`` slot (``(trees_done, best)`` while the per-tree search
runs, the answer once it ends) — plus every completed attempt's
outcome.  A run killed mid-pipeline resumes from the last persisted
point and produces a **bit-identical** result to an uninterrupted run
with the same seed.  Two ingredients make that exact rather than
best-effort:

* every artifact carries the NumPy generator state taken *after* its
  stage ran, and the engine parks its generator there on a cache hit —
  the mechanism a warm engine query uses — so the resumed attempt
  consumes exactly the draws an uninterrupted one would;
* the file records a fingerprint of the graph, seed, and pipeline
  parameters; resuming against different inputs is refused with a typed
  :class:`repro.errors.CheckpointError` instead of silently producing a
  chimera result.

File format (version 2, hash-verified)
--------------------------------------
:func:`seal` writes a pickle of ``{"version", "sha256", "payload"}``
where ``payload`` holds the pickled ``{"fingerprint", "state"}`` and
``sha256`` is its content hash; ``state`` holds the ``outcomes``, the
``artifacts`` as ``((stage, fingerprint), artifact)`` pairs and the
armed fault plan's firing record.  :func:`unseal` verifies the version
and the hash before unpickling the payload; any mismatch — truncation,
bit rot, a version-1 file, or the ``checkpoint.corrupt`` fault site —
raises :class:`~repro.errors.CheckpointError`.  The durable daemon's
snapshots (:mod:`repro.durability.snapshot`) use the same envelope.
Writes are atomic (temp file + ``os.replace``), so a kill during a save
leaves the previous consistent snapshot in place.  The file is deleted
when the driver returns a result (the run no longer needs resuming).

Fault sites
-----------
``checkpoint.corrupt`` flips bytes of the payload after hashing, so the
next load detects corruption; ``checkpoint.kill`` raises
:class:`~repro.errors.SimulatedCrash` right after a successful save —
the deterministic stand-in for ``kill -9`` used by the kill/resume
tests and ``scripts/chaos_soak.py``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Type, Union

import numpy as np

from repro.engine.artifacts import combine_fingerprint, graph_fingerprint
from repro.engine.cache import ArtifactCache
from repro.errors import CheckpointError, SimulatedCrash
from repro.obs.counters import counters
from repro.resilience.faults import (
    SITE_CHECKPOINT_CORRUPT,
    SITE_CHECKPOINT_KILL,
    active_plan as _active_plan,
    poll as _poll_fault,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "DriverCheckpoint",
    "run_fingerprint",
    "seal",
    "unseal",
]

#: bump on any incompatible change to the persisted state layout
CHECKPOINT_VERSION = 2


def seal(
    payload: object,
    version: int,
    damage: Optional[Callable[[bytes], bytes]] = None,
) -> bytes:
    """The ``{version, sha256, payload}`` envelope around pickled
    ``payload``.  ``damage`` (a fault site's byte mangler) is applied
    *after* hashing, so the reader's hash check is what catches it."""
    raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(raw).hexdigest()
    if damage is not None:
        raw = damage(raw)
    return pickle.dumps(
        {"version": version, "sha256": digest, "payload": raw},
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def unseal(
    path: Union[str, Path], version: int, error: Type[Exception], what: str
) -> object:
    """Read, verify (version + content hash) and unpickle a :func:`seal`
    envelope; every failure raises ``error``."""
    try:
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
    except Exception as exc:  # noqa: BLE001 - any parse failure is corruption
        raise error(f"{what} is unreadable ({exc})") from exc
    found = envelope.get("version") if isinstance(envelope, dict) else None
    if found != version:
        raise error(
            f"{what} has format version {found!r}; this build reads version {version}"
        )
    raw = envelope.get("payload", b"")
    if hashlib.sha256(raw).hexdigest() != envelope.get("sha256"):
        raise error(f"{what} failed content-hash verification (corrupt)")
    try:
        return pickle.loads(raw)
    except Exception as exc:  # noqa: BLE001 - hash passed but payload bad
        raise error(f"{what} has an undecodable payload ({exc})") from exc


def run_fingerprint(
    graph,
    seed: Optional[int],
    params,
    max_attempts: int,
    spot_check_max_n: int,
) -> str:
    """Content hash binding a checkpoint to one (graph, seed, parameters)
    run — resuming anything else is refused."""
    return combine_fingerprint(
        graph_fingerprint(graph), seed, params, max_attempts, spot_check_max_n
    )


def _corrupt(raw: bytes, seed: int) -> bytes:
    """Deterministically flip a few payload bytes (the ``checkpoint.corrupt``
    fault): enough to break the content hash, reproducible under ``seed``."""
    data = bytearray(raw)
    rng = np.random.default_rng(seed)
    for pos in rng.integers(0, len(data), size=min(8, len(data))):
        data[int(pos)] ^= 0xFF
    return bytes(data)


class _PersistedCache(ArtifactCache):
    """An :class:`ArtifactCache` whose every ``put`` saves the checkpoint."""

    def __init__(self, store: "DriverCheckpoint", entries: list) -> None:
        super().__init__()
        self._store = store
        for (stage, fingerprint), artifact in entries:
            super().put(stage, fingerprint, artifact)
        #: keys read back from the file and not recomputed since
        self._loaded = {key for key, _ in entries}

    def get(self, stage: str, fingerprint: str) -> Optional[object]:
        artifact = super().get(stage, fingerprint)
        if artifact is not None and (stage, fingerprint) in self._loaded:
            counters().add("checkpoint.stage_loads")
        return artifact

    def put(self, stage: str, fingerprint: str, artifact: object) -> None:
        super().put(stage, fingerprint, artifact)
        self._loaded.discard((stage, fingerprint))
        self._store._save()

    def entries(self) -> list:
        with self._lock:
            return list(self._entries.items())


class DriverCheckpoint:
    """The resilient driver's persisted progress: attempt outcomes plus
    the in-flight attempt's engine artifacts (:attr:`cache`)."""

    def __init__(
        self, path: Union[str, Path], fingerprint: str, state: Optional[dict] = None
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.resumed = state is not None
        self.state: dict = state or {"outcomes": [], "artifacts": []}
        # outcomes: [["suspect", value] | ["budget", None], ...]
        self.cache = _PersistedCache(self, self.state["artifacts"])

    @classmethod
    def open(
        cls, path: Union[str, Path], fingerprint: str, resume: bool = True
    ) -> "DriverCheckpoint":
        """Open a checkpoint: load an existing file when ``resume`` (raising
        :class:`CheckpointError` on corruption or fingerprint mismatch),
        otherwise start fresh (an existing file is overwritten on the
        first save)."""
        path = Path(path)
        if not (resume and path.exists()):
            return cls(path, fingerprint)
        payload = unseal(path, CHECKPOINT_VERSION, CheckpointError, f"checkpoint {path}")
        if not isinstance(payload, dict) or payload.get("fingerprint") != fingerprint:
            raise CheckpointError(
                f"checkpoint {path} was written by a different run "
                "(graph/seed/parameter fingerprint mismatch)"
            )
        inst = cls(path, fingerprint, payload["state"])
        counters().add("checkpoint.resumes")
        # restore the armed fault plan's firing record as-of the last
        # save, so an injected-fault run resumes with exactly the
        # faults (and hit counters) the crashed run had left — polls
        # re-executed after the save replay identically
        plan = _active_plan()
        snap = inst.state.get("fault_plan")
        if plan is not None and snap is not None:
            plan._hits.clear()
            plan._hits.update(snap["hits"])
            plan._spent[:] = list(snap["spent"])
            plan.fired[:] = [tuple(t) for t in snap["fired"]]
        return inst

    # -- driver-level records ----------------------------------------------
    @property
    def outcomes(self) -> List[Tuple[str, Optional[float]]]:
        """Completed attempts' outcomes, oldest first."""
        return [tuple(o) for o in self.state["outcomes"]]

    def record_outcome(self, kind: str, value: Optional[float] = None) -> None:
        """Persist one finished attempt (``"suspect"`` or ``"budget"``) and
        drop its artifacts."""
        self.state["outcomes"].append([kind, value])
        self.cache.invalidate()
        self._save()

    def finalize(self) -> None:
        """Delete the checkpoint — the run produced its result."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        counters().add("checkpoint.finalized")

    # -- persistence --------------------------------------------------------
    def _save(self) -> None:
        # poll the checkpoint fault sites *before* snapshotting the plan,
        # so the persisted firing record already counts them: a resumed
        # run (which restores that record) will not re-fire a kill that
        # already crashed the previous process
        corrupt = _poll_fault(SITE_CHECKPOINT_CORRUPT)
        kill = _poll_fault(SITE_CHECKPOINT_KILL)
        plan = _active_plan()
        if plan is not None:
            self.state["fault_plan"] = {
                "hits": dict(plan._hits),
                "spent": list(plan._spent),
                "fired": list(plan.fired),
            }
        self.state["artifacts"] = self.cache.entries()
        blob = seal(
            {"fingerprint": self.fingerprint, "state": self.state},
            CHECKPOINT_VERSION,
            damage=None if corrupt is None else lambda raw: _corrupt(raw, corrupt.seed),
        )
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_bytes(blob)
        os.replace(tmp, self.path)
        counters().add("checkpoint.saves")
        if kill is not None:
            raise SimulatedCrash(
                f"simulated process death after checkpoint save ({self.path})"
            )
