"""Atomic, hash-verified snapshots of the daemon's durable state.

A snapshot file is the :func:`~repro.resilience.checkpointing.seal`
envelope the resilient driver's checkpoints use: a pickle of
``{"version", "sha256", "payload"}`` where ``payload`` is the *pickled
bytes* of the inner dict ``{"seq", "chain", "payload"}`` and ``sha256``
is the hex digest of those bytes, verified on every read.  Writes go to
a ``.tmp`` sibling
which is loaded back and hash-verified *before* :func:`os.replace`
promotes it, so a crash — or a verification failure — leaves either the
old file or a proven-good new one, never a half-written hybrid; that
discipline is what lets the caller prune older generations safely.

``seq`` is the WAL sequence number the snapshot captures (every record
with ``seq <= snapshot.seq`` is folded in) and ``chain`` is the WAL's
chained fingerprint at that point — recovery refuses a snapshot whose
chain does not match the log it is paired with.

The ``snapshot.partial`` fault site truncates the inner payload bytes
after hashing, simulating a snapshot torn by a crash mid-dump: the
envelope hash then fails verification and the caller keeps the previous
generation.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import RecoveryError
from repro.resilience.checkpointing import seal, unseal
from repro.resilience.faults import SITE_SNAPSHOT_PARTIAL, FaultPlan, poll

__all__ = [
    "SNAPSHOT_VERSION",
    "snapshot_path",
    "list_snapshots",
    "write_snapshot",
    "load_snapshot",
]

SNAPSHOT_VERSION = 1
_SNAP_RE = re.compile(r"^snapshot-(\d{16})\.bin$")


def snapshot_path(state_dir: str, seq: int) -> str:
    return os.path.join(state_dir, f"snapshot-{int(seq):016d}.bin")


def list_snapshots(state_dir: str) -> List[Tuple[int, str]]:
    """``[(seq, path), ...]`` of snapshot files, newest (highest seq) last."""
    found = []
    for name in os.listdir(state_dir):
        m = _SNAP_RE.match(name)
        if m:
            found.append((int(m.group(1)), os.path.join(state_dir, name)))
    found.sort()
    return found


def write_snapshot(
    state_dir: str,
    *,
    seq: int,
    chain: str,
    payload: Dict[str, object],
    faults: Optional[FaultPlan] = None,
) -> str:
    """Atomically write a snapshot at WAL position ``(seq, chain)``.

    The file is read back and hash-verified before this returns — a
    raised :class:`~repro.errors.RecoveryError` means *no* usable new
    snapshot exists and the caller must keep every older generation.
    """
    torn = poll(SITE_SNAPSHOT_PARTIAL, faults) is not None
    blob = seal(
        {"seq": int(seq), "chain": chain, "payload": payload},
        SNAPSHOT_VERSION,
        damage=(lambda raw: raw[: max(1, len(raw) // 3)]) if torn else None,
    )
    path = snapshot_path(state_dir, seq)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    # verify-back *before* promoting: prove the bytes on disk
    # reconstruct, so a bad write can neither clobber an existing good
    # snapshot at this seq nor license pruning the state it supersedes
    try:
        load_snapshot(tmp)
    except RecoveryError:
        os.unlink(tmp)
        raise
    os.replace(tmp, path)
    obs.counters().add("wal.snapshots")
    return path


def load_snapshot(path: str) -> Dict[str, object]:
    """Load and verify one snapshot; returns ``{"seq", "chain", "payload"}``.

    Raises :class:`~repro.errors.RecoveryError` on unreadable bytes, an
    unknown version, or a content-hash mismatch.
    """
    state = unseal(path, SNAPSHOT_VERSION, RecoveryError, f"snapshot {path}")
    if not isinstance(state, dict) or "seq" not in state or "chain" not in state:
        raise RecoveryError(f"{path}: snapshot payload missing seq/chain")
    return state
