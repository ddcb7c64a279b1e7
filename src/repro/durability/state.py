"""Durable daemon state: WAL + snapshots + verified recovery.

:class:`DurableState` owns one *state directory*::

    state-dir/
      wal-0000000000000001.log      # records 1..N of generation 0
      wal-0000000000000042.log      # records 42.. of generation 1
      snapshot-0000000000000041.bin # registry state through record 41

and provides the serve layer's whole durability surface:

* ``log_tenant`` / ``log_graph`` / ``log_update`` append one record to
  the WAL **before** the caller acks its client (ack-implies-durable
  under ``fsync=always``);
* ``snapshot`` serializes the live :class:`~repro.serve.tenancy.TenantRegistry`
  (every tenant's quota plus every engine's
  :meth:`~repro.engine.CutEngine.snapshot_state`), writes it with the
  verify-back discipline of :mod:`repro.durability.snapshot`, rotates
  the WAL to a fresh generation, and prunes superseded files under the
  retention policy — a snapshot that fails its own verification changes
  *nothing* (the old generation stays, counted under
  ``wal.snapshot_verify_failed``);
* ``recover`` restores the newest valid snapshot (falling back across
  corrupt ones), walks every remaining WAL file verifying sequence
  continuity and the chained fingerprint — including that the chain at
  the snapshot's position **matches the snapshot** — and replays the
  suffix through the real :meth:`CutEngine.update` path, exact-checking
  each replayed step's post-state (epoch, staleness, value, fingerprint)
  against the logged ledger.  Any mismatch raises a typed
  :class:`~repro.errors.RecoveryError`; the daemon refuses to boot.

Sequence numbers start at 1; record 0 does not exist (a fresh directory
recovers to ``seq == 0`` with the genesis chain).  All mutating entry
points take :attr:`lock` (an :class:`threading.RLock`), which the serve
layer also holds across ``engine.update(...) + log_update(...)`` so a
snapshot can never capture an engine whose latest update is missing
from the log.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import re
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import (
    InvalidParameterError,
    RecoveryError,
    UpdateVerificationError,
)
from repro.graphs.graph import Graph
from repro.resilience.faults import FaultPlan
from repro.serve.tenancy import TenantQuota, TenantRegistry
from repro.durability import snapshot as snapmod
from repro.durability import wal as walmod

__all__ = ["GENESIS_CHAIN", "DurableState"]

#: the chained fingerprint before any record was ever written
GENESIS_CHAIN = hashlib.sha256(b"repro-durability-genesis").hexdigest()

_WAL_RE = re.compile(r"^wal-(\d{16})\.log$")


def _wal_path(state_dir: str, start_seq: int) -> str:
    return os.path.join(state_dir, f"wal-{int(start_seq):016d}.log")


def _list_wal_files(state_dir: str) -> List[Tuple[int, str]]:
    """``[(start_seq, path), ...]`` sorted by start_seq ascending."""
    found = []
    for name in os.listdir(state_dir):
        m = _WAL_RE.match(name)
        if m:
            found.append((int(m.group(1)), os.path.join(state_dir, name)))
    found.sort()
    return found


def _encode_update_kwargs(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-safe spelling of :meth:`CutEngine.update` keywords."""
    data: Dict[str, Any] = {}
    if kwargs.get("add_edges") is not None:
        data["add_edges"] = [
            [int(u), int(v), float(w)] for (u, v, w) in kwargs["add_edges"]
        ]
    if kwargs.get("remove_edges") is not None:
        data["remove_edges"] = [int(i) for i in kwargs["remove_edges"]]
    if kwargs.get("reweight") is not None:
        rw = kwargs["reweight"]
        if isinstance(rw, dict):
            data["reweight"] = {str(int(k)): float(v) for k, v in rw.items()}
        else:
            data["reweight"] = [float(v) for v in rw]
    return data


def _decode_update_kwargs(data: Dict[str, Any]) -> Dict[str, Any]:
    kwargs: Dict[str, Any] = {}
    if "add_edges" in data:
        kwargs["add_edges"] = [
            (int(u), int(v), float(w)) for (u, v, w) in data["add_edges"]
        ]
    if "remove_edges" in data:
        kwargs["remove_edges"] = [int(i) for i in data["remove_edges"]]
    if "reweight" in data:
        rw = data["reweight"]
        if isinstance(rw, dict):
            kwargs["reweight"] = {int(k): float(v) for k, v in rw.items()}
        else:
            kwargs["reweight"] = [float(v) for v in rw]
    return kwargs


class DurableState:
    """The serve daemon's durable spine over one state directory."""

    def __init__(
        self,
        state_dir: str,
        *,
        fsync: str = "always",
        snapshot_interval: int = 64,
        snapshot_retention: int = 2,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if snapshot_interval < 1:
            raise InvalidParameterError("snapshot_interval must be >= 1")
        if snapshot_retention < 1:
            raise InvalidParameterError("snapshot_retention must be >= 1")
        self.state_dir = os.path.abspath(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self.fsync = fsync
        self.snapshot_interval = int(snapshot_interval)
        self.snapshot_retention = int(snapshot_retention)
        self.faults = faults
        self.lock = threading.RLock()
        self.registry: Optional[TenantRegistry] = None
        self._wal: Optional[walmod.WriteAheadLog] = None
        self._generation = 0
        self._since_snapshot = 0
        self._closed = False

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self, registry: TenantRegistry) -> Dict[str, int]:
        """Restore ``registry`` from the state directory and open the
        WAL for appends.  Returns recovery stats (records seen/replayed,
        snapshot position).  Raises :class:`RecoveryError` — and leaves
        the directory untouched — rather than booting mismatched state.
        """
        with self.lock:
            reg = obs.counters()
            reg.add("recovery.runs")
            self.registry = registry
            # a crash between "write snapshot.tmp" and os.replace leaves
            # a .tmp sibling nothing references; sweep it so a kill can
            # never leak files across restarts
            for name in os.listdir(self.state_dir):
                if name.endswith(".tmp"):
                    os.unlink(os.path.join(self.state_dir, name))
            snap_seq, snap_chain, payload = self._load_newest_snapshot()
            if payload is not None:
                self._restore_registry(payload)
                reg.add("recovery.snapshots_loaded")
            stats = {
                "snapshot_seq": snap_seq,
                "records_seen": 0,
                "records_replayed": 0,
            }
            cur_seq, cur_chain = self._walk_wal(snap_seq, snap_chain, stats)
            if snap_seq > cur_seq:
                raise RecoveryError(
                    f"snapshot at seq {snap_seq} is beyond the end of the "
                    f"write-ahead log (last seq {cur_seq}); the log that "
                    "produced it is missing"
                )
            # boot onto a fresh generation: snapshot what we recovered
            # (so old generations become prunable) and rotate
            self._open_generation(cur_seq, cur_chain)
            if cur_seq > 0:
                self.snapshot()
            return stats

    def _load_newest_snapshot(
        self,
    ) -> Tuple[int, str, Optional[Dict[str, Any]]]:
        """Newest snapshot that verifies, falling back across bad ones."""
        for seq, path in reversed(snapmod.list_snapshots(self.state_dir)):
            try:
                state = snapmod.load_snapshot(path)
            except RecoveryError:
                obs.counters().add("recovery.snapshot_fallbacks")
                continue
            return int(state["seq"]), str(state["chain"]), dict(state["payload"])
        return 0, GENESIS_CHAIN, None

    def _walk_wal(
        self, snap_seq: int, snap_chain: str, stats: Dict[str, int]
    ) -> Tuple[int, str]:
        """Verify every WAL file's chain and replay the post-snapshot
        suffix; returns the final ``(seq, chain)``."""
        files = _list_wal_files(self.state_dir)
        if not files:
            return snap_seq, snap_chain
        reg = obs.counters()
        cur_seq: Optional[int] = None
        cur_chain = ""
        for i, (start_seq, path) in enumerate(files):
            size = os.path.getsize(path)
            try:
                header, records, valid_length = walmod.scan(path)
            except RecoveryError:
                # a crash during rotation can leave the *newest*
                # generation as a half-written magic/header with no
                # records in it; that debris is safe to drop.  Anything
                # else stays a hard error.
                if i == len(files) - 1 and walmod.torn_creation(path):
                    os.unlink(path)
                    reg.add("wal.truncated_tail")
                    break
                raise
            if valid_length < size:
                reg.add("wal.truncated_tail")
            h_start = int(header["start_seq"])
            h_chain = str(header["chain"])
            if h_start != start_seq:
                raise RecoveryError(
                    f"{path}: header start_seq {h_start} disagrees with "
                    f"the file name"
                )
            if cur_seq is None:
                # oldest remaining file: its header is the anchor.  If
                # it starts right after the snapshot, the header chain
                # must be the snapshot's chain; if it starts before,
                # the in-stream check at snap_seq will cross-verify.
                cur_seq, cur_chain = h_start - 1, h_chain
                if snap_seq + 1 == h_start and h_chain != snap_chain:
                    raise RecoveryError(
                        f"{path}: WAL generation chain {h_chain[:12]}... "
                        f"does not match the snapshot chain "
                        f"{snap_chain[:12]}... it claims to follow"
                    )
                if snap_seq < cur_seq:
                    raise RecoveryError(
                        f"{path}: oldest WAL file starts at seq {h_start} "
                        f"but the newest usable snapshot covers only seq "
                        f"{snap_seq}; records "
                        f"{snap_seq + 1}..{cur_seq} are lost"
                    )
            else:
                if h_start != cur_seq + 1 or h_chain != cur_chain:
                    raise RecoveryError(
                        f"{path}: WAL generation does not continue its "
                        f"predecessor (expected seq {cur_seq + 1} / chain "
                        f"{cur_chain[:12]}..., got {h_start} / "
                        f"{h_chain[:12]}...)"
                    )
            self._generation = max(self._generation, int(header.get("epoch", 0)))
            for rec in records:
                if rec.seq != cur_seq + 1:
                    raise RecoveryError(
                        f"{path}: sequence gap — expected seq "
                        f"{cur_seq + 1}, found {rec.seq}"
                    )
                cur_seq, cur_chain = rec.seq, rec.chain
                stats["records_seen"] += 1
                if rec.seq == snap_seq and cur_chain != snap_chain:
                    raise RecoveryError(
                        f"{path}: fingerprint chain at seq {snap_seq} "
                        f"({cur_chain[:12]}...) does not match the "
                        f"snapshot's chain ({snap_chain[:12]}...); "
                        "snapshot and log tell different histories"
                    )
                if rec.seq > snap_seq:
                    self._apply(rec)
                    stats["records_replayed"] += 1
                    reg.add("recovery.records_replayed")
        return (snap_seq, snap_chain) if cur_seq is None else (cur_seq, cur_chain)

    def _apply(self, rec: walmod.WalRecord) -> None:
        """Replay one logged record against the live registry."""
        assert self.registry is not None
        data = rec.data
        if rec.kind == "tenant":
            self.registry.register(
                str(data["name"]), TenantQuota(**dict(data["quota"]))
            )
            return
        if rec.kind == "graph":
            tenant = self.registry.get(str(data["tenant"]))
            graph = Graph.from_edges(
                int(data["n"]),
                [(int(u), int(v), float(w)) for (u, v, w) in data["edges"]],
            )
            tenant.register_graph(
                str(data["name"]),
                graph,
                seed=int(data["seed"]),
                epsilon=data.get("epsilon"),
            )
            return
        if rec.kind == "update":
            tenant = self.registry.get(str(data["tenant"]))
            engine, _lock = tenant.engine(str(data["graph"]))
            kwargs = _decode_update_kwargs(dict(data["kwargs"]))
            try:
                upd = engine.update(**kwargs)
            except UpdateVerificationError as exc:
                raise RecoveryError(
                    f"replay of seq {rec.seq} failed the live verification "
                    f"the original update passed: {exc}"
                ) from exc
            obs.counters().add("recovery.updates_replayed")
            post = dict(data["post"])
            got_fp = engine.fingerprint_chain()["current"]["fingerprint"]
            mismatches = []
            if int(upd.epoch) != int(post["epoch"]):
                mismatches.append(f"epoch {upd.epoch} != {post['epoch']}")
            if int(upd.staleness) != int(post["staleness"]):
                mismatches.append(
                    f"staleness {upd.staleness} != {post['staleness']}"
                )
            if float(upd.value) != float(post["value"]):
                mismatches.append(f"value {upd.value!r} != {post['value']!r}")
            if got_fp != post["fingerprint"]:
                mismatches.append(
                    f"fingerprint {str(got_fp)[:12]}... != "
                    f"{str(post['fingerprint'])[:12]}..."
                )
            if mismatches:
                raise RecoveryError(
                    f"replayed update at seq {rec.seq} diverged from the "
                    f"logged ledger: {'; '.join(mismatches)}"
                )
            return
        raise RecoveryError(f"unknown WAL record kind {rec.kind!r} at seq {rec.seq}")

    # ------------------------------------------------------------------
    # registry (de)serialization
    # ------------------------------------------------------------------
    def _registry_payload(self) -> Dict[str, Any]:
        assert self.registry is not None
        tenants: Dict[str, Any] = {}
        for name, tenant in self.registry.items():
            graphs = {
                gname: {
                    "params": dict(
                        tenant.graph_params.get(
                            gname, {"seed": 0, "epsilon": None}
                        )
                    ),
                    "engine": engine.snapshot_state(),
                }
                for gname, engine in tenant.engines.items()
            }
            tenants[name] = {
                "quota": dataclasses.asdict(tenant.quota),
                "graphs": graphs,
            }
        return {
            "default_budget_class": self.registry.default_budget_class,
            "tenants": tenants,
        }

    def _restore_registry(self, payload: Dict[str, Any]) -> None:
        assert self.registry is not None
        for name, tstate in dict(payload["tenants"]).items():
            tenant = self.registry.register(
                str(name), TenantQuota(**dict(tstate["quota"]))
            )
            for gname, gstate in dict(tstate["graphs"]).items():
                params = dict(gstate["params"])
                engine_state = dict(gstate["engine"])
                engine = tenant.register_graph(
                    str(gname),
                    engine_state["base_graph"],
                    seed=int(params.get("seed", 0)),
                    epsilon=params.get("epsilon"),
                )
                engine.restore_state(engine_state)

    # ------------------------------------------------------------------
    # logging (the serve layer's append surface)
    # ------------------------------------------------------------------
    def log_tenant(self, name: str, quota: TenantQuota) -> int:
        return self._log(
            "tenant", {"name": name, "quota": dataclasses.asdict(quota)}
        )

    def log_graph(
        self,
        tenant: str,
        name: str,
        graph: Graph,
        *,
        seed: int = 0,
        epsilon: Optional[float] = None,
    ) -> int:
        return self._log(
            "graph",
            {
                "tenant": tenant,
                "name": name,
                "n": int(graph.n),
                "edges": [[int(u), int(v), float(w)] for u, v, w in graph.edges()],
                "seed": int(seed),
                "epsilon": None if epsilon is None else float(epsilon),
            },
        )

    def log_update(
        self,
        tenant: str,
        graph: str,
        kwargs: Dict[str, Any],
        post: Dict[str, Any],
    ) -> int:
        """Log one applied, verified update and its post-state ledger
        (``post`` = epoch/staleness/value/fingerprint after the update).
        """
        return self._log(
            "update",
            {
                "tenant": tenant,
                "graph": graph,
                "kwargs": _encode_update_kwargs(kwargs),
                "post": {
                    "epoch": int(post["epoch"]),
                    "staleness": int(post["staleness"]),
                    "value": float(post["value"]),
                    "fingerprint": str(post["fingerprint"]),
                },
            },
        )

    def _log(self, kind: str, data: Dict[str, Any]) -> int:
        with self.lock:
            if self._wal is None:
                raise RecoveryError(
                    "DurableState has no open WAL (recover() not run, or "
                    "already closed)"
                )
            seq, _chain = self._wal.append(kind, data)
            self._since_snapshot += 1
            if self._since_snapshot >= self.snapshot_interval:
                self.snapshot()
            return seq

    # ------------------------------------------------------------------
    # snapshots and rotation
    # ------------------------------------------------------------------
    def snapshot(self) -> Optional[str]:
        """Snapshot the live registry at the WAL's current position,
        rotate to a fresh generation, and prune superseded files.

        Returns the snapshot path, or None if the written snapshot
        failed its verify-back — in which case nothing was rotated or
        pruned and the WAL keeps appending to the current generation.
        """
        with self.lock:
            if self._wal is None:
                raise RecoveryError("DurableState has no open WAL")
            if self.registry is None:
                raise RecoveryError("DurableState has no registry to snapshot")
            seq, chain = self._wal.next_seq - 1, self._wal.chain
            try:
                path = snapmod.write_snapshot(
                    self.state_dir,
                    seq=seq,
                    chain=chain,
                    payload=self._registry_payload(),
                    faults=self.faults,
                )
            except RecoveryError:
                # the unverified .tmp was discarded before promotion:
                # any existing snapshot at this seq is untouched, and
                # nothing may be rotated or pruned on its account
                obs.counters().add("wal.snapshot_verify_failed")
                self._since_snapshot = 0
                return None
            self._rotate(seq, chain)
            self._prune()
            self._since_snapshot = 0
            return path

    def _open_generation(self, seq: int, chain: str) -> None:
        """Open (or create) the WAL generation starting at ``seq + 1``."""
        path = _wal_path(self.state_dir, seq + 1)
        if os.path.exists(path):
            self._wal = walmod.WriteAheadLog.open_append(
                path, fsync=self.fsync, faults=self.faults
            )
            if self._wal.next_seq != seq + 1 or self._wal.chain != chain:
                raise RecoveryError(
                    f"{path}: reopened WAL position ({self._wal.next_seq}) "
                    f"disagrees with the recovered state ({seq + 1})"
                )
        else:
            self._generation += 1
            self._wal = walmod.WriteAheadLog.create(
                path,
                start_seq=seq + 1,
                chain=chain,
                epoch=self._generation,
                fsync=self.fsync,
                faults=self.faults,
            )

    def _rotate(self, seq: int, chain: str) -> None:
        assert self._wal is not None
        new_path = _wal_path(self.state_dir, seq + 1)
        if self._wal.path == new_path:
            return  # nothing appended since the generation opened
        self._wal.close()
        self._generation += 1
        self._wal = walmod.WriteAheadLog.create(
            new_path,
            start_seq=seq + 1,
            chain=chain,
            epoch=self._generation,
            fsync=self.fsync,
            faults=self.faults,
        )
        obs.counters().add("wal.rotations")

    def _prune(self) -> None:
        """Drop snapshots past retention and WAL files wholly covered by
        the oldest retained snapshot."""
        snaps = snapmod.list_snapshots(self.state_dir)
        keep = snaps[-self.snapshot_retention :]
        for _seq, path in snaps[: -self.snapshot_retention]:
            os.unlink(path)
        if not keep:
            return
        oldest_kept = keep[0][0]
        files = _list_wal_files(self.state_dir)
        for i, (start_seq, path) in enumerate(files):
            nxt = files[i + 1][0] if i + 1 < len(files) else None
            # a file is disposable only if the *next* generation starts
            # at or before the oldest retained snapshot's successor —
            # i.e. every record it holds is folded into that snapshot
            if nxt is not None and nxt <= oldest_kept + 1:
                os.unlink(path)

    # ------------------------------------------------------------------
    # lifecycle and introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Final snapshot (if anything was appended since the last one)
        and clean WAL close.  Idempotent."""
        with self.lock:
            if self._closed:
                return
            self._closed = True
            if self._wal is not None:
                if self._since_snapshot and self.registry is not None:
                    self.snapshot()
                if self._wal is not None:
                    self._wal.close()
                self._wal = None

    def abandon(self) -> None:
        """Drop the WAL fd without snapshotting — simulating a crash.
        The in-memory registry may be ahead of (or diverged from) disk;
        only :meth:`recover` on a fresh instance tells the truth."""
        with self.lock:
            self._closed = True
            if self._wal is not None:
                self._wal.abandon()
                self._wal = None

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> Dict[str, Any]:
        with self.lock:
            snaps = snapmod.list_snapshots(self.state_dir)
            return {
                "state_dir": self.state_dir,
                "fsync": self.fsync,
                "seq": (0 if self._wal is None else self._wal.next_seq - 1),
                "generation": self._generation,
                "snapshots": len(snaps),
                "wal_files": len(_list_wal_files(self.state_dir)),
                "since_snapshot": self._since_snapshot,
            }
