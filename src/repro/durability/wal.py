"""Checksummed, length-prefixed write-ahead log.

File format
-----------
A WAL file is the 8-byte magic ``RPROWAL1`` followed by a sequence of
*frames*.  Each frame is a fixed ``>II`` prefix — body length, then the
CRC32 of the body — followed by the UTF-8 canonical-JSON body itself::

    +----------+----------+------------------+
    | len (u32)| crc (u32)| body (len bytes) |
    +----------+----------+------------------+

The first frame of every file is a **header record**::

    {"kind": "header", "version": 1, "start_seq": S, "chain": H, "epoch": G}

``start_seq`` is the sequence number of the first body record the file
will hold, ``chain`` is the chained fingerprint *before* that record
(so a reader can resume mid-stream after older files were pruned), and
``epoch`` is the rotation generation.  Every subsequent frame is a body
record ``{"seq": N, "kind": ..., "data": {...}}``; after writing body
bytes ``b`` the chain advances as
``sha256(chain_hex + b"\\x00wal\\x00" + b)``, giving the whole stream a
tamper-evident spine that recovery verifies against snapshots.

Scan policy (:func:`scan`)
--------------------------
* An incomplete frame prefix, or a declared length running past EOF, is
  a **torn tail**: the expected outcome of a crash mid-append.  The
  valid prefix is returned and the caller may truncate.
* A CRC mismatch on the **final** complete frame is treated the same
  way — the crash interrupted the write after the length landed.
* A CRC mismatch followed by further valid frames is **corruption**
  (bit rot or tampering, not a crash) and raises a typed
  :class:`~repro.errors.WalCorruptionError` — never a silent skip.

Fsync policy
------------
Every append is flushed to the OS unconditionally, so a SIGKILL never
loses an acked record; the configurable policy only governs how often
``os.fsync`` is issued, i.e. durability across *machine* crashes:
``always`` fsyncs per append, ``batch`` every ``batch_every`` appends
(and on close/rotation), ``never`` leaves it to the kernel.

Fault sites ``wal.torn_write`` and ``wal.corrupt_record`` (see
:mod:`repro.resilience.faults`) are polled inside :meth:`append` to let
the chaos stack manufacture exactly the two failure shapes above.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import RecoveryError, SimulatedCrash, WalCorruptionError
from repro.resilience.faults import (
    SITE_WAL_CORRUPT_RECORD,
    SITE_WAL_TORN_WRITE,
    poll,
)

__all__ = [
    "MAGIC",
    "FSYNC_POLICIES",
    "WalRecord",
    "WriteAheadLog",
    "advance_chain",
    "encode_body",
    "scan",
    "torn_creation",
]

MAGIC = b"RPROWAL1"
_FRAME = struct.Struct(">II")
FSYNC_POLICIES = ("always", "batch", "never")


def encode_body(record: Dict[str, object]) -> bytes:
    """Canonical-JSON bytes for ``record`` (sorted keys, no spaces)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


def advance_chain(chain: str, body: bytes) -> str:
    """The chained fingerprint after appending raw body bytes."""
    h = hashlib.sha256()
    h.update(chain.encode("ascii"))
    h.update(b"\x00wal\x00")
    h.update(body)
    return h.hexdigest()


@dataclass(frozen=True)
class WalRecord:
    """One decoded body record plus its position and post-append chain."""

    seq: int
    kind: str
    data: Dict[str, object]
    chain: str  # chained fingerprint *after* this record


def _read_frame(buf: bytes, off: int) -> Optional[Tuple[bytes, int]]:
    """Decode one frame at ``off``; None on torn tail; raises on bad CRC."""
    if off + _FRAME.size > len(buf):
        return None
    length, crc = _FRAME.unpack_from(buf, off)
    start = off + _FRAME.size
    if start + length > len(buf):
        return None
    body = buf[start : start + length]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise WalCorruptionError(
            f"WAL frame at byte {off} fails its CRC32 check"
        )
    return body, start + length


def scan(path: str) -> Tuple[Dict[str, object], List[WalRecord], int]:
    """Read a WAL file, returning ``(header, records, valid_length)``.

    ``valid_length`` is the byte offset of the end of the last valid
    frame — the length the file should be truncated to before appending
    (it equals the file size when the tail is clean).  Torn tails are
    tolerated per the module policy; mid-file corruption raises
    :class:`WalCorruptionError`, a missing/garbled header raises
    :class:`RecoveryError`.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < len(MAGIC) or buf[: len(MAGIC)] != MAGIC:
        raise WalCorruptionError(f"{path}: bad or missing WAL magic")
    frames: List[Tuple[bytes, int]] = []  # (body, end_offset)
    off = len(MAGIC)
    torn_at: Optional[int] = None
    while off < len(buf):
        try:
            decoded = _read_frame(buf, off)
        except WalCorruptionError:
            # Bad CRC: only acceptable if *nothing valid* follows — then
            # it is a torn final write, not corruption.  Probe ahead.
            if _has_valid_frame_after(buf, off):
                raise WalCorruptionError(
                    f"{path}: corrupted record at byte {off} is followed by "
                    "further valid records; refusing to skip it"
                ) from None
            torn_at = off
            break
        if decoded is None:
            torn_at = off
            break
        body, off = decoded
        frames.append((body, off))
    valid_length = frames[-1][1] if frames else len(MAGIC)
    if not frames:
        raise RecoveryError(f"{path}: WAL file has no header record")
    header = _decode_header(path, frames[0][0])
    chain = str(header["chain"])
    records: List[WalRecord] = []
    for body, _end in frames[1:]:
        try:
            rec = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WalCorruptionError(
                f"{path}: record body passed CRC but is not valid JSON "
                f"({exc})"
            ) from exc
        chain = advance_chain(chain, body)
        records.append(
            WalRecord(
                seq=int(rec["seq"]),
                kind=str(rec["kind"]),
                data=dict(rec.get("data", {})),
                chain=chain,
            )
        )
    return header, records, valid_length


def _has_valid_frame_after(buf: bytes, bad_off: int) -> bool:
    """Does any complete, CRC-valid frame start after the bad one?

    A torn final write can only damage the *last* frame; if a valid
    frame exists at any later offset the damage is mid-file corruption.
    The probe is conservative: it slides byte-by-byte, so a valid
    frame is found wherever the next append landed.
    """
    off = bad_off + 1
    while off + _FRAME.size <= len(buf):
        try:
            if _read_frame(buf, off) is not None:
                return True
        except WalCorruptionError:
            pass
        off += 1
    return False


def torn_creation(path: str) -> bool:
    """Is this file the debris of a crash *during* :meth:`WriteAheadLog.create`?

    True iff the content is a strict prefix of a freshly-created file:
    a prefix of the magic, or the magic followed by at most one torn
    header frame (incomplete, or CRC-failing with nothing valid after).
    Such a file provably holds no body records, so recovery may discard
    it when it is the newest generation — anything else (wrong bytes
    where the magic belongs, an intact header) stays a hard error.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < len(MAGIC):
        return buf == MAGIC[: len(buf)]
    if buf[: len(MAGIC)] != MAGIC:
        return False
    off = len(MAGIC)
    if off == len(buf):
        return True
    try:
        decoded = _read_frame(buf, off)
    except WalCorruptionError:
        return not _has_valid_frame_after(buf, off)
    return decoded is None


def _decode_header(path: str, body: bytes) -> Dict[str, object]:
    try:
        header = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RecoveryError(f"{path}: WAL header is not valid JSON") from exc
    if header.get("kind") != "header" or header.get("version") != 1:
        raise RecoveryError(
            f"{path}: first WAL record is not a version-1 header "
            f"(got {header!r})"
        )
    return header


class WriteAheadLog:
    """Appender over one WAL file.

    Use :meth:`create` for a fresh file (writes magic + header) or
    :meth:`open_append` to resume one (scans, truncates a torn tail,
    positions after the last valid frame).
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: str = "always",
        batch_every: int = 8,
        faults=None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.path = path
        self.fsync = fsync
        self.batch_every = max(1, int(batch_every))
        self.faults = faults
        self.header: Dict[str, object] = {}
        self.chain = ""
        self.next_seq = 0
        self.appends = 0
        self._unsynced = 0
        self._fh: Optional[io.BufferedWriter] = None

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str,
        *,
        start_seq: int,
        chain: str,
        epoch: int = 0,
        fsync: str = "always",
        batch_every: int = 8,
        faults=None,
    ) -> "WriteAheadLog":
        wal = cls(path, fsync=fsync, batch_every=batch_every, faults=faults)
        wal.header = {
            "kind": "header",
            "version": 1,
            "start_seq": int(start_seq),
            "chain": chain,
            "epoch": int(epoch),
        }
        wal.chain = chain
        wal.next_seq = int(start_seq)
        fh = open(path, "xb")
        wal._fh = fh
        fh.write(MAGIC)
        body = encode_body(wal.header)
        fh.write(_FRAME.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF))
        fh.write(body)
        fh.flush()
        os.fsync(fh.fileno())  # a file that exists has a valid header
        return wal

    @classmethod
    def open_append(
        cls,
        path: str,
        *,
        fsync: str = "always",
        batch_every: int = 8,
        faults=None,
    ) -> "WriteAheadLog":
        header, records, valid_length = scan(path)
        size = os.path.getsize(path)
        wal = cls(path, fsync=fsync, batch_every=batch_every, faults=faults)
        wal.header = header
        if records:
            wal.chain = records[-1].chain
            wal.next_seq = records[-1].seq + 1
        else:
            wal.chain = str(header["chain"])
            wal.next_seq = int(header["start_seq"])
        fh = open(path, "r+b")
        wal._fh = fh
        if valid_length < size:
            fh.truncate(valid_length)
            obs.counters().add("wal.truncated_tail")
        fh.seek(valid_length)
        return wal

    # -- appends -------------------------------------------------------
    def append(self, kind: str, data: Dict[str, object]) -> Tuple[int, str]:
        """Durably append one record; returns ``(seq, chain_after)``.

        The in-memory chain always advances over the *intended* body
        bytes — under the ``wal.corrupt_record`` fault the bytes that
        hit disk differ, which is exactly the bit-rot shape recovery
        must detect.
        """
        if self._fh is None:
            raise RecoveryError(f"{self.path}: WAL is closed")
        seq = self.next_seq
        body = encode_body({"seq": seq, "kind": kind, "data": data})
        crc = zlib.crc32(body) & 0xFFFFFFFF
        frame = _FRAME.pack(len(body), crc) + body
        reg = obs.counters()
        torn = poll(SITE_WAL_TORN_WRITE, self.faults)
        corrupt = poll(SITE_WAL_CORRUPT_RECORD, self.faults)
        if corrupt is not None:
            frame = _corrupt_frame(frame, int(corrupt.seed or 0) + seq)
        if torn is not None:
            cut = max(1, len(frame) // 2)
            self._fh.write(frame[:cut])
            self._fh.flush()
            os.fsync(self._fh.fileno())
            raise SimulatedCrash(
                f"wal.torn_write: crashed mid-append of seq {seq}"
            )
        self._fh.write(frame)
        self._fh.flush()  # never lose acked records to userspace buffers
        self.appends += 1
        self._unsynced += 1
        reg.add("wal.appends")
        reg.add("wal.bytes", len(frame))
        if self.fsync == "always" or (
            self.fsync == "batch" and self._unsynced >= self.batch_every
        ):
            self.sync()
        self.chain = advance_chain(self.chain, body)
        self.next_seq = seq + 1
        return seq, self.chain

    def sync(self) -> None:
        if self._fh is not None and self._unsynced:
            os.fsync(self._fh.fileno())
            self._unsynced = 0
            obs.counters().add("wal.fsyncs")

    def close(self) -> None:
        if self._fh is None:
            return
        try:
            self._fh.flush()
            if self.fsync != "never":
                self.sync()
        finally:
            self._fh.close()
            self._fh = None

    def abandon(self) -> None:
        """Close the fd without flushing policy niceties (crash sim)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @property
    def closed(self) -> bool:
        return self._fh is None


def _corrupt_frame(frame: bytes, seed: int) -> bytes:
    """Flip a few body bytes after the CRC was computed (bit-rot sim)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    mutable = bytearray(frame)
    body_start = _FRAME.size
    if len(mutable) > body_start:
        for _ in range(3):
            i = body_start + int(rng.integers(0, len(mutable) - body_start))
            mutable[i] ^= int(rng.integers(1, 256))
    return bytes(mutable)
