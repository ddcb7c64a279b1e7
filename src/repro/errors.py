"""Exception types shared across the :mod:`repro` package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """Raised when a graph input is malformed (bad shapes, negative weights,
    self loops where disallowed, …)."""


class InvalidParameterError(ReproError):
    """Raised when a non-graph algorithm parameter (epsilon, attempt
    counts, budget values, …) is out of its valid range."""


class BudgetExceeded(ReproError):
    """Raised at a cooperative cancellation checkpoint once the active
    :class:`repro.resilience.Budget` has run out of wall-clock time or
    ledger work.

    Attributes
    ----------
    reason:
        Which resource ran out: ``"deadline"``, ``"work"``, or
        ``"injected"`` (a fault-plan blowout).
    site:
        The checkpoint site that observed the exhaustion (best effort).
    """

    def __init__(self, message: str, *, reason: str = "deadline", site: str = "") -> None:
        super().__init__(message)
        self.reason = reason
        self.site = site


class FaultInjected(ReproError):
    """Raised by :mod:`repro.resilience.faults` when a deterministic fault
    plan fires an error-type fault (e.g. inside an executor branch)."""


class CheckpointError(ReproError):
    """Raised by :mod:`repro.resilience.checkpointing` when a checkpoint
    file cannot be used: unreadable bytes, unknown format version, a
    content-hash mismatch (corruption), or a fingerprint that does not
    match the graph/seed/parameters of the resuming run."""


class SimulatedCrash(ReproError):
    """Raised by the ``checkpoint.kill`` fault site immediately after a
    checkpoint save, simulating an abrupt process death at a persisted
    point.  Used by the kill/resume tests and ``scripts/chaos_soak.py``
    to prove that a resumed run reproduces the uninterrupted result."""


class RecoveryError(ReproError):
    """Raised by :mod:`repro.durability` when persisted state cannot be
    restored faithfully: a snapshot whose fingerprint chain does not
    match the write-ahead log it is paired with, a replayed update whose
    post-state (value, epoch, fingerprint) diverges from the logged
    ledger, a sequence gap in the log, or an engine snapshot that fails
    its recomputed-fingerprint check.  Recovery refuses to boot a
    chimera rather than serve answers about a graph nobody built."""


class WalCorruptionError(RecoveryError):
    """Raised when a write-ahead log contains a corrupted record that is
    *not* the final one (a CRC32 mismatch followed by further valid
    records).  A torn final record is expected after a crash and is
    truncated silently; corruption mid-log means bit rot or tampering
    and is never skipped."""


class UpdateVerificationError(ReproError):
    """Raised by :meth:`repro.engine.CutEngine.update` when the
    post-update cut fails :func:`repro.resilience.verify.verify_cut`
    even after seed-escalated rebase retries — the engine refuses to
    hand back an answer its own certificates reject."""


class NotConnectedError(ReproError):
    """Raised by routines that require a connected input graph."""


class IntegerWeightsRequired(ReproError):
    """Raised by the multigraph / sampled-hierarchy machinery (Section 3 of
    the paper), which interprets a weight-w edge as w unweighted parallel
    copies and therefore needs integral weights."""


class LedgerError(ReproError):
    """Raised on misuse of the work-depth ledger (e.g. closing a parallel
    frame that still has an open branch)."""


class MongeViolation(ReproError):
    """Raised by the Monge-property verifiers when a matrix that is supposed
    to satisfy the (inverse-)Monge condition does not.  Primarily used in
    tests; the production search routines never raise this."""
