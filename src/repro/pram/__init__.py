"""Work-depth (PRAM) simulation substrate.

See :mod:`repro.pram.ledger` for the accounting model, DESIGN.md for why
this substitutes for the paper's CRCW PRAM.
"""

from repro.pram.combinators import (
    bulk_charge,
    log2ceil,
    pfilter,
    pmap,
    preduce,
    pscan_exclusive,
)
from repro.pram.executor import (
    executor_backend,
    force_executor,
    parallel_map,
    prewarm_executor,
    shutdown_shared_pools,
)
from repro.pram.ledger import NULL_LEDGER, Ledger, LedgerTape, ParallelFrame, PhaseRecord
from repro.pram.trace import SPNode, TraceLedger, schedule_bounds
from repro.pram.scheduler import (
    BrentProjection,
    brent_time,
    ledger_curve,
    parallelism,
    speedup_curve,
)

__all__ = [
    "Ledger",
    "LedgerTape",
    "ParallelFrame",
    "PhaseRecord",
    "NULL_LEDGER",
    "pmap",
    "preduce",
    "pscan_exclusive",
    "pfilter",
    "bulk_charge",
    "log2ceil",
    "parallel_map",
    "executor_backend",
    "force_executor",
    "prewarm_executor",
    "shutdown_shared_pools",
    "BrentProjection",
    "brent_time",
    "parallelism",
    "speedup_curve",
    "ledger_curve",
    "TraceLedger",
    "SPNode",
    "schedule_bounds",
]
