"""The resilient exact-min-cut driver: verified retries, seed
escalation, checkpoint/resume, and the graceful-degradation fallback
chain.

Strategy (``exact`` → ``exact escalated`` → ``stoer_wagner``):

1. run the exact pipeline — one cold :class:`repro.engine.CutEngine`
   query on the attempt's seed and parameters — under a per-attempt
   slice of the overall
   budget (each slice is a geometric share of the budget **still
   remaining**, so a fast failed attempt donates its unused time and
   work to the escalated attempts that follow);
2. cross-check the candidate against the cheap certificates of
   :mod:`repro.resilience.verify`; a suspect answer (w.h.p. failure or
   injected fault) triggers a retry with a **fresh seed** (spawned from
   an independent ``SeedSequence`` stream) and **escalated constants**
   (thorough tree scan, denser skeleton);
3. once attempts or the overall budget are exhausted, fall back to the
   deterministic O(n^3) :func:`repro.arena.solvers.stoer_wagner.stoer_wagner`
   baseline.

``checkpoint=PATH`` runs each attempt's engine over the checkpoint's
persisting artifact cache (see :mod:`repro.resilience.checkpointing`);
a killed run re-invoked with the same arguments resumes mid-pipeline
and returns a **bit-identical** result to an uninterrupted run.

The returned :class:`repro.results.CutResult` carries provenance —
``attempts``, ``fallback_used``, ``verification`` — so callers can
see how the answer was produced and alert on degraded service.  With
``trace=True`` the attached :class:`repro.obs.RunReport` additionally
shows every attempt (and its verification) as a span, with
``resilience.*`` counters.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Callable, Literal, Optional, Union

import numpy as np

from repro import obs
from repro.arena.solvers.stoer_wagner import stoer_wagner
from repro.engine.service import CutEngine
from repro.errors import BudgetExceeded, InvalidParameterError
from repro.graphs.graph import Graph
from repro.graphs.validate import ensure_finite_weights
from repro.params import CutPipelineParams
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.resilience.budget import Budget, budget_scope
from repro.resilience.checkpointing import DriverCheckpoint, run_fingerprint
from repro.resilience.faults import SITE_CORRUPT_VALUE, poll as _poll_fault
from repro.resilience.verify import verify_cut
from repro.results import CutResult
from repro.sparsify.hierarchy import HierarchyParams
from repro.sparsify.skeleton import SkeletonParams

__all__ = ["resilient_minimum_cut", "escalated_params"]

#: geometric growth factor for per-attempt budget slices and skeleton density
_ESCALATION = 2.0


def escalated_params(base: SkeletonParams, attempt: int) -> SkeletonParams:
    """Skeleton constants for retry ``attempt`` (0 = the caller's own).

    Each retry doubles the sampling constant — a denser skeleton whose
    packing is exponentially less likely to miss the min cut again.
    """
    if attempt <= 0:
        return base
    return dataclasses.replace(
        base, sample_constant=base.sample_constant * _ESCALATION**attempt
    )


def _attempt_slice(
    remaining: Optional[float], attempt: int, max_attempts: int
) -> Optional[float]:
    """Attempt ``attempt``'s geometric share of the budget **still
    remaining**: ``remaining * 2^a / (2^A - 2^a)`` — i.e. weight ``2^a``
    against the weights of every attempt not yet run.

    Computed from the live remainder rather than the original total, so
    an attempt that fails quickly (e.g. an injected fault on its first
    phase) donates its unused slice to the escalated attempts after it;
    the final attempt's share is the whole remainder.
    """
    if remaining is None:
        return None
    denom = _ESCALATION**max_attempts - _ESCALATION**attempt
    if denom <= 0:  # attempt == max_attempts (defensive): take it all
        return max(remaining, 1e-9)
    return max(remaining, 1e-9) * _ESCALATION**attempt / denom


def resilient_minimum_cut(
    graph: Graph,
    *,
    deadline: Optional[float] = None,
    max_work: Optional[float] = None,
    max_attempts: int = 3,
    seed: Optional[int] = None,
    spot_check_max_n: int = 200,
    epsilon: Optional[float] = None,
    max_trees: "int | None | Literal['auto']" = "auto",
    decomposition: Literal["heavy", "bough"] = "heavy",
    skeleton_params: SkeletonParams = SkeletonParams(),
    hierarchy_params: Optional[HierarchyParams] = None,
    pipeline: Optional[CutPipelineParams] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = True,
    ledger: Ledger = NULL_LEDGER,
    clock: Callable[[], float] = time.monotonic,
    trace: bool = False,
) -> CutResult:
    """Exact minimum cut with budgets, verified retries, and fallback.

    Parameters
    ----------
    deadline:
        Overall wall-clock budget in seconds (None = unbounded).  The
        run terminates — possibly via the Stoer–Wagner fallback — soon
        after it expires (checkpoints are cooperative).
    max_work:
        Overall ledger-work budget; needs a real ``ledger``.
    max_attempts:
        Exact-pipeline attempts before falling back (>= 1).
    seed:
        Seeds an independent stream per attempt via
        ``np.random.SeedSequence(seed).spawn``; the whole driver is
        deterministic given it.
    spot_check_max_n:
        Below this size verification includes the exact Stoer–Wagner
        comparison (0 disables it).
    epsilon, max_trees, decomposition, skeleton_params, hierarchy_params:
        The pipeline knobs of each attempt's
        :class:`repro.engine.CutEngine`; see
        :class:`repro.params.CutPipelineParams` for the documented
        reference.  Skeleton constants escalate on retries.
    pipeline:
        The bundled spelling of those knobs (mutually exclusive with
        passing a non-default individual knob).
    checkpoint:
        Path of a checkpoint file to persist each attempt's engine
        artifacts to (see :mod:`repro.resilience.checkpointing`).  A run killed
        mid-pipeline and re-invoked with the same graph/seed/parameters
        resumes from the last persisted phase and returns a result
        bit-identical to an uninterrupted run.  The file is deleted on
        success.
    resume:
        When False an existing checkpoint file at ``checkpoint`` is
        ignored and overwritten (fresh run).  Resuming a corrupt file or
        one written by a different run raises
        :class:`repro.errors.CheckpointError`.
    clock:
        Monotonic-seconds source, injectable for deterministic tests.
    trace:
        Attach a :class:`repro.obs.RunReport` as ``.report``, with one
        span per attempt / verification / fallback stage.

    Returns
    -------
    CutResult with provenance: ``attempts`` (exact attempts consumed),
    ``fallback_used`` (None or ``"stoer_wagner"``), and ``verification``
    (the final :class:`repro.results.VerificationReport`).
    """
    if max_attempts < 1:
        raise InvalidParameterError("max_attempts must be >= 1")
    params = CutPipelineParams.resolve(
        pipeline,
        epsilon=epsilon,
        max_trees=max_trees,
        decomposition=decomposition,
        skeleton=skeleton_params,
        hierarchy=hierarchy_params,
    )
    return obs.traced(
        lambda led: _resilient_impl(
            graph, params, deadline, max_work, max_attempts, seed,
            spot_check_max_n, checkpoint, resume, led, clock,
        ),
        ledger,
        trace,
        algorithm="resilient_minimum_cut",
        n=graph.n,
        m=graph.m,
    )


def _resilient_impl(
    graph: Graph,
    params: CutPipelineParams,
    deadline: Optional[float],
    max_work: Optional[float],
    max_attempts: int,
    seed: Optional[int],
    spot_check_max_n: int,
    checkpoint: Optional[Union[str, Path]],
    resume: bool,
    ledger: Ledger,
    clock: Callable[[], float],
) -> CutResult:
    ensure_finite_weights(graph)

    work_ledger = ledger
    if max_work is not None and isinstance(ledger, type(NULL_LEDGER)):
        # the null ledger never accumulates; meter work privately
        work_ledger = Ledger()
    overall = Budget(
        deadline=deadline,
        max_work=max_work,
        ledger=work_ledger if max_work is not None else None,
        clock=clock,
    ).start()

    store: Optional[DriverCheckpoint] = None
    if checkpoint is not None:
        fingerprint = run_fingerprint(
            graph, seed, params, max_attempts, spot_check_max_n
        )
        store = DriverCheckpoint.open(checkpoint, fingerprint, resume=resume)

    seed_stream = np.random.SeedSequence(seed)
    attempt_seeds = seed_stream.spawn(max_attempts)
    attempts_made = 0
    suspects: list[float] = []
    first_attempt = 0
    if store is not None:
        # replay the outcomes of attempts completed before the kill, so
        # the resumed run's provenance (attempts, suspect list) matches
        # an uninterrupted run's exactly without re-executing them
        for kind, value in store.outcomes:
            attempts_made += 1
            if kind == "suspect":
                suspects.append(value)
        first_attempt = min(attempts_made, max_attempts)
    tracer = obs.current_tracer()
    reg = obs.counters()

    for attempt in range(first_attempt, max_attempts):
        if overall.exhausted_reason() is not None:
            break
        # satellite (a): slice from what is actually left, so a fast
        # failed attempt donates its unused budget to later attempts
        remaining = overall.remaining_time()
        slice_deadline = _attempt_slice(remaining, attempt, max_attempts)
        remaining_work = None
        if max_work is not None:
            remaining_work = max(max_work - overall.work_spent(), 1e-9)
        slice_work = _attempt_slice(remaining_work, attempt, max_attempts)
        attempt_budget = Budget(
            deadline=slice_deadline,
            max_work=slice_work,
            ledger=work_ledger if slice_work is not None else None,
            clock=clock,
        )
        attempt_params = dataclasses.replace(
            params,
            skeleton=escalated_params(params.skeleton, attempt),
            # retries scan thoroughly
            max_trees=params.max_trees if attempt == 0 else None,
        )
        attempts_made += 1
        reg.add("resilience.attempts")
        engine = CutEngine(
            graph,
            rng=np.random.default_rng(attempt_seeds[attempt]),
            pipeline=attempt_params,
            ledger=ledger if ledger is not NULL_LEDGER else work_ledger,
            cache=store.cache if store is not None else None,
        )
        try:
            with tracer.span(f"attempt[{attempt}]"):
                with budget_scope(attempt_budget):
                    res = engine.min_cut()
        except BudgetExceeded:
            # slice (or overall) budget blown: next attempt gets a bigger
            # slice, unless the overall budget is gone — then fall back
            reg.add("resilience.budget_exceeded")
            if store is not None:
                store.record_outcome("budget")
            continue

        fault = _poll_fault(SITE_CORRUPT_VALUE)
        if fault is not None:
            res = dataclasses.replace(res, value=res.value * fault.scale + 1.0)

        with tracer.span("verify"):
            report = verify_cut(
                graph, res, spot_check_max_n=spot_check_max_n, ledger=ledger
            )
        if report.ok:
            stats = dict(res.stats)
            stats["resilience_suspect_values"] = float(len(suspects))
            if store is not None:
                store.finalize()
            return dataclasses.replace(
                res,
                stats=stats,
                attempts=attempts_made,
                fallback_used=None,
                verification=report,
            )
        suspects.append(res.value)
        reg.add("resilience.suspect_results")
        if store is not None:
            store.record_outcome("suspect", res.value)

    # ---- graceful degradation: deterministic sequential baseline ----------
    reg.add("resilience.fallbacks")
    with tracer.span("fallback:stoer_wagner"):
        fallback = stoer_wagner(graph)
        report = verify_cut(graph, fallback, spot_check_max_n=0, ledger=ledger)
    reason = overall.exhausted_reason()
    stats = dict(fallback.stats)
    stats["resilience_suspect_values"] = float(len(suspects))
    stats["resilience_budget_exhausted"] = 1.0 if reason is not None else 0.0
    if store is not None:
        store.finalize()
    return dataclasses.replace(
        fallback,
        stats=stats,
        attempts=attempts_made,
        fallback_used="stoer_wagner",
        verification=report,
    )
