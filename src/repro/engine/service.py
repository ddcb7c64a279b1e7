"""The staged cut engine: preprocess once, answer many queries.

:class:`CutEngine` binds a graph, a randomness stream, and one
:class:`~repro.params.CutPipelineParams` bundle, then runs the exact
pipeline of :mod:`repro.engine.stages` with every preprocessing stage
producing a frozen, fingerprinted artifact in an
:class:`~repro.engine.cache.ArtifactCache`:

========  ==========================================  ==================
stage     artifact                                    depends on
========  ==========================================  ==================
validate  :class:`~repro.engine.artifacts.ValidationArtifact`   graph bytes
approx    :class:`~repro.engine.artifacts.ApproxArtifact`       + seed, hierarchy params
forest    :class:`~repro.engine.artifacts.PackedForest`         + skeleton params, packing iterations
index     :class:`~repro.engine.artifacts.TreeIndex`            + max_trees
========  ==========================================  ==================

Because the cache key *is* the dependency fingerprint, invalidation is
deterministic: change the graph, the seed, or a parameter a stage
depends on and the next query simply misses and rebuilds — nothing is
ever served stale.

**One composition.** This class is the only place the stages are
chained: :func:`repro.minimum_cut` is a cold :meth:`min_cut`, and
:func:`repro.resilient_minimum_cut` runs each attempt as one over its
checkpoint's persisting cache.  ``tests/test_engine.py`` pins the cold
answer — value, side, stats, ledger charges — against the
straight-through chain in ``tests/reference_pipeline.py`` across
executor backends.  The per-query 2-respecting search is a pure
function of the packed trees plus (epsilon, decomposition), so its
assembled answer is memoized under the ``result`` fingerprint: a *warm*
query is a memo hit that charges the ledger nothing.  The same slot
carries the search's per-tree progress while it runs (see
:meth:`_answer`).

**Batch.** :meth:`min_cut_batch` preprocesses once, then fans the
independent per-seed queries (tree selection + search) through
:func:`repro.pram.executor.parallel_map` on the active backend, each on
a private :class:`~repro.pram.ledger.Ledger` absorbed with the
fork-join rule (:meth:`~repro.pram.ledger.Ledger.absorb_parallel`) —
so the batch's depth reflects the logical parallelism while work sums.

**Update.** :meth:`update` is the engine's one mutation surface: edge
additions, removals, and reweights arrive as a validated
:class:`~repro.engine.deltas.GraphDelta`, are layered over the *base*
graph's artifact chain in a :class:`~repro.engine.deltas.DeltaLog`, and
are answered by re-running only the per-query 2-respecting search over
the cached packed trees — the tree-packing argument keeps the cached
candidate trees valid while the mutated minimum cut stays within the
packing's coverage (:data:`REBASE_THRESHOLD` × the stored
underestimate).  Three triggers rebase the engine onto the mutated
graph instead (cold preprocessing, epoch + 1): an added edge too heavy
for the packing to certifiably cover, a cumulative staleness ratio past
:data:`MAX_STALENESS`, or a post-search value past the coverage edge.
Every non-noop update's answer is certified by
:func:`repro.resilience.verify.verify_cut`, with up to
:data:`MAX_VERIFY_RETRIES` seed-escalated rebase retries on mismatch —
exactness never depends on the delta heuristics.  The policy is fixed:
the write-ahead log replays an update from its mutation fields alone,
so a per-call policy would let crash recovery diverge from the live
engine.  :meth:`rebase` is the explicit epoch bump, and
:meth:`snapshot_state` / :meth:`restore_state` expose the engine's
durable identity to :mod:`repro.durability`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Literal, Mapping, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.engine.artifacts import (
    ApproxArtifact,
    PackedForest,
    TreeIndex,
    ValidationArtifact,
    combine_fingerprint,
    graph_fingerprint,
)
from repro.engine.cache import ArtifactCache
from repro.engine.stages import (
    approximate_stage,
    assemble_result,
    branching_for_epsilon,
    resolve_max_trees,
    search_stage,
    validate_stage,
)
from repro.engine.deltas import (
    DeltaLog,
    EdgeList,
    GraphDelta,
    Reweight,
    UpdateResult,
    as_delta,
)
from repro.errors import (
    InvalidParameterError,
    RecoveryError,
    UpdateVerificationError,
)
from repro.graphs.graph import Graph
from repro.graphs.validate import ensure_finite_weights
from repro.packing.karger import build_cut_skeleton, pack_skeleton, select_trees
from repro.params import CutPipelineParams
from repro.pram.executor import parallel_map
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.resilience.faults import SITE_DELTA_FORCE_REBASE, poll as poll_fault
from repro.resilience.verify import VerificationReport, verify_cut
from repro.results import CutResult
from repro.sparsify.hierarchy import HierarchyParams
from repro.sparsify.skeleton import SkeletonParams

__all__ = ["CutEngine"]

#: seed accepted anywhere NumPy's ``default_rng`` accepts one
SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]

#: :meth:`CutEngine.update` rebases when an added edge, or the
#: post-search value, exceeds this multiple of the stored underestimate:
#: the packing's coverage factor (Section 4.2, Theorem 4.18)
REBASE_THRESHOLD = 3.0
#: ... or when the delta log's cumulative ``|Δw|`` exceeds this share of
#: the base graph's total weight
MAX_STALENESS = 0.5
#: seed-escalated rebases after a failed verification before
#: :meth:`CutEngine.update` raises
MAX_VERIFY_RETRIES = 2


def _batch_search(context, seed) -> tuple:
    """One batch query: select this seed's candidate trees from the
    shared packing and run the 2-respecting search.

    Module-level so the process backend can pickle it by reference.
    ``context`` is the per-batch broadcast ``(graph, packing, max_trees,
    branching, decomposition)``, crossing the pool boundary once per
    dispatch — installed by a pool initializer on the process backend —
    while each task carries only its seed.  Returns the best candidate,
    the number of trees searched and the branch's private ledger for the
    caller to absorb.  Tracing is suppressed inside the worker —
    concurrent branches would race the tracer's span stack.
    """
    graph, packing, max_trees, branching, decomposition = context
    with obs.suppress_tracing():
        led = Ledger()
        parents = select_trees(packing, max_trees, np.random.default_rng(seed))
        best = search_stage(
            graph,
            parents,
            branching=branching,
            decomposition=decomposition,
            ledger=led,
        )
    return best, len(parents), led


class CutEngine:
    """Staged minimum-cut service over one graph.

    Parameters
    ----------
    graph:
        The bound input.  :meth:`update` mutates the engine's view of
        it; :meth:`rebase` re-points the engine.
    seed, rng:
        The engine's randomness stream (mutually exclusive).  Passing a
        shared ``rng`` consumes it exactly as the one-shot pipeline
        would — callers threading one generator through many calls
        (e.g. the clustering app) stay bit-identical.
    epsilon, max_trees, decomposition, skeleton_params, hierarchy_params,
    packing_iterations, pipeline:
        The pipeline knobs, same spelling as :func:`repro.minimum_cut`
        (see :class:`repro.params.CutPipelineParams`).
    approx_value:
        A known O(1)-approximation; skips the Section 3 stage.
    ledger:
        Work/depth sink for every stage this engine runs.  Cached
        (warm) stages charge nothing — that is the engine's point.
    cache:
        The artifact store; defaults to a private
        :class:`~repro.engine.cache.ArtifactCache`.  Pass a shared one
        to amortize across engines (single-threaded use only).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        seed: SeedLike = None,
        rng: Optional[np.random.Generator] = None,
        epsilon: Optional[float] = None,
        approx_value: Optional[float] = None,
        max_trees: "int | None | Literal['auto']" = "auto",
        decomposition: Literal["heavy", "bough"] = "heavy",
        skeleton_params: SkeletonParams = SkeletonParams(),
        hierarchy_params: Optional[HierarchyParams] = None,
        packing_iterations: Optional[int] = None,
        pipeline: Optional[CutPipelineParams] = None,
        ledger: Ledger = NULL_LEDGER,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        if rng is not None and seed is not None:
            raise InvalidParameterError("pass seed= or rng=, not both")
        self.params = CutPipelineParams.resolve(
            pipeline,
            epsilon=epsilon,
            max_trees=max_trees,
            decomposition=decomposition,
            skeleton=skeleton_params,
            hierarchy=hierarchy_params,
            packing_iterations=packing_iterations,
        )
        self.ledger = ledger
        self.cache = cache if cache is not None else ArtifactCache()
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self._approx_value = None if approx_value is None else float(approx_value)
        self._bind(graph)

    # ------------------------------------------------------------------
    # binding and fingerprints
    # ------------------------------------------------------------------
    def _bind(self, graph: Graph) -> None:
        """(Re)point the engine at ``graph``: rebuild the fingerprint
        chain, snapshot the rng position cold stages replay from, bump
        the epoch, and clear the delta log — ``graph`` becomes the new
        *base* every artifact is built from."""
        self._base_graph = graph
        self._graph = graph
        self._epoch = getattr(self, "_epoch", -1) + 1
        self._state0 = self._rng.bit_generator.state
        gfp = graph_fingerprint(graph)
        self._fp_validate = gfp
        # the stage's skip rule reads the skeleton's sampling constant
        self._fp_approx = combine_fingerprint(
            "approximate",
            gfp,
            self._state0,
            self.params.hierarchy,
            self._approx_value,
            self.params.skeleton.sample_constant,
        )
        self._fp_forest = combine_fingerprint(
            "forest",
            self._fp_approx,
            self.params.skeleton,
            self.params.packing_iterations,
        )
        self._max_trees = resolve_max_trees(self.params.max_trees, graph.n)
        self._fp_index = combine_fingerprint("index", self._fp_forest, self._max_trees)
        # the assembled-answer memo: the per-query search is a pure
        # function of the index artifact plus (epsilon, decomposition),
        # so the final CutResult may itself be cached and replayed
        self._fp_result = combine_fingerprint(
            "result", self._fp_index, self.params.epsilon, self.params.decomposition
        )
        # the mutation chain: deltas layered on this epoch extend
        # _fp_current past _fp_result, so memoized post-update answers
        # are keyed by the exact mutation history (and epoch) that
        # produced them
        self._delta_log = DeltaLog(
            combine_fingerprint("epoch", self._fp_result, self._epoch),
            graph.total_weight,
        )
        self._fp_current = self._fp_result

    @property
    def graph(self) -> Graph:
        """The current (possibly delta-mutated) graph queries answer for."""
        return self._graph

    @property
    def base_graph(self) -> Graph:
        """The graph the cached artifact chain was preprocessed from."""
        return self._base_graph

    @property
    def epoch(self) -> int:
        """Rebases over the engine's lifetime (0 for the initial bind).
        A changed epoch tells a client every edge index it holds may
        have shifted."""
        return self._epoch

    @property
    def staleness(self) -> int:
        """Deltas layered over the current epoch's artifacts."""
        return len(self._delta_log)

    @property
    def staleness_ratio(self) -> float:
        """Cumulative absolute weight displacement of the layered deltas
        over the base graph's total weight."""
        return self._delta_log.staleness_ratio()

    @property
    def delta_log(self) -> DeltaLog:
        return self._delta_log

    def fingerprint_chain(self) -> Dict[str, Dict[str, object]]:
        """The per-artifact fingerprint chain with the epoch each entry
        belongs to — what ``graph_info`` exposes over the wire."""
        chain = {
            "validate": self._fp_validate,
            "approximate": self._fp_approx,
            "forest": self._fp_forest,
            "index": self._fp_index,
            "result": self._fp_result,
            "current": self._fp_current,
        }
        return {
            stage: {"fingerprint": fp, "epoch": self._epoch}
            for stage, fp in chain.items()
        }

    def rebase(self, graph: Optional[Graph] = None) -> "CutEngine":
        """Re-point the engine at ``graph`` (default: the current,
        possibly delta-mutated graph); later queries preprocess it
        afresh (old artifacts stay cached under their own fingerprints,
        so rebasing back is warm).  Bumps :attr:`epoch` and resets
        :attr:`staleness`."""
        self._bind(self._graph if graph is None else graph)
        return self

    # ------------------------------------------------------------------
    # stage runners (cache-through)
    # ------------------------------------------------------------------
    def _validated(self) -> ValidationArtifact:
        art = self.cache.get("validate", self._fp_validate)
        if art is None:
            obs.counters().add("engine.stage_runs")
            art = ValidationArtifact(
                self._fp_validate, validate_stage(self._base_graph)
            )
            self.cache.put("validate", self._fp_validate, art)
        return art

    def _approximated(self, ledger: Ledger) -> ApproxArtifact:
        art = self.cache.get("approximate", self._fp_approx)
        if art is None:
            obs.counters().add("engine.stage_runs")
            if self._approx_value is not None:
                art = ApproxArtifact(self._fp_approx, self._approx_value, self._state0)
            else:
                self._rng.bit_generator.state = self._state0
                value, skipped = approximate_stage(
                    self._base_graph, self.params, self._rng, ledger
                )
                art = ApproxArtifact(
                    self._fp_approx, value, self._rng.bit_generator.state, skipped
                )
            self.cache.put("approximate", self._fp_approx, art)
        if art.rng_state is not None:
            # hit or rebuild alike, park the generator at the stage's
            # recorded post-run position: the live position must be a
            # pure function of the stages consumed, never of cache
            # state, or a restored engine rebuilding on a cold cache
            # would reach its next rebase at a different position than
            # the engine whose WAL it is replaying
            self._rng.bit_generator.state = art.rng_state
        return art

    def _forest(self, ledger: Ledger) -> PackedForest:
        art = self.cache.get("forest", self._fp_forest)
        if art is None:
            approx = self._approximated(ledger)
            obs.counters().add("engine.stage_runs")
            if approx.rng_state is not None:
                self._rng.bit_generator.state = approx.rng_state
            with obs.phase("packing", ledger):
                skel = build_cut_skeleton(
                    self._base_graph,
                    approx.lambda_underestimate,
                    skeleton_params=self.params.skeleton,
                    rng=self._rng,
                    ledger=ledger,
                )
                packing = pack_skeleton(
                    skel,
                    packing_iterations=self.params.packing_iterations,
                    ledger=ledger,
                )
            art = PackedForest(
                self._fp_forest,
                packing,
                float(skel.skeleton.m),
                float(skel.p),
                self._rng.bit_generator.state,
            )
            self.cache.put("forest", self._fp_forest, art)
        if art.rng_state is not None:
            # hit or rebuild alike — see _approximated
            self._rng.bit_generator.state = art.rng_state
        return art

    def _indexed(self, ledger: Ledger) -> TreeIndex:
        art = self.cache.get("index", self._fp_index)
        if art is None:
            forest = self._forest(ledger)
            obs.counters().add("engine.stage_runs")
            if forest.rng_state is not None:
                self._rng.bit_generator.state = forest.rng_state
            with obs.phase("packing", ledger):
                parents = select_trees(forest.packing, self._max_trees, self._rng)
            art = TreeIndex(
                self._fp_index,
                tuple(parents),
                forest.packing_stats(len(parents)),
                self._rng.bit_generator.state,
            )
            self.cache.put("index", self._fp_index, art)
        if art.rng_state is not None:
            # hit or rebuild alike — see _approximated
            self._rng.bit_generator.state = art.rng_state
        return art

    def warm(self) -> "CutEngine":
        """Build (or verify cached) every preprocessing artifact now, so
        the first query charges only the search; later ones are result
        memo hits that charge nothing."""
        if self._validated().early is None:
            self._indexed(self.ledger)
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def min_cut(self, *, trace: bool = False) -> CutResult:
        """The bound graph's minimum cut, w.h.p. exact.

        Cold calls charge the full pipeline to the engine's ledger
        (:func:`repro.minimum_cut` is exactly such a call).  Warm calls
        are result memo hits: the answer is a pure function of the
        fingerprint chain, so they return the stored :class:`CutResult`
        and charge nothing.
        """
        obs.counters().add("engine.queries")
        return obs.traced(
            self._answer,
            self.ledger,
            trace,
            algorithm="engine.min_cut",
            n=self._graph.n,
            m=self._graph.m,
        )

    def _epoch_stats(self) -> Dict[str, float]:
        return {
            "epoch": float(self._epoch),
            "staleness": float(len(self._delta_log)),
        }

    def _answer(self, ledger: Ledger) -> CutResult:
        """The current graph's cut, memoized under :attr:`_fp_current`
        (``_fp_result`` at staleness 0, else the delta-chain head).

        The stage artifacts are consulted first, hit or miss, so the
        generator is parked at the same recorded position whether the
        answer then comes from the memo or from a fresh 2-respecting
        search over the base epoch's packed trees.  A delta-mutated
        graph gets fresh (uncached, charge-free) validation: the cached
        artifact answers for the base graph only.

        The search reports its progress into the same memo slot: after
        each tree the slot holds ``(trees_done, best)``, and the final
        :class:`CutResult` overwrites it.  A query that finds such a
        partial (an interrupted search, or a checkpoint being resumed)
        continues the search from it.
        """
        mutated = len(self._delta_log) > 0
        early = validate_stage(self._graph) if mutated else self._validated().early
        if early is None:
            approx = self._approximated(ledger)
            index = self._indexed(ledger)
        fp = self._fp_current
        res = self.cache.get("result", fp)
        if isinstance(res, CutResult):
            return res
        if early is not None:
            res = early
        else:
            trees_done, best = res if res is not None else (0, None)
            branching = branching_for_epsilon(self._graph.n, self.params.epsilon)
            best = search_stage(
                self._graph,
                index.tree_parents,
                branching=branching,
                decomposition=self.params.decomposition,
                ledger=ledger,
                trees_done=trees_done,
                best=best,
                on_tree=lambda done, so_far: self.cache.put("result", fp, (done, so_far)),
            )
            res = assemble_result(
                best,
                dict(index.packing_stats),
                approx.lambda_underestimate,
                branching,
                approx.skipped,
            )
        if mutated:
            res = dataclasses.replace(
                res, stats={**dict(res.stats), **self._epoch_stats()}
            )
        self.cache.put("result", fp, res)
        return res

    def min_cut_batch(
        self, seeds: Sequence[SeedLike], *, trace: bool = False
    ) -> List[CutResult]:
        """Independent minimum-cut queries, one per seed, in seed order.

        Preprocessing (approximation, skeleton, greedy packing) runs —
        and charges the ledger — **once**; each seed then drives its own
        candidate-tree selection and 2-respecting search, fanned through
        :func:`repro.pram.executor.parallel_map` on the active executor
        backend.  Per-query ledgers are absorbed with the fork-join rule
        (work sums, depth maxes), so the batch is accounted as one
        parallel round of searches.
        """
        seeds = list(seeds)
        if not seeds:
            return []
        reg = obs.counters()
        if reg.enabled:
            reg.add("engine.batch_queries")
            reg.add("engine.queries", float(len(seeds)))
        return obs.traced(
            lambda led: self._batch_impl(seeds, led),
            self.ledger,
            trace,
            algorithm="engine.min_cut_batch",
            n=self._graph.n,
            m=self._graph.m,
            batch=len(seeds),
        )

    def _batch_impl(self, seeds: List[SeedLike], ledger: Ledger) -> List[CutResult]:
        if len(self._delta_log):
            # delta epoch: the mutated graph needs its own (cheap,
            # uncached) validation — the cached artifact answers for
            # the base graph only
            early = validate_stage(self._graph)
        else:
            early = self._validated().early
        if early is not None:
            return [early for _ in seeds]
        approx = self._approximated(ledger)
        forest = self._forest(ledger)
        branching = branching_for_epsilon(self._graph.n, self.params.epsilon)
        # the immutable per-batch payload travels as a broadcast context
        # (pickled once per round), keyed by the forest fingerprint so
        # repeated batches on the same engine reuse the context-bound
        # process pool; tasks are bare seeds
        context = (
            self._graph,
            forest.packing,
            self._max_trees,
            branching,
            self.params.decomposition,
        )
        # keyed by _fp_current as well: a delta mutation changes the
        # broadcast graph, so the context-bound pool must not be reused
        context_key = combine_fingerprint(
            "batch-ctx", self._fp_forest, self._fp_current, self._max_trees,
            branching, self.params.decomposition,
        )
        # one retry round: a broken process pool fails every branch of
        # its round, and parallel_map runs the retry on ``sync``
        with obs.phase("batch-search", ledger):
            outcomes = parallel_map(
                _batch_search, seeds, retries=1,
                context=context, context_key=context_key,
            )
        ledger.absorb_parallel(*(led for _, _, led in outcomes))
        return [
            assemble_result(
                best,
                forest.packing_stats(num_trees),
                approx.lambda_underestimate,
                branching,
                approx.skipped,
            )
            for best, num_trees, _ in outcomes
        ]

    def update(
        self,
        *,
        add_edges: Optional[EdgeList] = None,
        remove_edges: Optional[Union[Sequence[int], np.ndarray]] = None,
        reweight: Optional[Reweight] = None,
    ) -> UpdateResult:
        """Mutate the bound graph and answer its new minimum cut.

        This is the engine's **one mutation surface** — :meth:`rebase`
        is the explicit epoch bump it falls back to.  The mutation
        batch is normalized into a
        :class:`~repro.engine.deltas.GraphDelta` (see
        :func:`~repro.engine.deltas.as_delta` for the accepted
        spellings and validation), applied to the *current* graph, and
        layered over the base epoch's artifact chain in the engine's
        :class:`~repro.engine.deltas.DeltaLog`: only the per-query
        2-respecting search re-runs, against the cached packed trees,
        which stays exact w.h.p. while the mutated minimum cut remains
        within the packing's coverage.

        The engine **rebases** (cold preprocessing of the mutated
        graph, :attr:`epoch` + 1, staleness reset) instead when any
        trigger fires — each counted under ``engine.rebase.<reason>``:

        ``uncovered_edge``
            an added edge heavier than :data:`REBASE_THRESHOLD` × the
            stored underestimate could itself change the cut structure
            beyond what the packing certifiably covers;
        ``staleness``
            the log's cumulative absolute weight displacement exceeds
            :data:`MAX_STALENESS` × the base total weight;
        ``coverage``
            the post-search value exceeds :data:`REBASE_THRESHOLD` × the
            stored underestimate (the classic coverage edge);
        ``fault`` / ``base_early`` / ``verify``
            an armed ``delta.force_rebase`` fault, a base graph that
            never had artifacts (disconnected/tiny), or a failed
            verification (below).

        Every answer is certified by
        :func:`repro.resilience.verify.verify_cut`; on a failed
        certificate the engine escalates its seed, rebases, and retries
        (up to :data:`MAX_VERIFY_RETRIES` times) before raising
        :class:`~repro.errors.UpdateVerificationError` — exactness
        never depends on the delta heuristics.

        A no-op batch (no additions, no removals, a reweight restating
        current weights) is answered by :meth:`min_cut` — a memo hit
        that charges nothing once the graph has been queried, counted
        by ``engine.update_noops``.
        """
        reg = obs.counters()
        reg.add("engine.updates")
        delta = as_delta(
            self._graph,
            add_edges=add_edges,
            remove_edges=remove_edges,
            reweight=reweight,
        )
        if delta.is_noop:
            reg.add("engine.update_noops")
            res = self.min_cut()
            return self._update_result(res, delta, res.verification)
        ledger = self.ledger
        base_early = self._validated().early
        # checked before it is bound: a rejected delta leaves the engine
        # on its current graph
        self._graph = ensure_finite_weights(delta.apply(self._graph))
        self._fp_current = self._delta_log.append(delta)
        # everything this update may consume randomness for — stage
        # rebuilds, a triggered rebase, seed-escalated verify retries —
        # runs off a generator pinned to the durable mutation history.
        # The live generator's position is an accident of cache hits
        # and read traffic (neither is in the WAL), so binding a new
        # epoch at it would mint fingerprints a crash recovery's replay
        # of this same update could never reproduce.
        self._rng = np.random.default_rng(
            np.random.SeedSequence(int(self._fp_current, 16))
        )
        reason: Optional[str] = None
        if poll_fault(SITE_DELTA_FORCE_REBASE) is not None:
            reason = "fault"
        elif base_early is not None:
            # the base epoch never built artifacts past validation
            # (disconnected or tiny graph): nothing to patch, go cold
            reason = "base_early"
        elif self._delta_log.staleness_ratio() > MAX_STALENESS:
            reason = "staleness"
        elif delta.max_added_weight > 0:
            lam = self._approximated(ledger).lambda_underestimate
            if delta.max_added_weight > REBASE_THRESHOLD * lam:
                reason = "uncovered_edge"
        res: Optional[CutResult] = None
        if reason is None:
            res = self._answer(ledger)
            lam = self._approximated(ledger).lambda_underestimate
            if res.value > REBASE_THRESHOLD * lam:
                # the packing no longer certifiably covers the minimum
                # cut of the mutated graph
                reason = "coverage"
                res = None
        rebased = reason is not None
        if rebased:
            reg.add("engine.rebases")
            reg.add(f"engine.rebase.{reason}")
            self.rebase()
            res = self.min_cut()
        for attempt in range(MAX_VERIFY_RETRIES + 1):
            with obs.phase("verify", ledger):
                report = verify_cut(self._graph, res, ledger=ledger)
            if report.ok:
                break
            reg.add("engine.update_verify_failures")
            if attempt == MAX_VERIFY_RETRIES:
                raise UpdateVerificationError(
                    f"post-update cut (value {res.value}) failed "
                    f"verification after {MAX_VERIFY_RETRIES} "
                    f"seed-escalated rebases: {report.detail}"
                )
            # seed-escalated retry: derive a fresh stream, rebase
            # cold, and answer again — a w.h.p. miss of the packed
            # trees must not survive into the returned result
            self._rng = np.random.default_rng(
                int(self._rng.integers(2**63)) + attempt
            )
            if not rebased:
                rebased, reason = True, "verify"
                reg.add("engine.rebases")
                reg.add("engine.rebase.verify")
            self.rebase()
            res = self.min_cut()
        # the certificate is a property of the answer itself, so later
        # reads and no-op updates served from the memo keep it
        res = dataclasses.replace(res, verification=report)
        self.cache.put("result", self._fp_current, res)
        return self._update_result(res, delta, report, rebased, reason)

    def _update_result(
        self,
        res: CutResult,
        delta: GraphDelta,
        verification: Optional[VerificationReport],
        rebased: bool = False,
        reason: Optional[str] = None,
    ) -> UpdateResult:
        """Wrap ``res`` for :meth:`update`'s caller.  The ``update`` /
        ``rebased`` / epoch stats decorate this copy only: the memo keeps
        exactly what :meth:`min_cut` returns."""
        stats = {**dict(res.stats), "update": 1.0, **self._epoch_stats()}
        if rebased:
            stats["rebased"] = 1.0
        return UpdateResult(
            result=dataclasses.replace(res, stats=stats),
            epoch=self._epoch,
            staleness=self.staleness,
            rebased=rebased,
            rebase_reason=reason,
            noop=delta.is_noop,
            applied=delta.counts(),
            verification=verification,
        )

    # ------------------------------------------------------------------
    # durable state (repro.durability)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """The engine's durable identity, as one picklable dict.

        Captures everything :meth:`restore_state` needs to resurrect a
        bit-identical engine in a fresh process: the base graph the
        artifact chain was preprocessed from, the current
        (delta-mutated) graph, the epoch, the rng position cold stages
        replay from (``_state0``) *and* the live generator state, the
        delta log's :meth:`~repro.engine.deltas.DeltaLog.state_dict`,
        and the fingerprint chain heads the restore verifies against.
        Cached artifacts are deliberately excluded — they are a pure
        function of this state and rebuild on the first warm query.
        """
        return {
            "version": 1,
            "params_key": repr(self.params),
            "epoch": self._epoch,
            "state0": self._state0,
            "rng_state": self._rng.bit_generator.state,
            "approx_value": self._approx_value,
            "base_graph": self._base_graph,
            "graph": None if self._graph is self._base_graph else self._graph,
            "delta_log": self._delta_log.state_dict(),
            "fingerprints": {
                "result": self._fp_result,
                "current": self._fp_current,
            },
        }

    def restore_state(self, state: Mapping[str, object]) -> "CutEngine":
        """Restore a :meth:`snapshot_state` capture, verifying it.

        The fingerprint chain is **recomputed** from the restored base
        graph, rng position, and parameters — not trusted from the
        snapshot — and the delta chain is re-derived from the recorded
        per-delta hashes; any head that disagrees with the snapshot's
        raises a typed :class:`~repro.errors.RecoveryError` instead of
        booting an engine that answers for a graph nobody built.
        """
        if state.get("version") != 1:
            raise RecoveryError(
                f"engine snapshot has state version {state.get('version')!r}; "
                "this build restores version 1"
            )
        if state.get("params_key") != repr(self.params):
            raise RecoveryError(
                "engine snapshot was taken under different pipeline "
                "parameters; refusing to restore a chimera engine"
            )
        fps = dict(state["fingerprints"])
        self._approx_value = state["approx_value"]
        self._rng.bit_generator.state = state["state0"]
        # _bind increments the epoch and recomputes the whole chain from
        # the base graph + rng position; seed it one below the saved epoch
        self._epoch = int(state["epoch"]) - 1
        self._bind(state["base_graph"])
        if self._fp_result != fps["result"]:
            raise RecoveryError(
                "restored engine's recomputed artifact chain does not match "
                f"the snapshot (result fingerprint {self._fp_result[:12]}... "
                f"!= {str(fps['result'])[:12]}...)"
            )
        log_state = dict(state["delta_log"])
        recomputed = self._delta_log.restore(log_state)
        if recomputed != log_state["fingerprint"]:
            raise RecoveryError(
                "restored delta log's recomputed chain head does not match "
                "its own recorded head (snapshot corrupt or tampered)"
            )
        self._fp_current = recomputed if len(self._delta_log) else self._fp_result
        if self._fp_current != fps["current"]:
            raise RecoveryError(
                "restored engine's delta-chain fingerprint does not match "
                f"the snapshot ({self._fp_current[:12]}... != "
                f"{str(fps['current'])[:12]}...)"
            )
        graph = state["graph"]
        self._graph = self._base_graph if graph is None else graph
        self._rng.bit_generator.state = state["rng_state"]
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CutEngine(n={self._graph.n}, m={self._graph.m}, "
            f"max_trees={self._max_trees}, cache={self.cache!r})"
        )
