"""Per-layer tracing, installed from bench code around the program.

:class:`Recorder` replaces the module and class attributes that the
pipeline looks up at call time with timing wrappers.  Each span records
its name, start, end, parent span and thread.  Layer times are span
durations, children included: a stage's time covers the layers under
it, and the per-tree steps of the 2-respecting search, which have no
wrapped children, are their own self time.  Ledger work deltas are read
from the ``Ledger`` the bench passes in (cut workloads only; the daemon
runs its engines without one).  :meth:`Recorder.restore` puts every
original back.

Layer totals are additive (sums and counts), so the runner can merge
them across child processes before :func:`layer_metrics` divides by the
number of requests answered in the measured window.
"""

from __future__ import annotations

import importlib
import json
import threading
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from common import now

#: (span name, module, attribute); a dotted attribute names a class method
IO_TARGETS: List[Tuple[str, str, str]] = [
    ("io.read_graph_binary", "repro.graphs.io", "read_graph_binary"),
]

PIPELINE_TARGETS: List[Tuple[str, str, str]] = IO_TARGETS + [
    # top-level stages, as run_pipeline looks them up ...
    ("validate", "repro.engine.stages", "validate_stage"),
    ("approximate", "repro.engine.stages", "approximate_stage"),
    ("skeleton", "repro.engine.stages", "build_cut_skeleton"),
    ("pack", "repro.engine.stages", "pack_skeleton"),
    ("select", "repro.engine.stages", "select_trees"),
    ("search", "repro.engine.stages", "search_stage"),
    ("two_respecting", "repro.engine.stages", "two_respecting_min_cut"),
    # ... and as CutEngine looks them up
    ("validate", "repro.engine.service", "validate_stage"),
    ("approximate", "repro.engine.service", "approximate_stage"),
    ("skeleton", "repro.engine.service", "build_cut_skeleton"),
    ("pack", "repro.engine.service", "pack_skeleton"),
    ("select", "repro.engine.service", "select_trees"),
    ("search", "repro.engine.service", "search_stage"),
    ("verify", "repro.engine.service", "verify_cut"),
    # Section 3, with the nested layer solves
    ("approx.hierarchy", "repro.approx.approximate", "build_truncated_hierarchy"),
    ("approx.certificates", "repro.approx.approximate", "build_certificate_hierarchy"),
    ("approx.layer_cuts", "repro.approx.approximate", "layer_min_cuts"),
    ("layer_solve", "repro.core.mincut", "minimum_cut"),
    ("layer_solve", "repro.arena.solvers.stoer_wagner", "stoer_wagner"),
    # one tree's 2-respecting search and the structures under it
    ("oracle_build", "repro.tworespect.algorithm", "CutOracle"),
    ("decompose", "repro.tworespect.algorithm", "heavy_path_decomposition"),
    ("decompose", "repro.tworespect.algorithm", "bough_decomposition"),
    ("single_path", "repro.tworespect.algorithm", "single_path_minimum"),
    ("centroid", "repro.tworespect.algorithm", "centroid_decomposition"),
    ("interest_terminals", "repro.tworespect.algorithm", "find_interest_terminals"),
    ("interest_tuples", "repro.tworespect.algorithm", "collect_interest_tuples"),
    ("interest_tuples", "repro.tworespect.algorithm", "group_interested_pairs"),
    ("path_pairs", "repro.tworespect.algorithm", "path_pair_minimum"),
]

SERVE_TARGETS: List[Tuple[str, str, str]] = PIPELINE_TARGETS + [
    ("engine.min_cut", "repro.engine.service", "CutEngine.min_cut"),
    ("engine.update", "repro.engine.service", "CutEngine.update"),
    ("durability.log_update", "repro.durability.state", "DurableState.log_update"),
    ("durability.snapshot", "repro.durability.state", "DurableState.snapshot"),
]

STAGES = ("validate", "approximate", "skeleton", "pack", "select", "search")

#: counters read from ``repro.obs`` (cut child) or the daemon's metrics op
COUNTERS = (
    "oracle.queries",
    "oracle.nodes_visited",
    "kernels.batch_entries",
    "engine.stage_runs",
    "engine.cache_hits",
    "engine.cache_misses",
    "engine.cache_evictions",
    "engine.rebases",
    "engine.updates",
    "engine.update_noops",
    "wal.fsyncs",
    "wal.bytes",
)

#: every per-layer metric and its unit; times and counts of the window
#: are per request answered unless the name says per call (``_ms`` means
#: of one layer call, ``s_per_call``)
LAYER_METRICS: Dict[str, str] = {
    "io.read_graph_binary_s": "s",
    "stage.validate_s": "s",
    "stage.approximate_s": "s",
    "stage.packing_s": "s",
    "stage.search_s": "s",
    "stage.unattributed_s": "s",
    "stage.approximate_work": "count",
    "stage.packing_work": "count",
    "stage.search_work": "count",
    "stage.approximate_s_per_mwork": "s",
    "stage.packing_s_per_mwork": "s",
    "stage.search_s_per_mwork": "s",
    "stage.coverage": "ratio",
    "approx.hierarchy_s": "s",
    "approx.certificates_s": "s",
    "approx.layer_cuts_s": "s",
    "approx.layer_solves": "count",
    "packing.skeleton_s": "s",
    "packing.pack_s": "s",
    "packing.select_s": "s",
    "packing.trees": "count",
    "tworespect.calls": "count",
    "tworespect.s_per_call": "s",
    "tworespect.single_path_s": "s",
    "tworespect.interest_terminals_s": "s",
    "tworespect.interest_tuples_s": "s",
    "tworespect.path_pairs_s": "s",
    "rangesearch.oracle_build_s": "s",
    "trees.decompose_s": "s",
    "trees.centroid_s": "s",
    "oracle.queries": "count",
    "oracle.nodes_visited": "count",
    "kernels.batch_entries": "count",
    "ledger.work": "count",
    "ledger.depth": "count",
    "ledger.work_per_mlogn": "ratio",
    "engine.min_cut_ms": "ms",
    "engine.update_ms": "ms",
    "engine.search_ms": "ms",
    "engine.update_search_ms": "ms",
    "engine.stage_runs": "count",
    "engine.cache_hit_rate": "ratio",
    "engine.cache_evictions": "count",
    "engine.rebases": "count",
    "engine.rebase_rate": "ratio",
    "engine.update_noops": "count",
    "verify.ms": "ms",
    "durability.log_update_ms": "ms",
    "durability.snapshot_ms": "ms",
    "wal.fsyncs": "count",
    "wal.bytes": "count",
    "serve.queue_wait_ms": "ms",
    "serve.overhead_min_cut_ms": "ms",
    "serve.overhead_update_ms": "ms",
    "trace.answer_ms": "ms",
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 at the top
    thread: int
    work: float
    size: int  # len() of the result where that is meaningful, else 0


class Recorder:
    """Collects spans from the wrappers it installs."""

    def __init__(self, ledger=None) -> None:
        self.ledger = ledger
        self.spans: List[Optional[Span]] = []
        #: seconds each admitted request waited in the admission queue
        self.queue_waits: List[float] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------
    def install(self, targets: Iterable[Tuple[str, str, str]]) -> "Recorder":
        for name, module, attr in targets:
            owner = importlib.import_module(module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def install_queue_wait(self) -> "Recorder":
        """Time each request's wait from admission to a worker's
        ``AdmissionQueue.get``; ``enqueued_at`` is stamped with the
        service clock, ``time.monotonic``."""
        from repro.serve.admission import AdmissionQueue

        original = AdmissionQueue.get
        waits = self.queue_waits

        async def get(queue):
            item = await original(queue)
            waits.append(now() - item.enqueued_at)
            return item

        self._originals.append((AdmissionQueue, "get", original))
        AdmissionQueue.get = get
        return self

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, original: Callable) -> Callable:
        rec = self

        def wrapper(*args, **kwargs):
            stack = getattr(rec._local, "stack", None)
            if stack is None:
                stack = rec._local.stack = []
            with rec._lock:
                index = len(rec.spans)
                rec.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ledger = rec.ledger
            w0 = ledger.work if ledger is not None else 0.0
            t0 = now()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                t1 = now()
                stack.pop()
                rec.spans[index] = Span(
                    name,
                    t0,
                    t1,
                    parent,
                    threading.get_ident(),
                    (ledger.work - w0) if ledger is not None else 0.0,
                    len(result) if isinstance(result, list) else 0,
                )

        return wrapper

    # -- output -----------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": [list(s) if s else None for s in self.spans],
                 "queue_waits": self.queue_waits},
                fh,
            )


def load_dump(path: str) -> Tuple[List[Optional[Span]], List[float]]:
    with open(path) as fh:
        data = json.load(fh)
    return [Span(*s) if s else None for s in data["spans"]], data["queue_waits"]


# ---------------------------------------------------------------------------
# from spans to additive layer totals
# ---------------------------------------------------------------------------
def layer_totals(
    spans: List[Optional[Span]], window: Tuple[float, float]
) -> Dict[str, float]:
    """Sums and counts per layer over the spans that started inside
    ``window``; the graph loads, which happen during set-up, are summed
    over the whole run."""
    tot: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        tot[key] = tot.get(key, 0.0) + value

    def ancestors(span: Span) -> List[str]:
        names = []
        while span.parent >= 0:
            span = spans[span.parent]
            if span is None:  # parent still open when the dump was taken
                break
            names.append(span.name)
        return names

    lo, hi = window
    for s in spans:
        if s is None:
            continue
        dur = s.end - s.start
        if s.name == "io.read_graph_binary":
            add("io.s", dur)
            add("io.calls", 1)
            continue
        if not lo <= s.start <= hi:
            continue
        above = ancestors(s)
        add(f"{s.name}.s", dur)
        add(f"{s.name}.calls", 1)
        if s.name in STAGES and not any(a in STAGES for a in above):
            add(f"top.{s.name}.s", dur)
            add(f"top.{s.name}.work", s.work)
            if s.name == "select":
                add("top.trees", s.size)
        if s.name == "layer_solve" and "approx.layer_cuts" in above:
            add("approx.layer_solves", 1)
        if s.name == "engine.min_cut" and "engine.update" not in above:
            add("engine.top_min_cut.s", dur)
            add("engine.top_min_cut.calls", 1)
        if s.name == "search" and "engine.update" in above:
            add("engine.update_search.s", dur)
            add("engine.update_search.calls", 1)
        elif s.name == "search" and "engine.min_cut" in above:
            add("engine.search.s", dur)
            add("engine.search.calls", 1)
    return tot


def merge(into: Dict[str, float], more: Dict[str, float]) -> Dict[str, float]:
    for key, value in more.items():
        into[key] = into.get(key, 0.0) + value
    return into


def layer_metrics(
    tot: Dict[str, float],
    counters: Dict[str, float],
    requests: int,
    *,
    answer_ms: float,
    answer_mean_ms: float,
    client_mean_ms: Dict[str, float],
    queue_waits: List[float],
    ledger: Dict[str, float],
    library: bool,
) -> Dict[str, float]:
    """Every entry of :data:`LAYER_METRICS`, 0.0 for a layer the workload
    never reached.  ``requests`` answered in the window normalise the
    window totals; ``answer_ms`` and ``answer_mean_ms`` are the median
    and mean traced latency of the workload's answer op, and ``client_mean_ms`` the traced client means per op.
    ``library`` marks the cut workloads, where each answer is one
    top-level pipeline run that the stage spans should cover."""
    per = 1.0 / max(requests, 1)

    def g(key: str) -> float:
        return tot.get(key, 0.0)

    def per_call_ms(name: str) -> float:
        calls = g(f"{name}.calls")
        return 1000.0 * g(f"{name}.s") / calls if calls else 0.0

    def s_per_mwork(stage_s: float, work: float) -> float:
        return stage_s / (work / 1e6) if work else 0.0

    top_s = {k: g(f"top.{k}.s") * per for k in STAGES}
    packing_s = top_s["skeleton"] + top_s["pack"] + top_s["select"]
    work = {k: g(f"top.{k}.work") * per for k in STAGES}
    packing_work = work["skeleton"] + work["pack"] + work["select"]
    answer_s = answer_mean_ms / 1000.0
    attributed = sum(top_s.values())
    hits, misses = counters.get("engine.cache_hits", 0.0), counters.get("engine.cache_misses", 0.0)
    applied = counters.get("engine.updates", 0.0) - counters.get("engine.update_noops", 0.0)
    two = g("two_respecting.calls")
    out = {
        "io.read_graph_binary_s": g("io.s") / g("io.calls") if g("io.calls") else 0.0,
        "stage.validate_s": top_s["validate"],
        "stage.approximate_s": top_s["approximate"],
        "stage.packing_s": packing_s,
        "stage.search_s": top_s["search"],
        "stage.unattributed_s": max(answer_s - attributed, 0.0) if library else 0.0,
        "stage.approximate_work": work["approximate"],
        "stage.packing_work": packing_work,
        "stage.search_work": work["search"],
        "stage.approximate_s_per_mwork": s_per_mwork(top_s["approximate"], work["approximate"]),
        "stage.packing_s_per_mwork": s_per_mwork(packing_s, packing_work),
        "stage.search_s_per_mwork": s_per_mwork(top_s["search"], work["search"]),
        "stage.coverage": attributed / answer_s if library and answer_s else 0.0,
        "approx.hierarchy_s": g("approx.hierarchy.s") * per,
        "approx.certificates_s": g("approx.certificates.s") * per,
        "approx.layer_cuts_s": g("approx.layer_cuts.s") * per,
        "approx.layer_solves": g("approx.layer_solves") * per,
        "packing.skeleton_s": g("skeleton.s") * per,
        "packing.pack_s": g("pack.s") * per,
        "packing.select_s": g("select.s") * per,
        "packing.trees": g("top.trees") * per,
        "tworespect.calls": two * per,
        "tworespect.s_per_call": g("two_respecting.s") / two if two else 0.0,
        "tworespect.single_path_s": g("single_path.s") * per,
        "tworespect.interest_terminals_s": g("interest_terminals.s") * per,
        "tworespect.interest_tuples_s": g("interest_tuples.s") * per,
        "tworespect.path_pairs_s": g("path_pairs.s") * per,
        "rangesearch.oracle_build_s": g("oracle_build.s") * per,
        "trees.decompose_s": g("decompose.s") * per,
        "trees.centroid_s": g("centroid.s") * per,
        "oracle.queries": counters.get("oracle.queries", 0.0) * per,
        "oracle.nodes_visited": counters.get("oracle.nodes_visited", 0.0) * per,
        "kernels.batch_entries": counters.get("kernels.batch_entries", 0.0) * per,
        "ledger.work": ledger.get("work", 0.0),
        "ledger.depth": ledger.get("depth", 0.0),
        "ledger.work_per_mlogn": ledger.get("work_per_mlogn", 0.0),
        "engine.min_cut_ms": per_call_ms("engine.top_min_cut"),
        "engine.update_ms": per_call_ms("engine.update"),
        "engine.search_ms": per_call_ms("engine.search"),
        "engine.update_search_ms": per_call_ms("engine.update_search"),
        "engine.stage_runs": counters.get("engine.stage_runs", 0.0) * per,
        "engine.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "engine.cache_evictions": counters.get("engine.cache_evictions", 0.0) * per,
        "engine.rebases": counters.get("engine.rebases", 0.0) * per,
        "engine.rebase_rate": counters.get("engine.rebases", 0.0) / applied if applied else 0.0,
        "engine.update_noops": counters.get("engine.update_noops", 0.0) * per,
        "verify.ms": per_call_ms("verify"),
        "durability.log_update_ms": per_call_ms("durability.log_update"),
        "durability.snapshot_ms": per_call_ms("durability.snapshot"),
        "wal.fsyncs": counters.get("wal.fsyncs", 0.0) * per,
        "wal.bytes": counters.get("wal.bytes", 0.0) * per,
        "serve.queue_wait_ms": 1000.0 * sum(queue_waits) / len(queue_waits) if queue_waits else 0.0,
        "serve.overhead_min_cut_ms": _overhead(client_mean_ms, "min_cut", per_call_ms("engine.top_min_cut")),
        "serve.overhead_update_ms": _overhead(client_mean_ms, "update", per_call_ms("engine.update")),
        "trace.answer_ms": answer_ms,
    }
    assert set(out) == set(LAYER_METRICS)
    return out


def _overhead(client_mean_ms: Dict[str, float], op: str, engine_ms: float) -> float:
    client = client_mean_ms.get(op)
    return client - engine_ms if client is not None and engine_ms else 0.0
