#!/usr/bin/env python
"""Wall-clock harness for the 2-respecting search and its substrates.

Runs the E5 (2-respecting work optimality / eps tradeoff) and E8
(density crossover) sweeps once each and writes ``BENCH_wallclock.json``
at the repo root with every configuration's cut value, ledger work and
depth, wall seconds and per-stage wall timings.  It also fans the E8
sweep out under both executor backends (sync / process,
:mod:`repro.pram.executor`) with a pre-warmed pool and a broadcast
context, records each backend's dispatch overhead counter, and writes a
``brent_bound`` section comparing achieved T_p against the ledger
prediction T_p = W/p + D (converted to seconds via the sync run).
``--min-process-speedup X`` gates the process-vs-sync speedup, but only
on hosts granting at least ``--workers`` effective CPUs
(:func:`repro.pram.executor.effective_cpus`) — quota-capped containers
record the measurement without failing.

Usage::

    PYTHONPATH=src python scripts/bench_wallclock.py [--small]
        [--max-trace-overhead R] [--min-process-speedup X] [--workers N]
        [--output PATH] [--skip-executors]

``--small`` shrinks every sweep for CI smoke runs.  Parity failures
always exit non-zero.

The harness also measures the :mod:`repro.obs` tracing overhead on one
representative configuration: interleaved untraced/traced runs (span
tree + counter registry armed), reported as medians with interquartile
ranges.  The traced run must produce the bit-identical cut value and
ledger work/depth — the observability layer never charges the ledger —
and ``--max-trace-overhead R`` exits non-zero when the median
traced/untraced ratio exceeds R (CI gates at 1.05).

``--batch [N]`` (default 8 when given) additionally benchmarks the
staged :class:`repro.engine.CutEngine`: one cold ``min_cut()`` vs a
cold ``min_cut_batch`` of N queries on the same representative
configuration.  The batch pays preprocessing (validate / approximate /
sparsify / pack / index) once, so its amortized per-query wall must
stay under ``--max-batch-ratio`` (default 3.0) times the single cold
query, and every batch query must report the cold query's cut value.

``--updates [N]`` (default 12 when given) benchmarks the engine's
incremental mutation surface: one engine absorbs N seeded random
add/remove/reweight batches through ``CutEngine.update()`` (every
answer verified exact), against a cold engine rebuilt on each mutated
graph.  ``--min-update-speedup X`` gates the **deterministic ledger
work** ratio (cold rebuild work / update work) at X, with rebase
trigger events counted and recorded — wall clock rides along for
information but is never gated, since CI containers are quota-capped.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core import branching_for_epsilon  # noqa: E402
from repro.graphs import random_connected_graph  # noqa: E402
from repro.pram import Ledger, force_executor, parallel_map  # noqa: E402
from repro.pram.executor import effective_cpus  # noqa: E402
from repro.primitives import root_tree, spanning_forest_graph  # noqa: E402
from repro.tworespect import two_respecting_min_cut  # noqa: E402


class TimedLedger(Ledger):
    """A Ledger that also records wall seconds spent inside each phase."""

    __slots__ = ("phase_wall",)

    def __init__(self) -> None:
        super().__init__()
        self.phase_wall: dict = {}

    def phase(self, name: str):
        parent = super().phase(name)

        @contextmanager
        def timed():
            t0 = time.perf_counter()
            with parent as rec:
                yield rec
            self.phase_wall[name] = (
                self.phase_wall.get(name, 0.0) + time.perf_counter() - t0
            )

        return timed()


def _spanning_parent(g):
    ids, _ = spanning_forest_graph(g)
    return root_tree(g.n, g.u[ids], g.v[ids], 0)


def _configs(small: bool):
    """(experiment, label, n, m, seed, branching) rows mirroring E5/E8."""
    rows = []
    m_sweep = [1500, 3000] if small else [1500, 3000, 6000, 12000, 24000]
    for m in m_sweep:
        rows.append(("E5_m_sweep", f"n=500 m={m} b=2", 500, m, m, 2))
    eps_sweep = [None, 0.15] if small else [None, 0.15, 0.3, 0.45]
    eps_n, eps_m = (200, 8000) if small else (400, 50000)
    for eps in eps_sweep:
        b = branching_for_epsilon(eps_n, eps)
        tag = "b=2" if eps is None else f"eps={eps:g}"
        rows.append(("E5_eps_sweep", f"n={eps_n} m={eps_m} {tag} (b={b})", eps_n, eps_m, 77, b))
    densities = [2, 8] if small else [2, 4, 8, 16, 32, 64]
    n8 = 256 if small else 512
    for d in densities:
        rows.append(("E8_density", f"n={n8} m/n={d} b=2", n8, d * n8, d, 2))
    return rows


def _run(g, parent, branching: int):
    # the instance is built by the caller: generation and spanning-tree
    # construction stay out of the timed region
    led = TimedLedger()
    t0 = time.perf_counter()
    res = two_respecting_min_cut(g, parent, branching=branching, ledger=led)
    wall = time.perf_counter() - t0
    return {
        "value": res.value,
        "work": led.work,
        "depth": led.depth,
        "wall_s": wall,
        "stages": {k: round(v, 6) for k, v in led.phase_wall.items()},
    }


def _solve_indexed(context, idx):
    """Executor-backend worker: solve prebuilt instance ``idx``.

    The whole instance list travels as a broadcast context — pickled
    once into the pool initializer on the process backend — so each
    task carries only an integer.
    """
    g, parent, branching = context[idx]
    led = Ledger()
    res = two_respecting_min_cut(g, parent, branching=branching, ledger=led)
    return res.value, led.work, led.depth


def _time_executors(configs, workers: int = 4,
                    backends=("sync", "process"), reps: int = 3):
    """Time the sweep fan-out under each executor backend.

    Instances are prebuilt in the parent and broadcast as a
    ``parallel_map`` context; pools are pre-warmed so the timed region
    measures dispatch + compute, not worker spawn.  ``wall_s`` is the
    best of ``reps`` (steady state: initializer costs are amortized by
    context reuse); ``cold_wall_s`` keeps the first rep.
    """
    from repro.obs.counters import CounterRegistry, counting_scope
    from repro.pram.executor import prewarm_executor

    instances = []
    for _, _, n, m, seed, b in configs:
        g = random_connected_graph(n, m, rng=seed, max_weight=6)
        instances.append((g, _spanning_parent(g), b))
    context = tuple(instances)
    context_key = f"bench-e8-sweep-{len(instances)}"
    items = list(range(len(instances)))

    out = {"workers": workers, "reps": reps}
    base_values = None
    for backend in backends:
        reg = CounterRegistry()
        walls = []
        with counting_scope(reg), force_executor(backend):
            prewarm_executor(backend, workers)
            for _ in range(reps):
                t0 = time.perf_counter()
                results = parallel_map(
                    _solve_indexed, items, workers,
                    context=context, context_key=context_key,
                )
                walls.append(time.perf_counter() - t0)
        values = [round(v, 9) for v, _, _ in results]
        if base_values is None:
            base_values = values
        counts = reg.snapshot()
        out[backend] = {
            "wall_s": round(min(walls), 4),
            "cold_wall_s": round(walls[0], 4),
            "values": values,
            "parity": values == base_values,
            "dispatch_overhead_s": round(
                counts.get("executor.dispatch_overhead_s", 0.0), 4
            ),
        }
    # fork-join charge of the sweep (work sums, depth maxes) for Brent
    work = float(sum(w for _, w, _ in results))
    depth = float(max(d for _, _, d in results))
    out["ledger"] = {"work": work, "depth": depth}
    wa = out.get("sync", {}).get("wall_s")
    wb = out.get("process", {}).get("wall_s")
    if wa and wb:
        out["process_speedup_vs_sync"] = round(wa / wb, 3)
    return out


def _brent_bound(executors: dict, workers: int) -> dict:
    """Achieved T_p against the Brent prediction T_p = W/p + D.

    The ledger charges abstract work/depth units; the sync run converts
    them to seconds (T_1 = s * W, so s = T_1 / W), making the predicted
    parallel wall ``s * (W/p + D)``.  ``p`` is ``min(workers,
    effective_cpus)``: workers beyond the CPUs the host grants only
    time-slice, so on a quota-capped host the bound is rightly pinned
    near T_1.  ``ratio_to_bound`` is achieved / predicted: 1.0 means the
    backend hits the work-optimal schedule, large values mean dispatch
    overhead.
    """
    sync_wall = executors.get("sync", {}).get("wall_s")
    ledger = executors.get("ledger", {})
    work, depth = ledger.get("work"), ledger.get("depth")
    if not sync_wall or not work:
        return {"skipped": "no sync baseline"}
    cpus = effective_cpus()
    p = min(float(workers), cpus)
    s_per_unit = sync_wall / work
    predicted = s_per_unit * (work / p + depth)
    achieved = {}
    wall = executors.get("process", {}).get("wall_s")
    if wall:
        achieved["process"] = {
            "wall_s": wall,
            "ratio_to_bound": round(wall / predicted, 3),
        }
    return {
        "work": work,
        "depth": depth,
        "workers": workers,
        "effective_cpus": round(cpus, 2),
        "p": round(p, 2),
        "t1_wall_s": sync_wall,
        "seconds_per_work_unit": s_per_unit,
        "predicted_tp_s": round(predicted, 4),
        "achieved": achieved,
    }


def _median_iqr(xs):
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return float(med), float(q3 - q1)


def _time_trace_overhead(config, reps: int = 7):
    """Traced vs untraced wall seconds on one config, ``reps`` pairs.

    Both variants solve the same prebuilt instance.  The pairs are
    interleaved, alternating which variant runs first, so drift in the
    host's speed lands on both sides.  The traced variant arms a full
    Tracer (span tree + counter registry) around the solve.
    ``overhead_ratio`` is the median of the per-pair traced/untraced
    ratios; each variant's median and every spread are reported as
    well.  Parity of value/work/depth across the two variants is part of
    the result because observability must never perturb the
    computation.
    """
    from repro import obs

    _, label, n, m, seed, branching = config
    g = random_connected_graph(n, m, rng=seed, max_weight=6)
    parent = _spanning_parent(g)

    def one(traced: bool):
        led = Ledger()
        t0 = time.perf_counter()
        if traced:
            tracer = obs.Tracer(ledger=led)
            with tracer.activate():
                res = two_respecting_min_cut(g, parent, branching=branching, ledger=led)
            tracer.finish()
        else:
            res = two_respecting_min_cut(g, parent, branching=branching, ledger=led)
        return time.perf_counter() - t0, (res.value, led.work, led.depth)

    # warm-up once each so neither variant pays first-call numpy costs
    _, want = one(False)
    one(True)
    off, on = [], []
    parity = True
    for i in range(reps):
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            runs[traced] = one(traced)
            parity &= runs[traced][1] == want
        off.append(runs[False][0])
        on.append(runs[True][0])
    off_med, off_iqr = _median_iqr(off)
    on_med, on_iqr = _median_iqr(on)
    ratio_med, ratio_iqr = _median_iqr([b / a for a, b in zip(off, on)])
    return {
        "label": label,
        "reps": reps,
        "untraced_wall_s": round(off_med, 4),
        "untraced_iqr_s": round(off_iqr, 4),
        "traced_wall_s": round(on_med, 4),
        "traced_iqr_s": round(on_iqr, 4),
        "overhead_ratio": round(ratio_med, 4),
        "overhead_ratio_iqr": round(ratio_iqr, 4),
        "parity": parity,
    }


def _time_engine_batch(config, batch: int = 8, reps: int = 3):
    """Best-of-``reps`` cold-single vs cold-batch engine wall seconds.

    Both variants start from an empty artifact cache.  The batch variant
    runs preprocessing once and fans ``batch`` independent query seeds
    through the cached :class:`~repro.engine.artifacts.PackedForest`, so
    ``amortized_ratio`` — (batch wall / batch) / single-query wall — is
    the amortization the engine buys; parity requires every batch query
    to land on the cold query's cut value.
    """
    from repro.engine import CutEngine

    _, label, n, m, seed, _branching = config
    g = random_connected_graph(n, m, rng=seed, max_weight=6)

    def cold_single():
        t0 = time.perf_counter()
        res = CutEngine(g, seed=seed).min_cut()
        return time.perf_counter() - t0, res.value

    def cold_batch():
        t0 = time.perf_counter()
        results = CutEngine(g, seed=seed).min_cut_batch(range(batch))
        return time.perf_counter() - t0, [r.value for r in results]

    # warm-up once so neither variant pays first-call import/numpy costs
    cold_single()
    singles = [cold_single() for _ in range(reps)]
    batches = [cold_batch() for _ in range(reps)]
    cold_wall = min(w for w, _ in singles)
    batch_wall = min(w for w, _ in batches)
    value = singles[0][1]
    parity = all(v == value for _, vals in batches for v in vals)
    amortized = batch_wall / batch
    return {
        "label": label,
        "batch": batch,
        "reps": reps,
        "value": value,
        "cold_wall_s": round(cold_wall, 4),
        "batch_wall_s": round(batch_wall, 4),
        "amortized_wall_s": round(amortized, 4),
        "amortized_ratio": (
            round(amortized / cold_wall, 4) if cold_wall > 0 else float("inf")
        ),
        "parity": parity,
    }


def _time_engine_updates(config, updates: int = 12):
    """Amortized ``update()+query`` vs a cold rebuild per mutation.

    One engine absorbs a seeded :func:`repro.engine.deltas.random_delta`
    stream through :meth:`CutEngine.update` (each answer verified exact,
    as the product path does); the baseline pays a cold
    :class:`CutEngine` build on every mutated graph.  ``ratio_work`` —
    cold ledger work / update ledger work — is the amortization the
    delta path buys and is what ``--min-update-speedup`` gates: ledger
    work units are deterministic, so the gate holds on quota-capped CI
    hosts where wall clock is noise.  Rebase-trigger events are counted
    and reported alongside.
    """
    from repro.engine import CutEngine
    from repro.engine.deltas import random_delta
    from repro.obs.counters import CounterRegistry, counting_scope

    _, label, n, m, seed, _branching = config
    g = random_connected_graph(n, m, rng=seed, max_weight=6)

    reg = CounterRegistry()
    upd_led = Ledger()
    engine = CutEngine(g, seed=seed, ledger=upd_led)
    engine.min_cut()
    preprocess_work = upd_led.work
    rng = np.random.default_rng(seed)
    graphs, values = [], []
    with counting_scope(reg):
        t0 = time.perf_counter()
        for _ in range(updates):
            upd = engine.update(**random_delta(engine.graph, rng))
            graphs.append(engine.graph)
            values.append(upd.value)
        update_wall = time.perf_counter() - t0
    update_work = upd_led.work - preprocess_work

    cold_led = Ledger()
    t0 = time.perf_counter()
    cold_values = [
        CutEngine(gg, seed=seed, ledger=cold_led).min_cut().value for gg in graphs
    ]
    cold_wall = time.perf_counter() - t0

    counts = reg.snapshot()
    rebase_events = {
        key.split("engine.rebase.", 1)[1]: v
        for key, v in counts.items()
        if key.startswith("engine.rebase.")
    }
    return {
        "label": label,
        "updates": updates,
        "parity": cold_values == values,
        "update_work": update_work,
        "cold_rebuild_work": cold_led.work,
        "ratio_work": (
            round(cold_led.work / update_work, 4)
            if update_work > 0 else float("inf")
        ),
        "update_wall_s": round(update_wall, 4),
        "cold_rebuild_wall_s": round(cold_wall, 4),
        "rebases": counts.get("engine.rebases", 0.0),
        "rebase_events": rebase_events,
        "noops": counts.get("engine.update_noops", 0.0),
        "verify_failures": counts.get("engine.update_verify_failures", 0.0),
        "final_epoch": engine.epoch,
        "final_staleness": engine.staleness,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--small", action="store_true", help="CI-sized sweeps")
    ap.add_argument("--max-trace-overhead", type=float, default=None, metavar="R",
                    help="fail if the median traced/untraced wall ratio "
                         "exceeds R (e.g. 1.05)")
    ap.add_argument("--output", type=Path, default=ROOT / "BENCH_wallclock.json")
    ap.add_argument("--skip-executors", action="store_true",
                    help="skip the executor-backend dispatch timing")
    ap.add_argument("--workers", type=int, default=4,
                    help="worker count for the executor-backend timing")
    ap.add_argument("--min-process-speedup", type=float, default=None, metavar="X",
                    help="fail if process speedup vs sync is below X — enforced "
                         "only when the host grants >= --workers effective "
                         "CPUs (quota-capped containers record, not gate)")
    ap.add_argument("--batch", type=int, nargs="?", const=8, default=0, metavar="N",
                    help="benchmark a CutEngine batch of N queries (default 8) "
                         "against a single cold query")
    ap.add_argument("--max-batch-ratio", type=float, default=3.0, metavar="R",
                    help="with --batch: fail if the amortized per-query wall "
                         "exceeds R x a single cold query (default 3.0)")
    ap.add_argument("--updates", type=int, nargs="?", const=12, default=0,
                    metavar="N",
                    help="benchmark N incremental engine.update() mutations "
                         "(default 12) against a cold rebuild per mutated "
                         "graph")
    ap.add_argument("--min-update-speedup", type=float, default=None, metavar="X",
                    help="with --updates: fail if cold-rebuild ledger work / "
                         "update ledger work falls below X (deterministic "
                         "work units, so enforced even on quota-capped hosts)")
    args = ap.parse_args()

    configs = _configs(args.small)
    experiments: dict = {}
    parity_ok = True

    for exp, label, n, m, seed, b in configs:
        g = random_connected_graph(n, m, rng=seed, max_weight=6)
        run = _run(g, _spanning_parent(g), b)
        experiments.setdefault(exp, {"configs": []})["configs"].append(
            {
                "label": label,
                "n": n,
                "m": m,
                "branching": b,
                "value": run["value"],
                "ledger": {"work": run["work"], "depth": run["depth"]},
                "wall_s": round(run["wall_s"], 4),
                "stages": run["stages"],
            }
        )
        print(f"[{exp}] {label}: {run['wall_s']:.3f}s "
              f"work {run['work']:.0f} depth {run['depth']:.0f}")

    report = {
        "generated_by": "scripts/bench_wallclock.py",
        "small": args.small,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "experiments": experiments,
    }
    # observability overhead: the densest E8 row is the representative
    # config (kernel-heavy, so per-site counter guards are exercised most)
    trace_config = max(
        (c for c in configs if c[0] == "E8_density"), key=lambda c: c[3]
    )
    trace_overhead = _time_trace_overhead(trace_config)
    report["trace_overhead"] = trace_overhead
    parity_ok &= trace_overhead["parity"]
    report["parity_ok"] = bool(parity_ok)
    print(f"trace overhead [{trace_overhead['label']}]: median of "
          f"{trace_overhead['reps']} pairs, "
          f"off {trace_overhead['untraced_wall_s']:.3f}s "
          f"on {trace_overhead['traced_wall_s']:.3f}s "
          f"({trace_overhead['overhead_ratio']:.3f}x, "
          f"IQR {trace_overhead['overhead_ratio_iqr']:.3f})")

    executors = None
    if not args.skip_executors:
        # fan the E8 sweep out under both executor backends (sync is
        # the T_1 baseline; branches are pure-Python bound, so only the
        # process pool can beat a single core)
        exec_configs = [c for c in configs if c[0] == "E8_density"]
        executors = _time_executors(exec_configs, workers=args.workers)
        report["executor_backends"] = executors
        report["brent_bound"] = _brent_bound(executors, args.workers)
        for backend in ("sync", "process"):
            entry = executors[backend]
            print(f"executor {backend}: {entry['wall_s']:.3f}s "
                  f"(dispatch {entry['dispatch_overhead_s']:.3f}s)")
        bb = report["brent_bound"]
        if "predicted_tp_s" in bb:
            print(f"brent bound: T_{args.workers} >= {bb['predicted_tp_s']:.3f}s "
                  f"(W={bb['work']:.0f}, D={bb['depth']:.0f}, "
                  f"p=min(workers, effective cpus {bb['effective_cpus']})="
                  f"{bb['p']})")
        if "process_speedup_vs_sync" in executors:
            print("process speedup vs sync: "
                  f"{executors['process_speedup_vs_sync']:.2f}x")
        from repro.pram.executor import shutdown_shared_pools

        shutdown_shared_pools()

    engine_batch = None
    if args.batch:
        # same representative row as the trace-overhead probe: the engine
        # amortization story only matters where preprocessing is heavy
        engine_batch = _time_engine_batch(trace_config, batch=args.batch)
        report["engine_batch"] = engine_batch
        parity_ok &= engine_batch["parity"]
        report["parity_ok"] = bool(parity_ok)
        print(f"engine batch [{engine_batch['label']}]: "
              f"cold {engine_batch['cold_wall_s']:.3f}s "
              f"batch/{engine_batch['batch']} {engine_batch['batch_wall_s']:.3f}s "
              f"(amortized {engine_batch['amortized_ratio']:.3f}x)")

    engine_updates = None
    if args.updates:
        # same representative row again: the incremental story is about
        # skipping heavy preprocessing, so measure it where that's heavy
        engine_updates = _time_engine_updates(trace_config, updates=args.updates)
        report["engine_updates"] = engine_updates
        parity_ok &= engine_updates["parity"]
        report["parity_ok"] = bool(parity_ok)
        print(f"engine updates [{engine_updates['label']}]: "
              f"{engine_updates['updates']} mutations, "
              f"update work {engine_updates['update_work']:.0f} vs cold "
              f"{engine_updates['cold_rebuild_work']:.0f} "
              f"({engine_updates['ratio_work']:.2f}x), "
              f"rebases {engine_updates['rebases']:.0f} "
              f"{engine_updates['rebase_events']}")

    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")

    if not parity_ok:
        print("FAIL: ledger/value parity violated", file=sys.stderr)
        return 1
    if (args.max_trace_overhead is not None
            and trace_overhead["overhead_ratio"] > args.max_trace_overhead):
        print(f"FAIL: trace overhead {trace_overhead['overhead_ratio']}x "
              f"> {args.max_trace_overhead}x", file=sys.stderr)
        return 1
    if (engine_batch is not None
            and engine_batch["amortized_ratio"] > args.max_batch_ratio):
        print(f"FAIL: engine batch amortized ratio "
              f"{engine_batch['amortized_ratio']}x > {args.max_batch_ratio}x",
              file=sys.stderr)
        return 1
    if (engine_updates is not None
            and args.min_update_speedup is not None
            and engine_updates["ratio_work"] < args.min_update_speedup):
        print(f"FAIL: engine update work ratio "
              f"{engine_updates['ratio_work']}x < {args.min_update_speedup}x",
              file=sys.stderr)
        return 1
    if args.min_process_speedup is not None and executors is not None:
        if not executors["process"]["parity"]:
            print("FAIL: executor backend values diverge from sync",
                  file=sys.stderr)
            return 1
        speedup = executors.get("process_speedup_vs_sync")
        cpus = effective_cpus()
        if speedup is None:
            print("NOTE: no process timing; speedup gate skipped")
        elif cpus < args.workers:
            print(f"NOTE: host grants {cpus:.1f} effective CPUs "
                  f"(< {args.workers} workers); measured process speedup "
                  f"{speedup}x recorded, gate not enforced")
        elif speedup < args.min_process_speedup:
            print(f"FAIL: process speedup vs sync {speedup}x "
                  f"< {args.min_process_speedup}x at {cpus:.1f} effective CPUs",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
