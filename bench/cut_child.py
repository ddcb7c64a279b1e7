"""One cut-workload process: import, load the graphs, warm up, then time
exact minimum cuts for a slice of the run.

Usage (the runner starts it; the graphs come from the input cache)::

    python bench/cut_child.py G0.rpg G1.rpg ... --first K --seed N --seconds S --trace 0|1

Set-up is the import, every graph load and one warm-up cut of graph
``K``.  The timed cuts then cycle through the graphs starting at ``K``.
Prints one JSON line: the monotonic stamp at which set-up ended, each
timed cut's graph, wall time, value, ledger work and depth, the window
the cuts ran in, peak RSS and, when traced, the additive layer totals.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from common import now, peak_rss_mb


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("graphs", nargs="+")
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import numpy as np

    import repro.graphs.io
    from repro import obs
    from repro.core.mincut import minimum_cut  # bound before the wrappers go in
    from repro.pram.ledger import Ledger

    import layers

    ledger = Ledger()
    recorder = None
    registry = obs.CounterRegistry()
    if args.trace:
        recorder = layers.Recorder(ledger).install(layers.PIPELINE_TARGETS)

    graphs = [repro.graphs.io.read_graph_binary(path) for path in args.graphs]
    warm = minimum_cut(graphs[args.first], rng=np.random.default_rng(args.seed))
    ready = now()

    cuts = []
    start = now()
    with obs.counting_scope(registry) if args.trace else contextlib.nullcontext():
        for i in range(args.first, sys.maxsize):
            k = i % len(graphs)
            snap = ledger.snapshot()
            t0 = now()
            res = minimum_cut(graphs[k], rng=np.random.default_rng(args.seed), ledger=ledger)
            t1 = now()
            work, depth = ledger.since(snap)
            cuts.append({
                "graph": k, "ms": 1000.0 * (t1 - t0), "value": res.value,
                "work": work, "depth": depth,
                "m_log_n": graphs[k].m * math.log2(graphs[k].n),
            })
            if t1 - start >= args.seconds:
                break
    end = now()

    out = {
        "ready": ready,
        "warm_value": warm.value,
        "cuts": cuts,
        "window": [start, end],
        "rss_mb": peak_rss_mb(),
    }
    if recorder is not None:
        recorder.restore()
        counters = registry.snapshot()
        out["layers"] = layers.layer_totals(recorder.spans, (start, end))
        out["counters"] = {k: counters.get(k, 0.0) for k in layers.COUNTERS}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
