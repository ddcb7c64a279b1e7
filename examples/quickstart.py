"""Quickstart: compute an exact minimum cut and inspect the result.

Run:  python examples/quickstart.py [--deadline SECONDS]

With ``--deadline`` the run goes through the resilient driver
(:func:`repro.resilient_minimum_cut`): a wall-clock budget, verified
retries, and a Stoer–Wagner fallback — the result then also reports its
provenance (attempts / fallback / verification).
"""

import argparse

import numpy as np

from repro import Ledger, minimum_cut
from repro.arena.solvers import stoer_wagner
from repro.graphs import random_connected_graph


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; routes through the resilient driver",
    )
    args = parser.parse_args(argv)

    # A reproducible random weighted graph: 200 vertices, ~800 edges.
    graph = random_connected_graph(200, 800, rng=7, max_weight=10)
    print(f"input: {graph}")

    # The paper's algorithm.  Passing a Ledger records the PRAM-style
    # work/depth accounting of every stage.
    ledger = Ledger()
    if args.deadline is not None:
        from repro import resilient_minimum_cut

        result = resilient_minimum_cut(
            graph, deadline=args.deadline, seed=0, ledger=ledger
        )
        print(f"attempts          : {result.attempts}")
        print(f"fallback          : {result.fallback_used or 'none'}")
        print(f"verification      : {result.verification}")
    else:
        result = minimum_cut(graph, rng=np.random.default_rng(0), ledger=ledger)

    left, right = result.partition()
    print(f"minimum cut value : {result.value}")
    print(f"partition sizes   : {len(left)} | {len(right)}")
    print(f"witness tree edges: {result.witness_edges}")
    if "num_trees" in result.stats:
        print(f"candidate trees   : {int(result.stats['num_trees'])}")
    print(f"total work        : {ledger.work:.3g}")
    print(f"total depth       : {ledger.depth:.3g}")

    # Sanity: the reported side mask really has that cut value, and the
    # sequential baseline agrees.
    assert abs(graph.cut_value(result.side) - result.value) < 1e-9
    baseline = stoer_wagner(graph)
    assert abs(baseline.value - result.value) < 1e-9
    print("verified against Stoer-Wagner ✓")


if __name__ == "__main__":
    main()
