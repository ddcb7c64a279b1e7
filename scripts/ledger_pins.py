#!/usr/bin/env python
"""Pin the ledger charges of whole minimum cuts.

Each case is one full ``minimum_cut`` run with fixed inputs:

* the six graphs of the ``cut-dense`` and ``cut-sparse`` workloads of
  ``bench/run.py`` at seed 0, cut as the benchmark cuts them;
* the smallest full-pipeline configuration of experiments E1, E3 and
  E11 (``benchmarks/``).

For each case the pin holds the cut value, a SHA-256 of the side mask,
whether the Section 3 stage was skipped, and the total work and depth
plus those of every top-level phase (``approximate``, ``packing``,
``two-respecting``).  Floats are stored as ``float.hex`` so a comparison
is exact.  ``tests/test_ledger_pins.py`` compares a fresh run against
``tests/data/ledger_pins.json``.

Usage::

    PYTHONPATH=src python scripts/ledger_pins.py            # rewrite the pins
    PYTHONPATH=src python scripts/ledger_pins.py --check    # list the cases that moved

``--check`` exits 1 when any case moved.  A change that moves a pin
lists the moved cases and reruns ``scripts/run_experiments.py``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import zlib
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "data" / "ledger_pins.json"

#: the phases an exact cut opens at the top level
TOP_PHASES = ("approximate", "packing", "two-respecting")


@functools.lru_cache(maxsize=None)
def _workload_graphs(name: str, kind: str, args: tuple) -> tuple:
    """The three graphs ``bench/workloads.py`` builds for workload
    ``name`` at seed 0: one generator seeded from the name, drawn in
    order."""
    from repro.graphs.generators import grid_graph, random_connected_graph

    rng = np.random.default_rng([0, zlib.crc32(name.encode())])
    if kind == "random":
        n, m, w = args
        return tuple(random_connected_graph(n, m, rng=rng, max_weight=w) for _ in range(3))
    rows, cols, w = args
    return tuple(grid_graph(rows, cols, rng=rng, max_weight=w) for _ in range(3))


def cases() -> Dict[str, Tuple[Callable, dict]]:
    """Case name -> (graph builder, ``minimum_cut`` keyword arguments)."""
    from repro.graphs import random_connected_graph

    out: Dict[str, Tuple[Callable, dict]] = {}
    for workload, kind, args in (
        ("cut-dense", "random", (100, 2500, 8)),
        ("cut-sparse", "grid", (14, 14, 5)),
    ):
        for i in range(3):
            out[f"{workload}/g{i}"] = (
                lambda w=(workload, kind, args), i=i: _workload_graphs(*w)[i],
                {"seed": 0},
            )
    # benchmarks/bench_table1_work.py, n = 96
    out["E1/n96"] = (
        lambda: random_connected_graph(96, int(round(96**1.5)), rng=96, max_weight=8),
        {"seed": 1},
    )
    # benchmarks/bench_depth_scaling.py, n = 64
    out["E3/n64"] = (
        lambda: random_connected_graph(64, 256, rng=67, max_weight=7),
        {"seed": 0},
    )
    # benchmarks/bench_dense_optimal.py, the fastest epsilon
    out["E11/eps0.25"] = (
        lambda: random_connected_graph(300, 30000, rng=13, max_weight=6),
        {"seed": 7, "epsilon": 0.25},
    )
    return out


def measure(name: str) -> dict:
    """Run case ``name`` and return its pin record."""
    from repro import minimum_cut
    from repro.pram.ledger import Ledger

    build, kwargs = cases()[name]
    kwargs = dict(kwargs)
    rng = np.random.default_rng(kwargs.pop("seed"))
    ledger = Ledger()
    res = minimum_cut(build(), rng=rng, ledger=ledger, **kwargs)
    phases = ledger.phases
    return {
        "value": float(res.value).hex(),
        "side_sha256": hashlib.sha256(
            np.asarray(res.side, dtype=bool).tobytes()
        ).hexdigest(),
        "approx_skipped": bool(res.stats["approx_skipped"]),
        "work": float(ledger.work).hex(),
        "depth": float(ledger.depth).hex(),
        "phases": {
            p: [float(phases[p].work).hex(), float(phases[p].depth).hex()]
            for p in TOP_PHASES
        },
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the pins instead of rewriting them")
    parser.add_argument("--out", type=Path, default=PINS)
    args = parser.parse_args(argv)
    fresh = {name: measure(name) for name in cases()}
    if args.check:
        pinned = json.loads(args.out.read_text())
        moved = sorted(n for n in fresh if pinned.get(n) != fresh[n])
        for name in moved:
            print(f"moved {name}")
        print(f"{len(moved)} of {len(fresh)} cases moved")
        return 1 if moved else 0
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out} ({len(fresh)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
