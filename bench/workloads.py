"""The four workloads: their inputs, and why each exists.

Inputs derive only from ``--seed``.  Each workload's graphs are written
once as ``.rpg`` files under ``bench/.cache/`` together with their
Stoer–Wagner minimum cuts; generating and solving them is never timed,
and a later run with the same seed reuses them.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from common import CACHE


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cut" (library call in a child) or "serve" (daemon + clients)
    why: str
    #: (full, smoke) input shapes: graph-builder name and its arguments
    full: Tuple[str, tuple]
    smoke: Tuple[str, tuple]
    graphs: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cut-dense",
            "cut",
            "m ~ n^1.66, the paper's non-sparse regime: the Section 3 "
            "approximation takes about half of each exact cut",
            ("random", (100, 2500, 8)),
            ("random", (40, 300, 8)),
            graphs=3,
        ),
        Workload(
            "cut-sparse",
            "cut",
            "a grid's long tree paths put ~70% of each cut in the "
            "2-respecting search and ~20% in the approximation",
            ("grid", (14, 14, 5)),
            ("grid", (6, 6, 5)),
            graphs=3,
        ),
        Workload(
            "serve-read",
            "serve",
            "warm daemon, 50% min_cut / 50% zero-delta update: the "
            "per-tree search, result memo and per-graph lock; no approximation",
            ("random", (24, 96, 1)),
            ("random", (12, 40, 1)),
            graphs=4,
        ),
        Workload(
            "serve-write",
            "serve",
            "durable daemon (fsync always): verified random updates on 2 "
            "graphs beside min_cut reads on 4, with rebases and evictions",
            ("random", (14, 56, 1)),
            ("random", (12, 40, 1)),
            graphs=4,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """One workload's generated graphs and their exact minimum cuts."""

    directory: Path
    names: List[str]
    reference: Dict[str, float]
    shape: Dict[str, int]

    def path(self, name: str) -> Path:
        return self.directory / f"{name}.rpg"


def _builder(kind: str) -> Callable:
    from repro.graphs.generators import grid_graph, random_connected_graph

    if kind == "random":
        return lambda rng, n, m, w: random_connected_graph(n, m, rng=rng, max_weight=w)
    return lambda rng, rows, cols, w: grid_graph(rows, cols, rng=rng, max_weight=w)


def prepare(workload: Workload, seed: int, smoke: bool, cache: Path = CACHE) -> Inputs:
    """Generate (or reuse) the workload's graphs and reference values."""
    import numpy as np

    from repro.arena.solvers.stoer_wagner import stoer_wagner
    from repro.graphs.io import write_graph_binary

    kind, args = workload.smoke if smoke else workload.full
    shape_tag = "x".join(str(a) for a in args)
    directory = cache / f"{workload.name}-{workload.graphs}x{kind}{shape_tag}-s{seed}"
    names = [f"g{i}" for i in range(workload.graphs)]
    if not (directory / "reference.json").is_file():
        rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
        tmp = directory.with_name(directory.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        reference, shape = {}, {}
        for name in names:
            graph = _builder(kind)(rng, *args)
            write_graph_binary(graph, tmp / f"{name}.rpg")
            reference[name] = stoer_wagner(graph).value
            shape = {"n": graph.n, "m": graph.m}
        (tmp / "reference.json").write_text(
            json.dumps({"reference": reference, "shape": shape, "args": list(args)})
        )
        try:
            os.replace(tmp, directory)
        except OSError:  # another run filled the cache first
            shutil.rmtree(tmp, ignore_errors=True)
    meta = json.loads((directory / "reference.json").read_text())
    return Inputs(directory, names, meta["reference"], meta["shape"])
