#!/usr/bin/env python
"""Build the arena benchmark corpus: versioned binary graph files.

Generates a fixed, seeded family of instances spanning the regimes the
paper cares about (sparse random, non-sparse random, planted cuts,
structured, unweighted simple, and one dense multigraph with more than
a million edges), writes each as a ``.rpg`` binary
(:func:`repro.graphs.write_graph_binary`), and records a
``corpus.json`` manifest with per-instance metadata (n, m, weighted,
column bytes, CRC-carrying header verified on read).

``python -m repro arena FILE`` runs the contenders on any of the
files.  Everything is deterministic: same seed, bit-identical corpus.

Usage::

    PYTHONPATH=src python scripts/build_corpus.py --out corpus
    PYTHONPATH=src python scripts/build_corpus.py --out corpus --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.graphs import Graph  # noqa: E402
from repro.graphs.generators import (  # noqa: E402
    barbell_graph,
    grid_graph,
    planted_cut_graph,
    random_connected_graph,
)
from repro.graphs.io import graph_binary_info, write_graph_binary  # noqa: E402


def dense_multigraph(n: int, m: int, *, rng: np.random.Generator) -> Graph:
    """A dense weighted multigraph: m random edges over n vertices.

    Parallel edges are left to :class:`Graph`'s coalescing; with
    m >> n^2 the result stays near-complete with heavy integer
    weights — the non-sparse regime the paper targets, at small n so
    the O(n^3) exact anchor stays feasible.
    """
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    keep = u != v
    u, v = u[keep], v[keep]
    w = rng.integers(1, 5, size=u.size).astype(np.float64)
    # pad back to exactly m edges with ring edges (always valid)
    short = m - u.size
    if short > 0:
        ring = np.arange(short, dtype=np.int64)
        u = np.concatenate([u, ring % n])
        v = np.concatenate([v, (ring + 1) % n])
        w = np.concatenate([w, np.ones(short)])
    return Graph(n, u, v, w)


def unweighted_simple(n: int, p: float, *, rng: np.random.Generator) -> Graph:
    """Connected G(n, p) with unit weights (for the 2-out contender)."""
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    u, v = iu[keep], iv[keep]
    ring = np.arange(n, dtype=np.int64)
    u = np.concatenate([u, ring])
    v = np.concatenate([v, (ring + 1) % n])
    pairs = np.unique(np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1), axis=0)
    return Graph(n, pairs[:, 0], pairs[:, 1], np.ones(pairs.shape[0]))


def corpus_spec(smoke: bool):
    """(name, builder) pairs; builders take a Generator and return a Graph."""
    if smoke:
        return [
            ("sparse-small", lambda rng: random_connected_graph(
                60, 180, rng=rng, max_weight=6)),
            ("dense-small", lambda rng: random_connected_graph(
                40, 500, rng=rng, max_weight=4)),
            ("planted-small", lambda rng: planted_cut_graph(
                24, 24, 3.0, cut_edges=3, rng=rng)),
            ("grid-small", lambda rng: grid_graph(8, 8, rng=rng, max_weight=3)),
            ("unweighted-small", lambda rng: unweighted_simple(32, 0.2, rng=rng)),
            ("multigraph-small", lambda rng: dense_multigraph(30, 4000, rng=rng)),
        ]
    return [
        ("sparse-random", lambda rng: random_connected_graph(
            2000, 8000, rng=rng, max_weight=8)),
        ("nonsparse-random", lambda rng: random_connected_graph(
            300, 20000, rng=rng, max_weight=8)),
        ("planted-cut", lambda rng: planted_cut_graph(
            150, 150, 6.0, cut_edges=6, rng=rng)),
        ("grid", lambda rng: grid_graph(45, 45, rng=rng, max_weight=5)),
        ("barbell", lambda rng: barbell_graph(80, 2.0)),
        ("unweighted-gnp", lambda rng: unweighted_simple(120, 0.15, rng=rng)),
        ("dense-multigraph-1m", lambda rng: dense_multigraph(
            600, 1_050_000, rng=rng)),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("corpus"),
                    help="output directory for .rpg files + corpus.json")
    ap.add_argument("--seed", type=int, default=2021)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny corpus for CI (seconds, not minutes)")
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    manifest = {"seed": args.seed, "smoke": args.smoke, "graphs": []}
    for name, build in corpus_spec(args.smoke):
        rng = np.random.default_rng([args.seed, zlib.crc32(name.encode())])
        g = build(rng)
        path = args.out / f"{name}.rpg"
        write_graph_binary(g, path)
        info = graph_binary_info(path)
        entry = {
            "name": name,
            "file": path.name,
            "n": info["n"],
            "m": info["m"],
            "weighted": bool(np.any(g.w != 1.0)),
            "column_bytes": info["column_bytes"],
            "file_bytes": info["file_bytes"],
        }
        manifest["graphs"].append(entry)
        print(f"{name}: n={entry['n']} m={entry['m']} "
              f"({entry['file_bytes']} bytes)")
    (args.out / "corpus.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"manifest {args.out / 'corpus.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
