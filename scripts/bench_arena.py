#!/usr/bin/env python
"""The arena benchmark: every contender against every corpus graph.

Loads the corpus built by ``scripts/build_corpus.py`` (versioned
CRC-checked binaries, opened as read-only memmaps), runs the full
contender x instance matrix through :mod:`repro.arena`, and gates:

* **pairwise exactness** — every ``exact`` contender returns the
  bit-identical value on every instance it runs on;
* **montecarlo soundness** — contraction-based values never undershoot
  the exact answer (agreement rate is reported, not gated);
* **approx certificates** — ``lower_bound <= lambda <= value`` and
  ``value <= claimed_ratio * lambda`` for every ``approx`` contender;
* **binary round-trip** — re-serializing each corpus graph reproduces
  the file byte-for-byte;
* **mmap frugality** — loading the largest graph in a fresh subprocess
  adds less than 2x the raw column bytes of peak RSS.

Cells skipped for feasibility (the log^2 n Karger–Stein schedule on a
million-edge multigraph) are recorded in the output, never silently
dropped.  Writes ``BENCH_arena.json``; non-zero exit on any gate
failure.

Usage::

    PYTHONPATH=src python scripts/build_corpus.py --out corpus
    PYTHONPATH=src python scripts/bench_arena.py --corpus corpus
    PYTHONPATH=src python scripts/bench_arena.py --corpus corpus --smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro._version import __version__  # noqa: E402
from repro.arena import contender_names, get_contender  # noqa: E402
from repro.arena.contenders import KargerSteinContender  # noqa: E402
from repro.graphs.io import read_graph_binary, write_graph_binary  # noqa: E402

#: value tolerance for *inequality* gates (approx brackets, montecarlo
#: no-undershoot); the exact-agreement gate is == with no tolerance
_TOL = 1e-9

#: past either bound the default log^2 n Karger–Stein repetition
#: schedule is replaced by a 3-repetition run (recorded in the cell's
#: stats): the recursion tree alone is Theta(n^2) nodes, so vertex
#: count — not just edge count — decides feasibility
_KS_FULL_SCHEDULE_MAX_M = 50_000
_KS_FULL_SCHEDULE_MAX_N = 128

#: past this vertex count even a single repetition is infeasible in
#: Python (measured: 3 repetitions at n=2000 exceed 400s) — the cell
#: is skipped with an explicit reason
_KS_MAX_N = 1_000

#: the paper pipeline (its engine/resilient spellings, and the
#: Section 3 approximation it starts from) is super-linear in m and
#: takes tens of minutes past this; those cells are skipped with an
#: explicit reason rather than run open-endedly
_PIPELINE_MAX_M = 400_000
_PIPELINE_FAMILY = ("paper", "resilient", "approx-s3")


def _roundtrip_ok(path: Path, tmp: Path) -> bool:
    g = read_graph_binary(path)
    out = tmp / (path.name + ".rt")
    write_graph_binary(g, out)
    same = out.read_bytes() == path.read_bytes()
    out.unlink()
    return same


_RSS_PROBE = r"""
import sys

def rss_kib():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("no VmRSS")

sys.path.insert(0, sys.argv[2])
from repro.graphs.io import read_graph_binary

before = rss_kib()
g = read_graph_binary(sys.argv[1])   # CRC verify streams all columns
total = g.total_weight               # touch the weight column again
after = rss_kib()
print((after - before) * 1024, total)
"""


def _mmap_rss_delta(path: Path, src_dir: Path) -> tuple[int, float]:
    """Load ``path`` in a fresh interpreter; return (RSS delta bytes,
    total weight) so the load provably happened."""
    out = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, str(path), str(src_dir)],
        capture_output=True, text=True, check=True,
    )
    delta, total = out.stdout.split()
    return int(delta), float(total)


def run_matrix(
    manifest: dict, corpus_dir: Path, seed: int, *, smoke: bool = False
) -> tuple[list, list]:
    cells, skipped = [], []
    names = contender_names()
    for entry in manifest["graphs"]:
        path = corpus_dir / entry["file"]
        graph = read_graph_binary(path)
        for name in names:
            if name in _PIPELINE_FAMILY and entry["m"] > _PIPELINE_MAX_M:
                skipped.append({"graph": entry["name"], "contender": name,
                                "reason": "pipeline-size-cap"})
                continue
            if name == "karger-stein" and not smoke and entry["n"] > _KS_MAX_N:
                skipped.append({"graph": entry["name"], "contender": name,
                                "reason": "ks-recursion-cap"})
                continue
            contender = get_contender(name)
            if name == "karger-stein" and (
                smoke
                or entry["m"] > _KS_FULL_SCHEDULE_MAX_M
                or entry["n"] > _KS_FULL_SCHEDULE_MAX_N
            ):
                contender = KargerSteinContender(repetitions=3)
            if not contender.supports(graph):
                skipped.append({"graph": entry["name"], "contender": name,
                                "reason": "unsupported"})
                continue
            t = time.perf_counter()
            res = contender.solve(graph, seed=seed)
            cell = res.to_json()
            cell["graph"] = entry["name"]
            cells.append(cell)
            print(f"{entry['name']:22s} {name:14s} value={res.value:<14g} "
                  f"wall={time.perf_counter() - t:8.3f}s", flush=True)
    return cells, skipped


def gate_matrix(cells: list) -> tuple[dict, list]:
    """Cross-check the matrix; returns (gates summary, failures)."""
    failures = []
    by_graph: dict[str, list] = {}
    for cell in cells:
        by_graph.setdefault(cell["graph"], []).append(cell)

    agree_pairs = 0
    mc_hits = mc_total = 0
    approx_checked = 0
    for gname, group in by_graph.items():
        exact = [c for c in group if c["kind"] == "exact"]
        values = sorted({c["value"] for c in exact})
        if len(values) > 1:
            failures.append(
                f"{gname}: exact contenders disagree: "
                + ", ".join(f"{c['contender']}={c['value']!r}" for c in exact)
            )
            continue
        agree_pairs += len(exact) * (len(exact) - 1) // 2
        lam = values[0] if values else None
        if lam is None:
            continue
        for c in group:
            if c["kind"] == "montecarlo":
                mc_total += 1
                if c["value"] < lam - _TOL:
                    failures.append(
                        f"{gname}/{c['contender']}: montecarlo value "
                        f"{c['value']} undershoots lambda={lam}"
                    )
                elif abs(c["value"] - lam) <= _TOL:
                    mc_hits += 1
            elif c["kind"] == "approx":
                approx_checked += 1
                if c["lower_bound"] > lam + _TOL:
                    failures.append(
                        f"{gname}/{c['contender']}: lower_bound "
                        f"{c['lower_bound']} exceeds lambda={lam}"
                    )
                if c["value"] < lam - _TOL:
                    failures.append(
                        f"{gname}/{c['contender']}: approx value "
                        f"{c['value']} below lambda={lam}"
                    )
                if c["value"] > c["claimed_ratio"] * lam + _TOL:
                    failures.append(
                        f"{gname}/{c['contender']}: value {c['value']} breaks "
                        f"claimed ratio {c['claimed_ratio']} * lambda={lam}"
                    )
    gates = {
        "exact_pairwise_agreements": agree_pairs,
        "montecarlo_hit_rate": (mc_hits / mc_total) if mc_total else None,
        "approx_cells_checked": approx_checked,
    }
    return gates, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--corpus", type=Path, default=Path("corpus"))
    ap.add_argument("--output", type=Path, default=Path("BENCH_arena.json"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="CI mode: 3-repetition Karger–Stein everywhere and "
                         "no subprocess RSS probe (CI runners lie about "
                         "memory); all other gates still apply")
    args = ap.parse_args(argv)

    manifest = json.loads((args.corpus / "corpus.json").read_text())
    src_dir = Path(__file__).resolve().parent.parent / "src"

    roundtrip = {}
    for entry in manifest["graphs"]:
        roundtrip[entry["name"]] = _roundtrip_ok(
            args.corpus / entry["file"], args.corpus
        )

    cells, skipped = run_matrix(manifest, args.corpus, args.seed, smoke=args.smoke)
    gates, failures = gate_matrix(cells)
    for gname, ok in roundtrip.items():
        if not ok:
            failures.append(f"{gname}: binary round-trip not bit-identical")

    rss = None
    if not args.smoke:
        largest = max(manifest["graphs"], key=lambda e: e["m"])
        delta, total = _mmap_rss_delta(args.corpus / largest["file"], src_dir)
        rss = {
            "graph": largest["name"],
            "column_bytes": largest["column_bytes"],
            "rss_delta_bytes": delta,
            "total_weight": total,
            "limit_bytes": 2 * largest["column_bytes"],
        }
        if delta >= 2 * largest["column_bytes"]:
            failures.append(
                f"mmap load of {largest['name']} used {delta} bytes RSS "
                f">= 2x column bytes ({2 * largest['column_bytes']})"
            )

    report = {
        "version": __version__,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
        },
        "seed": args.seed,
        "smoke": bool(args.smoke),
        "corpus": manifest,
        "cells": cells,
        "skipped": skipped,
        "roundtrip_bit_identical": roundtrip,
        "mmap_rss": rss,
        "gates": gates,
        "failures": failures,
        "ok": not failures,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"cells {len(cells)}  skipped {len(skipped)}")
    print(f"gates {json.dumps(gates)}")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print(f"{'ok' if not failures else 'FAILED'} -> {args.output}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
