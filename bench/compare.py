#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric, workload by workload.

Usage::

    python3 bench/compare.py PARENT_RESULTS CHANGE_RESULTS
    python3 bench/compare.py --spread RESULTS [RESULTS ...]

``*_RESULTS`` are files written by ``bench/run.py --out``.  Run the
parent and the change alternately (parent, change, parent, ...), so
the i-th untraced run of a workload on each side forms a pair.  For
every workload and end-to-end metric of ``BENCHMARK.json`` one row
shows each side's median and quartiles, the share of pairs the change
won (ties count for neither side) and a verdict:

* ``unresolved`` — either side's spread (IQR over median) exceeds the
  metric's bound, and the change neither beats nor loses to the parent
  on every run;
* ``regressed`` — the change's median is worse than the parent's by
  more than the bound;
* ``improved`` — at least 10 pairs, the change won at least 90% of
  them, and the medians differ by more than the parent's IQR;
* ``unchanged`` — otherwise.

The exit code is 1 when any row regressed.  ``--spread`` prints the
spread of each metric across one set of runs, which is what each bound
in ``BENCHMARK.json`` is derived from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from common import ROOT, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_series(path: Path) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` over the untraced, full-size runs
    of a results file, in run order."""
    series: Dict[Tuple[str, str], List[float]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"] or run["smoke"]:
            continue
        for name, m in run["metrics"].items():
            series.setdefault((run["workload"], name), []).append(m["value"])
    return series


def spread(values: List[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent: List[float], change: List[float], bound: float, better: str) -> dict:
    lower = better == "lower"

    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(beats(c, p) for p, c in pairs)
    worse_by = (c_med - p_med) / abs(p_med) * (1 if lower else -1)
    all_better = all(beats(c, p) for c in change for p in parent)
    all_worse = all(beats(p, c) for c in change for p in parent)
    noisy = max(spread(parent), spread(change)) > bound
    gained = (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and beats(c_med, p_med)
        and abs(c_med - p_med) > p_q3 - p_q1
    )
    if worse_by > bound and (all_worse or not noisy):
        result = "regressed"
    elif noisy and not all_better:
        result = "unresolved"
    elif gained:
        result = "improved"
    else:
        result = "unchanged"
    return {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "pairs": len(pairs),
        "won": wins / len(pairs) if pairs else 0.0,
        "verdict": result,
    }


def end_to_end(benchmark: Path) -> Dict[str, dict]:
    return {m["name"]: m for m in json.loads(benchmark.read_text())["end_to_end"]}


def compare(parent: Path, change: Path, benchmark: Path) -> List[dict]:
    metrics = end_to_end(benchmark)
    ps, cs = load_series(parent), load_series(change)
    rows = []
    for key in sorted(ps):
        workload, name = key
        if name not in metrics or key not in cs:
            continue
        m = metrics[name]
        row = verdict(ps[key], cs[key], m["bound"], m["better"])
        row.update(workload=workload, metric=name, unit=m["unit"], bound=m["bound"])
        rows.append(row)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", nargs="+", type=Path)
    ap.add_argument("--spread", action="store_true",
                    help="print each metric's spread across the given runs")
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)

    if args.spread:
        for path in args.results:
            for (workload, name), values in sorted(load_series(path).items()):
                print(f"{path.name} {workload} {name} n={len(values)} "
                      f"median={statistics.median(values):.6g} spread={spread(values):.4f}")
        return 0
    if len(args.results) != 2:
        ap.error("give PARENT_RESULTS and CHANGE_RESULTS")
    rows = compare(args.results[0], args.results[1], args.benchmark)
    print(f"{'workload':12} {'metric':16} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'won':>6}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"{r['workload']:12} {r['metric']:16} "
              f"{p[0]:>12.6g} [{p[1]:.6g}, {p[2]:.6g}] "
              f"{c[0]:>12.6g} [{c[1]:.6g}, {c[2]:.6g}] "
              f"{r['won']:>6.0%}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
