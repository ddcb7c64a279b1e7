#!/usr/bin/env python3
"""The repository benchmark: four workloads, timed end to end and per layer.

Usage::

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke] [--out RESULTS.json]

One workload prints each of its metrics as ``workload metric value
unit`` and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of :data:`E2E`; ``--trace 1`` reruns the workload
with the layer wrappers of ``bench/layers.py`` installed and reports
the per-layer metrics instead.  Without ``--workload`` (or with
``all``) every workload runs in its own child process; with
``--trace 1`` each runs untraced first, so the tracing overhead prints
beside it.  ``--out`` appends each run's full record (host, validity,
quartiles, sample counts, per-op details) to a results file that
``bench/compare.py`` reads.

The exit code is 1 when any answer was wrong or any request failed,
and 2 when the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from common import (
    BENCH, CACHE, MIN_OP_SAMPLES, ROOT, child_env, host_record, last_json_line,
    now, p90, quartiles, require_source, run_child,
)

#: end-to-end metrics: every workload reports each of them
E2E: Dict[str, str] = {
    "setup_s": "s",
    "answer_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: the op whose round trip is the workload's answer
ANSWER_OP = {"serve-read": "min_cut", "serve-write": "update"}

RUN_SECONDS = 20
SETUPS = 3
CHILD_TIMEOUT_S = 170


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------
def run_cut(workload, inputs, *, seed: int, seconds: float, setups: int, trace: bool) -> dict:
    """``setups`` child processes in turn, each importing, loading every
    graph and cutting one once to warm up (its set-up), then timing cuts
    round-robin over the graphs for an equal share of ``seconds``.

    The answer time is each graph's fastest cut of the run, averaged
    over the graphs: a shared host's speed can drift by up to 1.5x for a
    minute at a time, which moves a median but rarely every cut of a
    graph (best-of-N, as ``timeit`` reports), and several graphs keep
    one graph's shape from deciding the run."""
    setup_s, cuts, rss, failures, windows = [], [], [], [], []
    totals, counters = {}, {}
    paths = [str(inputs.path(name)) for name in inputs.names]
    for k in range(setups):
        first = k % len(paths)
        t0 = now()
        res = run_child(
            [sys.executable, str(BENCH / "cut_child.py"), *paths, "--first", str(first),
             "--seed", str(seed), "--seconds", repr(seconds / setups),
             "--trace", str(int(trace))],
            CHILD_TIMEOUT_S,
        )
        setup_s.append(res["ready"] - t0)
        for g, value in [(first, res["warm_value"])] + [(c["graph"], c["value"]) for c in res["cuts"]]:
            reference = inputs.reference[inputs.names[g]]
            if value != reference:
                failures.append(f"cut of {inputs.names[g]}: value {value} != Stoer-Wagner {reference}")
        cuts += res["cuts"]
        rss.append(res["rss_mb"])
        windows.append(res["window"][1] - res["window"][0])
        if trace:
            import layers

            layers.merge(totals, res["layers"])
            layers.merge(counters, res["counters"])
    best = [min(c["ms"] for c in cuts if c["graph"] == g) for g in sorted({c["graph"] for c in cuts})]
    out = {
        "setup_s": setup_s,
        "samples": {"cut": [c["ms"] for c in cuts]},
        "answer": (statistics.mean(best), best),
        "attempted": len(cuts) + setups,
        "failures": failures,
        "throughput_rps": len(cuts) / sum(windows),
        "rss_mb": statistics.median(rss),
        "work": [c["work"] for c in cuts],
        "depth": [c["depth"] for c in cuts],
        "work_per_mlogn": [c["work"] / c["m_log_n"] for c in cuts],
    }
    if trace:
        out["layers"], out["counters"] = totals, counters
    return out


def metric(value: float, unit: str, values: List[float]) -> dict:
    q1, _, q3 = quartiles(values)
    return {"value": value, "unit": unit, "samples": len(values), "q1": q1, "q3": q3}


def measure(name: str, *, seed: int, seconds: float, trace: bool, smoke: bool,
            cache: Path) -> dict:
    """Run one workload and build its result record."""
    import workloads

    workload = workloads.WORKLOADS[name]
    host = host_record(seed)
    inputs = workloads.prepare(workload, seed, smoke, cache)
    setups = 1 if smoke else SETUPS
    if workload.kind == "cut":
        raw = run_cut(workload, inputs, seed=seed, seconds=0.0 if smoke else seconds,
                      setups=setups, trace=trace)
        answers = raw["samples"]["cut"]
        answer_ms, answer_samples = raw["answer"]
    else:
        import loadgen

        raw = loadgen.run_serve(workload, inputs, seed=seed, seconds=seconds,
                                setups=setups, trace=trace)
        answers = answer_samples = raw["samples"][ANSWER_OP[name]]
        answer_ms = statistics.median(answers) if answers else 0.0
    host["loadavg_end"] = os.getloadavg()[0]

    details: Dict[str, dict] = {}
    for op, ms in raw["samples"].items():
        if ms:
            details[f"{op}_p50_ms"] = metric(statistics.median(ms), "ms", ms)
            details[f"{op}_p90_ms"] = metric(p90(ms), "ms", ms)
    details["throughput_rps"] = metric(raw["throughput_rps"], "1/s", [raw["throughput_rps"]])
    if "work" in raw:
        for key, unit in (("work", "count"), ("depth", "count"), ("work_per_mlogn", "ratio")):
            details[f"cut_{key}"] = metric(statistics.median(raw[key]), unit, raw[key])

    failures = raw["failures"]
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "seconds": seconds,
        "shape": inputs.shape,
        "correct": not failures and bool(answers),
        "attempted": raw["attempted"],
        "failed": len(failures),
        "failures": failures[:20],
        "host": host,
        "details": details,
    }
    if trace:
        import layers

        client_mean = {op: sum(ms) / len(ms) for op, ms in raw["samples"].items() if ms}
        ledger = {}
        if "work" in raw:
            ledger = {
                key: details[f"cut_{key}"]["value"]
                for key in ("work", "depth", "work_per_mlogn")
            }
        values = layers.layer_metrics(
            raw["layers"], raw["counters"], sum(map(len, raw["samples"].values())),
            answer_ms=answer_ms,
            answer_mean_ms=statistics.mean(answers) if answers else 0.0,
            client_mean_ms=client_mean, queue_waits=raw.get("queue_waits", []),
            ledger=ledger, library=workload.kind == "cut",
        )
        record["metrics"] = {
            k: {"value": v, "unit": layers.LAYER_METRICS[k]} for k, v in values.items()
        }
    else:
        record["metrics"] = {
            "setup_s": metric(statistics.median(raw["setup_s"]), E2E["setup_s"], raw["setup_s"]),
            "answer_ms": metric(answer_ms, E2E["answer_ms"], answer_samples),
            "peak_rss_mb": metric(raw["rss_mb"], E2E["peak_rss_mb"], [raw["rss_mb"]]),
        }
    reasons = []
    if workload.kind == "serve":
        for op, ms in raw["samples"].items():
            if len(ms) < MIN_OP_SAMPLES:
                reasons.append(f"{op} has {len(ms)} samples, fewer than {MIN_OP_SAMPLES}")
    for key in ("loadavg_start", "loadavg_end"):
        if host[key] > host["nproc"]:
            reasons.append(f"{key} {host[key]:.2f} exceeded nproc {host['nproc']}")
    record["valid"] = not reasons
    record["invalid_reasons"] = reasons
    return record


def contract_line(record: dict) -> dict:
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()
        },
    }


def print_record(record: dict) -> None:
    w = record["workload"]
    for name, m in record["metrics"].items():
        print(f"{w} {name} {m['value']:.6g} {m['unit']}")
    for name, m in record["details"].items():
        print(f"{w} detail.{name} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    if not record["valid"]:
        print(f"{w} invalid: {'; '.join(record['invalid_reasons'])}")
    for line in record["failures"]:
        print(f"{w} FAILED {line}", file=sys.stderr)


def append_result(path: Path, record: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    data["runs"].append(record)
    path.write_text(json.dumps(data, indent=1) + "\n")


# ---------------------------------------------------------------------------
# every workload, each in its own process
# ---------------------------------------------------------------------------
def run_all(args) -> int:
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    traced_modes = [0, 1] if args.trace else [0]
    for name in workloads.WORKLOADS:
        results = {}
        for trace in traced_modes:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", repr(args.seconds),
                   "--trace", str(trace), "--cache", str(args.cache)]
            if args.smoke:
                cmd.append("--smoke")
            if args.out:
                cmd += ["--out", str(args.out)]
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            try:
                result = last_json_line(proc.stdout)
            except ValueError:
                print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
                return proc.returncode or 1
            results[trace] = result
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for k, m in result["metrics"].items():
                combined["metrics"][f"{name}.{k}"] = m
        if 1 in results:
            base = results[0]["metrics"]["answer_ms"]["value"]
            traced = results[1]["metrics"]["trace.answer_ms"]["value"]
            print(f"{name} trace_overhead {traced / base:.4f} ratio")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, one timed cut, one set-up, 5 s serve windows")
    ap.add_argument("--out", type=Path, default=None,
                    help="append each run's record to this results file")
    ap.add_argument("--cache", type=Path, default=CACHE,
                    help="directory of generated inputs and their reference values")
    args = ap.parse_args(argv)
    require_source()
    if args.smoke:
        args.seconds = min(args.seconds, 5.0)
    if args.workload == "all":
        return run_all(args)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    record = measure(args.workload, seed=args.seed, seconds=args.seconds,
                     trace=bool(args.trace), smoke=args.smoke, cache=args.cache)
    print_record(record)
    if args.out:
        append_result(args.out, record)
    print(json.dumps(contract_line(record)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
