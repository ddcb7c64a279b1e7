"""Self-test of the benchmark (``pytest bench -q``, under two minutes).

It runs every workload in smoke mode, untraced and traced, and checks
the emitted metrics against ``BENCHMARK.json``; checks that a wrong
reference value fails the run; and unit-tests the comparison rules of
``compare.py`` on synthetic results.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
from common import BENCH, ROOT, child_env, last_json_line, p90

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def smoke_records(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("smoke")
    out = tmp / "results.json"
    proc = _run(["--smoke", "--trace", "1", "--out", str(out), "--cache", str(tmp / "cache")],
                timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert last_json_line(proc.stdout)["correct"] is True
    return json.loads(out.read_text())["runs"]


def test_benchmark_json_matches_the_runner():
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]
    assert BENCHMARK["run_seconds"] == run.RUN_SECONDS
    import workloads

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E
    import layers

    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.LAYER_METRICS
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_declared_metric_is_emitted_with_its_unit(smoke_records):
    declared = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    seen = set()
    for record in smoke_records:
        assert record["correct"], record["failures"]
        emitted = {k: m["unit"] for k, m in record["metrics"].items()}
        assert emitted == declared[record["trace"]], record["workload"]
        seen.add((record["workload"], record["trace"]))
        if record["trace"] == 0:
            assert all(m["value"] > 0 for m in record["metrics"].values())
    assert seen == {(w["name"], t) for w in BENCHMARK["workloads"] for t in (0, 1)}


def test_stage_spans_cover_the_traced_cut(smoke_records):
    for record in smoke_records:
        if record["trace"] and record["workload"].startswith("cut-"):
            assert record["metrics"]["stage.coverage"]["value"] >= 0.95


def test_a_wrong_reference_value_fails_the_run(tmp_path):
    cache = tmp_path / "cache"
    assert _run(["--workload", "cut-sparse", "--smoke", "--cache", str(cache)]).returncode == 0
    (ref,) = cache.glob("cut-sparse-*/reference.json")
    meta = json.loads(ref.read_text())
    meta["reference"]["g0"] += 1.0
    ref.write_text(json.dumps(meta))
    proc = _run(["--workload", "cut-sparse", "--smoke", "--cache", str(cache)])
    assert proc.returncode == 1
    result = last_json_line(proc.stdout)
    assert result["correct"] is False and result["failed"] >= 1


def test_without_the_source_tree_the_runner_refuses(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    proc = _run(["--workload", "cut-dense", "--smoke"], cwd=tmp_path, timeout=60)
    assert proc.returncode == 2
    assert "{" not in proc.stdout


def test_p90_leaves_ten_samples_above():
    values = list(range(1, 101))
    assert sum(v > p90(values) for v in values) == 10


# ---------------------------------------------------------------------------
# compare.py on synthetic results
# ---------------------------------------------------------------------------
PARENT = [100.0 + 0.5 * (i % 5) for i in range(10)]


@pytest.mark.parametrize(
    "change, better, expected",
    [
        ([80.0 + 0.5 * (i % 5) for i in range(10)], "lower", "improved"),
        ([130.0 + 0.5 * (i % 5) for i in range(10)], "lower", "regressed"),
        ([100.0 + 0.5 * ((i + 2) % 5) for i in range(10)], "lower", "unchanged"),
        ([80.0 + 0.5 * (i % 5) for i in range(10)], "higher", "regressed"),
        ([80.0 + 0.5 * (i % 5) for i in range(9)], "lower", "unchanged"),  # too few pairs
        ([60.0, 140.0] * 5, "lower", "unresolved"),
    ],
)
def test_verdicts(change, better, expected):
    assert compare.verdict(PARENT, change, 0.1, better)["verdict"] == expected


def test_a_gain_needs_nine_tenths_of_the_pairs():
    change = [95.0] * 8 + [110.0, 110.0]
    row = compare.verdict(PARENT, change, 0.1, "lower")
    assert row["won"] == 0.8 and row["verdict"] == "unchanged"


def _results(path, values):
    runs = [
        {"workload": "cut-dense", "trace": 0, "smoke": False,
         "metrics": {"answer_ms": {"value": v, "unit": "ms"}}}
        for v in values
    ]
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_exits_nonzero_on_a_regression(tmp_path, capsys):
    parent = _results(tmp_path / "parent.json", PARENT)
    worse = _results(tmp_path / "worse.json", [v * 1.5 for v in PARENT])
    same = _results(tmp_path / "same.json", PARENT)
    assert compare.main([str(parent), str(worse)]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([str(parent), str(same)]) == 0
