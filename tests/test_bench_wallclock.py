"""``scripts/bench_wallclock.py``: the Brent projection it reports."""

import pytest

from tests.conftest import load_script


@pytest.fixture(scope="module")
def bench_wallclock():
    return load_script("bench_wallclock")


def _executors():
    return {
        "sync": {"wall_s": 2.0},
        "process": {"wall_s": 2.2},
        "ledger": {"work": 1000.0, "depth": 10.0},
    }


def test_brent_bound_divides_by_effective_cpus_not_workers(
    bench_wallclock, monkeypatch
):
    monkeypatch.setattr(bench_wallclock, "effective_cpus", lambda: 1.0)
    bb = bench_wallclock._brent_bound(_executors(), workers=4)
    # one CPU: T_p = s * (W / 1 + D) with s = T_1 / W
    assert bb["p"] == 1.0 and bb["workers"] == 4
    assert bb["predicted_tp_s"] == pytest.approx(2.0 * (1000.0 + 10.0) / 1000.0)
    assert bb["achieved"]["process"]["ratio_to_bound"] == pytest.approx(2.2 / 2.02, abs=1e-3)


def test_brent_bound_caps_p_at_workers(bench_wallclock, monkeypatch):
    monkeypatch.setattr(bench_wallclock, "effective_cpus", lambda: 16.0)
    bb = bench_wallclock._brent_bound(_executors(), workers=4)
    assert bb["p"] == 4.0
    assert bb["predicted_tp_s"] == pytest.approx(2.0 * (1000.0 / 4 + 10.0) / 1000.0)


def test_brent_bound_needs_a_sync_baseline(bench_wallclock):
    assert "skipped" in bench_wallclock._brent_bound({"ledger": {}}, workers=2)
