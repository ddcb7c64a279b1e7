"""Process-footprint guard: the runtime imports numpy and the stdlib only.

A cut, an engine update and the daemon/CLI modules must not pull in
scipy (~25 MiB resident, ~0.2 s of import time), and the default
``sync`` executor must not load ``multiprocessing``, which only the
``process`` backend's pool needs.  The resilient driver dispatches
nothing to the executor, so even under ``REPRO_EXECUTOR=process`` it
starts no pool.  Module loading is per-interpreter, so each check runs
in a fresh subprocess.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
import numpy as np
from repro import minimum_cut
from repro.engine import CutEngine
from repro.graphs import random_connected_graph

def loaded(*prefixes):
    return sorted(m for m in sys.modules if m.split(".")[0] in prefixes)

g = random_connected_graph(30, 90, rng=4, max_weight=5)
minimum_cut(g, rng=np.random.default_rng(0))
engine = CutEngine(g, seed=1)
engine.update(reweight={0: 2.0})
engine.min_cut()
cut_path = loaded("scipy", "multiprocessing")

import repro.cli, repro.durability, repro.serve.server
print(json.dumps({"cut_path": cut_path, "all": loaded("scipy")}))
"""


def test_runtime_loads_neither_scipy_nor_multiprocessing():
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_EXECUTOR="sync")
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    ).stdout
    mods = json.loads(out.strip().splitlines()[-1])
    assert mods["cut_path"] == [], mods["cut_path"]
    assert mods["all"] == [], mods["all"]


_RESILIENT_PROBE = """
import json, sys, tempfile
from repro.cli import main
from repro.graphs import random_connected_graph, write_edgelist
from repro.obs.counters import CounterRegistry, counting_scope
from repro.resilience import resilient_minimum_cut

g = random_connected_graph(30, 90, rng=4, max_weight=5)
registry = CounterRegistry()
with counting_scope(registry), tempfile.TemporaryDirectory() as tmp:
    resilient_minimum_cut(g, seed=0)
    write_edgelist(g, tmp + "/g.el")
    assert main(["cut", tmp + "/g.el", "--deadline", "30"]) == 0
print(json.dumps({
    "dispatches": registry.get("executor.dispatches"),
    "loaded": sorted(m for m in sys.modules if m.startswith("multiprocessing")),
}))
"""


def test_resilient_driver_starts_no_pool_under_process():
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_EXECUTOR="process")
    out = subprocess.run(
        [sys.executable, "-c", _RESILIENT_PROBE],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    ).stdout
    probe = json.loads(out.strip().splitlines()[-1])
    assert probe["loaded"] == [], probe["loaded"]
    assert probe["dispatches"] == 0.0


_SEARCH_PEAK_PROBE = """
import numpy as np
from repro import minimum_cut
from repro.graphs import random_connected_graph

def hwm_kib():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])

g = random_connected_graph(100, 2500, rng=0, max_weight=8)
before = hwm_kib()
minimum_cut(g, rng=np.random.default_rng(0))
print((hwm_kib() - before) / 1024.0)
"""

#: Peak resident growth (VmHWM, MiB) of the probe's one cut when the
#: packed trees were searched one at a time: 8.93-9.03 MiB over three
#: runs (Python 3.11, numpy 2.x, Linux).  The lockstep search holds a
#: group's stacked oracles at once (~0.9 MiB of arrays per tree) and
#: measured 10.0 MiB; searching all 24 trees at once measured 39.6 MiB.
_ONE_TREE_AT_A_TIME_GROWTH_MIB = 9.0


def test_lockstep_search_peak_memory():
    """One exact cut of an n = 100, m = 2500 graph grows the process's
    peak resident memory by at most 2.5 MiB more than the tree-by-tree
    search did: the lockstep groups stay memory-bounded."""
    if not os.path.exists("/proc/self/status"):
        import pytest

        pytest.skip("needs /proc/self/status (VmHWM)")
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_EXECUTOR="sync")
    out = subprocess.run(
        [sys.executable, "-c", _SEARCH_PEAK_PROBE],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    ).stdout
    growth = float(out.strip().splitlines()[-1])
    assert growth <= _ONE_TREE_AT_A_TIME_GROWTH_MIB + 2.5, growth
