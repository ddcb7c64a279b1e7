"""``scripts/chaos_soak.py``: every fault site a driver-mode plan draws
is one a ``resilient_minimum_cut`` run really polls, so no draw is a
guaranteed no-op that dilutes the soak."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.errors import SimulatedCrash
from repro.graphs import random_connected_graph
from repro.resilience import resilient_minimum_cut
from repro.resilience.faults import Fault, FaultPlan, inject

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "chaos_soak.py"


def _load_soak():
    spec = importlib.util.spec_from_file_location("chaos_soak", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve through it
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("site", _load_soak().DRIVER_SITES)
def test_driver_site_fires(site, tmp_path):
    graph = random_connected_graph(20, 60, rng=3, max_weight=6)
    plan = FaultPlan(faults=(Fault(site=site),), name=site)
    with inject(plan):
        try:
            resilient_minimum_cut(graph, seed=0, checkpoint=str(tmp_path / "c.ckpt"))
        except SimulatedCrash:
            pass  # checkpoint.kill: the run dies right after the save
    assert plan.fired, f"{site} never fired in a driver run"
