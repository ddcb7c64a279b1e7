"""End-to-end integration scenarios, including the bundled examples."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Graph, Ledger, minimum_cut
from repro.approx import approximate_minimum_cut
from repro.arena.solvers import stoer_wagner
from repro.graphs import (
    community_graph,
    random_connected_graph,
    read_edgelist,
    reliability_network,
    write_edgelist,
)
from repro.pram import parallel_map, speedup_curve
from repro.sparsify import HierarchyParams

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestPipelines:
    def test_file_roundtrip_pipeline(self, tmp_path):
        """Generate -> persist -> reload -> cut -> verify."""
        g = random_connected_graph(40, 160, rng=5, max_weight=6)
        path = tmp_path / "net.el"
        write_edgelist(g, path)
        g2 = read_edgelist(path)
        res = minimum_cut(g2, rng=np.random.default_rng(0))
        assert res.value == pytest.approx(stoer_wagner(g).value)

    def test_approx_then_exact_consistency(self):
        """The screening bracket from the approximation must be
        consistent with the exact answer on integer-weight inputs."""
        g = reliability_network(25, 8, rng=6)
        g = g.with_weights(np.rint(g.w))
        approx = approximate_minimum_cut(
            g, params=HierarchyParams(scale=0.02), rng=np.random.default_rng(1)
        )
        exact = minimum_cut(g, rng=np.random.default_rng(2))
        assert exact.value == pytest.approx(stoer_wagner(g).value)
        assert approx.low <= exact.value * 2.0 + 1e-9
        assert approx.high >= exact.value / 2.0 - 1e-9

    def test_ledger_accounts_full_stack(self):
        g = community_graph((12, 14), rng=7)
        ledger = Ledger()
        minimum_cut(g, rng=np.random.default_rng(3), ledger=ledger)
        phase_work = sum(
            rec.work
            for name, rec in ledger.phases.items()
            if name in ("approximate", "packing", "two-respecting")
        )
        # the three top phases account for (almost) all the work
        assert phase_work == pytest.approx(ledger.work, rel=0.05)

    def test_parallel_map_tree_evaluation(self):
        """Coarse-grained fan-out: evaluate candidate trees through
        parallel_map (a closure, so it runs on the in-line backend) and
        agree with the exact value."""
        from repro.packing import pack_trees
        from repro.tworespect import two_respecting_min_cut

        g = random_connected_graph(35, 120, rng=8, max_weight=5)
        lam = stoer_wagner(g).value
        packing = pack_trees(g, lam / 2, rng=np.random.default_rng(4))
        values = parallel_map(
            lambda parent: two_respecting_min_cut(g, parent).value,
            packing.tree_parents,
            max_workers=4,
        )
        assert min(values) == pytest.approx(lam)

    def test_brent_projection_from_real_run(self):
        g = random_connected_graph(60, 240, rng=9, max_weight=5)
        ledger = Ledger()
        minimum_cut(g, rng=np.random.default_rng(5), ledger=ledger)
        curve = speedup_curve(ledger.work, ledger.depth, [1, 16, 256])
        assert curve[0].speedup <= 1.0 + 1e-9
        assert curve[-1].speedup > curve[0].speedup


@pytest.mark.parametrize("script", ["quickstart.py", "community_split.py"])
def test_examples_run(script):
    """The fast examples must run to completion as subprocesses."""
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
