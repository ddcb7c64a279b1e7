"""The observability layer: counters, span trees, run reports.

The load-bearing invariants:

* spans observe the ledger and never charge it — a traced run's
  value/work/depth are bit-identical to an untraced run's;
* the root span's work/depth deltas equal the ledger totals exactly
  (same snapshots, no float drift);
* child deltas partition the parent's (up to float association);
* the disabled path is a shared no-op (NULL_COUNTERS / NULL_TRACER).
"""

import json
import math

import numpy as np
import pytest

import repro
from repro import obs
from repro.errors import ReproError
from repro.graphs import random_connected_graph
from repro.obs import (
    NULL_COUNTERS,
    NULL_TRACER,
    CounterRegistry,
    RunReport,
    Tracer,
    counters,
    counting_scope,
    current_tracer,
    tracing_active,
)
from repro.pram import Ledger
from repro.pram.trace import TraceLedger

from tests.conftest import load_script


@pytest.fixture
def graph():
    return random_connected_graph(30, 120, rng=7, max_weight=5)


# ----------------------------------------------------------------------
# counter registry
# ----------------------------------------------------------------------
class TestCounters:
    def test_add_get_snapshot(self):
        reg = CounterRegistry()
        reg.add("oracle.queries")
        reg.add("oracle.queries", 2.0)
        reg.add("smawk.evals", 10.0)
        assert reg.get("oracle.queries") == 3.0
        assert reg.get("missing") == 0.0
        snap = reg.snapshot()
        reg.add("smawk.evals", 5.0)
        assert snap["smawk.evals"] == 10.0  # snapshot is a copy
        assert reg.delta_since(snap) == {"smawk.evals": 5.0}

    def test_namespaces(self):
        reg = CounterRegistry()
        reg.add("oracle.queries", 2.0)
        reg.add("oracle.nodes_visited", 3.0)
        reg.add("executor.retries")
        assert reg.namespaces() == {"oracle": 5.0, "executor": 1.0}

    def test_null_registry_discards(self):
        NULL_COUNTERS.add("anything", 99.0)
        assert NULL_COUNTERS.get("anything") == 0.0
        assert len(NULL_COUNTERS) == 0
        assert NULL_COUNTERS.enabled is False
        assert CounterRegistry.enabled is True

    def test_ambient_default_is_null(self):
        assert counters() is NULL_COUNTERS

    def test_counting_scope(self):
        reg = CounterRegistry()
        with counting_scope(reg):
            assert counters() is reg
            counters().add("x.y")
        assert counters() is NULL_COUNTERS
        assert reg.get("x.y") == 1.0


# ----------------------------------------------------------------------
# span tree mechanics
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_tree_shape(self):
        led = Ledger()
        tracer = Tracer(ledger=led)
        with tracer.activate():
            with tracer.span("a"):
                led.charge(5.0)
                with tracer.span("a1"):
                    led.charge(3.0)
            with tracer.span("b"):
                led.charge(2.0)
        root = tracer.finish()
        assert root.name == "run"
        assert [c.name for c in root.children] == ["a", "b"]
        assert root.find("a1")[0].work == 3.0
        assert root.find("a")[0].work == 8.0
        assert root.work == led.work == 10.0
        assert root.self_work() == 0.0

    def test_finish_with_open_span_raises(self):
        tracer = Tracer()
        cm = tracer.span("open")
        cm.__enter__()
        with pytest.raises(ReproError):
            tracer.finish()
        cm.__exit__(None, None, None)
        assert tracer.finish().name == "run"

    def test_finish_idempotent(self):
        tracer = Tracer(ledger=Ledger())
        assert tracer.finish() is tracer.finish()

    def test_activate_arms_ambient(self):
        tracer = Tracer()
        assert not tracing_active()
        assert current_tracer() is NULL_TRACER
        with tracer.activate():
            assert tracing_active()
            assert current_tracer() is tracer
            assert counters() is tracer.registry
        assert not tracing_active()

    def test_null_tracer_span_is_shared_noop(self):
        # the disabled path must not allocate per call
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
        with NULL_TRACER.span("x"):
            pass

    def test_phase_helper_without_tracer(self):
        led = Ledger()
        with obs.phase("stage", led):
            led.charge(4.0)
        assert led.phases["stage"].work == 4.0

    def test_phase_helper_with_tracer(self):
        led = Ledger()
        tracer = Tracer(ledger=led)
        with tracer.activate():
            with obs.phase("stage", led):
                led.charge(4.0)
        root = tracer.finish()
        assert led.phases["stage"].work == 4.0
        assert root.find("stage")[0].work == 4.0


# ----------------------------------------------------------------------
# traced entry points
# ----------------------------------------------------------------------
class TestTracedRuns:
    def test_root_deltas_equal_ledger_totals_exactly(self, graph):
        led = Ledger()
        res = repro.minimum_cut(
            graph, rng=np.random.default_rng(0), ledger=led, trace=True
        )
        rep = res.report
        assert rep is not None
        # same snapshots → exact equality, not approx
        assert rep.work == led.work
        assert rep.depth == led.depth
        assert rep.span.name == "run"

    def test_phase_partition_of_totals(self, graph):
        res = repro.minimum_cut(
            graph, rng=np.random.default_rng(0), ledger=Ledger(), trace=True
        )
        rep = res.report
        top = rep.phases(top_level_only=True)
        assert [p.name for p in top] == ["approximate", "packing", "two-respecting"]
        covered = sum(p.work for p in top) + rep.unattributed_work()
        assert math.isclose(covered, rep.work, rel_tol=1e-12)
        for span in rep.span.walk():
            assert math.isclose(
                span.child_work() + span.self_work(), span.work, rel_tol=1e-12
            )
            assert span.work >= 0 and span.depth >= 0

    def test_wall_clock_nesting(self, graph):
        res = repro.minimum_cut(
            graph, rng=np.random.default_rng(0), ledger=Ledger(), trace=True
        )
        root = res.report.span
        for parent in root.walk():
            for child in parent.children:
                assert child.wall_start >= parent.wall_start
                assert child.wall_end <= parent.wall_end

    def test_counters_populated(self, graph):
        res = repro.minimum_cut(
            graph, rng=np.random.default_rng(0), ledger=Ledger(), trace=True
        )
        ctr = res.report.counters
        assert ctr["mincut.trees_tested"] >= 1
        assert ctr["tworespect.trees"] >= 1
        assert ctr["oracle.nodes_visited"] > 0
        # the search evaluates candidates through the batch kernels;
        # smawk.* belongs to the per-entry reference, never the library
        assert ctr["kernels.batch_entries"] > 0
        assert "smawk.calls" not in ctr
        with pytest.raises(TypeError):
            ctr["new"] = 1.0  # read-only mapping

    def test_traced_run_is_bit_identical_to_untraced(self, graph):
        led_off, led_on = Ledger(), Ledger()
        off = repro.minimum_cut(
            graph, rng=np.random.default_rng(5), ledger=led_off, trace=False
        )
        on = repro.minimum_cut(
            graph, rng=np.random.default_rng(5), ledger=led_on, trace=True
        )
        assert off.value == on.value
        assert (led_off.work, led_off.depth) == (led_on.work, led_on.depth)
        assert dict(off.stats) == dict(on.stats)
        assert np.array_equal(off.side, on.side)
        assert off.report is None and on.report is not None

    def test_trace_false_leaves_report_none(self, graph):
        res = repro.minimum_cut(graph, rng=np.random.default_rng(0))
        assert res.report is None

    def test_nested_traced_call_joins_ambient_tracer(self, graph):
        # a trace=True call inside an active tracer must contribute spans
        # to the ambient tree, not attach its own report
        led = Ledger()
        tracer = Tracer(ledger=led)
        with tracer.activate():
            res = repro.minimum_cut(
                graph, rng=np.random.default_rng(0), ledger=led, trace=True
            )
        assert res.report is None
        assert tracer.finish().find("packing")

    def test_trace_with_null_ledger_gets_private_ledger(self, graph):
        res = repro.minimum_cut(graph, rng=np.random.default_rng(0), trace=True)
        assert res.report is not None
        assert res.report.work > 0

    def test_schedule_bounds_from_trace_ledger(self, graph):
        res = repro.minimum_cut(
            graph, rng=np.random.default_rng(0), ledger=TraceLedger(), trace=True
        )
        sb = res.report.schedule_bounds
        assert set(sb) == {2, 4, 16, 64}
        for lo, hi in sb.values():
            assert lo <= hi

    def test_approx_traced(self, graph):
        res = repro.approximate_minimum_cut(
            graph, rng=np.random.default_rng(1), trace=True
        )
        names = [p.name for p in res.report.phases(top_level_only=True)]
        assert names == ["hierarchy", "certificates", "layer-cuts"]

    def test_resilient_traced(self, graph):
        res = repro.resilient_minimum_cut(graph, seed=3, trace=True)
        rep = res.report
        assert rep is not None
        assert rep.span.find("attempt[0]")
        assert rep.span.find("verify")
        assert rep.counters["resilience.attempts"] >= 1
        assert rep.counters["resilience.checkpoints"] >= 1


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_payload_structure(self, graph):
        res = repro.minimum_cut(
            graph, rng=np.random.default_rng(0), ledger=TraceLedger(), trace=True
        )
        payload = res.report.to_chrome_trace()
        json.loads(json.dumps(payload))  # serialisable
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert sum(1 for e in events if e["name"] == "run") == 1
        for e in events:
            assert e["ph"] == "X" and e["cat"] == "repro"
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert {"work", "depth"} <= set(e["args"])
        sidecar = payload["repro"]
        assert sidecar["work"] == res.report.work
        assert sidecar["phases"][0]["name"] == "approximate"
        assert set(sidecar["schedule_bounds"]) == {"2", "4", "16", "64"}
        assert all(isinstance(v, str) for v in sidecar["meta"].values())

    def test_validator_accepts_real_trace(self, graph, tmp_path):
        mod = load_script("validate_trace")

        res = repro.minimum_cut(
            graph, rng=np.random.default_rng(0), ledger=Ledger(), trace=True
        )
        out = tmp_path / "t.json"
        res.report.write_trace(out)
        payload = json.loads(out.read_text())
        assert mod.validate(payload) == []
        # and the validator actually rejects garbage
        payload["traceEvents"][0]["ph"] = "B"
        assert mod.validate(payload)

    def test_report_phase_aggregation_counts_reentries(self):
        led = Ledger()
        tracer = Tracer(ledger=led)
        with tracer.activate():
            for _ in range(3):
                with tracer.span("loop"):
                    led.charge(2.0)
        rep = RunReport.from_tracer_root(
            tracer.finish(), tracer.registry.snapshot(), ledger=led
        )
        (p,) = rep.phases()
        assert (p.name, p.count, p.work) == ("loop", 3, 6.0)
