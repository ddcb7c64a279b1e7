"""Health-aware execution supervision: backoff, degradation chain,
recovery probes, executor routing (repro.resilience.supervisor + the
supervised parts of pram.executor), and the resilient driver's
donated-budget attempt slices."""

import pytest

from repro.pram import parallel_map, shutdown_shared_pools
from repro.pram.executor import force_executor
from repro.resilience import (
    DEGRADATION_CHAIN,
    DegradationEvent,
    Supervisor,
    active_supervisor,
    canonical_plans,
    inject,
    supervised_scope,
)
from repro.resilience import supervisor as supervisor_mod
from repro.resilience.driver import _attempt_slice


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _probe(x):
    """Module-level (picklable) workload for executor integration tests."""
    return x * 2


@pytest.fixture
def no_jitter(monkeypatch):
    """Exact backoff arithmetic: the un-jittered schedule."""
    monkeypatch.setattr(supervisor_mod, "JITTER", 0.0)


# ---------------------------------------------------------------------------
# Supervisor unit behaviour
# ---------------------------------------------------------------------------
class TestSupervisorModel:
    def test_healthy_backend_selected_unchanged(self):
        sup = Supervisor(clock=FakeClock())
        assert sup.select("process") == "process"
        assert sup.select("sync") == "sync"
        assert sup.events == []

    def test_failure_enters_backoff_and_degrades(self):
        clock = FakeClock()
        sup = Supervisor(clock=clock)
        sup.record_failure("process", "broken_pool")
        assert not sup.healthy("process")
        assert sup.select("process") == "sync"
        (event,) = sup.events
        assert isinstance(event, DegradationEvent)
        assert (event.backend_from, event.backend_to) == ("process", "sync")
        assert event.reason == "broken_pool"

    def test_backoff_is_exponential(self, no_jitter):
        clock = FakeClock()
        sup = Supervisor(clock=clock)
        sup.record_failure("process", "timeout")
        first = sup.health["process"].blocked_until - clock()
        sup.record_failure("process", "timeout")
        second = sup.health["process"].blocked_until - clock()
        assert first == pytest.approx(supervisor_mod.BASE_BACKOFF)
        assert second == pytest.approx(2.0 * first)

    def test_backoff_caps_at_max(self, no_jitter):
        clock = FakeClock()
        sup = Supervisor(clock=clock)
        for _ in range(20):
            sup.record_failure("process", "timeout")
        assert sup.health["process"].blocked_until - clock() == pytest.approx(
            supervisor_mod.MAX_BACKOFF
        )

    def test_jitter_is_deterministic_under_seed(self):
        def schedule(seed):
            clock = FakeClock()
            sup = Supervisor(clock=clock, seed=seed)
            out = []
            for _ in range(5):
                sup.record_failure("process", "timeout")
                out.append(sup.health["process"].blocked_until)
            return out

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_probe_after_backoff_and_recovery(self, no_jitter):
        clock = FakeClock()
        sup = Supervisor(clock=clock)
        sup.record_failure("process", "broken_pool")
        assert sup.select("process") == "sync"  # still blocked
        # backoff expired: next selection is a probe
        clock.advance(1.5 * supervisor_mod.BASE_BACKOFF)
        assert sup.select("process") == "process"
        assert sup.health["process"].probing
        sup.record_success("process")
        assert not sup.health["process"].probing
        assert sup.health["process"].consecutive == 0
        assert sup.healthy("process")

    def test_failed_probe_reenters_longer_backoff(self, no_jitter):
        clock = FakeClock()
        sup = Supervisor(clock=clock)
        sup.record_failure("process", "timeout")
        clock.advance(1.5 * supervisor_mod.BASE_BACKOFF)
        sup.select("process")  # probe allowed through
        sup.record_failure("process", "timeout")  # probe failed
        assert sup.health["process"].blocked_until - clock() == pytest.approx(
            2.0 * supervisor_mod.BASE_BACKOFF
        )

    def test_last_stage_never_blocked(self):
        clock = FakeClock()
        sup = Supervisor(clock=clock)
        for _ in range(5):
            sup.record_failure("sync", "timeout")
        assert sup.healthy("sync")
        assert sup.select("sync") == "sync"

    def test_full_chain_degradation(self):
        clock = FakeClock()
        sup = Supervisor(clock=clock)
        sup.record_failure("process", "broken_pool")
        sup.record_failure("sync", "timeout")  # the last stage never blocks
        assert sup.select("process") == "sync"

    def test_unsupervised_backend_passthrough(self):
        sup = Supervisor(clock=FakeClock())
        assert sup.select("weird") == "weird"
        sup.record_failure("weird", "timeout")  # no-op, no crash
        assert sup.healthy("weird")

    def test_scope_arms_contextvar(self):
        sup = Supervisor(clock=FakeClock())
        assert active_supervisor() is None
        with supervised_scope(sup):
            assert active_supervisor() is sup
        assert active_supervisor() is None

    def test_chain_constant(self):
        assert DEGRADATION_CHAIN == ("process", "sync")


# ---------------------------------------------------------------------------
# parallel_map integration: injected substrate faults route the chain
# ---------------------------------------------------------------------------
class TestSupervisedExecutor:
    def teardown_method(self):
        shutdown_shared_pools()

    def test_pool_break_degrades_and_recovers_results(self):
        sup = Supervisor(clock=FakeClock())
        plan = canonical_plans(seed=0)["pool_break"]
        with force_executor("process"), supervised_scope(sup), inject(plan):
            out = parallel_map(_probe, [1, 2, 3], retries=1)
        assert out == [2, 4, 6]
        assert plan.fired == [("executor.pool_break", 0)]
        assert sup.health["process"].failures == 1
        assert [(e.backend_from, e.backend_to) for e in sup.events] == [
            ("process", "sync")
        ]

    def test_worker_hang_recorded_as_timeout(self):
        sup = Supervisor(clock=FakeClock())
        plan = canonical_plans(seed=0)["worker_hang"]
        with force_executor("process"), supervised_scope(sup), inject(plan):
            out = parallel_map(_probe, [1, 2, 3], retries=1)
        assert out == [2, 4, 6]
        assert sup.health["process"].last_reason == "timeout"
        assert [(e.backend_from, e.backend_to) for e in sup.events] == [
            ("process", "sync")
        ]

    def test_unsupervised_behaviour_unchanged(self):
        plan = canonical_plans(seed=0)["pool_break"]
        with force_executor("process"), inject(plan):
            out = parallel_map(_probe, [1, 2, 3], retries=1)
        assert out == [2, 4, 6]  # eviction + same-backend retry still works

    def test_degraded_backend_skipped_on_fresh_call(self):
        clock = FakeClock()
        sup = Supervisor(clock=clock)
        sup.record_failure("process", "broken_pool")
        with force_executor("process"), supervised_scope(sup):
            out = parallel_map(_probe, [5], retries=0)
        assert out == [10]
        # the dispatch ran on the degraded stage, recorded as an event
        assert sup.events[-1].backend_to == "sync"


# ---------------------------------------------------------------------------
# Satellite (a): attempt slices donate unused budget forward
# ---------------------------------------------------------------------------
class TestAttemptSlices:
    def test_none_budget_stays_unbounded(self):
        assert _attempt_slice(None, 0, 3) is None

    def test_last_attempt_gets_everything_left(self):
        assert _attempt_slice(5.0, 2, 3) == pytest.approx(5.0)

    def test_slices_grow_geometrically_over_static_remainder(self):
        # with the remainder held fixed the weights are 2^a / (2^A - 2^a)
        assert _attempt_slice(7.0, 0, 3) == pytest.approx(7.0 * 1 / 7)
        assert _attempt_slice(7.0, 1, 3) == pytest.approx(7.0 * 2 / 6)

    def test_fast_failure_donates_unused_budget(self):
        # attempt 0 gets 1/7 of a 7s budget; if it fails instantly the
        # full ~6s remainder flows into attempt 1's slice — strictly more
        # than the static split (2/7 * 7 = 2s) would have granted
        total = 7.0
        first = _attempt_slice(total, 0, 3)
        spent = 0.1  # attempt 0 failed fast
        donated = _attempt_slice(total - spent, 1, 3)
        static = total * 2 / 7
        assert first == pytest.approx(1.0)
        assert donated == pytest.approx((total - spent) / 3)
        assert donated > static

    def test_exhausted_remainder_clamps_positive(self):
        assert _attempt_slice(0.0, 1, 3) > 0.0
        assert _attempt_slice(-5.0, 1, 3) > 0.0
