"""Resilient execution layer: budgets, verified retries, fault plans,
fallback provenance (repro.resilience)."""

import math

import numpy as np
import pytest

from repro.arena.solvers import stoer_wagner
from repro.core import minimum_cut
from repro.errors import (
    BudgetExceeded,
    FaultInjected,
    GraphFormatError,
    InvalidParameterError,
)
from repro.graphs import Graph, random_connected_graph
from repro.graphs.validate import ensure_finite_weights
from repro.pram import Ledger, parallel_map
from repro.resilience import (
    ALL_SITES,
    Budget,
    Fault,
    FaultPlan,
    budget_scope,
    canonical_plans,
    checkpoint,
    escalated_params,
    inject,
    resilient_minimum_cut,
    verify_cut,
)
from repro.resilience.faults import (
    SITE_BUDGET_BLOWOUT,
    SITE_CORRUPT_VALUE,
    SITE_EXECUTOR_BRANCH,
)
from repro.resilience.driver import _attempt_slice
from repro.resilience.verify import one_respecting_upper_bound
from repro.sparsify.skeleton import SkeletonParams

from tests.conftest import assert_valid_cut, make_graph


class FakeClock:
    """Deterministic monotonic clock for budget tests."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ---------------------------------------------------------------------------
# Budget
# ---------------------------------------------------------------------------
class TestBudget:
    def test_deadline_checkpoint_raises(self):
        clock = FakeClock()
        budget = Budget(deadline=10.0, clock=clock).start()
        budget.checkpoint("here")  # within budget: no-op
        clock.advance(10.5)
        with pytest.raises(BudgetExceeded) as ei:
            budget.checkpoint("here")
        assert ei.value.reason == "deadline"
        assert ei.value.site == "here"

    def test_deadline_expiry_exactly_at_checkpoint_boundary(self):
        # the boundary is inclusive: a checkpoint reached at *exactly*
        # the deadline must raise, not slip through and return a partial
        # result one instant past its budget (the serving daemon's
        # shedding contract leans on this)
        clock = FakeClock()
        budget = Budget(deadline=5.0, clock=clock).start()
        clock.advance(5.0 - 1e-9)
        budget.checkpoint("just-inside")  # strictly before: no-op
        clock.advance(1e-9)  # now exactly at the deadline
        with budget_scope(budget):
            with pytest.raises(BudgetExceeded) as ei:
                checkpoint("at-boundary")
        assert ei.value.reason == "deadline"
        assert ei.value.site == "at-boundary"
        # and it keeps raising on every later checkpoint too
        clock.advance(0.0)
        with pytest.raises(BudgetExceeded):
            budget.checkpoint("after")

    def test_work_budget(self):
        led = Ledger()
        budget = Budget(max_work=100.0, ledger=led).start()
        led.charge(50, depth=1)
        budget.checkpoint()
        led.charge(51, depth=1)
        with pytest.raises(BudgetExceeded) as ei:
            budget.checkpoint()
        assert ei.value.reason == "work"

    def test_work_budget_needs_ledger(self):
        with pytest.raises(InvalidParameterError):
            Budget(max_work=5.0)

    def test_invalid_values(self):
        with pytest.raises(InvalidParameterError):
            Budget(deadline=0.0)
        with pytest.raises(InvalidParameterError):
            Budget(deadline=-1.0)

    def test_scope_arms_contextvar(self):
        clock = FakeClock()
        budget = Budget(deadline=1.0, clock=clock)
        checkpoint("outside")  # no active budget: no-op
        with budget_scope(budget):
            checkpoint("inside")
            clock.advance(2.0)
            with pytest.raises(BudgetExceeded):
                checkpoint("inside")
        checkpoint("outside-again")  # disarmed on exit

    def test_remaining_time(self):
        clock = FakeClock()
        budget = Budget(deadline=5.0, clock=clock).start()
        clock.advance(2.0)
        assert budget.remaining_time() == pytest.approx(3.0)
        assert Budget().remaining_time() is None

    def test_deadline_cancels_pipeline(self):
        # an already-expired budget stops the exact pipeline at the next
        # checkpoint, well before it completes
        g = make_graph(40, 150, seed=5)
        clock = FakeClock()
        budget = Budget(deadline=1.0, clock=clock).start()
        clock.advance(5.0)
        with budget_scope(budget):
            with pytest.raises(BudgetExceeded):
                minimum_cut(g, rng=np.random.default_rng(0))


class TestAccountingUnperturbed:
    def test_checkpoints_charge_nothing(self):
        # ledger work/depth of the unfaulted path must be bit-identical
        # with and without an (ample) active budget
        g = make_graph(35, 120, seed=9)
        led_plain = Ledger()
        minimum_cut(g, rng=np.random.default_rng(4), ledger=led_plain)
        led_budget = Ledger()
        clock = FakeClock()
        with budget_scope(Budget(deadline=1e9, clock=clock)):
            minimum_cut(g, rng=np.random.default_rng(4), ledger=led_budget)
        assert led_plain.work == led_budget.work
        assert led_plain.depth == led_budget.depth
        assert {n: (r.work, r.depth) for n, r in led_plain.phases.items()} == {
            n: (r.work, r.depth) for n, r in led_budget.phases.items()
        }


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_fires_once_at_requested_hit(self):
        plan = FaultPlan([Fault(SITE_BUDGET_BLOWOUT, at=1)])
        assert plan.poll(SITE_BUDGET_BLOWOUT) is None  # hit 0
        assert plan.poll(SITE_BUDGET_BLOWOUT) is not None  # hit 1: fires
        assert plan.poll(SITE_BUDGET_BLOWOUT) is None  # spent
        assert plan.exhausted
        assert plan.fired == [(SITE_BUDGET_BLOWOUT, 1)]

    def test_unknown_site_rejected(self):
        with pytest.raises(InvalidParameterError):
            Fault("no.such.site")

    def test_unknown_site_rejected_at_plan_construction(self):
        # a duck-typed descriptor bypasses Fault.__post_init__; the plan
        # itself must still reject it instead of silently never firing
        class Duck:
            site = "typo.site"
            at = 0

        with pytest.raises(InvalidParameterError):
            FaultPlan([Duck()])

    def test_reset(self):
        plan = FaultPlan([Fault(SITE_BUDGET_BLOWOUT)])
        assert plan.poll(SITE_BUDGET_BLOWOUT) is not None
        plan.reset()
        assert not plan.fired
        assert plan.poll(SITE_BUDGET_BLOWOUT) is not None

    def test_canonical_plans_cover_every_site(self):
        plans = canonical_plans()
        covered = {f.site for p in plans.values() for f in p.faults}
        assert covered == set(ALL_SITES)

    def test_inject_scoped(self):
        from repro.resilience.faults import active_plan

        plan = FaultPlan([Fault(SITE_CORRUPT_VALUE)])
        assert active_plan() is None
        with inject(plan):
            assert active_plan() is plan
        assert active_plan() is None


# ---------------------------------------------------------------------------
# Verification certificates
# ---------------------------------------------------------------------------
class TestVerifyCut:
    def test_correct_cut_passes_all_checks(self):
        g = make_graph(30, 100, seed=1)
        res = stoer_wagner(g)
        report = verify_cut(g, res)
        assert report.ok
        names = [n for n, _ in report.checks]
        assert names == [
            "finite-value",
            "side-consistency",
            "degree-bound",
            "one-respecting",
            "stoer-wagner",
        ]

    def test_inconsistent_value_caught(self):
        import dataclasses

        g = make_graph(30, 100, seed=2)
        res = stoer_wagner(g)
        bad = dataclasses.replace(res, value=res.value + 5.0)
        report = verify_cut(g, bad)
        assert not report.ok
        assert report.passed("side-consistency") is False

    def test_too_high_value_caught_without_spot_check(self):
        # a genuine-but-suboptimal cut (isolate vertex of max degree) is
        # caught by the cheap upper bounds alone on this star-ish graph
        g = Graph.from_edges(
            5, [(0, 1, 10.0), (0, 2, 10.0), (0, 3, 10.0), (0, 4, 1.0)]
        )
        side = np.zeros(5, dtype=bool)
        side[0] = True  # cut value 31, but min cut is 1 (vertex 4)
        from repro.results import CutResult

        report = verify_cut(g, CutResult(value=31.0, side=side), spot_check_max_n=0)
        assert not report.ok
        assert report.passed("degree-bound") is False
        assert report.upper_bound <= 31.0

    def test_non_finite_value_caught(self):
        from repro.results import CutResult

        g = make_graph(10, 30, seed=3)
        side = np.zeros(10, dtype=bool)
        side[0] = True
        report = verify_cut(g, CutResult(value=float("nan"), side=side))
        assert not report.ok
        assert report.checks[0] == ("finite-value", False)

    def test_one_respecting_bound_is_valid_upper_bound(self):
        g = make_graph(40, 160, seed=4)
        bound = one_respecting_upper_bound(g)
        assert stoer_wagner(g).value <= bound + 1e-9

    def test_verification_charges_ledger_optionally(self):
        g = make_graph(20, 60, seed=5)
        led = Ledger()
        verify_cut(g, stoer_wagner(g), ledger=led, spot_check_max_n=0)
        assert led.work > 0


# ---------------------------------------------------------------------------
# The resilient driver: fault plans x recovery paths
# ---------------------------------------------------------------------------
class TestResilientDriver:
    @pytest.mark.parametrize("n,m,gseed", [(30, 90, 11), (60, 240, 12)])
    @pytest.mark.parametrize("plan_name", sorted(canonical_plans()))
    def test_every_fault_plan_recovers(self, n, m, gseed, plan_name):
        g = make_graph(n, m, seed=gseed)
        exact = stoer_wagner(g).value
        plan = canonical_plans(seed=7)[plan_name]
        with inject(plan):
            res = resilient_minimum_cut(g, seed=3)
        # never a silent wrong answer: either the exact value, or an
        # explicitly-marked fallback (whose SW value is exact anyway)
        if res.fallback_used is None:
            assert res.value == pytest.approx(exact)
        else:
            assert res.fallback_used == "stoer_wagner"
        assert_valid_cut(g, res.value, res.side)
        assert res.verification is not None and res.verification.ok
        assert res.attempts >= 1

    def test_unfaulted_provenance(self):
        g = make_graph(40, 150, seed=13)
        res = resilient_minimum_cut(g, seed=0)
        assert res.attempts == 1
        assert res.fallback_used is None
        assert res.verification.ok
        assert res.value == pytest.approx(stoer_wagner(g).value)

    def test_deterministic_under_fixed_seed(self):
        g = make_graph(40, 150, seed=14)
        plan = lambda: canonical_plans(seed=5)["corrupt_value"]  # noqa: E731
        with inject(plan()):
            a = resilient_minimum_cut(g, seed=42)
        with inject(plan()):
            b = resilient_minimum_cut(g, seed=42)
        assert a.value == b.value
        assert a.attempts == b.attempts
        assert np.array_equal(a.side, b.side)

    def test_corrupt_value_retries_with_escalation(self):
        g = make_graph(30, 90, seed=15)
        plan = canonical_plans(seed=1)["corrupt_value"]
        with inject(plan):
            res = resilient_minimum_cut(g, seed=2)
        assert res.attempts == 2  # first attempt suspect, second verified
        assert res.stats["resilience_suspect_values"] == 1.0
        assert res.value == pytest.approx(stoer_wagner(g).value)

    def test_persistent_corruption_falls_back(self):
        # corrupt every attempt's value: the driver must exhaust its
        # attempts and degrade to Stoer-Wagner, marked in provenance
        g = make_graph(25, 80, seed=16)
        plan = FaultPlan([Fault(SITE_CORRUPT_VALUE, at=i) for i in range(3)])
        with inject(plan):
            res = resilient_minimum_cut(g, seed=1, max_attempts=3)
        assert res.attempts == 3
        assert res.fallback_used == "stoer_wagner"
        assert res.value == pytest.approx(stoer_wagner(g).value)
        assert res.verification.ok

    def test_expired_deadline_terminates_quickly_with_fallback(self):
        import time

        g = make_graph(60, 240, seed=17)
        deadline = 1e-6  # expires essentially immediately
        t0 = time.monotonic()
        res = resilient_minimum_cut(g, deadline=deadline, seed=0)
        elapsed = time.monotonic() - t0
        assert res.fallback_used == "stoer_wagner"
        assert res.stats["resilience_budget_exhausted"] == 1.0
        assert res.value == pytest.approx(stoer_wagner(g).value)
        # terminates within 2x the deadline plus the (fast) fallback cost;
        # generous absolute cap keeps this robust on slow CI
        assert elapsed < max(2 * deadline, 5.0)

    def test_deadline_fallback_provenance_with_fake_clock(self):
        g = make_graph(40, 150, seed=18)
        clock = FakeClock()

        # expire the budget as soon as the driver starts attempt 1
        class ExpiringClock(FakeClock):
            def __call__(self) -> float:
                self.t += 1.0
                return self.t

        res = resilient_minimum_cut(
            g, deadline=0.5, seed=0, clock=ExpiringClock()
        )
        assert res.attempts == 0 or res.fallback_used == "stoer_wagner"
        assert res.fallback_used == "stoer_wagner"
        assert res.verification.ok

    def test_work_budget_exhaustion_falls_back(self):
        g = make_graph(40, 150, seed=19)
        led = Ledger()
        res = resilient_minimum_cut(g, max_work=10.0, ledger=led, seed=0)
        assert res.fallback_used == "stoer_wagner"
        assert res.stats["resilience_budget_exhausted"] == 1.0
        assert res.value == pytest.approx(stoer_wagner(g).value)

    def test_escalated_params(self):
        base = SkeletonParams(sample_constant=12.0)
        assert escalated_params(base, 0) is base
        assert escalated_params(base, 1).sample_constant == 24.0
        assert escalated_params(base, 2).sample_constant == 48.0

    def test_invalid_max_attempts(self):
        with pytest.raises(InvalidParameterError):
            resilient_minimum_cut(make_graph(10, 30, seed=1), max_attempts=0)

    def test_rejects_non_finite_weights(self):
        g = make_graph(10, 30, seed=20)
        bad = Graph(g.n, g.u, g.v, np.where(np.arange(g.m) == 0, np.nan, g.w),
                    validate=False)
        with pytest.raises(GraphFormatError):
            resilient_minimum_cut(bad)

    def test_trivial_graphs(self):
        two = Graph.from_edges(2, [(0, 1, 3.5)])
        res = resilient_minimum_cut(two, seed=0)
        assert res.value == pytest.approx(3.5)
        assert res.verification.ok


# ---------------------------------------------------------------------------
# Hardened parallel_map (fault-injected executor branches)
# ---------------------------------------------------------------------------
class TestParallelMapResilience:
    def test_injected_branch_failure_recovers_with_retry(self):
        plan = canonical_plans(seed=0)["executor_branch"]
        with inject(plan):
            out = parallel_map(lambda x: x * 2, [1, 2, 3], retries=1)
        assert out == [2, 4, 6]
        assert plan.fired  # the fault really fired and was retried over

    def test_injected_branch_failure_aggregates(self):
        plan = canonical_plans(seed=0)["executor_branch"]
        with inject(plan):
            with pytest.raises(FaultInjected, match="branch 0"):
                parallel_map(lambda x: x * 2, [1, 2, 3])
        assert plan.fired  # without retries the injected failure is raised


# ---------------------------------------------------------------------------
# graphs.validate hardening
# ---------------------------------------------------------------------------
class TestFiniteWeightValidation:
    def _with_bad_weight(self, bad):
        g = make_graph(8, 20, seed=21)
        w = g.w.copy()
        w[3] = bad
        return Graph(g.n, g.u, g.v, w, validate=False)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_weight(self, bad):
        with pytest.raises(GraphFormatError):
            ensure_finite_weights(self._with_bad_weight(bad))

    def test_rejects_non_finite_total(self):
        g = make_graph(8, 20, seed=22)
        w = np.full(g.m, np.finfo(np.float64).max / 2)
        big = Graph(g.n, g.u, g.v, w, validate=False)
        with pytest.raises(GraphFormatError):
            ensure_finite_weights(big)

    def test_accepts_finite(self):
        g = make_graph(8, 20, seed=23)
        assert ensure_finite_weights(g) is g

    # Section 3's integer scaling (Graph.integerized) of these overflows a
    # 64-bit count: a 1e-300 edge scales the rest by 1e303, and an
    # integral 1e19 is already past it
    @pytest.mark.parametrize("bad", [1e-300, 1e19])
    def test_rejects_weights_whose_integer_scaling_overflows(self, bad):
        with pytest.raises(GraphFormatError, match="too wide a range"):
            minimum_cut(self._with_bad_weight(bad))
        light = self._with_bad_weight(1e-6)  # a wide range that still fits
        assert ensure_finite_weights(light) is light

    def test_minimum_cut_rejects_nan(self):
        with pytest.raises(GraphFormatError):
            minimum_cut(self._with_bad_weight(float("nan")))

    def test_validate_cut_rejects_non_finite_value(self):
        from repro.graphs.validate import validate_cut

        g = make_graph(8, 20, seed=24)
        side = np.zeros(g.n, dtype=bool)
        side[0] = True
        with pytest.raises(GraphFormatError):
            validate_cut(g, side, float("nan"))


# ---------------------------------------------------------------------------
# The driver's attempt slices donate unused budget forward
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
