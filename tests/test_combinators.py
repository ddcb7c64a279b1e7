"""Parallel combinators (repro.pram.combinators) and the hardened
executor (repro.pram.executor)."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.pram import (
    Ledger,
    bulk_charge,
    log2ceil,
    parallel_map,
    pfilter,
    pmap,
    preduce,
    pscan_exclusive,
)


class TestLog2Ceil:
    @pytest.mark.parametrize(
        "n,expected", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (1024, 10), (1025, 11)]
    )
    def test_values(self, n, expected):
        assert log2ceil(n) == expected


class TestPmap:
    def test_results_in_order(self):
        assert pmap(lambda x: x * x, [1, 2, 3]) == [1, 4, 9]

    def test_empty(self):
        assert pmap(lambda x: x, []) == []

    def test_depth_is_max_branch(self):
        led = Ledger()

        def task(d):
            led.charge(1, d)
            return d

        pmap(task, [2, 9, 4], ledger=led)
        assert led.depth == 9
        assert led.work == 3

    def test_spawn_depth_added(self):
        led = Ledger()
        pmap(lambda x: x, [1, 2, 3, 4], ledger=led, spawn_depth=2)
        assert led.depth == 2


class TestPreduce:
    def test_sum(self):
        assert preduce(lambda a, b: a + b, [1, 2, 3, 4, 5], 0) == 15

    def test_unit_on_empty(self):
        assert preduce(lambda a, b: a + b, [], unit=42) == 42

    def test_single_element(self):
        led = Ledger()
        assert preduce(min, [7], unit=None, ledger=led) == 7
        assert led.work == 0

    def test_charges_tree_cost(self):
        led = Ledger()
        preduce(lambda a, b: a + b, list(range(8)), 0, ledger=led)
        assert led.work == 7
        assert led.depth == 3

    def test_tree_order_combination(self):
        # combine order: pairs per round, so string concat shows the shape
        out = preduce(lambda a, b: f"({a}{b})", list("abcd"), "")
        assert out == "((ab)(cd))"


class TestPscan:
    def test_exclusive_prefix_sums(self):
        out = pscan_exclusive(np.array([3, 1, 4, 1, 5]))
        assert out.tolist() == [0, 3, 4, 8, 9]

    def test_empty(self):
        assert pscan_exclusive(np.array([])).shape == (0,)

    def test_charge(self):
        led = Ledger()
        pscan_exclusive(np.ones(16), ledger=led)
        assert led.work == 32
        assert led.depth == 8


class TestPfilter:
    def test_indices(self):
        idx = pfilter(np.array([True, False, True, True]))
        assert idx.tolist() == [0, 2, 3]

    def test_empty_mask(self):
        assert pfilter(np.zeros(5, dtype=bool)).size == 0

    def test_charge_linear(self):
        led = Ledger()
        pfilter(np.ones(10, dtype=bool), ledger=led)
        assert led.work == 30


class TestBulkCharge:
    def test_defaults(self):
        led = Ledger()
        bulk_charge(led, 100, per_item_work=2.0)
        assert led.work == 200
        assert led.depth == 2

    def test_explicit_depth(self):
        led = Ledger()
        bulk_charge(led, 100, per_item_work=1.0, depth=5)
        assert led.depth == 5


class TestParallelMap:
    def test_results_in_order(self):
        assert parallel_map(lambda x: x + 1, [1, 2, 3, 4]) == [2, 3, 4, 5]

    def test_empty_and_single(self):
        assert parallel_map(lambda x: x, []) == []
        assert parallel_map(lambda x: x * 3, [7]) == [21]

    def test_raise_mode_propagates_first_failure(self):
        def boom(x):
            if x == 2:
                raise ValueError("two")
            return x

        with pytest.raises(ValueError, match="two"):
            parallel_map(boom, [1, 2, 3])

    def test_aggregate_mode_collects_all_failures(self):
        # one failed branch must not hide the others: every branch runs
        # to completion, then the lowest-indexed failure is raised
        ran = []

        def boom(x):
            ran.append(x)
            if x % 2 == 0:
                raise ValueError(f"even {x}")
            return x

        with pytest.raises(ValueError, match="even 2"):
            parallel_map(boom, [1, 2, 3, 4, 5])
        assert ran == [1, 2, 3, 4, 5]

    def test_per_item_retries_recover_flaky_branches(self):
        calls = {}

        def flaky(x):
            calls[x] = calls.get(x, 0) + 1
            if calls[x] == 1 and x == 3:
                raise RuntimeError("transient")
            return x * x

        assert parallel_map(flaky, [1, 2, 3], retries=1) == [1, 4, 9]
        assert calls[3] == 2  # retried exactly once

    def test_retries_exhausted_still_fails(self):
        calls = []

        def always(x):
            calls.append(x)
            raise RuntimeError(f"persistent {x}")

        with pytest.raises(RuntimeError, match="persistent 1"):
            parallel_map(always, [1, 2], retries=2)
        assert calls == [1, 2] * 3  # every item ran 1 + 2 retries

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            parallel_map(lambda x: x, [1], retries=-1)
