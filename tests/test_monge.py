"""Monge machinery: SMAWK, triangle minimum, property verifiers — and the
structural Monge facts the 2-respecting search relies on."""

import numpy as np
import pytest

from repro.errors import MongeViolation
from repro.pram import Ledger
from repro.rangesearch import CutOracle
from repro.trees import heavy_path_decomposition

from tests.conftest import make_graph, make_rooted
from tests.reference_monge import (
    check_inverse_monge,
    check_monge,
    materialize,
    matrix_minimum,
    smawk_row_minima,
    triangle_minimum,
)


def random_monge(nr, nc, rng, integer=False):
    """Submodular matrix built from a cumulative nonnegative density."""
    if integer:
        density = rng.integers(0, 3, (nr, nc)).astype(float)
        r = rng.integers(0, 5, nr)[:, None].astype(float)
        c = rng.integers(0, 5, nc)[None, :].astype(float)
    else:
        density = rng.random((nr, nc))
        r = rng.random(nr)[:, None] * 10
        c = rng.random(nc)[None, :] * 10
    return r + c - density.cumsum(0).cumsum(1)


class TestVerifiers:
    def test_check_monge_accepts(self, rng):
        check_monge(random_monge(8, 9, rng))

    def test_check_monge_rejects(self):
        bad = np.array([[5.0, 0.0], [0.0, 5.0]])  # supermodular diagonal
        with pytest.raises(MongeViolation):
            check_monge(bad)

    def test_check_inverse_monge(self):
        check_inverse_monge(np.array([[5.0, 0.0], [0.0, 5.0]]))
        with pytest.raises(MongeViolation):
            check_inverse_monge(np.array([[0.0, 5.0], [5.0, 0.0]]))

    def test_degenerate_shapes_pass(self):
        check_monge(np.zeros((1, 5)))
        check_monge(np.zeros((5, 1)))
        check_monge(np.zeros((0, 0)))

    def test_materialize(self):
        m = materialize([0, 1], [0, 1, 2], lambda i, j: i * 10 + j)
        assert m.tolist() == [[0, 1, 2], [10, 11, 12]]


class TestSmawk:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 8), (8, 1), (5, 5), (9, 4), (4, 13)])
    def test_row_minima_match_brute(self, shape, rng):
        for _ in range(10):
            m = random_monge(*shape, rng)
            res = smawk_row_minima(range(shape[0]), range(shape[1]), lambda i, j: m[i, j])
            for i in range(shape[0]):
                assert res[i][0] == pytest.approx(m[i].min())

    def test_ties_handled(self, rng):
        for _ in range(25):
            m = random_monge(7, 7, rng, integer=True)
            check_monge(m)
            res = smawk_row_minima(range(7), range(7), lambda i, j: m[i, j])
            for i in range(7):
                assert res[i][0] == pytest.approx(m[i].min())

    def test_entry_evaluations_linear(self, rng):
        """SMAWK inspects O(rows + cols) entries, not rows * cols."""
        n = 256
        m = random_monge(n, n, rng)
        calls = 0

        def lookup(i, j):
            nonlocal calls
            calls += 1
            return m[i, j]

        smawk_row_minima(range(n), range(n), lookup)
        assert calls <= 8 * n  # comfortably below n^2 = 65536

    def test_matrix_minimum(self, rng):
        m = random_monge(6, 11, rng)
        val, r, c = matrix_minimum(range(6), range(11), lambda i, j: m[i, j])
        assert val == pytest.approx(m.min())
        assert m[r, c] == pytest.approx(val)

    def test_matrix_minimum_empty(self):
        assert matrix_minimum([], [1], lambda i, j: 0)[0] == float("inf")

    def test_labels_passed_through(self, rng):
        m = random_monge(3, 3, rng)
        rows = [10, 20, 30]
        cols = [7, 8, 9]
        res = smawk_row_minima(rows, cols, lambda a, b: m[a // 10 - 1, b - 7])
        assert set(res) == set(rows)
        assert all(c in cols for _, c in res.values())

    def test_charges_ledger(self, rng):
        led = Ledger()
        m = random_monge(8, 8, rng)
        matrix_minimum(range(8), range(8), lambda i, j: m[i, j], ledger=led)
        assert led.work > 0


class TestTriangleMinimum:
    def test_matches_brute_on_supermodular(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 16))
            m = -random_monge(n, n, rng)  # supermodular everywhere
            val, a, b = triangle_minimum(range(n), lambda i, j: m[i, j])
            brute = min(m[i, j] for i in range(n) for j in range(i + 1, n))
            assert val == pytest.approx(brute)
            assert a < b

    def test_short_inputs(self):
        assert triangle_minimum([], lambda i, j: 0)[0] == float("inf")
        assert triangle_minimum([5], lambda i, j: 0)[0] == float("inf")
        val, a, b = triangle_minimum([3, 9], lambda i, j: 42.0)
        assert (val, a, b) == (42.0, 3, 9)

    def test_query_count_n_log_n(self, rng):
        n = 128
        m = -random_monge(n, n, rng)
        calls = 0

        def lookup(i, j):
            nonlocal calls
            calls += 1
            return m[i, j]

        triangle_minimum(range(n), lookup)
        assert calls <= 10 * n * np.log2(n)
        assert calls < n * (n - 1) / 2  # strictly below brute force


class TestCutMatrixStructure:
    """The structural facts pinning the SMAWK orientation (DESIGN.md):
    nested blocks are inverse-Monge, cross blocks are Monge."""

    def _oracle(self, n, seed):
        g = make_graph(n, 4 * n, seed, max_weight=7)
        _, rt = make_rooted(g)
        return rt, CutOracle(g, rt)

    def test_single_path_blocks_inverse_monge(self):
        for seed in range(4):
            rt, oracle = self._oracle(60, seed)
            dec = heavy_path_decomposition(rt)
            for arr in dec.paths:
                if len(arr) < 4:
                    continue
                mid = len(arr) // 2
                m = materialize(
                    arr[:mid], arr[mid:], lambda a, b: oracle.cut(int(a), int(b))
                )
                check_inverse_monge(m, atol=1e-6)

    def test_disjoint_path_blocks_monge(self):
        for seed in range(4):
            rt, oracle = self._oracle(60, seed + 10)
            dec = heavy_path_decomposition(rt)
            checked = 0
            for i in range(dec.num_paths):
                for j in range(i + 1, dec.num_paths):
                    p, q = dec.paths[i], dec.paths[j]
                    hp, hq = int(p[0]), int(q[0])
                    if rt.is_ancestor(hp, hq) or rt.is_ancestor(hq, hp):
                        continue
                    m = materialize(
                        [int(x) for x in p],
                        [int(x) for x in q],
                        lambda a, b: oracle.cut(a, b),
                    )
                    check_monge(m, atol=1e-6)
                    checked += 1
                    if checked > 30:
                        return
            assert checked > 0
