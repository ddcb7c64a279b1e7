"""Kernel parity: bit-identical answers AND identical ledger charges.

The library's kernels (``repro.kernels``) are only admissible because
they are indistinguishable from the per-entry reference instrument
(``tests/reference_tworespect.py``): same cut values, same witnesses,
same structural visit counters, and the same ledger work and depth —
totals and per-phase.  These tests enforce that contract on randomized
instances, plus the executor-backend semantics: the process backend
must match sync bit for bit (values, stats, ledger work/depth, traced
and untraced), and fault injection and budget checkpoints must fire
under it although its workers cannot see the caller's contextvars.
"""

from __future__ import annotations

import os
import signal
from concurrent.futures import BrokenExecutor

import numpy as np
import pytest

from repro.errors import (
    BudgetExceeded,
    FaultInjected,
    InvalidParameterError,
)
from repro.graphs import Graph, random_connected_graph
from repro.kernels.flat2d import FlatRangeTree2D
from repro.kernels.treecache import shared_lca
from repro.obs import CounterRegistry, counting_scope
import repro.pram.executor as ex
from repro.pram import (
    Ledger,
    executor_backend,
    force_executor,
    parallel_map,
    prewarm_executor,
    shutdown_shared_pools,
)
from repro.primitives import all_subtree_costs, postorder, root_tree
from repro.rangesearch import CutOracle, RangeTree2D
from repro.resilience.budget import Budget, budget_scope
from repro.resilience.faults import SITE_EXECUTOR_BRANCH, Fault, FaultPlan, inject
from repro.trees import binarize_parent
from repro.tworespect.algorithm import two_respecting_min_cut

from tests.conftest import make_graph, make_rooted
from tests.reference_tworespect import (
    ReferenceCutOracle,
    reference_two_respecting_min_cut,
)


def _random_instance(rng, n, extra, wfloat):
    """A random spanning tree plus ``extra`` random non-tree edges."""
    parent = np.full(n, -1, dtype=np.int64)
    for v in range(1, n):
        parent[v] = rng.integers(0, v)
    eu, ev, ew = [], [], []
    for v in range(1, n):
        eu.append(v)
        ev.append(int(parent[v]))
        ew.append(float(rng.uniform(0.5, 4)) if wfloat else float(rng.integers(1, 10)))
    for _ in range(extra):
        a, b = rng.integers(0, n, 2)
        if a == b:
            continue
        eu.append(int(a))
        ev.append(int(b))
        ew.append(float(rng.uniform(0.5, 4)) if wfloat else float(rng.integers(1, 10)))
    g = Graph(n, np.array(eu), np.array(ev), np.array(ew, dtype=np.float64))
    return g, parent


def _assert_parity(graph, parent, branching, decomposition):
    """Library vs reference driver: value, witness, side, stats, and the
    ledger's totals and every per-phase record, all bit-identical."""
    runs = []
    for solve in (reference_two_respecting_min_cut, two_respecting_min_cut):
        led = Ledger()
        res = solve(
            graph,
            parent,
            branching=branching,
            decomposition=decomposition,
            ledger=led,
        )
        runs.append((res, led))
    (rr, lr), (rf, lf) = runs
    assert rf.value == rr.value  # bit-identical, not approx
    assert rf.witness_edges == rr.witness_edges
    assert np.array_equal(rf.side, rr.side)
    assert rf.stats == rr.stats
    assert (lf.work, lf.depth) == (lr.work, lr.depth)
    assert lf.phases.keys() == lr.phases.keys()
    for name, rec in lr.phases.items():
        fr = lf.phases[name]
        assert (fr.work, fr.depth) == (rec.work, rec.depth), name


class TestEndToEndParity:
    """two_respecting_min_cut vs the per-entry reference driver."""

    @pytest.mark.parametrize("branching,decomposition", [(2, "heavy"), (3, "bough"), (5, "heavy")])
    def test_fixed_configs(self, branching, decomposition):
        rng = np.random.default_rng(branching * 17)
        for _ in range(4):
            n = int(rng.integers(4, 36))
            g, parent = _random_instance(rng, n, int(rng.integers(0, 3 * n)), True)
            _assert_parity(g, parent, branching, decomposition)

    def test_property_fuzz(self):
        """Randomized instances over weights, branching and decomposition."""
        rng = np.random.default_rng(99)
        for _ in range(10):
            n = int(rng.integers(2, 40))
            extra = int(rng.integers(0, 4 * n))
            wfloat = bool(rng.integers(0, 2))
            b = int(rng.choice([2, 3, 5]))
            dec = str(rng.choice(["heavy", "bough"]))
            g, parent = _random_instance(rng, n, extra, wfloat)
            _assert_parity(g, parent, b, dec)

    def test_long_path_batched_prefetch(self):
        """A 300-edge tree path gives SMAWK rounds larger than the
        scalar round cutoff, so entries are evaluated through one
        cut_many batch per round — a path the small instances above
        never reach."""
        rng = np.random.default_rng(5)
        n = 300
        parent = np.arange(-1, n - 1, dtype=np.int64)
        extra = rng.integers(0, n, size=(2 * n, 2))
        extra = extra[extra[:, 0] != extra[:, 1]]
        g = Graph(
            n,
            np.concatenate([np.arange(1, n), extra[:, 0]]),
            np.concatenate([np.arange(n - 1), extra[:, 1]]),
            rng.uniform(0.5, 4, n - 1 + extra.shape[0]),
        )
        reg = CounterRegistry()
        with counting_scope(reg):
            _assert_parity(g, parent, 2, "heavy")
        assert reg.snapshot().get("kernels.smawk_vector_rounds", 0.0) > 0


def _random_spanning_parent(rng, graph):
    """A random spanning tree of the connected ``graph`` (Kruskal over a
    random edge order), rooted at a random vertex."""
    comp = list(range(graph.n))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    ids = []
    for e in rng.permutation(graph.m).tolist():
        a, b = find(int(graph.u[e])), find(int(graph.v[e]))
        if a != b:
            comp[a] = b
            ids.append(e)
    ids = np.asarray(ids, dtype=np.int64)
    return root_tree(graph.n, graph.u[ids], graph.v[ids], int(rng.integers(0, graph.n)))


def _group_instance(rng, wfloat):
    """A graph and 1-9 distinct-shaped spanning trees of it."""
    n = int(rng.integers(4, 30))
    g, parent = _random_instance(rng, n, int(rng.integers(n, 4 * n)), wfloat)
    k = int(rng.integers(1, 10))
    return g, [parent] + [_random_spanning_parent(rng, g) for _ in range(k - 1)]


class TestLockstepGroups:
    """A lockstep group (one stacked oracle, one terminal search) vs the
    per-entry reference run tree by tree."""

    @pytest.mark.parametrize(
        "branching,decomposition,wfloat",
        [(2, "heavy", False), (3, "bough", True), (5, "heavy", True), (2, "bough", True)],
    )
    def test_each_tree_matches_reference(self, branching, decomposition, wfloat):
        rng = np.random.default_rng(branching * 31 + len(decomposition))
        sizes = set()
        for _ in range(3):
            g, parents = _group_instance(rng, wfloat)
            ledgers = [Ledger() for _ in parents]
            results = two_respecting_min_cut(
                g,
                np.stack(parents),
                branching=branching,
                decomposition=decomposition,
                ledger=ledgers,
            )
            assert len(results) == len(parents)
            for parent, rf, lf in zip(parents, results, ledgers):
                lr = Ledger()
                rr = reference_two_respecting_min_cut(
                    g, parent, branching=branching, decomposition=decomposition, ledger=lr
                )
                assert rf.value == rr.value
                assert rf.witness_edges == rr.witness_edges
                assert np.array_equal(rf.side, rr.side)
                assert rf.stats == rr.stats
                assert (lf.work, lf.depth) == (lr.work, lr.depth)
                assert {k: (r.work, r.depth) for k, r in lf.phases.items()} == {
                    k: (r.work, r.depth) for k, r in lr.phases.items()
                }
                sizes.add(rf.stats["tree_size_binarized"])
        assert len(sizes) > 1  # the groups mixed binarized tree sizes

    @pytest.mark.parametrize("seed", [0, 1])
    def test_search_stage_matches_tree_by_tree_reference(self, seed):
        """The whole stage — groups, tape replay, progress — against the
        reference searched tree by tree in parallel branches, on a plain
        and on a tracing ledger."""
        from repro import obs
        from repro.engine.stages import LOCKSTEP_GROUP, search_stage
        from repro.pram import TraceLedger

        rng = np.random.default_rng(40 + seed)
        g, parents = _group_instance(rng, wfloat=bool(seed))
        while len(parents) <= LOCKSTEP_GROUP:  # at least two groups
            parents.append(_random_spanning_parent(rng, g))
        branching = int(rng.choice([2, 3]))
        decomposition = ["heavy", "bough"][seed]
        for make in (Ledger, TraceLedger):
            ref = make()
            best = None
            with obs.phase("two-respecting", ref):
                with ref.parallel() as par:
                    for parent in parents:
                        with par.branch():
                            res = reference_two_respecting_min_cut(
                                g, parent, branching=branching,
                                decomposition=decomposition, ledger=ref,
                            )
                        if best is None or res.value < best.value:
                            best = res
            led = make()
            progress = []
            got = search_stage(
                g, parents, branching=branching, decomposition=decomposition,
                ledger=led, on_tree=lambda done, so_far: progress.append(done),
            )
            assert got.value == best.value
            assert got.witness_edges == best.witness_edges
            assert np.array_equal(got.side, best.side)
            assert got.stats == best.stats
            assert (led.work, led.depth) == (ref.work, ref.depth)
            assert {k: (r.work, r.depth) for k, r in led.phases.items()} == {
                k: (r.work, r.depth) for k, r in ref.phases.items()
            }
            if make is TraceLedger:
                for p in (1, 2, 8, 64):
                    assert led.bounds(p) == ref.bounds(p)
            assert progress == list(range(LOCKSTEP_GROUP, len(parents), LOCKSTEP_GROUP)) + [
                len(parents)
            ]
        # resuming mid-group continues from any index, same answer
        part = search_stage(
            g, parents[:3], branching=branching, decomposition=decomposition,
            ledger=Ledger(),
        )
        resumed = search_stage(
            g, parents, branching=branching, decomposition=decomposition,
            ledger=Ledger(), trees_done=3, best=part,
        )
        assert (resumed.value, resumed.witness_edges) == (best.value, best.witness_edges)

    @pytest.mark.parametrize("trace", [False, True])
    def test_long_path_group_matches_reference(self, trace):
        from repro.pram import TraceLedger

        make = TraceLedger if trace else Ledger
        g, parents = _long_path_group(np.random.default_rng(7))
        reg = CounterRegistry()
        with counting_scope(reg):
            got = _group_run(g, parents, make)
        assert reg.snapshot().get("kernels.smawk_vector_rounds", 0.0) > 0
        refs = []
        for parent in parents:
            led = make()
            refs.append((reference_two_respecting_min_cut(g, parent, ledger=led), led))
        _assert_same_run(got, tuple(zip(*refs)), trace)

    def test_phase_minima_keep_the_reference_fold_order(self):
        """On unit weights (ties everywhere), the group's single-path and
        path-pair minima name the reference's witness, tree by tree, for
        any pair lists: both run SMAWK on the same entries, so parity
        does not need the blocks to be Monge."""
        from repro.rangesearch.cutqueries import stack_oracle_points
        from repro.trees import heavy_path_decomposition
        from repro.tworespect.path_pairs import path_pair_minimum
        from repro.tworespect.single_path import single_path_minimum
        from tests.reference_tworespect import _path_pair_minimum, _single_path_minimum

        rng = np.random.default_rng(12)
        for _ in range(6):
            g, parents = _group_instance(rng, wfloat=False)
            g = Graph(g.n, g.u, g.v, np.ones(g.m))
            rts = [postorder(binarize_parent(p).parent) for p in parents]
            stack = stack_oracle_points(g, rts, 2)
            oracles = [CutOracle(g, rt, points=stack, index=i) for i, rt in enumerate(rts)]
            refs = [ReferenceCutOracle(g, rt) for rt in rts]
            for o in oracles + refs:
                o.prefill_costs()
            decs = [heavy_path_decomposition(rt) for rt in rts]
            pairs = []
            for dec in decs:
                paths = [arr.tolist() for arr in dec.paths]
                chosen = {}
                for _ in range(8 if len(paths) > 1 else 0):
                    p, q = sorted(rng.choice(len(paths), 2, replace=False).tolist())
                    chosen[(p, q)] = tuple(
                        [e for e in paths[x] if rng.random() < 0.7] or paths[x][:1]
                        for x in (p, q)
                    )
                pairs.append(chosen)
            for run, ref_run, args in (
                (single_path_minimum, _single_path_minimum, [decs]),
                (path_pair_minimum, _path_pair_minimum, [decs, pairs]),
            ):
                ledgers = [Ledger() for _ in rts]
                got = run(oracles, *args, ledgers)
                for i, ref in enumerate(refs):
                    led = Ledger()
                    want = ref_run(ref, *(a[i] for a in args), led)
                    assert got[i] == want
                    assert (ledgers[i].work, ledgers[i].depth) == (led.work, led.depth)

    def test_round_cutoff_is_wall_clock_only(self, monkeypatch):
        """All-scalar and all-vectorized rounds give bit-identical runs."""
        import repro.kernels.monge as monge
        from repro.pram import TraceLedger

        g, parents = _long_path_group(np.random.default_rng(8), n=120)
        runs = []
        for cutoff in (0, 10**9):
            monkeypatch.setattr(monge, "_SCALAR_ROUND_CUTOFF", cutoff)
            reg = CounterRegistry()
            with counting_scope(reg):
                runs.append(_group_run(g, parents, TraceLedger))
            snap = reg.snapshot()
            vector = snap.get("kernels.smawk_vector_rounds", 0.0)
            assert vector == (snap["kernels.smawk_rounds"] if cutoff == 0 else 0.0)
        _assert_same_run(runs[0], runs[1], trace=True)


def _long_path_group(rng, n=300):
    """A graph on n vertices whose first tree is the path 0-1-...-(n-1),
    plus two random spanning trees of it: the path's SMAWK rounds exceed
    the scalar round cutoff."""
    parent = np.arange(-1, n - 1, dtype=np.int64)
    extra = rng.integers(0, n, size=(2 * n, 2))
    extra = extra[extra[:, 0] != extra[:, 1]]
    g = Graph(
        n,
        np.concatenate([np.arange(1, n), extra[:, 0]]),
        np.concatenate([np.arange(n - 1), extra[:, 1]]),
        rng.uniform(0.5, 4, n - 1 + extra.shape[0]),
    )
    return g, [parent, _random_spanning_parent(rng, g), _random_spanning_parent(rng, g)]


def _group_run(g, parents, make):
    """One lockstep search of ``parents``: results and per-tree ledgers."""
    ledgers = [make() for _ in parents]
    results = two_respecting_min_cut(g, np.stack(parents), ledger=ledgers)
    return results, ledgers


def _assert_same_run(a, b, trace):
    """Two searches' results and ledgers are bit-identical, tree by tree."""
    for (ra, la), (rb, lb) in zip(zip(*a), zip(*b)):
        assert ra.value == rb.value
        assert ra.witness_edges == rb.witness_edges
        assert np.array_equal(ra.side, rb.side)
        assert ra.stats == rb.stats
        assert (la.work, la.depth) == (lb.work, lb.depth)
        assert {k: (r.work, r.depth) for k, r in la.phases.items()} == {
            k: (r.work, r.depth) for k, r in lb.phases.items()
        }
        if trace:
            for p in (1, 2, 8, 64):
                assert la.bounds(p) == lb.bounds(p)


class TestFlatStack:
    """A stacked FlatRangeTree2D set answers as the set alone and as the
    per-entry RangeTree2D: values, charges and per-set stats."""

    @pytest.mark.parametrize("branching", [2, 3, 5])
    def test_scalar_and_batched_queries(self, branching):
        import pickle

        rng = np.random.default_rng(branching)
        k, size = 3, int(rng.integers(20, 90))
        xs = rng.integers(0, 40, (k, size))
        ys = rng.integers(0, 40, (k, size))
        ws = rng.uniform(0.1, 5.0, (k, size))
        led_stack, led_alone = Ledger(), Ledger()
        stack = FlatRangeTree2D(xs, ys, ws, branching=branching, ledger=led_stack)
        alone = [
            FlatRangeTree2D(xs[i], ys[i], ws[i], branching=branching, ledger=led_alone)
            for i in range(k)
        ]
        ref = [RangeTree2D(xs[i], ys[i], ws[i], branching=branching) for i in range(k)]
        # the stack charges each set's build, in set order
        assert (led_stack.work, led_stack.depth) == (led_alone.work, led_alone.depth)
        rects = rng.integers(-2, 42, (200, 4))
        trees = rng.integers(0, k, 200)
        for (x1, x2, y1, y2), t in zip(rects.tolist(), trees.tolist()):
            ls, la, lr = Ledger(), Ledger(), Ledger()
            v = stack.query(x1, x2, y1, y2, ledger=ls, tree=t)
            assert v == alone[t].query(x1, x2, y1, y2, ledger=la)
            assert v == ref[t].query(x1, x2, y1, y2, ledger=lr)
            assert (ls.work, ls.depth) == (la.work, la.depth) == (lr.work, lr.depth)
            lp = Ledger()
            pa, pb = stack.query_pair_x(x1, x2, y1, y2, y2, y1 + 30, ledger=lp, tree=t)
            lq = Ledger()
            assert (pa, pb) == (
                alone[t].query(x1, x2, y1, y2, ledger=lq),
                alone[t].query(x1, x2, y2, y1 + 30, ledger=lq),
            )
            assert (lp.work, lp.depth) == (lq.work, lq.depth)
        # one mixed-set batch (vectorized) == per-row scalar answers
        vals, works, depths = stack.query_many(*rects.T, trees)
        for i, t in enumerate(trees.tolist()):
            led = Ledger()
            assert vals[i] == alone[t].query(*rects[i].tolist(), ledger=led)
            assert (works[i], depths[i]) == (led.work, led.depth)
        for i in range(k):
            assert stack.tree_stats[i].queries == alone[i].stats.queries
            assert stack.tree_nodes_visited(i) == alone[i].total_nodes_visited
        # pickling drops the mirrors and per-set stats; answers survive
        again = pickle.loads(pickle.dumps(stack))
        assert again.k == k and again.tree_stats[0].queries == 0
        for (x1, x2, y1, y2), t in zip(rects[:50].tolist(), trees[:50].tolist()):
            l1, l2 = Ledger(), Ledger()
            assert again.query(x1, x2, y1, y2, ledger=l1, tree=t) == stack.query(
                x1, x2, y1, y2, ledger=l2, tree=t
            )
            assert (l1.work, l1.depth) == (l2.work, l2.depth)
        assert np.array_equal(again.query_many(*rects.T, trees)[0], vals)


class TestOracleParity:
    """CutOracle answers and charges vs the per-entry reference oracle."""

    def _oracles(self, seed=3, n=40, m=300, branching=3):
        g = make_graph(n, m, seed)
        pair = {}
        for mode, cls in (("reference", ReferenceCutOracle), ("fast", CutOracle)):
            # fresh tree per mode: the LCA memo is per tree *instance*,
            # so sharing one tree would make the second build cheaper
            _, rt = make_rooted(g)
            led = Ledger()
            o = cls(g, rt, branching=branching, ledger=led)
            o.prefill_costs(ledger=led)
            pair[mode] = (o, led)
        return pair, rt

    def test_cut_values_and_charges(self):
        pair, rt = self._oracles()
        (oref, lref), (ofast, lfast) = pair["reference"], pair["fast"]
        assert isinstance(ofast.points, FlatRangeTree2D)
        assert isinstance(oref.points, RangeTree2D)
        assert lfast.work == lref.work and lfast.depth == lref.depth
        rng = np.random.default_rng(0)
        for _ in range(60):
            u, v = (int(x) for x in rng.integers(1, rt.n, 2))
            la, lb = Ledger(), Ledger()
            assert ofast.cut(u, v, ledger=la) == oref.cut(u, v, ledger=lb)
            assert (la.work, la.depth) == (lb.work, lb.depth)
        assert ofast.total_nodes_visited == oref.total_nodes_visited

    def test_cut_many_matches_scalar_loop(self):
        pair, rt = self._oracles(seed=5)
        (oref, _), (ofast, _) = pair["reference"], pair["fast"]
        rng = np.random.default_rng(1)
        us = rng.integers(1, rt.n, 80)
        vs = rng.integers(1, rt.n, 80)
        vals, works, depths = ofast.cut_many(us, vs)
        for i in range(len(us)):
            led = Ledger()
            assert vals[i] == oref.cut(int(us[i]), int(vs[i]), ledger=led)
            assert works[i] == led.work
            assert depths[i] == led.depth

    def test_cost_many_and_argmin(self):
        pair, rt = self._oracles(seed=8)
        (oref, _), (ofast, _) = pair["reference"], pair["fast"]
        us = np.arange(1, rt.n, dtype=np.int64)
        vals, works, depths = ofast.cost_many(us)
        for i, u in enumerate(us):
            led = Ledger()
            assert vals[i] == oref.cost(int(u), ledger=led)
            # prefilled cache: every cost() is a (1, 1) hit in both paths
            assert (works[i], depths[i]) == (led.work, led.depth) == (1.0, 1.0)
        best_val, best_u = ofast.cost_argmin()
        scan = [(oref.cost(int(u)), int(u)) for u in us]
        want = min(scan, key=lambda t: t[0])
        assert (best_val, best_u) == want


class TestSharedTreeStructures:
    def test_treesums_bit_identical(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            g = make_graph(int(rng.integers(5, 60)), int(rng.integers(10, 300)), int(rng.integers(1e6)))
            _, rt = make_rooted(g)
            la, lb = Ledger(), Ledger()
            lca = shared_lca(rt)
            out = all_subtree_costs(g, rt, ledger=la, lca=lca)
            # reference accumulation replay: three sequential np.add.at
            anc = lca.query(g.u, g.v)
            charges = np.zeros(rt.n)
            np.add.at(charges, g.u, g.w)
            np.add.at(charges, g.v, g.w)
            np.add.at(charges, anc, -2.0 * g.w)
            by_post = charges[rt.order]
            ref = np.cumsum(by_post)
            start = rt.post - (rt.size - 1)
            incl = ref[rt.post]
            excl = np.where(start > 0, ref[start - 1], 0.0)
            assert np.array_equal(out, incl - excl)
            # second call with the memoised LCA charges less than a cold one
            all_subtree_costs(g, rt, ledger=lb, lca=lca)
            assert lb.work == la.work or lb.work < la.work

    def test_shared_lca_charges_once(self):
        g = make_graph(30, 80, 2)
        _, rt = make_rooted(g)
        l1, l2 = Ledger(), Ledger()
        a = shared_lca(rt, ledger=l1)
        b = shared_lca(rt, ledger=l2)
        assert a is b
        assert l1.work > 0.0
        assert l2.work == 0.0
        # a fresh tree instance gets (and pays for) its own table
        rt2 = postorder(binarize_parent(np.array([-1, 0, 0, 1])).parent)
        l3 = Ledger()
        c = shared_lca(rt2, ledger=l3)
        assert c is not a and l3.work > 0.0


def _square(x):
    return x * x


# module-level so the process backend can pickle them
def _scale(context, x):
    return context["factor"] * x


def _die(context, x):
    os.kill(os.getpid(), signal.SIGKILL)


def _search_seed(context, seed):
    graph, parent, branching = context
    led = Ledger()
    res = two_respecting_min_cut(graph, parent, branching=branching, ledger=led)
    return res.value, dict(res.stats), led.work, led.depth


class TestExecutorBackends:
    def setup_method(self):
        shutdown_shared_pools()

    def teardown_method(self):
        shutdown_shared_pools()

    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert executor_backend() == "sync"
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert executor_backend() == "process"
        with force_executor("sync"):
            assert executor_backend() == "sync"
        for gone in ("fibers", "thread", "shm"):
            monkeypatch.setenv("REPRO_EXECUTOR", gone)
            with pytest.raises(InvalidParameterError):
                executor_backend()
            with pytest.raises(InvalidParameterError):
                with force_executor(gone):
                    pass
            with pytest.raises(InvalidParameterError):
                prewarm_executor(gone)

    @pytest.mark.parametrize("backend", ["sync", "process"])
    def test_map_matches_sequential(self, backend):
        with force_executor(backend):
            assert parallel_map(_square, list(range(9))) == [x * x for x in range(9)]
            assert parallel_map(_square, []) == []

    def test_shared_process_pool_reused(self):
        with force_executor("process"):
            parallel_map(_square, [1, 2, 3], max_workers=3)
            first = ex._shared_pools.get((3, ""))
            parallel_map(_square, [4, 5, 6], max_workers=3)
            assert first is not None
            assert ex._shared_pools.get((3, "")) is first

    def test_process_falls_back_for_lambdas(self):
        with force_executor("process"):
            assert parallel_map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        assert ex._route("process", None, lambda x: x) == "sync"
        assert ex._route("process", None, _square) == "process"

    @pytest.mark.parametrize("backend", ["sync", "process"])
    def test_fault_injection_fires(self, backend):
        with force_executor(backend):
            plan = FaultPlan([Fault(SITE_EXECUTOR_BRANCH, index=1)])
            with inject(plan):
                with pytest.raises(FaultInjected):
                    parallel_map(_square, [1, 2, 3])
            assert plan.exhausted
            # a retry survives the single injected failure
            plan = FaultPlan([Fault(SITE_EXECUTOR_BRANCH, index=1)])
            with inject(plan):
                assert parallel_map(_square, [1, 2, 3], retries=1) == [1, 4, 9]

    def test_context_broadcast_matches_sync(self):
        items = list(range(12))
        ctx = {"factor": 3}
        with force_executor("sync"):
            want = parallel_map(_scale, items, context=ctx)
        with force_executor("process"):
            got = parallel_map(_scale, items, 2, context=ctx, context_key="scale3")
        assert got == want

    @pytest.mark.parametrize("trace", [False, True])
    def test_search_parity_vs_sync(self, trace):
        """The process backend produces bit-identical values, stats,
        and ledger charges to sync, traced and untraced."""
        from repro import obs
        from repro.primitives import root_tree, spanning_forest_graph

        g = random_connected_graph(60, 400, rng=19, max_weight=6)
        ids, _ = spanning_forest_graph(g)
        ctx = (g, root_tree(g.n, g.u[ids], g.v[ids], 0), 2)
        seeds = [0, 1, 2, 3]

        def run(backend):
            with force_executor(backend):
                if not trace:
                    return parallel_map(
                        _search_seed, seeds, 2, context=ctx, context_key="parity"
                    )
                tracer = obs.Tracer(ledger=Ledger())
                with tracer.activate():
                    out = parallel_map(
                        _search_seed, seeds, 2, context=ctx, context_key="parity"
                    )
                tracer.finish()
                return out

        assert run("process") == run("sync")

    def test_context_bound_pool_reused_then_superseded(self):
        with force_executor("process"):
            parallel_map(_scale, [1, 2], 2, context={"factor": 2}, context_key="k1")
            first = ex._shared_pools[(2, "k1")]
            parallel_map(_scale, [3, 4], 2, context={"factor": 2}, context_key="k1")
            assert ex._shared_pools[(2, "k1")] is first
            # a new context replaces the old context-bound pool, so
            # pools do not accumulate one per context
            assert parallel_map(
                _scale, [5], 2, context={"factor": 3}, context_key="k2"
            ) == [15]
        assert set(ex._shared_pools) == {(2, "k2")}

    def test_prewarm_returns_backend(self):
        with force_executor("process"):
            assert prewarm_executor(max_workers=2) == "process"
        assert (2, "") in ex._shared_pools
        assert prewarm_executor("sync") == "sync"

    def test_pool_evicted_after_worker_death(self):
        """A SIGKILLed worker breaks the pool mid-dispatch; the broken
        pool is evicted and the next dispatch gets a fresh one."""
        with force_executor("process"):
            with pytest.raises(BrokenExecutor):
                parallel_map(_die, [1, 2], 2, context={"factor": 1}, context_key="die")
            assert (2, "die") not in ex._shared_pools
            out = parallel_map(_scale, [7], 2, context={"factor": 2}, context_key="die")
        assert out == [14]

    def test_default_pool_size_follows_effective_cpus(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(ex, "_CPU_MAX", tmp_path / "missing")
        assert ex.effective_cpus() == 4.0
        quota = tmp_path / "cpu.max"
        quota.write_text("150000 100000\n")  # 1.5 CPUs of quota
        monkeypatch.setattr(ex, "_CPU_MAX", quota)
        assert ex.effective_cpus() == 1.5
        with force_executor("process"):
            assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]
            assert set(ex._shared_pools) == {(1, "")}
            prewarm_executor()
            assert set(ex._shared_pools) == {(1, "")}
        quota.write_text("max 100000\n")
        assert ex.effective_cpus() == 4.0

    def test_budget_checkpoint_fires_under_process(self):
        led = Ledger()
        budget = Budget(max_work=5.0, ledger=led).start()
        led.charge(work=10.0, depth=1.0)  # exhaust before dispatch
        with force_executor("process"), budget_scope(budget):
            with pytest.raises(BudgetExceeded) as err:
                parallel_map(_square, [1, 2, 3])
        # polled in the parent before the first branch is dispatched
        assert err.value.site == "executor.branch[0]"
        assert err.value.reason == "work"

    def test_budget_ok_under_process(self):
        led = Ledger()
        budget = Budget(max_work=1e9, ledger=led).start()
        with force_executor("process"), budget_scope(budget):
            assert parallel_map(_square, [2, 3]) == [4, 9]
