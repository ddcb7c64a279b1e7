"""Tree machinery: binarization, path decompositions, Root-paths,
centroid decomposition and the interest-path search."""

from collections import Counter

import numpy as np
import pytest

from repro.graphs import random_connected_graph
from repro.pram import Ledger
from repro.primitives import postorder, root_tree, spanning_forest_graph
from repro.trees import (
    CentroidDecomposition,
    RootPaths,
    binarize_parent,
    bough_decomposition,
    centroid_decomposition,
    heavy_path_decomposition,
    max_paths_on_root_leaf_route,
)

from tests.conftest import make_graph
from tests.reference_tworespect import child_component_toward, deepest_on_interest_path


def random_parent(n, seed, root=0):
    g = make_graph(n, 3 * n, seed)
    ids, _ = spanning_forest_graph(g)
    return root_tree(g.n, g.u[ids], g.v[ids], root)


def star_parent(n):
    parent = np.zeros(n, dtype=np.int64)
    parent[0] = -1
    return parent


def path_parent(n):
    parent = np.arange(-1, n - 1, dtype=np.int64)
    return parent


class TestBinarize:
    def test_max_degree_two(self):
        for seed in range(4):
            bt = binarize_parent(random_parent(120, seed))
            counts = Counter(int(p) for p in bt.parent if p >= 0)
            assert max(counts.values(), default=0) <= 2

    def test_star_tree(self):
        bt = binarize_parent(star_parent(50))
        counts = Counter(int(p) for p in bt.parent if p >= 0)
        assert max(counts.values()) <= 2
        assert bt.n_real == 50
        assert bt.n < 2 * 50  # O(d) virtual vertices

    def test_path_tree_unchanged(self):
        bt = binarize_parent(path_parent(30))
        assert bt.n == 30  # already binary

    def test_real_vertex_ids_preserved(self):
        parent = random_parent(60, 9)
        bt = binarize_parent(parent)
        rt = postorder(bt.parent)
        # real vertex subtree membership must match the original tree
        rt0 = postorder(parent)
        for u in range(60):
            for x in range(0, 60, 7):
                assert rt.is_ancestor(u, x) == rt0.is_ancestor(u, x)

    def test_virtual_flag(self):
        bt = binarize_parent(star_parent(10))
        assert not bt.is_virtual(9)
        assert bt.is_virtual(10)

    def test_gadget_depth_logarithmic(self):
        bt = binarize_parent(star_parent(512))
        rt = postorder(bt.parent)
        assert rt.depth.max() <= np.ceil(np.log2(512)) + 2


@pytest.mark.parametrize("decompose", [heavy_path_decomposition, bough_decomposition])
class TestPathDecomposition:
    def test_validates(self, decompose):
        for seed in range(4):
            rt = postorder(binarize_parent(random_parent(100, seed)).parent)
            decompose(rt).validate(rt)

    def test_property_4_3(self, decompose):
        """Any root-to-leaf route meets O(log n) paths."""
        for seed in range(4):
            rt = postorder(binarize_parent(random_parent(150, seed + 10)).parent)
            dec = decompose(rt)
            assert max_paths_on_root_leaf_route(rt, dec) <= 2 * np.log2(rt.n) + 2

    def test_path_tree_single_chain(self, decompose):
        rt = postorder(path_parent(20))
        dec = decompose(rt)
        assert dec.num_paths == 1
        assert len(dec.paths[0]) == 19

    def test_star_tree(self, decompose):
        rt = postorder(star_parent(12))
        dec = decompose(rt)
        dec.validate(rt)
        assert dec.num_paths == 11

    def test_paths_are_descending(self, decompose):
        rt = postorder(binarize_parent(random_parent(80, 3)).parent)
        dec = decompose(rt)
        for arr in dec.paths:
            for i in range(1, len(arr)):
                assert rt.parent[arr[i]] == arr[i - 1]

    def test_head_is_shallowest(self, decompose):
        rt = postorder(binarize_parent(random_parent(80, 4)).parent)
        dec = decompose(rt)
        for pid, arr in enumerate(dec.paths):
            assert dec.head(pid) == arr[0]
            depths = rt.depth[arr]
            assert (np.diff(depths) == 1).all()


class TestRootPaths:
    def test_query_matches_parent_walk(self):
        for seed in range(3):
            rt = postorder(binarize_parent(random_parent(120, seed + 20)).parent)
            dec = heavy_path_decomposition(rt)
            rp = RootPaths.build(rt, dec)
            rng = np.random.default_rng(seed)
            for u in rng.integers(0, rt.n, size=15):
                u = int(u)
                expect = []
                x = u
                while rt.parent[x] >= 0:
                    pid = int(dec.path_of[x])
                    if pid not in expect:
                        expect.append(pid)
                    x = int(rt.parent[x])
                assert rp.query(u) == expect

    def test_root_returns_empty(self):
        rt = postorder(path_parent(5))
        rp = RootPaths.build(rt, heavy_path_decomposition(rt))
        assert rp.query(rt.root) == []

    def test_query_length_logarithmic(self):
        rt = postorder(binarize_parent(random_parent(300, 8)).parent)
        rp = RootPaths.build(rt, heavy_path_decomposition(rt))
        for u in range(0, rt.n, 13):
            assert len(rp.query(u)) <= 2 * np.log2(rt.n) + 2

    def test_query_charges_ledger(self):
        rt = postorder(path_parent(10))
        rp = RootPaths.build(rt, heavy_path_decomposition(rt))
        led = Ledger()
        rp.query(9, ledger=led)
        assert led.work >= 1


class TestCentroid:
    def test_height_logarithmic(self):
        for seed in range(3):
            rt = postorder(binarize_parent(random_parent(200, seed + 30)).parent)
            cd = centroid_decomposition(rt)
            assert cd.height <= np.log2(rt.n) + 2

    def test_every_vertex_once(self):
        rt = postorder(binarize_parent(random_parent(90, 2)).parent)
        cd = centroid_decomposition(rt)
        assert (cd.cent_parent == -1).sum() == 1
        assert cd.cent_root >= 0

    def test_path_tree_centroid_is_middle(self):
        rt = postorder(path_parent(15))
        cd = centroid_decomposition(rt)
        assert cd.cent_depth[cd.cent_root] == 0
        # root centroid of a path is its midpoint
        assert 6 <= cd.cent_root <= 8

    def test_child_component_toward(self):
        rt = postorder(path_parent(7))
        cd = centroid_decomposition(rt)
        c = cd.cent_root
        for y in range(7):
            if y == c:
                continue
            child = child_component_toward(cd, c, y)
            assert cd.cent_parent[child] == c


def _shaped_parent(rng, kind, n):
    """A parent array of the given shape on n vertices, relabelled at
    random (so the root and the postorder ranks are arbitrary)."""
    parent = np.full(n, -1, dtype=np.int64)
    for v in range(1, n):
        if kind == "path":
            parent[v] = v - 1
        elif kind == "star":
            parent[v] = 0
        elif kind == "caterpillar":  # a spine with one leg per spine vertex
            parent[v] = v - 1 if v % 2 else max(v - 3, 0)
        elif kind == "heap":
            parent[v] = (v - 1) // 2
        else:  # random recursive tree
            parent[v] = rng.integers(0, v)
    perm = rng.permutation(n)
    out = np.full(n, -1, dtype=np.int64)
    has = parent >= 0
    out[perm[has]] = perm[parent[has]]
    return out


class TestGroupCentroid:
    """The level-synchronous decomposition of a forest vs the sequential
    component walk of ``tests/reference_tworespect.py``, tree by tree."""

    def test_forests_match_sequential_walk(self):
        from tests.reference_tworespect import reference_centroid_decomposition

        rng = np.random.default_rng(11)
        kinds = ["path", "star", "caterpillar", "heap", "random"]
        seen = set()
        for it in range(60):
            k = int(rng.integers(1, 10))
            hi = 400 if it % 6 == 0 else 60
            trees = []
            for _ in range(k):
                kind = kinds[int(rng.integers(0, len(kinds)))]
                n = int(rng.integers(1, hi + 1))
                seen.add(kind)
                trees.append(postorder(_shaped_parent(rng, kind, n)))
            ledgers = [Ledger() for _ in trees]
            got = centroid_decomposition(trees, ledgers)
            assert len(got) == k
            for rt, cd, led in zip(trees, got, ledgers):
                ref_led = Ledger()
                ref = reference_centroid_decomposition(rt, ledger=ref_led)
                assert np.array_equal(cd.cent_parent, ref.cent_parent)
                assert np.array_equal(cd.cent_depth, ref.cent_depth)
                assert cd.cent_root == ref.cent_root
                assert (led.work, led.depth) == (ref_led.work, ref_led.depth)
        assert seen == set(kinds)

    def test_one_tree_is_a_group_of_one(self):
        rt = postorder(binarize_parent(random_parent(50, 4)).parent)
        l1, l2 = Ledger(), Ledger()
        one = centroid_decomposition(rt, ledger=l1)
        (grp,) = centroid_decomposition([rt], [l2])
        assert isinstance(one, CentroidDecomposition)
        assert np.array_equal(one.cent_parent, grp.cent_parent)
        assert one.cent_root == grp.cent_root
        assert (l1.work, l1.depth) == (l2.work, l2.depth)


class TestInterestPathSearch:
    """deepest_on_interest_path with synthetic membership oracles."""

    def _setup(self, n, seed):
        parent = random_parent(n, seed)
        bt = binarize_parent(parent)
        rt = postorder(bt.parent)
        cd = centroid_decomposition(rt)
        return rt, cd

    def test_finds_deepest_of_explicit_path(self):
        rt, cd = self._setup(70, 1)
        rng = np.random.default_rng(3)
        for _ in range(25):
            # build a random root-descending path: walk down from root
            members = {rt.root}
            x = rt.root
            kids = rt.children_lists()
            while True:
                ch = kids[x]
                if not ch or rng.random() < 0.25:
                    break
                x = int(ch[int(rng.integers(0, len(ch)))])
                members.add(x)
            found = deepest_on_interest_path(
                rt, cd, top=rt.root, member=lambda v: v in members
            )
            assert found == x

    def test_descending_from_inner_top(self):
        rt, cd = self._setup(70, 2)
        rng = np.random.default_rng(5)
        kids = rt.children_lists()
        for top in range(0, rt.n, 11):
            members = {top}
            x = top
            while True:
                ch = kids[x]
                if not ch or rng.random() < 0.3:
                    break
                x = int(ch[0])
                members.add(x)
            found = deepest_on_interest_path(
                rt, cd, top=top, member=lambda v: v in members
            )
            assert found == x

    def test_trivial_path(self):
        rt, cd = self._setup(40, 3)
        assert (
            deepest_on_interest_path(rt, cd, top=rt.root, member=lambda v: v == rt.root)
            == rt.root
        )

    def test_probe_count_logarithmic(self):
        rt, cd = self._setup(250, 4)
        probes = []
        kids = rt.children_lists()
        # deepest chain: follow first children all the way
        members = {rt.root}
        x = rt.root
        while kids[x]:
            x = kids[x][0]
            members.add(x)
        calls = 0

        def member(v):
            nonlocal calls
            calls += 1
            return v in members

        found = deepest_on_interest_path(rt, cd, top=rt.root, member=member)
        assert found == x
        assert calls <= 6 * (np.log2(rt.n) + 1)
