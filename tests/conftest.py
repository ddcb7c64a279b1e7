"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import Graph, random_connected_graph
from repro.primitives import postorder, root_tree, spanning_forest_graph
from repro.trees import binarize_parent


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_graph(n: int, m: int, seed: int, max_weight: int = 5) -> Graph:
    """Deterministic connected test graph."""
    return random_connected_graph(n, m, rng=seed, max_weight=max_weight)


def make_rooted(graph: Graph, root: int = 0, seed: int = 0):
    """(parent_array, binarized RootedTree) of a spanning tree of graph."""
    fids, _ = spanning_forest_graph(graph)
    parent = root_tree(graph.n, graph.u[fids], graph.v[fids], root)
    bt = binarize_parent(parent)
    return parent, postorder(bt.parent)


def assert_valid_cut(graph: Graph, value: float, side) -> None:
    side = np.asarray(side, dtype=bool)
    assert side.shape == (graph.n,)
    assert 0 < side.sum() < graph.n
    assert abs(graph.cut_value(side) - value) < 1e-9


def load_script(name: str):
    """Import ``scripts/<name>.py``, which is not a package, as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module through it
    spec.loader.exec_module(module)
    return module
