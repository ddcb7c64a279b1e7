"""Rooted-tree machinery: binarization, path decompositions, Root-paths
and centroid decomposition."""

from repro.trees.binary import BinarizedTree, binarize_parent
from repro.trees.centroid import CentroidDecomposition, centroid_decomposition
from repro.trees.paths import (
    PathDecomposition,
    bough_decomposition,
    heavy_path_decomposition,
    max_paths_on_root_leaf_route,
)
from repro.trees.rootpaths import RootPaths

__all__ = [
    "BinarizedTree",
    "binarize_parent",
    "PathDecomposition",
    "heavy_path_decomposition",
    "bough_decomposition",
    "max_paths_on_root_leaf_route",
    "RootPaths",
    "CentroidDecomposition",
    "centroid_decomposition",
]
