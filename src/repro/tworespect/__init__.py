"""Parallel minimum 2-respecting cut (Section 4.1, Theorem 4.2)."""

from repro.kernels.terminals import find_interest_terminals
from repro.tworespect.algorithm import two_respecting_min_cut
from repro.tworespect.bruteforce import brute_force_two_respecting
from repro.tworespect.path_pairs import (
    collect_interest_tuples,
    group_interested_pairs,
    path_pair_minimum,
)
from repro.tworespect.single_path import single_path_minimum

__all__ = [
    "two_respecting_min_cut",
    "brute_force_two_respecting",
    "single_path_minimum",
    "find_interest_terminals",
    "collect_interest_tuples",
    "group_interested_pairs",
    "path_pair_minimum",
]
