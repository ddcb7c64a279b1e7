"""Classical baseline solvers, each vectorized over the array Graph.

These are the algorithms the arena benchmarks the paper pipeline
against: Stoer–Wagner (deterministic exact), Karger–Stein (Monte
Carlo exact w.h.p.), 2-out contraction (Monte Carlo, unweighted),
Matula's (2+eps)-approximation, and the VieCut-style exact reduction
pipeline.
"""

from repro.arena.solvers.karger_stein import karger_stein
from repro.arena.solvers.matula import matula_approx
from repro.arena.solvers.reductions import reduce_graph, viecut_minimum_cut
from repro.arena.solvers.stoer_wagner import stoer_wagner
from repro.arena.solvers.two_out import two_out_contraction_min_cut

__all__ = [
    "stoer_wagner",
    "karger_stein",
    "matula_approx",
    "two_out_contraction_min_cut",
    "reduce_graph",
    "viecut_minimum_cut",
]
