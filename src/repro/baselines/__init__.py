"""Baselines: the GG18-style parallel stand-in and Table 1 cost models.

The classical solver baselines (Stoer–Wagner, Karger–Stein, Matula,
2-out contraction) live in :mod:`repro.arena.solvers`, where the arena
registry wraps them as contenders.
"""

from repro.baselines.gg18 import gg18_depth_model, gg18_two_respecting, gg18_work_model
from repro.baselines.models import (
    crossover_density,
    depth_all,
    work_ab21,
    work_gg18,
    work_here,
    work_sequential_gmw,
)

__all__ = [
    "gg18_two_respecting",
    "gg18_work_model",
    "gg18_depth_model",
    "work_here",
    "work_gg18",
    "work_ab21",
    "work_sequential_gmw",
    "depth_all",
    "crossover_density",
]
