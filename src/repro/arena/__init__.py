"""The solver arena: every min-cut algorithm behind one surface.

``repro.arena`` turns the repo's solvers — the paper pipeline (a cold
``CutEngine`` query), the resilient driver — and the classical baselines
implemented under :mod:`repro.arena.solvers` into uniform
:class:`Contender` objects: named, kinded, seeded, returning a typed
:class:`ArenaResult` with the cut value, witness side, wall-clock time
and work/depth charges.  ``python -m repro arena FILE`` runs the
contenders on one corpus graph and cross-checks the exact ones
bit-for-bit.

>>> from repro.arena import get_contender
>>> get_contender("stoer-wagner").solve(graph, seed=0).value

See ``docs/arena.md`` for the contender table and how to add one.
"""

from repro.arena.registry import (
    all_contenders,
    contender_names,
    get_contender,
    register,
)
from repro.arena.result import KINDS, ArenaResult, Contender

__all__ = [
    "ArenaResult",
    "Contender",
    "KINDS",
    "register",
    "get_contender",
    "contender_names",
    "all_contenders",
]
