"""Shared per-tree structure cache.

:class:`~repro.primitives.euler.RootedTree` is a frozen value object, so
derived structures (binary-lifting LCA tables, children lists) are pure
functions of the instance.  The helpers here memoise them directly on
the tree object — the cache dies with the instance, so invalidation is
by identity and a rebuilt tree never sees stale data.

Ledger note: the build charge is paid when the structure is first
built; later calls return the memo without charging, exactly like any
other cache hit in the library (e.g. the oracle's cost cache charges
the query cost once and (1, 1) thereafter — here repeat lookups are
free because the reference call sites never re-build either).

Cross-process note: the memo rides on the instance, and
:class:`RootedTree` deliberately strips ``_repro_*`` memo attributes
from its pickled state — a tree travelling to a process-pool worker
arrives lean, and the worker builds its own LCA table on first use.
Because a context-bound pool installs the unpickled broadcast context
once per worker process, that rebuild happens once per worker, not
once per task.
"""

from __future__ import annotations

from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.primitives.euler import RootedTree
from repro.primitives.lca import LCA

__all__ = ["shared_lca"]

_LCA_CACHE_KEY = "_repro_lca_cache"


def shared_lca(tree: RootedTree, ledger: Ledger = NULL_LEDGER) -> LCA:
    """The tree's binary-lifting LCA table, built (and charged) once.

    Subsequent calls on the same instance return the memoised table and
    charge nothing.
    """
    cached = getattr(tree, _LCA_CACHE_KEY, None)
    if cached is not None:
        return cached
    lca = LCA(tree, ledger=ledger)
    object.__setattr__(tree, _LCA_CACHE_KEY, lca)
    return lca
