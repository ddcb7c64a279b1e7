"""Theorem 4.2: the parallel minimum 2-respecting cut of one tree.

Given graph G and a spanning tree T (parent-array over G's vertices),
find the minimum-weight cut of G that cuts at most two edges of T:

1. binarize T (Section 4.1.3 WLOG) and number it in postorder;
2. build the cut-query oracle (Lemma A.1) with the requested range-tree
   branching (2 for the O(m log m + n log^3 n)-work general bound,
   ~n^eps for the Section 4.3 dense-graph bound);
3. the 1-respecting minimum: cost(e) over all tree edges;
4. the single-path case over a Property-4.3 decomposition (Lemma 4.6);
5. the distinct-path case via interest terminals, tuples, and per-pair
   SMAWK (Lemma 4.17).

All stages charge the shared ledger; the oracle's structural visit
counters land in ``CutResult.stats``.

Theorem 4.2 runs the searches of all packed trees in parallel.  Given a
``(k, n)`` stack of trees, this module runs k searches in lockstep: one
stacked range tree holds the k oracles' point sets; the single-path and
path-pair SMAWK calls of all k trees each run as one round-by-round
schedule (:mod:`repro.kernels.monge`); one level-synchronous pass builds
the k centroid decompositions; and the interest-terminal search
advances every tree's searches together, one fused oracle batch per
round.  Each tree charges its own ledger exactly what a search of that
tree alone charges.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator, List, Literal, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.errors import GraphFormatError
from repro.graphs.graph import Graph
from repro.pram.ledger import Ledger, NULL_LEDGER
from repro.resilience.budget import checkpoint as _checkpoint
from repro.primitives.euler import postorder
from repro.rangesearch.cutqueries import CutOracle, stack_oracle_points
from repro.results import CutResult
from repro.trees.binary import binarize_parent
from repro.trees.centroid import centroid_decomposition
from repro.trees.paths import bough_decomposition, heavy_path_decomposition
from repro.trees.rootpaths import RootPaths
from repro.tworespect.path_pairs import (
    collect_interest_tuples,
    find_interest_terminals,
    group_interested_pairs,
    path_pair_minimum,
)
from repro.tworespect.single_path import single_path_minimum

__all__ = ["two_respecting_min_cut"]


def two_respecting_min_cut(
    graph: Graph,
    tree_parent: np.ndarray,
    *,
    branching: int = 2,
    decomposition: Literal["heavy", "bough"] = "heavy",
    ledger: Union[Ledger, Sequence[Ledger]] = NULL_LEDGER,
) -> Union[CutResult, List[CutResult]]:
    """Minimum cut of ``graph`` 2-respecting the tree ``tree_parent``.

    Parameters
    ----------
    graph:
        Weighted undirected graph (need not be connected beyond the
        tree's span, but the tree must span all its vertices).
    tree_parent:
        Parent array of a spanning tree of ``graph`` (root = -1 entry),
        or a ``(k, n)`` stack of k such arrays, searched in lockstep.
    branching:
        Range-tree degree; see Section 4.3 (``max(2, round(n**eps))``).
    decomposition:
        Path decomposition flavour; both satisfy Property 4.3.
    ledger:
        The ledger to charge; for a stack, a sequence of k ledgers, tree
        i charging ``ledger[i]`` exactly what its search alone charges.

    Returns
    -------
    CutResult with the optimal value, side mask, witness tree edges, and
    oracle statistics; for a stack, the list of the k trees' results.
    """
    parents = np.asarray(tree_parent, dtype=np.int64)
    if parents.ndim == 1:
        return _search_group(graph, parents[None, :], branching, decomposition, [ledger])[0]
    ledgers = list(ledger)  # type: ignore[arg-type]
    if len(ledgers) != parents.shape[0]:
        raise GraphFormatError("a stack of trees needs one ledger per tree")
    return _search_group(graph, parents, branching, decomposition, ledgers)


@contextmanager
def _group_phase(name: str, ledgers: Sequence[Ledger]) -> Iterator[None]:
    """One phase of every tree of a group: a ledger phase on each tree's
    ledger and one span (the group's wall time) on the ambient tracer."""
    with ExitStack() as stack:
        for led in ledgers:
            stack.enter_context(led.phase(name))
        with obs.current_tracer().span(name):
            yield


def _search_group(
    graph: Graph,
    parents: np.ndarray,
    branching: int,
    decomposition: str,
    ledgers: List[Ledger],
) -> List[CutResult]:
    """The lockstep search of the trees ``parents[i]`` (row i charging
    ``ledgers[i]``): the cheap per-tree phases tree by tree, then every
    search phase once for the whole group — one SMAWK schedule for the
    single-path and one for the path-pair case, one level-synchronous
    centroid decomposition and one interest-terminal search.  Each
    tree's ledger still sees its phases in the single-tree order."""
    if parents.shape[1] != graph.n:
        raise GraphFormatError("tree must span the graph's vertex set")
    if graph.n < 2:
        raise GraphFormatError("need at least two vertices")

    rts = []
    for tp, led in zip(parents, ledgers):
        _checkpoint("two_respecting.start")
        with obs.phase("binarize+postorder", led):
            bt = binarize_parent(tp, ledger=led)
            rts.append(postorder(bt.parent, ledger=led))
    with _group_phase("oracle-build", ledgers):
        # one stacked range tree for the group; each tree's oracle
        # charges the build of its own set
        stack = stack_oracle_points(graph, rts, branching)
        oracles = []
        for i, (rt, led) in enumerate(zip(rts, ledgers)):
            oracle = CutOracle(
                graph, rt, branching=branching, ledger=led, points=stack, index=i
            )
            oracle.prefill_costs(ledger=led)
            oracles.append(oracle)

    bests: List[Tuple[float, int, int]] = []
    decs = []
    rootpaths_all = []
    dec_fn = heavy_path_decomposition if decomposition == "heavy" else bough_decomposition
    for rt, oracle, led in zip(rts, oracles, ledgers):
        # --- 1-respecting cuts: every tree edge alone ---------------------
        _checkpoint("two_respecting.one_respecting")
        with obs.phase("one-respecting", led):
            # the cache is prefilled, so a per-edge scan would charge one
            # (1, 1) cache hit per branch and reduces to an argmin
            # (np.argmin's first-minimum tie-break matches an ascending
            # `val < best` scan).  One branch charging (#edges, 1) leaves
            # the parallel frame in the identical state.
            val, u = oracle.cost_argmin()
            bests.append((val, u, u))
            with led.parallel() as par:
                with par.branch():
                    led.charge(work=float(rt.n - 1), depth=1.0)
        with obs.phase("decompose", led):
            dec = dec_fn(rt, ledger=led)
            decs.append(dec)
            rootpaths_all.append(RootPaths.build(rt, dec, ledger=led))

    # --- same-path pairs: every tree's SMAWK calls in one schedule -------
    _checkpoint("two_respecting.single_path")
    with _group_phase("single-path", ledgers):
        found = single_path_minimum(oracles, decs, ledgers)
    bests = [_better(best, f) for best, f in zip(bests, found)]

    # --- distinct-path pairs: centroids and terminals for the group ------
    _checkpoint("two_respecting.path_pairs")
    with _group_phase("centroid", ledgers):
        cds = centroid_decomposition(rts, ledgers)
    with _group_phase("interest-terminals", ledgers):
        terminals = find_interest_terminals(oracles, cds, ledgers)
    num_tuples = []
    pairs_all = []
    for rootpaths, (c_e, d_e), led in zip(rootpaths_all, terminals, ledgers):
        with obs.phase("interest-tuples", led):
            tuples = collect_interest_tuples(rootpaths, c_e, d_e, ledger=led)
            pairs_all.append(group_interested_pairs(tuples, ledger=led))
        num_tuples.append(len(tuples))
    with _group_phase("path-pairs", ledgers):
        found = path_pair_minimum(oracles, decs, pairs_all, ledgers)
    bests = [_better(best, f) for best, f in zip(bests, found)]
    return [
        _tree_result(oracle, dec, best, t, len(pairs))
        for oracle, dec, best, t, pairs in zip(oracles, decs, bests, num_tuples, pairs_all)
    ]


_Best = Tuple[float, int, int]


def _better(best: _Best, other: _Best) -> _Best:
    """``other`` if it is strictly smaller, else ``best`` (the one-tree
    search's ``val < best`` fold)."""
    return other if other[0] < best[0] else best


def _tree_result(
    oracle: CutOracle,
    dec,
    best: Tuple[float, int, int],
    num_tuples: int,
    num_pairs: int,
) -> CutResult:
    """One tree's :class:`CutResult` (and its ``tworespect.*`` counters)."""
    value, eu, ev = best
    side = oracle.cut_side_mask(eu, ev)
    # normalise: a cut side must be a proper subset of the *real* vertices
    if side.all() or not side.any():  # pragma: no cover - defensive
        raise GraphFormatError("degenerate 2-respecting side mask")
    reg = obs.counters()
    if reg.enabled:
        reg.add("tworespect.trees")
        reg.add("oracle.nodes_visited", float(oracle.total_nodes_visited))
        reg.add("oracle.queries", float(oracle.queries))
        reg.add("tworespect.interest_tuples", float(num_tuples))
        reg.add("tworespect.interested_pairs", float(num_pairs))
    return CutResult(
        value=float(value),
        side=side,
        witness_edges=(int(eu), int(ev)),
        stats={
            "oracle_nodes_visited": float(oracle.total_nodes_visited),
            "oracle_queries": float(oracle.queries),
            "num_paths": float(dec.num_paths),
            "num_interest_tuples": float(num_tuples),
            "num_interested_pairs": float(num_pairs),
            "tree_size_binarized": float(oracle.tree.n),
        },
    )
