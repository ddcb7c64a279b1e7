"""The 2-respecting search's kernels, held to a strict parity contract.

The paper's per-tree search reduces to one 2-D orthogonal range-search
oracle (Lemmas A.1/A.2) probed by SMAWK and the centroid-guided
interest-terminal search.  The per-entry formulation — range trees of
Python node objects (:class:`repro.rangesearch.tree2d.RangeTree2D`),
entry-at-a-time SMAWK (:mod:`repro.monge`), per-edge centroid searches
(:func:`repro.trees.centroid.deepest_on_interest_path`) — is the
*instrument* whose ledger charges the theorems are checked against.
The library runs only the kernels in this package, whose contract
against that formulation is

* **bit-identical answers** (cut values, oracle sums, side masks), and
* **identical ledger work/depth charges** (and identical structural
  visit counters), totals and per-phase records,

enforced by ``tests/test_kernels_parity.py`` against the per-entry
reference driver in ``tests/reference_tworespect.py``.  The kernels win
wall-clock by replacing per-entry Python callbacks with flattened
CSR-style array traversals (:mod:`repro.kernels.flat2d`), batched
oracle evaluation (the ``*_many`` methods of
:class:`repro.rangesearch.cutqueries.CutOracle`), a resumable SMAWK
whose instances — every SMAWK call of every tree of a lockstep group —
advance together, one oracle round at a time
(:mod:`repro.kernels.monge`), a level-synchronous interest-terminal
search (:mod:`repro.kernels.terminals`) and shared per-tree structures
(:mod:`repro.kernels.treecache`).  The centroid decompositions the
terminal search walks are built level-synchronously too, for a whole
group at once (:func:`repro.trees.centroid.centroid_decomposition`).
"""
