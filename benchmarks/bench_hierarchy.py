"""E9 — Section 3.1's separation claims (Claims 3.6-3.13).

Paper artifact: the layer-location argument — below the skeleton layer
the truncated hierarchy's min-cut exceeds 160 log n, at the skeleton
layer it lands in [75, 125] log n, above it drops below 67 log n (all
scaled by HierarchyParams.scale here; the windows keep their ratios).

What we measure: per-layer min-cuts of the truncated hierarchy and of
the cumulative certificates on heavy-weight graphs; whether a unique
dense->window->sparse transition exists; and the certificate hierarchy's
total weight (Claim 3.19's O(m log n) budget).

Shape claims asserted: layer cuts are non-increasing and bounded by
delta, the minimum weighted degree of the densest cumulative
certificate (the bound behind the below-window exit of
``approximate_minimum_cut``, reported with whether that exit fires);
the located layer rescales to within 4x of the true min cut;
certificate weight stays within the per-edge budget.
"""

from __future__ import annotations

import numpy as np
from repro.approx import locate_skeleton_layer
from repro.arena.solvers import stoer_wagner
from repro.graphs import random_connected_graph
from repro.metrics import format_table
from repro.sparsify import (
    HierarchyParams,
    build_certificate_hierarchy,
    build_truncated_hierarchy,
)

PARAMS = HierarchyParams(scale=0.02)
_rows: list[list] = []
_summary: dict = {}


def test_hierarchy_layers(once):
    rng = np.random.default_rng(31)
    g = random_connected_graph(40, 170, rng=rng, max_weight=1)
    g = g.with_weights(g.w * 700.0)
    lam = stoer_wagner(g).value

    def run():
        h = build_truncated_hierarchy(g, params=PARAMS, rng=np.random.default_rng(0))
        certs = build_certificate_hierarchy(h)
        layer_cuts = {}
        for i in range(h.depth):
            cum = certs.cumulative(i)
            sup = h.layers[i].support_graph()
            true_cut = (
                stoer_wagner(sup).value
                if sup.m and sup.is_connected() and sup.n >= 2
                else 0.0
            )
            cert_cut = (
                stoer_wagner(cum).value
                if cum.m and cum.is_connected() and cum.n >= 2
                else 0.0
            )
            layer_cuts[i] = cert_cut
            _rows.append([i, int(true_cut), int(cert_cut)])
        return h, certs, layer_cuts

    h, certs, layer_cuts = once(run)
    s = locate_skeleton_layer(layer_cuts, g.n, PARAMS)
    estimate = layer_cuts[s] * 2**s
    _summary.update(
        dict(
            lam=lam,
            s=s,
            estimate=estimate,
            cert_weight=sum(c.total_copies for c in certs.certificates),
            budget=PARAMS.cert_edge_budget(g.n) * g.m,
            depth=h.depth,
            delta=float(certs.cumulative(0).weighted_degrees.min()),
        )
    )


def test_hierarchy_report(once):
    once(_report)


def _report():
    lo, hi = PARAMS.window(40)
    print()
    print(
        format_table(
            ["layer", "min-cut (truncated)", "min-cut (certificates)"],
            _rows,
            title=(
                f"Hierarchy layers (window [{lo:.1f}, {hi:.1f}], "
                f"located s = {_summary['s']})"
            ),
        )
    )
    print(
        f"lambda = {_summary['lam']:.0f}, rescaled estimate = "
        f"{_summary['estimate']:.0f} (ratio {_summary['estimate'] / _summary['lam']:.2f})"
    )
    print(
        f"certificate copies = {_summary['cert_weight']} "
        f"(budget {int(_summary['budget'])})"
    )
    delta = _summary["delta"]
    print(
        f"layer-0 min weighted degree delta = {delta:.0f}; below-window exit "
        f"{'fires' if delta < lo else 'does not fire'} (delta vs lo = {lo:.1f})"
    )
    # monotone decrease of the certificate layer cuts, all bounded by delta
    cert_cuts = [r[2] for r in _rows]
    assert all(cert_cuts[i + 1] <= cert_cuts[i] + 1e-9 for i in range(len(cert_cuts) - 1))
    assert all(c <= delta + 1e-9 for c in cert_cuts)
    # O(1)-approximation through the located layer
    assert 1 / 4 <= _summary["estimate"] / _summary["lam"] <= 4
    # Claim 3.19's participation budget bounds the certificate volume
    assert _summary["cert_weight"] <= _summary["budget"]
