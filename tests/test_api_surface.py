"""Snapshot tests for the public ``repro`` API surface.

Guards the unified entry-point contract: every top-level export
resolves, every entry point takes the graph positionally and everything
else keyword-only (the legacy positional shim on
``approximate_minimum_cut`` is gone — positionals now raise TypeError),
and the result types are immutable value objects.
"""

import inspect

import numpy as np
import pytest

import repro
from repro.errors import InvalidParameterError
from repro.graphs import random_connected_graph

#: the documented top-level surface — extending it is fine, but removing
#: or renaming a name is a breaking change and must fail this snapshot
PUBLIC_API = [
    "__version__",
    "Graph",
    "Ledger",
    "minimum_cut",
    "resilient_minimum_cut",
    "approximate_minimum_cut",
    "two_respecting_min_cut",
    "CutEngine",
    "UpdateResult",
    "GraphDelta",
    "ArtifactCache",
    "CutResult",
    "ApproxResult",
    "VerificationReport",
    "RunReport",
    "CutPipelineParams",
    "SkeletonParams",
    "HierarchyParams",
    "ArenaResult",
    "Contender",
    "get_contender",
    "contender_names",
]

ENTRY_POINTS = ["minimum_cut", "resilient_minimum_cut", "approximate_minimum_cut"]


@pytest.fixture
def graph():
    return random_connected_graph(16, 40, rng=2, max_weight=4)


class TestTopLevelExports:
    def test_all_snapshot(self):
        assert repro.__all__ == PUBLIC_API

    @pytest.mark.parametrize("name", PUBLIC_API)
    def test_every_name_resolves(self, name):
        assert getattr(repro, name) is not None

    def test_from_import(self):
        from repro import ApproxResult, CutResult, VerificationReport

        assert CutResult.__module__ == "repro.results"
        assert ApproxResult.__module__ == "repro.results"
        assert VerificationReport.__module__ == "repro.results"

    def test_lazy_exports_are_canonical_objects(self):
        from repro.core.mincut import minimum_cut
        from repro.obs.report import RunReport

        assert repro.minimum_cut is minimum_cut
        assert repro.RunReport is RunReport

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.nope

    def test_dir_lists_lazy_names(self):
        assert set(PUBLIC_API) <= set(dir(repro))


class TestKeywordOnlySignatures:
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_graph_positional_rest_keyword_only(self, name):
        sig = inspect.signature(getattr(repro, name))
        params = list(sig.parameters.values())
        assert params[0].name == "graph"
        assert params[0].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        for p in params[1:]:
            assert p.kind is inspect.Parameter.KEYWORD_ONLY, (
                f"{name}(... {p.name}) must be keyword-only"
            )

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_trace_and_ledger_kwargs_exist(self, name):
        sig = inspect.signature(getattr(repro, name))
        assert "trace" in sig.parameters
        assert sig.parameters["trace"].default is False
        assert "ledger" in sig.parameters

    def test_approximate_has_no_var_positional(self):
        # the old deprecation shim was *args under the hood; the real
        # function must expose (and enforce) the keyword-only signature
        sig = inspect.signature(repro.approximate_minimum_cut)
        kinds = {p.kind for p in sig.parameters.values()}
        assert inspect.Parameter.VAR_POSITIONAL not in kinds

    def test_approximate_rejects_positionals(self, graph):
        # the one-release shim is gone: positionals are a plain TypeError
        with pytest.raises(TypeError):
            repro.approximate_minimum_cut(graph, repro.HierarchyParams())


class TestPipelineParams:
    def test_bundle_and_individual_conflict(self, graph):
        with pytest.raises(InvalidParameterError, match="not both"):
            repro.minimum_cut(
                graph,
                pipeline=repro.CutPipelineParams(),
                decomposition="bough",
                rng=np.random.default_rng(0),
            )

    def test_bundle_passthrough(self, graph):
        pp = repro.CutPipelineParams(decomposition="bough")
        res = repro.minimum_cut(graph, pipeline=pp, rng=np.random.default_rng(0))
        assert res.value > 0

    def test_resolve_from_individuals(self):
        pp = repro.CutPipelineParams.resolve(None, decomposition="bough")
        assert pp.decomposition == "bough"
        assert repro.CutPipelineParams.resolve(pp) is pp


class TestResultImmutability:
    def test_cut_result_stats_read_only(self, graph):
        res = repro.minimum_cut(graph, rng=np.random.default_rng(0))
        with pytest.raises(TypeError):
            res.stats["num_trees"] = -1.0
        with pytest.raises(TypeError):
            del res.stats["num_trees"]
        assert dict(res.stats)  # still readable/copyable

    def test_approx_result_stats_read_only(self, graph):
        res = repro.approximate_minimum_cut(graph, rng=np.random.default_rng(0))
        with pytest.raises(TypeError):
            res.stats["x"] = 1.0

    def test_result_fields_frozen(self, graph):
        res = repro.minimum_cut(graph, rng=np.random.default_rng(0))
        with pytest.raises(AttributeError):
            res.value = 0.0

    def test_verification_report_is_real_type(self, graph):
        res = repro.resilient_minimum_cut(graph, seed=1)
        assert isinstance(res.verification, repro.VerificationReport)
        assert res.verification.ok
        assert res.verification.passed("weight_recompute") in (True, None)
