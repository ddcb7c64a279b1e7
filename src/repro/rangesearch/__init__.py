"""The cut-query oracle of Section 4.3 and Appendix A, over the
orthogonal range tree of :mod:`repro.kernels.flat2d`."""

from repro.rangesearch.cutqueries import CutOracle, NaiveCutOracle

__all__ = [
    "CutOracle",
    "NaiveCutOracle",
]
