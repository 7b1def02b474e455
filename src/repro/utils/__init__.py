"""Numeric utilities shared across the library.

The helpers here are intentionally small and dependency-free (NumPy only):
robust scalar root finding (:func:`bisect_root`), scalar minimisation of
unimodal functions (:func:`golden_section_minimize`), tolerance-aware float
comparisons, and simple ASCII table rendering used by the experiment harness.
"""

from repro.utils.numeric import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    close,
    leq,
    geq,
    positive_part,
    relative_gap,
)
from repro.utils.rootfind import bisect_root, expand_upper_bracket
from repro.utils.optimize import golden_section_minimize, grid_refine_minimize
from repro.utils.tables import format_table
from repro.utils.vectorized import (
    expand_upper_brackets,
    vectorized_bisect,
)

__all__ = [
    "DEFAULT_ATOL",
    "DEFAULT_RTOL",
    "close",
    "leq",
    "geq",
    "positive_part",
    "relative_gap",
    "bisect_root",
    "expand_upper_bracket",
    "golden_section_minimize",
    "grid_refine_minimize",
    "format_table",
    "vectorized_bisect",
    "expand_upper_brackets",
]
