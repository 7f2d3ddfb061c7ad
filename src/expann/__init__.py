"""Annihilation operators for bivariate exponential spaces.

Exact exponential sums and their grid samples (`expspace`), difference and
differential operators annihilating them (`operators`), automatic frequency
detection from samples (`detection`), a level-dependent interpolatory
refinement demo (`subdivision`), the seeded instance generator behind
``expann generate`` (`oracle`), the JSON file formats (`jsonio`) and the
command line (`cli`).
"""

from .expspace import (
    ExponentialSum,
    Frequency,
    FrequencySet,
    FrequencyVector,
    GridSamples,
    sample,
    symmetric_set,
)
from .operators import (
    AnnihilatorChain,
    Direction,
    IntegerStep,
    annihilates,
    chain_apply,
    delta_apply_grid,
    delta_apply_sum,
    diff_apply,
    grid_residual,
    reduced_chain_for_symmetric_set,
)
from .detection import (
    Classification,
    CoshEstimate,
    DetectionReport,
    StencilDirectionSet,
    cosh_to_frequency,
    detect,
    detect_univariate,
)
from .subdivision import (
    InsertionRule,
    auto_refine,
    refine,
    refine_parameter,
    synthesize_rule,
)

__version__ = "0.1.0"

__all__ = [
    "ExponentialSum",
    "Frequency",
    "FrequencySet",
    "FrequencyVector",
    "GridSamples",
    "sample",
    "symmetric_set",
    "AnnihilatorChain",
    "Direction",
    "IntegerStep",
    "annihilates",
    "chain_apply",
    "delta_apply_grid",
    "delta_apply_sum",
    "diff_apply",
    "grid_residual",
    "reduced_chain_for_symmetric_set",
    "Classification",
    "CoshEstimate",
    "DetectionReport",
    "StencilDirectionSet",
    "cosh_to_frequency",
    "detect",
    "detect_univariate",
    "InsertionRule",
    "auto_refine",
    "refine",
    "refine_parameter",
    "synthesize_rule",
    "__version__",
]
