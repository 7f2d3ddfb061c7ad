"""Annihilation operators for bivariate exponential spaces.

Exact exponential sums and their grid samples (`expspace`), difference and
differential operators annihilating them (`operators`), automatic frequency
detection from samples (`detection`), a level-dependent interpolatory
refinement demo (`subdivision`), the seeded instance generator behind
``expann generate`` (`oracle`), the JSON file formats (`jsonio`) and the
command line (`cli`).  The package exports the ``__all__`` of the first
four; each public name is listed only there.
"""

from . import detection, expspace, operators, subdivision
from .detection import *  # noqa: F403
from .expspace import *  # noqa: F403
from .operators import *  # noqa: F403
from .subdivision import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*expspace.__all__, *operators.__all__, *detection.__all__,
           *subdivision.__all__, "__version__"]
