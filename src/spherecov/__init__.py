"""Covariance operator fields of probability distributions on the unit sphere.

Two workbenches share the geometry core: nonparametric two-sample location
tests built from projections onto eigenvectors of a covariance operator
difference, and interpolation of discrete spherical distributions by
minimizing similarity-invariant operator functionals over the probability
simplex.

Each module's ``__all__`` is the one list of its public names; the package
re-exports all of them.
"""

from .errors import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .spd import *  # noqa: F401,F403
from .simplex import *  # noqa: F401,F403
from .fields import *  # noqa: F401,F403
from .ranktests import *  # noqa: F401,F403
from .twosample import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403
from .interpolation import *  # noqa: F401,F403
from . import errors, geometry, spd, simplex, fields, ranktests, twosample, sampling, interpolation

__version__ = "0.1.0"

__all__ = [
    *errors.__all__, *geometry.__all__, *spd.__all__, *simplex.__all__, *fields.__all__,
    *ranktests.__all__, *twosample.__all__, *sampling.__all__, *interpolation.__all__,
    "__version__",
]
