"""Totient values of integer quadratics.

Exact arithmetic primitives, root counting for quadratic congruences,
inverse-totient enumeration, the largest-prime case survey, and the
numerical exponent lab, with a CLI front end (``quadtotient``).

Each module declares its own public names in its ``__all__``; the package
re-exports exactly those.
"""

from .arith_core import *
from .bound_lab import *
from .case_analysis import *
from .quad_poly import *
from .totient_range import *

__version__ = "0.1.0"

__all__ = (
    arith_core.__all__
    + bound_lab.__all__
    + case_analysis.__all__
    + quad_poly.__all__
    + totient_range.__all__
)
