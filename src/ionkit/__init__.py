"""ionkit: ordinal notations as self-printing programs.

A tiny print-only object language, ordinal arithmetic in Cantor normal form
below epsilon_0, a compiler from ordinals to canonical notation programs
(each program prints the programs for smaller ordinals), a fuel-bounded
membership verifier, and a lineage simulator built on ordinal descent.

The package exports exactly the names in each module's ``__all__``.
"""

from . import lineage, notation, objlang, ordinals
from .objlang import *
from .ordinals import *
from .notation import *
from .lineage import *

__version__ = "0.1.0"

__all__ = [
    "__version__", *objlang.__all__, *ordinals.__all__, *notation.__all__, *lineage.__all__,
]
