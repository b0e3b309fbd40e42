"""Exact counting, validation, and bound checking for O-sequences.

The package exports every public name of its library modules; each module's
``__all__`` is the one list of them.
"""

from . import bounds, census, errors, macaulay, partitions
from .bounds import *
from .census import *
from .errors import *
from .macaulay import *
from .partitions import *

__version__ = "0.1.0"

__all__ = [
    *bounds.__all__,
    *census.__all__,
    *errors.__all__,
    *macaulay.__all__,
    *partitions.__all__,
]
