"""Permutation-cycle statistics and free-energy bounds for Bose gases on a torus.

The package exports exactly the union of its modules' ``__all__`` lists:
a name is public when it is in its module's ``__all__``.
"""

from .coupling import *
from .cycle_engine import *
from .potentials import *
from .special_fn import *
from .thermo import *
from .wavefunctions import *

__version__ = "0.1.0"

__all__ = (
    coupling.__all__
    + cycle_engine.__all__
    + potentials.__all__
    + special_fn.__all__
    + thermo.__all__
    + wavefunctions.__all__
)
