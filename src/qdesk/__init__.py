"""qdesk: numerical verification toolkit for finite-dimensional and
grid-discretized quantum structures — operator calculus, moment and
entropy inequalities, phase-space (Wigner/Weyl) transforms, Feynman–Kac
partition-function bounds, spin-1/2 hidden-variable models, and two-qubit
Bell/Mermin checks.

The package exports each module's ``__all__``.  ``qdesk.moments`` is the
function; the module is ``importlib.import_module("qdesk.moments")``."""

from .operators import *  # noqa: F401,F403
from .moments import *  # noqa: F401,F403 - rebinds ``moments`` to the function
from .phasespace import *  # noqa: F401,F403
from .partition import *  # noqa: F401,F403
from .feynman_kac import *  # noqa: F401,F403
from .spin import *  # noqa: F401,F403
from .bell import *  # noqa: F401,F403

__version__ = "0.1.0"
